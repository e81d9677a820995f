"""Declarative binding-constraint decision trees over named indicators:
the indicator set, reading a tree's JSON, and evaluation.

The tree model, with what a valid tree is, lives in ``tree``. Evaluation
is pure: the same tree and indicator set always produce the same report,
byte for byte once serialized.
"""
from __future__ import annotations

import math
from numbers import Real
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ._record import Record
from .errors import (
    DomainError,
    EvaluationError,
    IndicatorTypeError,
    SchemaError,
    TreeConfigError,
)
from .serialize import Refused, finite, integer, json_object, read_json, string
from .tree import tree_from_dict

if TYPE_CHECKING:
    from .tree import DiagnosticTree

_BUILTIN_TREE_RESOURCE = "bihar_tree.json"


def read_indicators(data, what: str = "indicator set") -> dict:
    """``indicators.json``'s dict, checked: each value a finite number or a
    list of ``[year, number]`` pairs (read as {year: number}), units and
    provenance strings (by default empty); anything else raises
    SchemaError naming WHAT and the indicator."""
    if type(data) is not dict:
        raise SchemaError(f"{what}: must be an object mapping indicator "
                          f"names to entries, got {data!r}")
    out = {}
    for name in sorted(data):
        entry = data[name]
        if type(entry) is not dict or "value" not in entry:
            raise SchemaError(f"{what}: indicator {name!r} must be an "
                              f"object with a 'value', got {entry!r}")
        try:
            out[name] = {"value": _value(entry["value"]), **_ENTRY(entry)}
        except Refused as exc:
            raise SchemaError(f"{what}: indicator {name!r}: {exc}") from None
    return out


_ENTRY = json_object({"units": (string, ""), "provenance": (string, "")})


def _value(value):
    """An indicator file's value: a finite number, or a list of
    [year, number] pairs, read as {year: number}."""
    series = type(value) is list
    try:
        return ({integer(year): float(finite(number)) for year, number in value}
                if series else finite(value))
    except (TypeError, ValueError):  # a number refused, or not a pair
        raise Refused(
            f"series {value!r} must be a list of [year, number] pairs"
            if series else f"value {value!r} is not a number") from None


def load_tree(path) -> DiagnosticTree:
    """Load a tree from a JSON file at PATH, read as UTF-8 with or without
    a byte-order mark. Every error starts with ``tree config <path>:``."""
    try:
        return tree_from_dict(read_json(Path(path), "tree config"))
    except TreeConfigError as exc:
        raise type(exc)(f"tree config {path}: {exc}") from None
    except SchemaError as exc:  # bad bytes or syntax, the file named
        raise TreeConfigError(str(exc)) from None


def builtin_bihar_tree() -> DiagnosticTree:
    """The shipped default tree for a Bihar-style crop-sector diagnosis.

    Five chains, one per candidate constraint: agricultural land,
    technology, agricultural markets, crop diversification and input
    costs. The thresholds are editable defaults, not measured constants;
    copy and adapt the underlying JSON for other regions.
    """
    return load_tree(Path(__file__).with_name("data") / _BUILTIN_TREE_RESOURCE)


def resolve_tree(selector) -> DiagnosticTree:
    """``"builtin"`` or a tree JSON path."""
    if selector == "builtin":
        return builtin_bihar_tree()
    return load_tree(Path(selector))


# -- evaluation ----------------------------------------------------------


class DiagnosticReport(Record, frozen=True):
    """Outcome of evaluating a tree: verdicts plus the evidence trail."""

    binding_constraints: tuple[str, ...]
    non_binding: tuple[str, ...]
    severity: dict[str, float]
    evidence: dict[str, dict]
    trace: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {
            "binding_constraints": list(self.binding_constraints),
            "non_binding": list(self.non_binding),
            "severity": dict(self.severity),
            "evidence": self.evidence,
            "trace": list(self.trace),
        }

    def to_text(self) -> str:
        lines = []
        if self.binding_constraints:
            lines.append("Binding constraints (most severe first):")
            for label in self.binding_constraints:
                ev = self.evidence[label]
                lines.append(
                    f"  - {label}: {ev['indicator']} = {ev['value']:g} "
                    f"(severity {self.severity[label]:.2f})"
                )
        else:
            lines.append("Binding constraints: none")
        lines.append("Not binding:")
        for label in self.non_binding:
            ev = self.evidence[label]
            lines.append(f"  - {label}: {ev['indicator']} = {ev['value']:g}")
        return "\n".join(lines) + "\n"


def _scalar_value(indicators: Mapping[str, dict], name: str,
                  node_id: str) -> float:
    value = indicators[name]["value"]
    # ``bool`` subclasses ``int``, so ``True`` must be kept out
    if not isinstance(value, Real) or isinstance(value, bool):
        raise IndicatorTypeError(
            f"indicator {name!r} (node {node_id!r}) is a series; predicates "
            "need scalars, reduce it upstream"
        )
    value = float(value)
    if not math.isfinite(value):
        raise EvaluationError(f"indicator {name!r} is not finite: {value!r}")
    return value


def evaluate(tree: DiagnosticTree,
             indicators: Mapping[str, dict]) -> DiagnosticReport:
    """Walk every chain of the tree against INDICATORS, in
    ``indicators.json``'s form: {name: {"value", "units", "provenance"}}.

    First the tree is refused if its manifest names an indicator not in
    INDICATORS, then, in manifest order, if it gives one a units tag other
    than the indicator's, where both are non-empty.

    Each chain ends in exactly one verdict; the verdict is attributed to
    the chain's constraint label (the most recent labeled node on the
    path). Binding constraints are ranked by how far the deciding value
    sits past its threshold, normalized by the threshold's magnitude; a
    severity past the float range raises ``DomainError`` naming the node.
    """
    for name in tree.manifest:
        if name not in indicators:
            raise EvaluationError(
                f"manifest indicator {name!r} missing from indicator set"
            )
    for name, expected in tree.manifest.items():
        units = indicators[name]["units"]
        if expected and units and expected != units:
            raise EvaluationError(
                f"indicator {name!r} has units {units!r} but the tree "
                f"expects {expected!r}"
            )
    binding: dict[str, float] = {}
    non_binding: list[str] = []
    evidence: dict[str, dict] = {}
    trace: list[dict] = []
    for root in tree.roots:
        steps: list[dict] = []
        label: str | None = None
        node = tree.nodes[root]
        while True:
            pred = node.predicate
            value = _scalar_value(indicators, pred.indicator, node.id)
            result = pred.holds(value)
            steps.append({
                "node": node.id,
                "question": node.question,
                "indicator": pred.indicator,
                "value": value,
                "comparator": pred.comparator,
                "threshold": pred.threshold,
                "tolerance": pred.tolerance,
                "result": result,
            })
            if node.constraint_label is not None:
                label = node.constraint_label
            branch = node.on_true if result else node.on_false
            if branch.verdict is not None:
                if label is not None:
                    evidence[label] = dict(steps[-1])
                    if branch.verdict == "binding":
                        binding[label] = severity = pred.severity(value)
                        if not math.isfinite(severity):
                            raise DomainError(
                                f"node {node.id!r}: the severity of "
                                f"{pred.indicator!r} = {value!r} against "
                                f"threshold {pred.threshold!r} overflows "
                                f"a float")
                    else:
                        non_binding.append(label)
                trace.append({
                    "root": root,
                    "constraint_label": label,
                    "verdict": branch.verdict,
                    "steps": steps,
                })
                break
            node = tree.nodes[branch.node]
    ranked = sorted(binding, key=lambda lab: (-binding[lab], lab))
    return DiagnosticReport(
        binding_constraints=tuple(ranked),
        non_binding=tuple(sorted(non_binding)),
        severity={lab: binding[lab] for lab in ranked},
        evidence=evidence,
        trace=tuple(trace),
    )
