"""Declarative binding-constraint decision trees over named indicators.

A tree is a forest of question chains, shipped as editable JSON data with
three top-level keys: ``roots`` (ids evaluated in order), ``nodes`` (id to
node) and ``manifest`` (indicator names the predicates may reference, with
optional unit tags). Each node asks one question about one scalar
indicator; its branches either continue to another node or settle the
chain's constraint as binding or not binding.

Evaluation is pure: the same tree and indicator set always produce the
same report, byte for byte once serialized.
"""
from __future__ import annotations

import json
import math
from numbers import Real
from pathlib import Path
from typing import Any, Mapping

from ._record import Record
from .errors import (
    CycleError,
    DanglingReferenceError,
    DuplicateKeyError,
    EvaluationError,
    IndicatorTypeError,
    ManifestError,
    SchemaError,
    TreeConfigError,
)

COMPARATORS = ("<", "<=", ">", ">=", "=", "trend_up", "trend_down", "stable")
_THRESHOLD_COMPARATORS = ("<", "<=", ">", ">=", "=")
_TOLERANCE_COMPARATORS = ("=", "stable")
VERDICTS = ("binding", "not_binding")

_BUILTIN_TREE_RESOURCE = "bihar_tree.json"


def _is_number(value) -> bool:
    # ``bool`` subclasses ``int``, so JSON ``true`` must be kept out
    return isinstance(value, Real) and not isinstance(value, bool)


class Indicator(Record, frozen=True):
    """A named quantity with a units tag and a note on where it came from."""

    name: str
    value: Any  # scalar (Real) or series (mapping year -> value)
    units: str = ""
    provenance: str = ""

    @property
    def is_scalar(self) -> bool:
        return _is_number(self.value)


class IndicatorSet:
    """Unique-name collection of indicators, the input to ``evaluate``."""

    def __init__(self) -> None:
        self._items: dict[str, Indicator] = {}

    def add(self, name: str, value, units: str = "", provenance: str = "") -> None:
        if name in self._items:
            raise DuplicateKeyError(f"indicator {name!r} already present")
        self._items[name] = Indicator(name, value, units, provenance)

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __getitem__(self, name: str) -> Indicator:
        return self._items[name]

    def get(self, name: str) -> Indicator | None:
        return self._items.get(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._items))

    def to_dict(self) -> dict:
        out: dict = {}
        for name in self.names:
            ind = self._items[name]
            if ind.is_scalar:
                value = float(ind.value)
            elif isinstance(ind.value, Mapping):
                value = [[int(k), float(v)] for k, v in sorted(ind.value.items())]
            else:
                value = ind.value
            out[name] = {"value": value, "units": ind.units,
                         "provenance": ind.provenance}
        return out

    @classmethod
    def from_dict(cls, data, what: str = "indicator set") -> "IndicatorSet":
        """The inverse of ``to_dict``. Each value must be a number or a
        list of ``[year, number]`` pairs; anything else raises SchemaError
        starting with WHAT and naming the indicator."""
        if not isinstance(data, dict):
            raise SchemaError(f"{what}: must be an object mapping indicator "
                              f"names to entries, got {data!r}")
        out = cls()
        for name in sorted(data):
            entry = data[name]
            if not (isinstance(entry, dict) and "value" in entry):
                raise SchemaError(f"{what}: indicator {name!r} must be an "
                                  f"object with a 'value', got {entry!r}")
            value = entry["value"]
            if isinstance(value, list):
                if not all(isinstance(pair, list) and len(pair) == 2
                           and type(pair[0]) is int and _is_number(pair[1])
                           for pair in value):
                    raise SchemaError(
                        f"{what}: indicator {name!r}: series {value!r} must "
                        "be a list of [year, number] pairs")
                value = {y: float(v) for y, v in value}
            elif not _is_number(value):
                raise SchemaError(f"{what}: indicator {name!r}: value "
                                  f"{value!r} is not a number")
            out.add(name, value, entry.get("units", ""),
                    entry.get("provenance", ""))
        return out


class Predicate(Record, frozen=True):
    """One comparison against a scalar indicator.

    Threshold comparators (``<  <=  >  >=  =``) test the value against
    ``threshold`` (``=`` within ``tolerance``). Trend comparators read the
    value as a signed change: ``trend_up`` means it is positive,
    ``trend_down`` negative, and ``stable`` within ``tolerance`` of zero.
    """

    indicator: str
    comparator: str
    threshold: float | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.comparator not in COMPARATORS:
            raise TreeConfigError(
                f"unknown comparator {self.comparator!r}; "
                f"expected one of {COMPARATORS}"
            )
        for name in ("threshold", "tolerance"):
            value = getattr(self, name)
            if value is not None and not (_is_number(value)
                                          and math.isfinite(value)):
                raise TreeConfigError(
                    f"{name} of {self.comparator!r} on {self.indicator!r} "
                    f"must be a finite number, got {value!r}"
                )
        needs_threshold = self.comparator in _THRESHOLD_COMPARATORS
        if needs_threshold and self.threshold is None:
            raise TreeConfigError(
                f"comparator {self.comparator!r} on {self.indicator!r} "
                "requires a threshold"
            )
        if not needs_threshold and self.threshold is not None:
            raise TreeConfigError(
                f"comparator {self.comparator!r} on {self.indicator!r} "
                "does not take a threshold"
            )
        needs_tolerance = self.comparator in _TOLERANCE_COMPARATORS
        if needs_tolerance and (self.tolerance is None or self.tolerance < 0):
            raise TreeConfigError(
                f"comparator {self.comparator!r} on {self.indicator!r} "
                "requires a non-negative tolerance"
            )
        if not needs_tolerance and self.tolerance is not None:
            raise TreeConfigError(
                f"comparator {self.comparator!r} on {self.indicator!r} "
                "does not take a tolerance"
            )

    def holds(self, value: float) -> bool:
        c = self.comparator
        if c == "<":
            return value < self.threshold
        if c == "<=":
            return value <= self.threshold
        if c == ">":
            return value > self.threshold
        if c == ">=":
            return value >= self.threshold
        if c == "=":
            return abs(value - self.threshold) <= self.tolerance
        if c == "trend_up":
            return value > 0.0
        if c == "trend_down":
            return value < 0.0
        return abs(value) <= self.tolerance  # stable

    def severity(self, value: float) -> float:
        """Normalized distance past the decision boundary (>= 0 when the
        predicate holds); used to rank simultaneous binding constraints."""
        c = self.comparator
        if c in ("<", "<=", ">", ">="):
            scale = abs(self.threshold) if self.threshold else 1.0
            distance = (value - self.threshold if c in (">", ">=")
                        else self.threshold - value)
            return distance / scale
        if c == "=":
            if self.tolerance == 0:
                return 0.0
            return (self.tolerance - abs(value - self.threshold)) / self.tolerance
        if c in ("trend_up", "trend_down"):
            return abs(value)
        if self.tolerance == 0:  # stable
            return 0.0
        return (self.tolerance - abs(value)) / self.tolerance


class Branch(Record, frozen=True):
    """Either a pointer to the next node or a terminal verdict."""

    node: str | None = None
    verdict: str | None = None

    def __post_init__(self) -> None:
        if (self.node is None) == (self.verdict is None):
            raise TreeConfigError(
                "each branch must carry exactly one of a child node id or a "
                "verdict"
            )
        if self.verdict is not None and self.verdict not in VERDICTS:
            raise TreeConfigError(
                f"verdict must be one of {VERDICTS}, got {self.verdict!r}"
            )


class DiagnosticNode(Record, frozen=True):
    id: str
    question: str
    predicate: Predicate
    on_true: Branch
    on_false: Branch
    constraint_label: str | None = None


class DiagnosticTree:
    """Validated forest of diagnostic question chains."""

    def __init__(self, nodes: Mapping[str, DiagnosticNode], roots: list[str],
                 manifest: Mapping[str, str]) -> None:
        self.nodes = dict(nodes)
        self.roots = list(roots)
        self.manifest = dict(manifest)
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        if not self.roots:
            raise TreeConfigError("tree has no roots")
        for root in self.roots:
            if root not in self.nodes:
                raise DanglingReferenceError(f"root {root!r} is not a node")
        for node in self.nodes.values():
            for branch in (node.on_true, node.on_false):
                if branch.node is not None and branch.node not in self.nodes:
                    raise DanglingReferenceError(
                        f"node {node.id!r} references missing child "
                        f"{branch.node!r}"
                    )
            if node.predicate.indicator not in self.manifest:
                raise ManifestError(
                    f"node {node.id!r} references indicator "
                    f"{node.predicate.indicator!r} missing from the manifest"
                )
        reached: set[str] = set()
        chains: list[tuple[str, set[str]]] = []
        for root in self.roots:
            nodes, labels = self._walk(root)
            reached |= nodes
            chains.append((root, labels))
        orphans = sorted(set(self.nodes) - reached)
        if orphans:
            raise TreeConfigError(f"nodes unreachable from any root: {orphans}")
        # One constraint label per chain guarantees every label receives
        # exactly one verdict per evaluation.
        seen_labels: dict[str, str] = {}
        for root, labels in chains:
            if len(labels) > 1:
                raise TreeConfigError(
                    f"chain rooted at {root!r} mixes constraint labels "
                    f"{sorted(labels)}; use one label per chain"
                )
            for label in labels:
                if label in seen_labels and seen_labels[label] != root:
                    raise TreeConfigError(
                        f"constraint label {label!r} appears under two roots "
                        f"({seen_labels[label]!r} and {root!r})"
                    )
                seen_labels[label] = root

    def _walk(self, root: str) -> tuple[set[str], set[str]]:
        """Iterative depth-first walk from ``root``, linear in nodes plus
        edges: raise on a back edge, else return the reached node ids and
        the constraint labels among them."""
        path = {root: self._children(root)}  # insertion order is the path
        done: set[str] = set()
        while path:
            node_id, children = next(reversed(path.items()))
            child = next(children, None)
            if child is None:
                path.popitem()
                done.add(node_id)
            elif child in path:
                raise CycleError(
                    f"cycle detected: back edge {node_id!r} -> {child!r}"
                )
            elif child not in done:
                path[child] = self._children(child)
        labels = {self.nodes[n].constraint_label for n in done} - {None}
        return done, labels

    def _children(self, node_id: str):
        node = self.nodes[node_id]
        return (b.node for b in (node.on_true, node.on_false)
                if b.node is not None)

def _parse_branch(raw, name: str) -> Branch:
    if not isinstance(raw, Mapping):
        raise TreeConfigError(f"{name} must be an object with 'node' or 'verdict'")
    unknown = set(raw) - {"node", "verdict"}
    if unknown:
        raise TreeConfigError(f"{name} has unknown keys {sorted(unknown)}")
    child = raw.get("node")
    if child is not None and not isinstance(child, str):
        raise TreeConfigError(f"{name} node id must be a string, got {child!r}")
    return Branch(node=child, verdict=raw.get("verdict"))


def _parse_node(node_id: str, raw) -> DiagnosticNode:
    if not isinstance(raw, Mapping):
        raise TreeConfigError(f"must be an object, got {raw!r}")
    pred_raw = raw.get("predicate")
    if not isinstance(pred_raw, Mapping) or "indicator" not in pred_raw:
        raise TreeConfigError("needs a predicate with an indicator")
    comparator = str(pred_raw.get("comparator", ""))
    if comparator == "==":
        comparator = "="
    label = raw.get("constraint_label")
    if label is not None and not isinstance(label, str):
        raise TreeConfigError(f"constraint_label must be a string, got {label!r}")
    return DiagnosticNode(
        id=node_id,
        question=str(raw.get("question", "")),
        predicate=Predicate(
            indicator=str(pred_raw["indicator"]),
            comparator=comparator,
            threshold=pred_raw.get("threshold"),
            tolerance=pred_raw.get("tolerance"),
        ),
        on_true=_parse_branch(raw.get("on_true"), "on_true"),
        on_false=_parse_branch(raw.get("on_false"), "on_false"),
        constraint_label=label,
    )


def tree_from_dict(config: Mapping) -> DiagnosticTree:
    """Build and validate a tree from parsed config data."""
    if not isinstance(config, Mapping):
        raise TreeConfigError("tree config must be a JSON object")
    for key in ("roots", "nodes", "manifest"):
        if key not in config:
            raise TreeConfigError(f"tree config is missing top-level {key!r}")
    manifest_raw, nodes_raw = config["manifest"], config["nodes"]
    if isinstance(manifest_raw, Mapping):
        manifest = {str(k): str(v) for k, v in manifest_raw.items()}
    elif isinstance(manifest_raw, (list, tuple)):
        manifest = {str(name): "" for name in manifest_raw}
    else:
        raise TreeConfigError(
            "tree config 'manifest' must be an object or a list of names")
    if not isinstance(nodes_raw, Mapping):
        raise TreeConfigError("tree config 'nodes' must be an object of nodes")
    if not isinstance(config["roots"], (list, tuple)):
        raise TreeConfigError("tree config 'roots' must be a list of node ids")
    nodes: dict[str, DiagnosticNode] = {}
    for node_id, raw in nodes_raw.items():
        try:
            nodes[str(node_id)] = _parse_node(str(node_id), raw)
        except TreeConfigError as exc:
            raise TreeConfigError(f"node {node_id!r}: {exc}") from None
    return DiagnosticTree(nodes, [str(r) for r in config["roots"]], manifest)


def load_tree(source) -> DiagnosticTree:
    """Load a tree from JSON text, a path (UTF-8, with or without a
    byte-order mark), or an open stream."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r", encoding="utf-8-sig") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise TreeConfigError(
                    f"tree config {source}: not UTF-8 text ({exc.reason})"
                ) from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeConfigError(f"tree config is not valid JSON: {exc}") from None
    return tree_from_dict(config)


def builtin_bihar_tree() -> DiagnosticTree:
    """The shipped default tree for a Bihar-style crop-sector diagnosis.

    Five chains, one per candidate constraint: agricultural land,
    technology, agricultural markets, crop diversification and input
    costs. The thresholds are editable defaults, not measured constants;
    copy and adapt the underlying JSON for other regions.
    """
    return load_tree(Path(__file__).with_name("data") / _BUILTIN_TREE_RESOURCE)


def resolve_tree(selector: str, config_dir) -> DiagnosticTree:
    """``"builtin"`` or a tree JSON path, relative to ``config_dir``."""
    if selector == "builtin":
        return builtin_bihar_tree()
    return load_tree(config_dir / selector)


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


def _scalar_value(indicators: IndicatorSet, name: str,
                  manifest_units: str, node_id: str) -> float:
    indicator = indicators.get(name)
    if indicator is None:
        raise EvaluationError(
            f"indicator {name!r} (node {node_id!r}) missing from indicator set"
        )
    if not indicator.is_scalar:
        raise IndicatorTypeError(
            f"indicator {name!r} (node {node_id!r}) is a series; predicates "
            "need scalars, reduce it upstream"
        )
    if manifest_units and indicator.units and manifest_units != indicator.units:
        raise EvaluationError(
            f"indicator {name!r} has units {indicator.units!r} but the tree "
            f"expects {manifest_units!r}"
        )
    value = float(indicator.value)
    if not math.isfinite(value):
        raise EvaluationError(f"indicator {name!r} is not finite: {value!r}")
    return value


def evaluate(tree: DiagnosticTree, indicators: IndicatorSet) -> DiagnosticReport:
    """Walk every chain of the tree against the indicators.

    Each chain ends in exactly one verdict; the verdict is attributed to
    the chain's constraint label (the most recent labeled node on the
    path). Binding constraints are ranked by how far the deciding value
    sits past its threshold, normalized by the threshold's magnitude.
    """
    for name in tree.manifest:
        if name not in indicators:
            raise EvaluationError(
                f"manifest indicator {name!r} missing from indicator set"
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
            value = _scalar_value(
                indicators, pred.indicator,
                tree.manifest.get(pred.indicator, ""), node.id,
            )
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
                        binding[label] = pred.severity(value)
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
