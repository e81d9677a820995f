"""The diagnostic tree model and its validation.

A tree is a forest of question chains, shipped as editable JSON data with
three top-level keys: ``roots`` (ids evaluated in order), ``nodes`` (id to
node) and ``manifest`` (indicator names the predicates may reference, with
optional unit tags). Each node asks one question about one scalar
indicator; its branches either continue to another node or settle the
chain's constraint as binding or not binding. ``tree_from_dict`` builds a
tree from parsed JSON and rejects any that breaks these rules; reading the
JSON and evaluating a tree are ``diagnostics``' part.
"""
from __future__ import annotations

from operator import ge, gt, le, lt
from typing import Mapping

from ._record import Record
from .errors import (
    CycleError,
    DanglingReferenceError,
    ManifestError,
    TreeConfigError,
)
from .serialize import Refused, finite, json_object, string, strings

# each comparator's rule, which validation, ``holds`` and ``severity``
# read: its test, and whether it takes a threshold. A test orders the
# value against the threshold, or against zero as a trend's sign test;
# None is the tolerance test, centred on the threshold, or else on zero
_RULES = {"<": (lt, True), "<=": (le, True), ">": (gt, True),
          ">=": (ge, True), "=": (None, True), "trend_up": (gt, False),
          "trend_down": (lt, False), "stable": (None, False)}
COMPARATORS = tuple(_RULES)
VERDICTS = ("binding", "not_binding")


class Predicate(Record, frozen=True):
    """One comparison against a scalar indicator, by its comparator's
    rule; a comparator that takes no threshold reads the value as a signed
    change."""

    indicator: str
    comparator: str
    threshold: float | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.comparator not in _RULES:
            raise TreeConfigError(
                f"unknown comparator {self.comparator!r}; "
                f"expected one of {COMPARATORS}"
            )
        test, takes_threshold = _RULES[self.comparator]
        if (self.threshold is None) == takes_threshold:
            verb = "requires" if takes_threshold else "does not take"
            fault = f"{verb} a threshold"
        elif test is None and (self.tolerance is None or self.tolerance < 0):
            fault = "requires a non-negative tolerance"
        elif test is not None and self.tolerance is not None:
            fault = "does not take a tolerance"
        else:
            return
        raise TreeConfigError(
            f"comparator {self.comparator!r} on {self.indicator!r} {fault}")

    def holds(self, value: float) -> bool:
        # zero in place of a -0.0 threshold too: no test tells them apart
        test, centre = _RULES[self.comparator][0], self.threshold or 0.0
        if test is None:
            return abs(value - centre) <= self.tolerance
        return test(value, centre)

    def severity(self, value: float) -> float:
        """Normalized distance past the decision boundary (>= 0 when the
        predicate holds); used to rank simultaneous binding constraints."""
        test, threshold = _RULES[self.comparator][0], self.threshold
        if test is None:
            tolerance = self.tolerance
            return ((tolerance - abs(value - (threshold or 0.0))) / tolerance
                    if tolerance else 0.0)
        if threshold is None:  # a trend
            return abs(value)
        scale = abs(threshold) if threshold else 1.0
        return (value - threshold if test in (gt, ge)
                else threshold - value) / scale


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
        if len(set(self.roots)) < len(self.roots):
            twice = next(r for r in self.roots if self.roots.count(r) > 1)
            raise TreeConfigError(f"root {twice!r} is listed twice")
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


_BRANCH = json_object({"node": (string, None), "verdict": (string, None)},
                      closed=True)
_NODE = json_object({
    "question": (string, ""),
    "predicate": json_object({
        "indicator": string,
        "comparator": string,
        "threshold": (finite, None),
        "tolerance": (finite, None),
    }),
    "constraint_label": (string, None),
    "on_true": _BRANCH,
    "on_false": _BRANCH,
})
# each node is decoded in turn, so that its errors name it
_TREE = json_object({"roots": strings, "nodes": json_object(lambda node: node),
                     "manifest": json_object(string)})


def tree_from_dict(config: Mapping) -> DiagnosticTree:
    """Build and validate a tree from parsed config data."""
    try:
        tree = _TREE(config)
    except Refused as exc:
        if exc.keys:  # a top-level key is quoted, as the ids in errors are
            exc.keys = (repr(exc.keys[0]), *exc.keys[1:])
        raise TreeConfigError(str(exc)) from None
    nodes: dict[str, DiagnosticNode] = {}
    for node_id, raw in tree["nodes"].items():
        try:
            node = _NODE(raw)
            nodes[node_id] = DiagnosticNode(
                node_id, predicate=Predicate(**node.pop("predicate")),
                on_true=Branch(**node.pop("on_true")),
                on_false=Branch(**node.pop("on_false")), **node)
        except (Refused, TreeConfigError) as exc:
            raise TreeConfigError(f"node {node_id!r}: {exc}") from None
    return DiagnosticTree(nodes, tree["roots"], tree["manifest"])
