import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrodiag.diagnostics import (
    builtin_bihar_tree,
    evaluate,
    load_tree,
    read_indicators,
)
from agrodiag.errors import (
    CycleError,
    DanglingReferenceError,
    DomainError,
    EvaluationError,
    IndicatorTypeError,
    ManifestError,
    TreeConfigError,
)
from agrodiag.fixtures import bihar_reference_indicators
from agrodiag.serialize import json_text
from agrodiag.tree import COMPARATORS, Predicate, tree_from_dict

from helpers import predicate_oracle


def single_node_config(**overrides):
    config = {
        "manifest": {"x": ""},
        "roots": ["only"],
        "nodes": {
            "only": {
                "question": "is x large?",
                "predicate": {"indicator": "x", "comparator": ">",
                              "threshold": 10.0},
                "constraint_label": "bigness",
                "on_true": {"verdict": "binding"},
                "on_false": {"verdict": "not_binding"},
            },
        },
    }
    config.update(overrides)
    return config


def labels(tree):
    """The constraint labels of TREE's nodes, sorted."""
    return tuple(sorted({node.constraint_label for node in tree.nodes.values()}
                        - {None}))


def indicators(**values):
    """An indicator set, in ``indicators.json``'s form, of VALUES with
    empty units and provenance."""
    return {name: {"value": value, "units": "", "provenance": ""}
            for name, value in values.items()}


class TestLoadTree:
    def test_single_node_tree_loads(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(single_node_config()))
        tree = load_tree(path)
        assert tree.roots == ["only"]
        assert labels(tree) == ("bigness",)

    def test_mutual_reference_is_a_cycle(self):
        config = single_node_config()
        config["nodes"]["only"]["on_true"] = {"node": "other"}
        config["nodes"]["other"] = {
            "question": "loop?",
            "predicate": {"indicator": "x", "comparator": ">", "threshold": 0.0},
            "on_true": {"node": "only"},
            "on_false": {"verdict": "not_binding"},
        }
        with pytest.raises(CycleError, match="other.*only"):
            tree_from_dict(config)

    def test_dangling_child(self):
        config = single_node_config()
        config["nodes"]["only"]["on_false"] = {"node": "ghost"}
        with pytest.raises(DanglingReferenceError, match="ghost"):
            tree_from_dict(config)

    def test_undeclared_indicator_is_manifest_error(self):
        config = single_node_config(manifest={"y": ""})
        with pytest.raises(ManifestError, match="'x'"):
            tree_from_dict(config)

    def test_unknown_comparator(self):
        config = single_node_config()
        config["nodes"]["only"]["predicate"]["comparator"] = "~"
        with pytest.raises(TreeConfigError, match="comparator"):
            tree_from_dict(config)

    def test_branch_needs_exactly_one_target(self):
        config = single_node_config()
        config["nodes"]["only"]["on_true"] = {"node": "only",
                                              "verdict": "binding"}
        with pytest.raises(TreeConfigError):
            tree_from_dict(config)

    def test_unreachable_node_rejected(self):
        config = single_node_config()
        config["nodes"]["island"] = {
            "question": "?", "predicate": {"indicator": "x", "comparator": ">",
                                           "threshold": 0.0},
            "on_true": {"verdict": "binding"},
            "on_false": {"verdict": "not_binding"},
        }
        with pytest.raises(TreeConfigError, match="island"):
            tree_from_dict(config)

    def test_mixed_labels_in_one_chain_rejected(self):
        config = single_node_config()
        config["nodes"]["only"]["on_true"] = {"node": "next"}
        config["nodes"]["next"] = {
            "question": "?", "predicate": {"indicator": "x", "comparator": ">",
                                           "threshold": 0.0},
            "constraint_label": "otherness",
            "on_true": {"verdict": "binding"},
            "on_false": {"verdict": "not_binding"},
        }
        with pytest.raises(TreeConfigError, match="one label per chain"):
            tree_from_dict(config)

    def test_label_shared_across_roots_rejected(self):
        config = single_node_config()
        config["roots"] = ["only", "twin"]
        config["nodes"]["twin"] = dict(config["nodes"]["only"])
        with pytest.raises(TreeConfigError, match="two roots"):
            tree_from_dict(config)

    def test_root_listed_twice_rejected(self):
        config = single_node_config()
        config["roots"] = ["only", "only"]
        with pytest.raises(TreeConfigError, match="root 'only' is listed twice"):
            tree_from_dict(config)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text("{not json")
        with pytest.raises(TreeConfigError, match="JSON"):
            load_tree(path)

    def test_byte_order_mark_in_file_is_dropped(self, tmp_path):
        path, plain = tmp_path / "tree.json", tmp_path / "plain.json"
        text = json.dumps(single_node_config())
        path.write_bytes(text.encode("utf-8-sig"))
        plain.write_text(text)
        with_bom, without = load_tree(path), load_tree(plain)
        assert (with_bom.nodes, with_bom.roots, with_bom.manifest) == \
            (without.nodes, without.roots, without.manifest)

    @pytest.mark.parametrize("key,value", [
        ("nodes", ["only"]),
        ("nodes", "only"),
        ("roots", "only"),
        ("roots", 7),
        ("manifest", 7),
        ("manifest", ["x"]),
        ("manifest", {"x": ["unit"]}),
        ("roots", ["only", 5]),
    ])
    def test_malformed_top_level_value(self, key, value):
        with pytest.raises(TreeConfigError, match=repr(key)):
            tree_from_dict(single_node_config(**{key: value}))

    @pytest.mark.parametrize("config", [[], "tree", 7])
    def test_config_must_be_an_object(self, config):
        with pytest.raises(TreeConfigError, match="object"):
            tree_from_dict(config)

    @pytest.mark.parametrize("mutate", [
        lambda node: "not a node",
        lambda node: ["a", "list"],
        lambda node: node["predicate"].update(threshold=float("nan")),
        lambda node: node["predicate"].update(threshold=float("inf")),
        lambda node: node["predicate"].update(threshold="5"),
        lambda node: node["predicate"].update(threshold=True),
        lambda node: node["predicate"].update(
            comparator="=", threshold=1.0, tolerance="0.1"),
        lambda node: node["predicate"].update(
            comparator="=", threshold=1.0, tolerance=float("nan")),
        lambda node: node.update(constraint_label=["a"]),
        lambda node: node.update(on_true={"node": ["x"]}),
        lambda node: node["predicate"].update(threshold=10 ** 400),
        lambda node: node["predicate"].update(
            comparator="=", threshold=1.0, tolerance=10 ** 400),
        lambda node: node["predicate"].update(
            comparator="==", threshold=1.0, tolerance=0.1),
        lambda node: node["predicate"].update(indicator=5),
        lambda node: node.update(question=5),
        lambda node: node.update(question=None),
        lambda node: node.update(question=["a", "list"]),
    ])
    def test_malformed_node_names_the_node(self, mutate):
        config = single_node_config()
        node = config["nodes"]["only"]
        replacement = mutate(node)
        if replacement is not None:
            config["nodes"]["only"] = replacement
        with pytest.raises(TreeConfigError, match="node 'only'"):
            tree_from_dict(config)


ORDERINGS = ("<", "<=", ">", ">=")
TRENDS = ("trend_up", "trend_down")
# the float edges: both zeros, the largest finite and the least subnormal
EDGES = (0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324)
FLOATS = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def valid_parameters(draw):
    """A comparator with a threshold and tolerance it accepts."""
    comparator = draw(st.sampled_from(COMPARATORS))
    threshold = tolerance = None
    if comparator not in (*TRENDS, "stable"):
        threshold = draw(FLOATS)
    if comparator in ("=", "stable"):
        tolerance = draw(st.one_of(
            st.sampled_from((0.0, -0.0, 5e-324, 1e308)),
            st.floats(min_value=0.0, allow_infinity=False)))
    return comparator, threshold, tolerance


class TestPredicate:
    @pytest.mark.parametrize("comparator, threshold, tolerance, message", [
        ("~", None, None, "unknown comparator '~'; expected one of "
         "('<', '<=', '>', '>=', '=', 'trend_up', 'trend_down', 'stable')"),
        ("==", 1.0, 0.1, "unknown comparator '=='; expected one of "
         "('<', '<=', '>', '>=', '=', 'trend_up', 'trend_down', 'stable')"),
        *[(c, None, None, f"comparator '{c}' on 'x' requires a threshold")
          for c in ORDERINGS],
        ("=", None, 0.1, "comparator '=' on 'x' requires a threshold"),
        ("=", None, None, "comparator '=' on 'x' requires a threshold"),
        *[(c, 1.0, None,
           f"comparator '{c}' on 'x' does not take a threshold")
          for c in (*TRENDS, "stable")],
        ("stable", 1.0, 0.1,
         "comparator 'stable' on 'x' does not take a threshold"),
        *[(c, t, tol,
           f"comparator '{c}' on 'x' requires a non-negative tolerance")
          for c, t in (("=", 1.0), ("stable", None))
          for tol in (None, -0.1, -5e-324)],
        *[(c, 1.0, 0.1, f"comparator '{c}' on 'x' does not take a tolerance")
          for c in ORDERINGS],
        *[(c, None, t, f"comparator '{c}' on 'x' does not take a tolerance")
          for c in TRENDS for t in (0.0, -0.1)],
    ])
    def test_refusal_messages(self, comparator, threshold, tolerance,
                              message):
        with pytest.raises(TreeConfigError) as info:
            Predicate("x", comparator, threshold, tolerance)
        assert str(info.value) == message

    @given(valid_parameters(), FLOATS)
    @example((">", -1e308, None), 1e308)  # distance overflows
    @example(("<", 5e-324, None), -1.0)  # quotient overflows
    @example(("=", 0.0, 5e-324), 1e308)
    @example(("stable", None, 5e-324), -1e308)
    @example(("<=", -0.0, None), -0.0)  # a signed zero distance
    @example((">=", -0.0, None), -0.0)
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_agrees_bit_for_bit_with_the_oracle(self, parameters, value):
        predicate = Predicate("x", *parameters)
        holds, severity = predicate_oracle(*parameters, value)
        assert predicate.holds(value) is holds
        assert predicate.severity(value).hex() == severity.hex()


def chain_config(length):
    config = single_node_config()
    ids = ["only"] + [f"n{i}" for i in range(1, length)]
    template = config["nodes"]["only"]
    for here, following in zip(ids, ids[1:] + [None]):
        node = dict(template, on_true=({"node": following} if following
                                       else {"verdict": "binding"}))
        if here != "only":
            del node["constraint_label"]
        config["nodes"][here] = node
    return config


def diamond_config(levels):
    """Every level holds two nodes that both point at both nodes of the
    next level: 2 * levels + 1 nodes and 2**levels root-to-leaf paths."""
    config = single_node_config()
    template = config["nodes"]["only"]

    def target(level, side):
        if level > levels:
            return {"verdict": "binding" if side == "a" else "not_binding"}
        return {"node": f"d{level}{side}"}

    config["nodes"]["only"] = dict(template, on_true=target(1, "a"),
                                   on_false=target(1, "b"))
    for level in range(1, levels + 1):
        for side in "ab":
            node = dict(template, on_true=target(level + 1, "a"),
                        on_false=target(level + 1, "b"))
            del node["constraint_label"]
            config["nodes"][f"d{level}{side}"] = node
    return config


class TestValidationScale:
    """Validation is one linear walk per root, not a path enumeration."""

    @pytest.mark.parametrize("config", [chain_config(10_000),
                                        diamond_config(30)],
                             ids=["chain_10000", "diamond_30"])
    def test_validates_within_a_second(self, config):
        start = time.perf_counter()
        tree = tree_from_dict(config)
        assert time.perf_counter() - start < 1.0
        assert labels(tree) == ("bigness",)
        assert evaluate(tree, indicators(x=20.0)).binding_constraints == \
            ("bigness",)

    def test_cycle_at_the_end_of_a_long_chain(self):
        config = chain_config(10_000)
        config["nodes"]["n9999"]["on_true"] = {"node": "n5000"}
        with pytest.raises(CycleError, match="'n9999' -> 'n5000'"):
            tree_from_dict(config)


class TestEvaluate:
    def test_binding_when_predicate_holds(self):
        tree = tree_from_dict(single_node_config())
        report = evaluate(tree, indicators(x=25.0))
        assert report.binding_constraints == ("bigness",)
        assert report.non_binding == ()
        assert report.evidence["bigness"]["value"] == 25.0

    def test_not_binding_when_predicate_fails(self):
        tree = tree_from_dict(single_node_config())
        report = evaluate(tree, indicators(x=5.0))
        assert report.binding_constraints == ()
        assert report.non_binding == ("bigness",)

    def test_trend_down_trips_land_style_node(self):
        config = {
            "manifest": {"land_change": "ratio"},
            "roots": ["land"],
            "nodes": {
                "land": {
                    "question": "is the land share falling?",
                    "predicate": {"indicator": "land_change",
                                  "comparator": "trend_down"},
                    "constraint_label": "land",
                    "on_true": {"verdict": "binding"},
                    "on_false": {"verdict": "not_binding"},
                },
            },
        }
        tree = tree_from_dict(config)
        report = evaluate(tree, indicators(land_change=-0.05))
        assert report.binding_constraints == ("land",)
        report = evaluate(tree, indicators(land_change=0.01))
        assert report.binding_constraints == ()

    def test_missing_indicator_named(self):
        tree = tree_from_dict(single_node_config())
        with pytest.raises(EvaluationError, match="'x'"):
            evaluate(tree, indicators(y=1.0))

    def test_series_where_scalar_expected(self):
        tree = tree_from_dict(single_node_config())
        with pytest.raises(IndicatorTypeError):
            evaluate(tree, indicators(x={2000: 1.0, 2001: 2.0}))

    def test_units_mismatch_rejected(self):
        config = single_node_config(manifest={"x": "percent"})
        tree = tree_from_dict(config)
        ind = indicators(x=25.0)
        ind["x"]["units"] = "ratio"
        with pytest.raises(EvaluationError, match="units"):
            evaluate(tree, ind)

    def test_units_mismatch_on_an_entry_no_node_reads_rejected(self):
        # units are checked for every manifest entry before any chain is
        # walked, so ``validate`` can give the same answer without values
        tree = tree_from_dict(single_node_config(
            manifest={"x": "", "unread": "percent"}))
        ind = indicators(x=25.0, unread=1.0)
        ind["unread"]["units"] = "ratio"
        with pytest.raises(EvaluationError) as caught:
            evaluate(tree, ind)
        assert str(caught.value) == (
            "indicator 'unread' has units 'ratio' but the tree expects "
            "'percent'")

    def test_missing_name_refused_before_a_units_mismatch(self):
        tree = tree_from_dict(single_node_config(
            manifest={"x": "percent", "absent": ""}))
        ind = indicators(x=25.0)
        ind["x"]["units"] = "ratio"
        with pytest.raises(EvaluationError) as caught:
            evaluate(tree, ind)
        assert str(caught.value) == (
            "manifest indicator 'absent' missing from indicator set")

    def test_overflowing_severity_names_node_indicator_and_threshold(self):
        # (1e300 - 5e-324) / 5e-324 leaves the float range
        config = single_node_config()
        config["nodes"]["only"]["predicate"]["threshold"] = 5e-324
        with pytest.raises(DomainError) as caught:
            evaluate(tree_from_dict(config), indicators(x=1e300))
        assert str(caught.value) == (
            "node 'only': the severity of 'x' = 1e+300 against threshold "
            "5e-324 overflows a float")
        # the largest finite severity is still ranked
        config["nodes"]["only"]["predicate"]["threshold"] = 1.0
        report = evaluate(tree_from_dict(config), indicators(x=1e308))
        assert report.severity == {"bigness": 1e308 - 1.0}

    def test_verdict_completeness(self):
        tree = builtin_bihar_tree()
        report = evaluate(tree, bihar_reference_indicators())
        classified = set(report.binding_constraints) | set(report.non_binding)
        assert classified == set(labels(tree))
        assert not set(report.binding_constraints) & set(report.non_binding)

    def test_determinism_byte_identical(self):
        tree = builtin_bihar_tree()
        ind = bihar_reference_indicators()
        assert json_text(evaluate(tree, ind).to_dict()) == \
            json_text(evaluate(tree, ind).to_dict())

    @pytest.mark.parametrize("comparator,direction", [
        (">", +1), (">=", +1), ("<", -1), ("<=", -1),
        ("trend_up", +1), ("trend_down", -1),
    ])
    def test_monotone_evidence(self, comparator, direction):
        threshold = (3.0 if comparator in ("<", "<=", ">", ">=") else None)
        predicate = Predicate("x", comparator, threshold=threshold)

        @given(st.floats(min_value=-50, max_value=50),
               st.floats(min_value=0, max_value=50))
        @settings(max_examples=50, deadline=None)
        def check(value, bump):
            if predicate.holds(value):
                assert predicate.holds(value + direction * bump)

        check()

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=60, deadline=None)
    def test_scaling_ratio_and_threshold_preserves_truth(self, value, k):
        base = Predicate("x", ">", threshold=1.0)
        scaled = Predicate("x", ">", threshold=k)
        assert base.holds(value) == scaled.holds(value * k)


class TestBuiltinTree:
    def test_passes_validation(self):
        tree = builtin_bihar_tree()
        assert set(labels(tree)) == {
            "agricultural_land", "technology", "agricultural_markets",
            "crop_diversification", "input_costs",
        }

    def test_reference_verdict(self):
        report = evaluate(builtin_bihar_tree(), bihar_reference_indicators())
        assert set(report.binding_constraints) == {
            "agricultural_markets", "crop_diversification"}
        assert set(report.non_binding) == {
            "agricultural_land", "technology", "input_costs"}

    def test_all_healthy_indicators_bind_nothing(self):
        ind = indicators(
            agricultural_land_ratio_change=0.00, tfp_growth_gap_pp=0.5,
            price_cv_rising_share=0.0, cai_max=0.9,
            high_advantage_area_share_pct=25.0,
            value_cost_ratio_terminal=1.4,
            grain_fertilizer_price_ratio_terminal=1.3)
        report = evaluate(builtin_bihar_tree(), ind)
        assert report.binding_constraints == ()
        assert set(report.non_binding) == {
            "agricultural_land", "technology", "agricultural_markets",
            "crop_diversification", "input_costs"}

    def test_severity_ranks_markets_first_on_reference(self):
        report = evaluate(builtin_bihar_tree(), bihar_reference_indicators())
        assert report.binding_constraints[0] == "agricultural_markets"
        assert report.severity["agricultural_markets"] > \
            report.severity["crop_diversification"]

    def test_text_summary_names_verdicts(self):
        text = evaluate(builtin_bihar_tree(),
                        bihar_reference_indicators()).to_text()
        assert "agricultural_markets" in text
        assert "crop_diversification" in text


class TestReadIndicators:
    def test_round_trip_with_series(self):
        data = {"scalar": {"value": 1.5, "units": "ratio",
                           "provenance": "test"},
                "series": {"value": [[2000, 1.0], [2001, 2.0]],
                           "units": "levels"}}
        assert read_indicators(json.loads(json.dumps(data))) == {
            "scalar": {"value": 1.5, "units": "ratio", "provenance": "test"},
            "series": {"value": {2000: 1.0, 2001: 2.0}, "units": "levels",
                       "provenance": ""}}
