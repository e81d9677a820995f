"""Evaluate the shipped binding-constraint tree, then bend it.

The tree is plain JSON data: five question chains over seven scalar
indicators. First we run it on the reference indicator levels (markets and
diversification come out binding), then on a doctored set where
productivity growth collapses, and watch the technology chain flip.
"""
from agrodiag import builtin_bihar_tree, evaluate
from agrodiag.fixtures import bihar_reference_indicators

tree = builtin_bihar_tree()
labels = sorted({node.constraint_label for node in tree.nodes.values()} - {None})
print("constraints the tree can flag:", ", ".join(labels))
print()

report = evaluate(tree, bihar_reference_indicators())
print("--- reference indicator levels ---")
print(report.to_text())

# same levels, but with regional TFP growth 0.4 pp behind the benchmark
# and calm grain prices
levels = {
    "agricultural_land_ratio_change": -0.005,
    "tfp_growth_gap_pp": -0.40,
    "price_cv_rising_share": 1.0 / 3.0,
    "cai_max": 1.72,
    "high_advantage_area_share_pct": 6.2,
    "value_cost_ratio_terminal": 1.22,
    "grain_fertilizer_price_ratio_terminal": 1.38,
}
# an indicator set is indicators.json's dict; each units tag must match
# the tree manifest's
doctored = {name: {"value": value, "units": tree.manifest[name],
                   "provenance": "doctored"}
            for name, value in levels.items()}

print("--- slow productivity, calm prices ---")
print(evaluate(tree, doctored).to_text())

# the walked paths stay in the report, so each verdict is auditable
for chain in report.trace:
    steps = " -> ".join(step["node"] for step in chain["steps"])
    print(f"{chain['constraint_label'] or '(unlabeled)'}: {steps} "
          f"=> {chain['verdict']}")
