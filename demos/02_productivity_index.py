"""Output, input and TFP index series from an input-output panel.

The year-over-year log changes weight each item's log quantity ratio by
its value share averaged between the two years, then chain into levels
with base 100. TFP is the output index over the input index.
"""
import io
import math

from agrodiag import avg_annual_growth, index_series, load_io_panel

# ten years of two outputs and three inputs; output grows faster than
# input use, so TFP trends up
rows = []
for t in range(10):
    year = 2006 + t
    rows += [
        (year, "output", "grain", 1000.0 * math.exp(0.025 * t), 0.65),
        (year, "output", "horticulture", 300.0 * math.exp(0.045 * t), 0.35),
        (year, "input", "labour", 500.0 * math.exp(0.002 * t), 0.50),
        (year, "input", "fertiliser", 120.0 * math.exp(0.018 * t), 0.30),
        (year, "input", "machinery", 60.0 * math.exp(0.030 * t), 0.20),
    ]
csv_text = "year,kind,item_id,quantity,share\n" + "".join(
    f"{year},{kind},{item},{quantity!r},{share!r}\n"
    for year, kind, item, quantity, share in rows)
panel = load_io_panel(io.StringIO(csv_text))

series = index_series(panel, base_year=2006)
output_idx, input_idx, tfp_idx = (series[kind]
                                  for kind in ("output", "input", "tfp"))

print("year   output    input      tfp")
for year in tfp_idx.years:
    print(f"{year}  {output_idx.values[year]:8.2f} {input_idx.values[year]:8.2f} "
          f"{tfp_idx.values[year]:8.2f}")

print()
for method in ("loglinear", "cagr"):
    rate = avg_annual_growth(tfp_idx, method=method)
    print(f"average annual TFP growth ({method}): {rate:.2f} %/yr")

# the TFP series is exactly the output/input ratio rebased to 100
for year in tfp_idx.years:
    ratio = 100.0 * output_idx.values[year] / input_idx.values[year]
    assert abs(tfp_idx.values[year] - ratio) < 1e-9 * ratio
