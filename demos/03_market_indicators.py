"""Market-functioning indicators on the bundled synthetic price data.

Volatility (coefficient of variation) before vs after the 2007 market
break, the grain/fertiliser price ratio, and crop share tables.
"""
import io

from agrodiag import (
    PriceSeries,
    break_analysis,
    crop_shares,
    load_crop_panel,
    price_ratio,
)
from agrodiag.fixtures import crop_panel_rows, price_rows

# price table: paddy / wheat / maize / urea over 2002-2016
values = {}
for commodity, year, price in price_rows():
    values.setdefault(commodity, {})[year] = price
series = {c: PriceSeries(c, v) for c, v in values.items()}

print("volatility around the 2007 break (coefficient of variation, %):")
print("commodity   mean_before  cv_before   mean_after  cv_after")
for commodity in ("paddy", "wheat", "maize"):
    s = break_analysis(series[commodity], break_year=2007)
    print(f"{commodity:<10s} {s.mean_before:12.0f} {s.cv_before:10.1f} "
          f"{s.mean_after:12.0f} {s.cv_after:9.1f}")

print("\ngrain/fertiliser price ratio (wheat over urea), last five years:")
ratio = price_ratio(series["wheat"], series["urea"])
for year in sorted(ratio)[-5:]:
    print(f"  {year}: {ratio[year]:.2f}")

# crop area and value shares over the terminal triennium
csv = "crop_id,year,area_ha,production_t,price_per_t\n" + "\n".join(
    f"{c},{y},{a!r},{q!r},{p!r}" for c, y, a, q, p in crop_panel_rows()
)
panel = load_crop_panel(io.StringIO(csv), trienniums=(2016,))
area = dict(zip(*crop_shares(panel, te_year=2016, dimension="area")))
value = dict(zip(*crop_shares(panel, te_year=2016, dimension="value")))
print("\ncrop shares, triennium ending 2016 (% of area / % of value):")
for crop in sorted(area, key=area.get, reverse=True):
    print(f"  {crop:<14s} {area[crop]:5.1f}   {value[crop]:5.1f}")
