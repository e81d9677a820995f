"""Where did crop revenue growth come from?

Builds a toy two-period panel and splits the change in gross revenue into
area, price, yield and diversification effects plus the interaction
residual. Play with the numbers and watch the attribution move.
"""
import io

from agrodiag import decompose, load_crop_panel

# base period (2002): a paddy/wheat/maize state with 17 kha under crops;
# terminal period (2016): higher yields and prices, land shifted toward
# maize. Area in kha, production in kt, price per tonne.
csv_text = """crop_id,year,area_ha,production_t,price_per_t
paddy,2002,9.0,18.0,520.0
wheat,2002,6.0,13.2,760.0
maize,2002,2.0,4.4,590.0
paddy,2016,8.2,21.3,1150.0
wheat,2016,6.1,17.1,1280.0
maize,2016,2.9,9.6,1090.0
"""
# the panel is folded into the periods it compares, given by their end
# years; each end year keeps its own columns too
panel = load_crop_panel(io.StringIO(csv_text), trienniums=(2002, 2016))

# gross revenue: production times price, summed over the year's crops
for year in (2002, 2016):
    _, _, production, price = panel.columns(year)
    revenue = sum(q * p for q, p in zip(production, price))
    print(f"gross revenue {year}: {revenue:12.1f}")
print()

result = decompose(panel, 2002, 2016, period_mode="endpoint")
pct = result.percent

print(f"decomposition of the change ({result.base_label} -> "
      f"{result.terminal_label}):")
for name, value in result.effects.items():
    print(f"  {name:<24s} {value:12.1f}   {pct[name]:7.1f} %")
print(f"  {'total':<24s} {result.total_dR:12.1f}   {pct['total']:7.1f} %")

# the five rows always add up to the total: the interaction term is the
# exact residual of the four first-order effects
assert abs(sum(result.effects.values()) - result.total_dR) < 1e-9
