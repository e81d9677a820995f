"""agrodiag: growth accounting, productivity indices and binding-constraint
diagnostics for crop panel data.

The package splits into small pure modules:

* :mod:`agrodiag.panel`, :mod:`agrodiag.ingest` -- data model and loaders
* :mod:`agrodiag.decomposition` -- revenue-change decomposition
* :mod:`agrodiag.productivity` -- chained output/input/TFP index series
* :mod:`agrodiag.markets` -- volatility, ratio and share indicators
* :mod:`agrodiag.advantage` -- area-based comparative advantage
* :mod:`agrodiag.diagnostics` -- declarative constraint-tree evaluation
* :mod:`agrodiag.cli` -- file-in/file-out report pipeline
"""

from .advantage import AreaShareTable, area_share_table_from_panel, cai, cai_table
from .decomposition import DecompositionResult, decompose, gross_revenue
from .diagnostics import (
    DiagnosticReport,
    DiagnosticTree,
    IndicatorSet,
    Predicate,
    builtin_bihar_tree,
    evaluate,
    load_tree,
)
from .errors import AgrodiagError
from .ingest import (
    load_crop_panel,
    load_io_panel,
    load_land_use,
    load_price_table,
    load_value_cost,
    triennium_average,
    write_crop_panel,
)
from .markets import (
    BreakStats,
    break_analysis,
    coefficient_of_variation,
    land_use_ratios,
    price_ratio,
    share_table,
    value_cost_ratio,
)
from .panel import (
    CropObservation,
    CropPanel,
    InputOutputPanel,
    IOItem,
    IOYear,
    LandUseRecord,
    PriceSeries,
)
from .productivity import (
    IndexSeries,
    avg_annual_growth,
    build_index,
    tornqvist_log_growth,
)

__version__ = "0.1.0"

__all__ = [
    "AgrodiagError",
    "AreaShareTable",
    "BreakStats",
    "CropObservation",
    "CropPanel",
    "DecompositionResult",
    "DiagnosticReport",
    "DiagnosticTree",
    "IndexSeries",
    "IndicatorSet",
    "InputOutputPanel",
    "IOItem",
    "IOYear",
    "LandUseRecord",
    "Predicate",
    "PriceSeries",
    "area_share_table_from_panel",
    "avg_annual_growth",
    "break_analysis",
    "build_index",
    "builtin_bihar_tree",
    "cai",
    "cai_table",
    "coefficient_of_variation",
    "decompose",
    "evaluate",
    "gross_revenue",
    "land_use_ratios",
    "load_crop_panel",
    "load_io_panel",
    "load_land_use",
    "load_price_table",
    "load_tree",
    "load_value_cost",
    "price_ratio",
    "share_table",
    "tornqvist_log_growth",
    "triennium_average",
    "value_cost_ratio",
    "write_crop_panel",
]
