"""agrodiag: growth accounting, productivity indices and binding-constraint
diagnostics for crop panel data.

The package splits into small pure modules:

* :mod:`agrodiag.panel`, :mod:`agrodiag.ingest` -- data model and loaders
* :mod:`agrodiag.decomposition` -- revenue-change decomposition
* :mod:`agrodiag.productivity` -- chained output/input/TFP index series
* :mod:`agrodiag.markets` -- volatility, ratio and share indicators
* :mod:`agrodiag.advantage` -- area-based comparative advantage
* :mod:`agrodiag.diagnostics` -- declarative constraint-tree evaluation
* :mod:`agrodiag.pipeline` -- file-in/file-out report pipeline
* :mod:`agrodiag.cli` -- command-line parsing and exit codes

Every public name below is imported from its submodule on first access
(PEP 562), so ``import agrodiag`` and the CLI's start-up load only the
layers they use.
"""

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {
    "AgrodiagError": "errors",
    "AreaShareTable": "advantage",
    "BreakStats": "markets",
    "CropObservation": "panel",
    "CropPanel": "panel",
    "DecompositionResult": "decomposition",
    "DiagnosticReport": "diagnostics",
    "DiagnosticTree": "diagnostics",
    "IndexSeries": "productivity",
    "IndicatorSet": "diagnostics",
    "InputOutputPanel": "panel",
    "IOItem": "panel",
    "IOYear": "panel",
    "LandUseRecord": "panel",
    "Predicate": "diagnostics",
    "PriceSeries": "panel",
    "area_share_table_from_panel": "advantage",
    "avg_annual_growth": "productivity",
    "break_analysis": "markets",
    "build_index": "productivity",
    "builtin_bihar_tree": "diagnostics",
    "cai": "advantage",
    "cai_table": "advantage",
    "coefficient_of_variation": "markets",
    "decompose": "decomposition",
    "evaluate": "diagnostics",
    "gross_revenue": "decomposition",
    "land_use_ratios": "markets",
    "load_crop_panel": "ingest",
    "load_io_panel": "ingest",
    "load_land_use": "ingest",
    "load_price_table": "ingest",
    "load_tree": "diagnostics",
    "load_value_cost": "ingest",
    "price_ratio": "markets",
    "share_table": "markets",
    "tornqvist_log_growth": "productivity",
    "triennium_average": "ingest",
    "value_cost_ratio": "markets",
    "write_crop_panel": "ingest",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
