"""agrodiag: growth accounting, productivity indices and binding-constraint
diagnostics for crop panel data.

The package splits into small pure modules:

* :mod:`agrodiag.panel`, :mod:`agrodiag.ingest`, :mod:`agrodiag.csvread`
  -- columnar panels, the loaders that build them and the CSV reading
  the loaders share
* :mod:`agrodiag.decomposition` -- revenue-change decomposition
* :mod:`agrodiag.productivity` -- chained output/input/TFP index series
* :mod:`agrodiag.markets` -- volatility, ratio and share indicators
* :mod:`agrodiag.advantage` -- area-based comparative advantage
* :mod:`agrodiag.tree` -- the declarative constraint tree and its validation
* :mod:`agrodiag.diagnostics` -- indicator sets, tree loading and evaluation
* :mod:`agrodiag.config`, :mod:`agrodiag.pipeline` -- the run config and
  the file-in/file-out report pipeline
* :mod:`agrodiag.cli`, :mod:`agrodiag.commands` -- command-line parsing
  and help, and the subcommand handlers; each maps errors to exit codes

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
    "CropPanel": "panel",
    "DecompositionResult": "decomposition",
    "DiagnosticReport": "diagnostics",
    "DiagnosticTree": "tree",
    "IndexSeries": "productivity",
    "IndicatorSet": "diagnostics",
    "InputOutputPanel": "panel",
    "LandUseRecord": "panel",
    "Predicate": "tree",
    "PriceSeries": "panel",
    "avg_annual_growth": "productivity",
    "break_analysis": "markets",
    "builtin_bihar_tree": "diagnostics",
    "cai": "advantage",
    "cai_table": "advantage",
    "coefficient_of_variation": "markets",
    "crop_shares": "markets",
    "decompose": "decomposition",
    "evaluate": "diagnostics",
    "index_series": "productivity",
    "land_use_ratios": "markets",
    "load_crop_panel": "ingest",
    "load_io_panel": "ingest",
    "load_land_use": "ingest",
    "load_price_table": "ingest",
    "load_tree": "diagnostics",
    "load_value_cost": "ingest",
    "price_ratio": "markets",
    "tornqvist_log_growth": "productivity",
    "triennium_average": "ingest",
    "value_cost_ratio": "markets",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
