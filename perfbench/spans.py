"""Runtime span tracing of the agrodiag layers, installed from outside.

``Tracer.install()`` replaces each traced function by a wrapper at every
place it is bound: the defining module and every other ``agrodiag``
module that imported it by name (``triennium_average`` lives in
``ingest``, ``decomposition`` and ``markets``; ``json_text`` and
``csv_text`` in ``serialize`` and ``cli``). ``CropPanel`` is traced
through its ``__init__``. ``uninstall()`` puts the originals back, so an
untraced run between traced ones runs the program unchanged.

Spans (name, start, end, parent) are kept in memory. ``summary()``
reduces them to per-name self time and call count; a span's self time is
its duration minus the durations of its direct children, which never
overlap because the program is single-threaded.
"""
from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute); a dotted attribute is a method
TRACED = (
    ("cli.main", "agrodiag.cli", "main"),
    ("cli.compute_artifacts", "agrodiag.cli", "compute_artifacts"),
    ("cli.assemble_indicators", "agrodiag.cli", "assemble_indicators"),
    ("cli.write_artifacts", "agrodiag.cli", "write_artifacts"),
    ("ingest.load_crop_panel", "agrodiag.ingest", "load_crop_panel"),
    ("ingest.load_io_panel", "agrodiag.ingest", "load_io_panel"),
    ("ingest.load_price_table", "agrodiag.ingest", "load_price_table"),
    ("ingest.load_land_use", "agrodiag.ingest", "load_land_use"),
    ("ingest.load_value_cost", "agrodiag.ingest", "load_value_cost"),
    ("ingest.triennium_average", "agrodiag.ingest", "triennium_average"),
    ("advantage.load_area_share_table", "agrodiag.advantage",
     "load_area_share_table"),
    ("advantage.cai_table", "agrodiag.advantage", "cai_table"),
    ("panel.CropPanel", "agrodiag.panel", "CropPanel.__init__"),
    ("decomposition.decompose", "agrodiag.decomposition", "decompose"),
    ("productivity.build_index", "agrodiag.productivity", "build_index"),
    ("productivity.avg_annual_growth", "agrodiag.productivity",
     "avg_annual_growth"),
    ("markets.share_table", "agrodiag.markets", "share_table"),
    ("markets.break_analysis", "agrodiag.markets", "break_analysis"),
    ("diagnostics.load_tree", "agrodiag.diagnostics", "load_tree"),
    ("diagnostics.evaluate", "agrodiag.diagnostics", "evaluate"),
    ("serialize.json_text", "agrodiag.serialize", "json_text"),
    ("serialize.csv_text", "agrodiag.serialize", "csv_text"),
)

# loaders whose first argument is an input file; ingest.rows and
# ingest.bytes sum over their calls (area tables load via load_crop_panel)
LOADERS = frozenset({
    "ingest.load_crop_panel", "ingest.load_io_panel",
    "ingest.load_price_table", "ingest.load_land_use",
    "ingest.load_value_cost",
})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.loaded: list[str] = []      # input paths, one per loader call
        self.artifact_bytes = 0
        self.tree_nodes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.loaded.clear()
        self.artifact_bytes = 0
        self.tree_nodes = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            self._note(name, args, result)
            return result

        return traced

    def _note(self, name: str, args: tuple, result) -> None:
        if name in LOADERS and args:
            self.loaded.append(str(args[0]))
        elif name == "cli.write_artifacts":
            self.artifact_bytes += sum(
                len(text.encode("utf-8"))
                for arg in args if isinstance(arg, dict)
                for text in arg.values())
        elif name == "diagnostics.load_tree":
            self.tree_nodes += len(getattr(result, "nodes", ()))

    def install(self) -> dict[str, int]:
        """Patch every binding site; return the site count per span name.

        A function the program no longer has gets 0 sites and no spans, so
        a refactor that removes one leaves its metrics at 0."""
        packages = [m for n, m in sorted(sys.modules.items())
                    if n == "agrodiag" or n.startswith("agrodiag.")]
        sites = {}
        for name, module_name, attr in TRACED:
            sites[name] = 0
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:  # a method: patch the class, its one binding site
                owner = getattr(module, owner_name, None)
                if owner is not None and method in vars(owner):
                    self._patch(owner, method,
                                self._wrap(name, vars(owner)[method]))
                    sites[name] = 1
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                        sites[name] += 1
        return sites

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time (s) and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += end - start - children
            entry["calls"] += 1
        return out
