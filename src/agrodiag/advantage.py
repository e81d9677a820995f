"""Area-based comparative advantage of crop groups against a reference.

The index for a group is the region's area share of that group divided by
the nation's area share of the same group, both taken over whatever group
universe the caller supplies; a value above one signals that the region
devotes relatively more of its land to the group than the country does.
"""
from __future__ import annotations

import math

from ._record import Record
from .errors import (
    DomainError,
    DuplicateKeyError,
    GroupNotFoundError,
    SchemaError,
    UndefinedIndexError,
)
from .ingest import _label, _named, load_crop_panel
from .panel import CropPanel


class AreaShareTable(Record, frozen=True):
    """Crop-group areas for one scope (region or nation) in one year.

    The denominator universe is exactly the set of groups in ``entries``;
    callers choose the universe by choosing what they load.
    """

    scope: str
    year: int
    entries: dict[str, float]
    # no field: the sum of ``entries``, taken once so each share is one
    # division
    __slots__ = ("total",)

    def __post_init__(self) -> None:
        if self.scope not in ("region", "nation"):
            raise SchemaError(f"scope must be 'region' or 'nation', "
                              f"got {self.scope!r}")
        clean: dict[str, float] = {}
        for group in sorted(self.entries):
            area = float(self.entries[group])
            if not math.isfinite(area) or area < 0:
                raise DomainError(
                    f"area for group {group!r} must be finite and >= 0"
                )
            clean[group] = area
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "total", sum(clean.values()))
        if not 0 < self.total < math.inf:
            raise DomainError(f"{self.scope} table for {self.year} has " + (
                "no area" if self.total <= 0 else "an infinite total area"))

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(self.entries)

    def share(self, group_id: str) -> float:
        if group_id not in self.entries:
            raise GroupNotFoundError(
                f"group {group_id!r} not in {self.scope} table "
                f"(have {list(self.entries)})"
            )
        return self.entries[group_id] / self.total


def cai(region: AreaShareTable, nation: AreaShareTable, group_id: str) -> float:
    """Comparative advantage index of one group: region share / nation share.

    A group the region does not grow at all (zero area but present in the
    table) scores 0; a zero national share leaves the index undefined.
    """
    regional = region.share(group_id)
    national = nation.share(group_id)
    if national == 0.0:
        raise UndefinedIndexError(
            f"national area share of {group_id!r} is zero; index undefined"
        )
    return regional / national


def cai_table(region: AreaShareTable, nation: AreaShareTable) -> dict[str, float]:
    """Index for every group in the region table, sorted by group id."""
    return {group: cai(region, nation, group) for group in region.groups}


def area_share_table_from_panel(panel: CropPanel, year: int,
                                scope: str) -> AreaShareTable:
    """Build a table from one year of a crop panel (areas only)."""
    entries = (dict(zip(*panel.columns(year)[:2])) if panel.has_year(year)
               else {})
    if not entries:
        raise DomainError(f"panel has no observations for {year}")
    return AreaShareTable(scope=scope, year=year, entries=entries)


def load_area_share_table(source, scope: str) -> AreaShareTable:
    """Load a table from a crop-panel file restricted to a single year.

    Errors name the table (``region area-share table`` or ``nation
    area-share table``) and its file."""
    what = _label(source, f"{scope} area-share table")
    panel = load_crop_panel(source, what=what)
    if len(panel.years) != 1:
        raise DuplicateKeyError(
            f"{what}: must cover exactly one year, got {panel.years}"
        )
    with _named(what):
        return area_share_table_from_panel(panel, panel.years[0], scope)
