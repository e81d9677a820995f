"""Metamorphic relations of a whole report: edits of the fixture's inputs
whose effect on every artifact is known without computing it.

* The data rows of each CSV may come in any order: no artifact and no
  line of stdout changes.
* Scaling every price by 2^k is exact in binary floating point, and every
  indicator is a ratio of prices or free of them: only the price levels
  reported (the break means, the decomposition's currency terms) scale.
* A year of crop rows outside every triennium is read by no artifact: no
  byte changes.
* Crop ids are labels: a prefix that keeps their order, given to the
  ``diversification_group`` too, changes only where an id is written.

The row-order and price relations are checked on the benchmark's seed-1
scaled inputs too (one shuffle, crop-major crop rows, prices doubled).
"""
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrodiag import fixtures
from agrodiag.cli import main

from helpers import REPORT_ARTIFACTS

# the price column of each input that holds prices
PRICE_COLUMN = {"crops.csv": 4, "prices.csv": 2}


def report(config: Path, out: Path) -> tuple[str, dict[str, bytes]]:
    """``report -c CONFIG -o OUT`` run in-process: its stdout, OUT masked,
    and the bytes of each artifact."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["report", "-c", str(config), "-o", str(out)]) == 0
    return (stdout.getvalue().replace(str(out), "<out>"),
            {path.name: path.read_bytes() for path in out.iterdir()})


def edited_inputs(source: Path, target: Path, edit) -> Path:
    """A copy in TARGET of the inputs SOURCE holds, each CSV's data rows
    replaced by EDIT(file name, rows); the copy's config path."""
    target.mkdir()
    for path in source.iterdir():
        text = path.read_text()
        if path.suffix == ".csv":
            header, *rows = text.splitlines()
            text = "\n".join([header, *edit(path.name, rows)]) + "\n"
        (target / path.name).write_text(text)
    return target / "config.json"


def assert_unchanged(base, run) -> None:
    """RUN's stdout and artifacts are BASE's, byte for byte."""
    stdout, artifacts = run
    assert stdout == base[0]
    assert sorted(artifacts) == sorted(base[1])
    for name, text in base[1].items():
        assert artifacts[name] == text, name


def scale_prices(factor: float):
    """An edit that multiplies every price by FACTOR."""
    def scale(name, rows):
        column = PRICE_COLUMN.get(name)
        for row in rows:
            cells = row.split(",")
            if column is not None:
                cells[column] = repr(float(cells[column]) * factor)
            yield ",".join(cells)
    return scale


def assert_only_price_levels_scaled(base, run, factor: float) -> None:
    """RUN's stdout and artifacts are BASE's, but the break means and the
    decomposition's currency terms, which are BASE's times FACTOR."""
    stdout, artifacts = run
    assert stdout == base[0]
    scaled = {"break_stats.json", "decomposition.json"}
    for name in sorted(set(REPORT_ARTIFACTS) - scaled):
        assert artifacts[name] == base[1][name], name

    # each side is rounded to 6 significant digits, half a unit in the
    # sixth digit at most
    def level(value):
        return pytest.approx(value * factor, rel=2e-5)

    before = json.loads(base[1]["break_stats.json"])
    after = json.loads(artifacts["break_stats.json"])
    assert [sorted(s) for s in after] == [sorted(s) for s in before]
    for old, new in zip(before, after):
        for key, value in old.items():
            assert new[key] == (level(value) if key.startswith("mean_")
                                else value), key

    before = json.loads(base[1]["decomposition.json"])
    after = json.loads(artifacts["decomposition.json"])
    assert sorted(after) == sorted(before)
    for key, value in before.items():
        assert after[key] == (level(value) if key.endswith("_effect")
                              or key == "total" else value), key


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("metamorphic") / "inputs"
    fixtures.write_synthetic_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def base(inputs, tmp_path_factory):
    stdout, artifacts = report(inputs / "config.json",
                               tmp_path_factory.mktemp("base") / "out")
    assert sorted(artifacts) == sorted(REPORT_ARTIFACTS)
    return stdout, artifacts


@settings(max_examples=5, derandomize=True, deadline=None)
@given(data=st.data())
def test_row_order_changes_no_byte(inputs, base, tmp_path_factory, data):
    def shuffle(name, rows):
        return data.draw(st.permutations(rows), label=name)

    run = tmp_path_factory.mktemp("shuffled")
    config = edited_inputs(inputs, run / "inputs", shuffle)
    assert_unchanged(base, report(config, run / "out"))


@pytest.mark.parametrize("k", range(-3, 4))
def test_prices_scaled_by_a_power_of_two_scale_only_price_levels(
        inputs, base, tmp_path, k):
    config = edited_inputs(inputs, tmp_path / "inputs", scale_prices(2.0 ** k))
    assert_only_price_levels_scaled(base, report(config, tmp_path / "out"),
                                    2.0 ** k)


def test_a_crop_year_outside_every_triennium_changes_no_byte(
        inputs, base, tmp_path):
    def add_1990(name, rows):
        if name != "crops.csv":
            return rows
        # the first year's rows again, as 1990
        first = rows[0].split(",")[1]
        return rows + [row.replace(f",{first},", ",1990,", 1) for row in rows
                       if row.split(",")[1] == first]

    config = edited_inputs(inputs, tmp_path / "inputs", add_1990)
    assert ",1990," in config.with_name("crops.csv").read_text()
    stdout, artifacts = report(config, tmp_path / "out")
    assert stdout == base[0]
    assert artifacts == base[1]


def test_prefixed_crop_ids_change_only_the_ids_written(inputs, base,
                                                       tmp_path):
    def prefix(name, rows):
        return ["x_" + row for row in rows] if name == "crops.csv" else rows

    config = edited_inputs(inputs, tmp_path / "inputs", prefix)
    raw = json.loads(config.read_text())
    group = raw["diversification_group"]
    raw["diversification_group"] = "x_" + group
    config.write_text(json.dumps(raw))
    stdout, artifacts = report(config, tmp_path / "out")
    assert stdout == base[0]
    written = {"shares.csv", "indicators.json"}
    for name in sorted(set(REPORT_ARTIFACTS) - written):
        assert artifacts[name] == base[1][name], name

    header, *rows = base[1]["shares.csv"].decode().splitlines()
    column = header.split(",").index("crop_id")
    want = [header]
    for row in rows:
        cells = row.split(",")
        cells[column] = "x_" + cells[column]
        want.append(",".join(cells))
    assert artifacts["shares.csv"].decode().splitlines() == want

    # the provenance of the diversification indicator names the group
    old = f"terminal triennium, {group} row".encode()
    assert base[1]["indicators.json"].count(old) == 1
    assert artifacts["indicators.json"] == base[1]["indicators.json"].replace(
        old, f"terminal triennium, x_{group} row".encode())


@pytest.fixture(scope="module")
def scaled_base(scaled_dir, tmp_path_factory):
    return report(scaled_dir / "config.json",
                  tmp_path_factory.mktemp("scaled_base") / "out")


def test_scaled_row_order_changes_no_byte(scaled_dir, scaled_base, tmp_path):
    def shuffle(name, rows):
        rows = list(rows)
        random.Random(name).shuffle(rows)
        return rows

    config = edited_inputs(scaled_dir, tmp_path / "inputs", shuffle)
    assert_unchanged(scaled_base, report(config, tmp_path / "out"))


def test_scaled_crop_major_rows_change_no_byte(scaled_dir, scaled_base,
                                               tmp_path):
    # the crop rows sorted by crop id, then year, not in year blocks
    def crop_major(name, rows):
        if name != "crops.csv":
            return rows
        def crop_year(row):
            crop, year, _ = row.split(",", 2)
            return crop, int(year)
        return sorted(rows, key=crop_year)

    config = edited_inputs(scaled_dir, tmp_path / "inputs", crop_major)
    assert_unchanged(scaled_base, report(config, tmp_path / "out"))


def test_scaled_prices_doubled_double_only_price_levels(
        scaled_dir, scaled_base, tmp_path):
    config = edited_inputs(scaled_dir, tmp_path / "inputs", scale_prices(2.0))
    assert_only_price_levels_scaled(
        scaled_base, report(config, tmp_path / "out"), 2.0)
