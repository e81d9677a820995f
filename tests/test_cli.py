import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agrodiag
from agrodiag import fixtures
from agrodiag.cli import (
    REPORT_ARTIFACTS,
    compute_artifacts,
    load_run_config,
    main,
    run_pipeline,
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_inputs")
    fixtures.write_synthetic_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def report_dir(run_dir):
    out = run_dir / "report_out"
    rc = main(["report", "-c", str(run_dir / "config.json"), "-o", str(out)])
    assert rc == 0
    return out


def set_first_row_cell(lines: list[str], column: int, value: str) -> list[str]:
    """CSV LINES with COLUMN of the first data row set to VALUE."""
    cells = lines[1].split(",")
    cells[column] = value
    return [lines[0], ",".join(cells), *lines[2:]]


def absolute_config(run_dir: Path) -> dict:
    """RUN_DIR's config with its input paths made absolute, so that an
    edited copy may be written anywhere."""
    config = json.loads((run_dir / "config.json").read_text())
    config["inputs"] = {
        key: ([str(run_dir / v) for v in value] if isinstance(value, list)
              else str(run_dir / value))
        for key, value in config["inputs"].items()
    }
    return config


def write_config(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def with_broken_input(run_dir: Path, tmp_path: Path, key: str) -> dict:
    """RUN_DIR's config with input KEY pointing at a file that is not CSV."""
    config = absolute_config(run_dir)
    config["inputs"][key] = str(tmp_path / "broken.csv")
    (tmp_path / "broken.csv").write_text("nonsense\n")
    return config


class TestReport:
    def test_full_artifact_set(self, report_dir):
        names = sorted(p.name for p in report_dir.iterdir())
        assert names == sorted(REPORT_ARTIFACTS)

    def test_diagnosis_verdict(self, report_dir):
        diagnosis = json.loads((report_dir / "diagnosis.json").read_text())
        assert set(diagnosis["binding_constraints"]) == {
            "agricultural_markets", "crop_diversification"}

    def test_runs_are_byte_identical(self, run_dir, report_dir):
        out2 = run_dir / "report_out2"
        assert main(["report", "-c", str(run_dir / "config.json"),
                     "-o", str(out2)]) == 0
        for name in REPORT_ARTIFACTS:
            assert (out2 / name).read_bytes() == \
                (report_dir / name).read_bytes(), name

    def test_fixture_bytes_match_the_pinned_digests(self, report_dir):
        # the digests the benchmark checks its fixture report against
        pinned = json.loads((Path(__file__).parents[1] / "perfbench"
                             / "fixture_sha256.json").read_text())
        assert sorted(pinned) == sorted(REPORT_ARTIFACTS)
        for name, digest in pinned.items():
            assert hashlib.sha256((report_dir / name).read_bytes()) \
                .hexdigest() == digest, name

    def test_decomposition_percent_view_present(self, report_dir):
        record = json.loads((report_dir / "decomposition.json").read_text())
        effects = [record[k] for k in (
            "area_effect", "price_effect", "yield_effect",
            "diversification_effect", "interaction_effect")]
        # fields are serialized at 6 significant digits, so additivity only
        # holds to that precision here (exact additivity is covered on the
        # in-memory result in test_decomposition)
        assert sum(effects) == pytest.approx(record["total"], rel=1e-5)
        assert record["total_pct"] == 100.0

    def test_figure_files_are_year_value_tables(self, report_dir):
        for name in ("figure3.csv", "figure4.csv"):
            header = (report_dir / name).read_text().splitlines()[0]
            assert header == "year,value"
        header2 = (report_dir / "figure2.csv").read_text().splitlines()[0]
        assert header2 == "year,output,input,tfp"


class TestSubcommands:
    def test_validate_ok(self, run_dir, capsys):
        assert main(["validate", "-c", str(run_dir / "config.json")]) == 0
        out = capsys.readouterr().out
        assert "crop panel" in out and "all inputs valid" in out

    def test_report_is_union_of_subcommand_outputs(self, run_dir, report_dir):
        cases = {
            "decompose": ("decomposition.json",),
            "tfp": ("tfp_index.csv", "figure2.csv"),
            "growth": ("growth_rates.json",),
            "markets": ("break_stats.json", "figure3.csv", "figure4.csv",
                        "shares.csv", "land_ratios.json"),
            "cai": ("cai.csv",),
            "diagnose": ("indicators.json", "diagnosis.json"),
        }
        covered = [n for names in cases.values() for n in names]
        assert sorted(covered) == sorted(REPORT_ARTIFACTS)
        for command, names in cases.items():
            out = run_dir / f"{command}_out"
            rc = main([command, "-c", str(run_dir / "config.json"),
                       "-o", str(out)])
            assert rc == 0, command
            for name in names:
                assert (out / name).read_bytes() == \
                    (report_dir / name).read_bytes(), (command, name)

    def test_decompose_direct_flags(self, run_dir, capsys):
        rc = main(["decompose", "--crop-panel", str(run_dir / "crops.csv"),
                   "--base", "2002", "--terminal", "2016",
                   "--mode", "triennium"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["base"] == "TE 2002"
        assert record["total_pct"] == 100.0

    def test_diagnose_reproduces_report_diagnosis(self, run_dir, report_dir):
        out = run_dir / "diagnose_out"
        rc = main(["diagnose", "--tree", "builtin",
                   "--indicators", str(report_dir / "indicators.json"),
                   "-o", str(out)])
        assert rc == 0
        assert (out / "diagnosis.json").read_bytes() == \
            (report_dir / "diagnosis.json").read_bytes()

    def test_cai_config_reads_only_the_area_tables(self, run_dir, report_dir,
                                                   tmp_path):
        # a growth window the io panel does not cover breaks the full
        # pipeline, but cai reads no growth period
        config = absolute_config(run_dir)
        config["periods"] = {"x": [1990, 1991]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "cai_out"
        assert main(["cai", "-c", str(path), "-o", str(out)]) == 0
        assert (out / "cai.csv").read_bytes() == \
            (report_dir / "cai.csv").read_bytes()

    def test_growth_config_reads_only_the_io_panel(self, run_dir, report_dir,
                                                   tmp_path):
        # a broken crop panel breaks the full pipeline, but growth reads
        # only the io panel
        config = absolute_config(run_dir)
        config["inputs"]["crop_panel"] = str(tmp_path / "crops.csv")
        (tmp_path / "crops.csv").write_text("nonsense\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["report", "-c", str(path),
                     "-o", str(tmp_path / "report_out")]) == 1
        out = tmp_path / "growth_out"
        assert main(["growth", "-c", str(path), "-o", str(out)]) == 0
        assert (out / "growth_rates.json").read_bytes() == \
            (report_dir / "growth_rates.json").read_bytes()

    def test_markets_config_reads_only_its_inputs(self, run_dir, report_dir,
                                                  tmp_path):
        # a broken io panel breaks the full pipeline, but markets reads only
        # the crop panel, prices, land use and value/cost series
        config = absolute_config(run_dir)
        config["inputs"]["io_panel"] = str(tmp_path / "io_panel.csv")
        (tmp_path / "io_panel.csv").write_text("nonsense\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["report", "-c", str(path),
                     "-o", str(tmp_path / "report_out")]) == 1
        out = tmp_path / "markets_out"
        assert main(["markets", "-c", str(path), "-o", str(out)]) == 0
        names = ["break_stats.json", "figure3.csv", "figure4.csv",
                 "land_ratios.json", "shares.csv"]
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == \
                (report_dir / name).read_bytes()

    def test_decompose_config_reads_only_the_crop_panel(self, run_dir,
                                                        report_dir, tmp_path):
        # a broken io panel breaks the full pipeline, but decompose reads
        # only the crop panel
        path = write_config(
            tmp_path, with_broken_input(run_dir, tmp_path, "io_panel"))
        assert main(["report", "-c", str(path),
                     "-o", str(tmp_path / "report_out")]) == 1
        out = tmp_path / "decompose_out"
        assert main(["decompose", "-c", str(path), "-o", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["decomposition.json"]
        assert (out / "decomposition.json").read_bytes() == \
            (report_dir / "decomposition.json").read_bytes()

    @pytest.mark.parametrize("fault", ["broken crop panel", "growth window"])
    def test_tfp_config_reads_only_the_io_panel(self, run_dir, report_dir,
                                                tmp_path, fault):
        # either fault breaks the full pipeline, but tfp reads only the io
        # panel and computes no growth rate
        if fault == "broken crop panel":
            config = with_broken_input(run_dir, tmp_path, "crop_panel")
        else:  # a window the io panel does not cover
            config = absolute_config(run_dir)
            config["periods"] = {"x": [1990, 1991]}
        path = write_config(tmp_path, config)
        assert main(["report", "-c", str(path),
                     "-o", str(tmp_path / "report_out")]) == 1
        out = tmp_path / "tfp_out"
        assert main(["tfp", "-c", str(path), "-o", str(out)]) == 0
        names = ["figure2.csv", "tfp_index.csv"]
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == \
                (report_dir / name).read_bytes()

    def test_diagnose_prints_verdict(self, run_dir, report_dir, capsys):
        rc = main(["diagnose", "--tree", "builtin",
                   "--indicators", str(report_dir / "indicators.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "agricultural_markets" in out
        assert "crop_diversification" in out


class TestFailureModes:
    def test_missing_inputs_is_nonzero(self, tmp_path, capsys):
        config = {
            "inputs": {
                "crop_panel": "crops.csv", "io_panel": "io.csv",
                "price_series": ["prices.csv"], "land_use": "land.csv",
                "cost_series": "vc.csv", "area_shares_region": "r.csv",
                "area_shares_nation": "n.csv",
            },
            "periods": {}, "decomposition": {"base_year": 1, "terminal_year": 2},
            "break_year": 2007, "break_commodities": [],
            "grain_commodity": "wheat", "fertilizer_commodity": "urea",
            "diversification_group": "horticulture",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["validate", "-c", str(path)]) == 1
        assert "no inputs" in capsys.readouterr().err

    def test_unwritable_output_dir(self, run_dir, capsys):
        blocker = run_dir / "blocked"
        blocker.write_text("a file where a directory should go")
        rc = main(["report", "-c", str(run_dir / "config.json"),
                   "-o", str(blocker)])
        assert rc == 1
        assert "I/O" in capsys.readouterr().err

    def test_module_error_propagates_with_message(self, run_dir, tmp_path, capsys):
        config = json.loads((run_dir / "config.json").read_text())
        config["decomposition"] = {"base_year": 1900, "terminal_year": 2016}
        for key, value in config["inputs"].items():
            if isinstance(value, list):
                config["inputs"][key] = [str(run_dir / v) for v in value]
            else:
                config["inputs"][key] = str(run_dir / value)
        path = tmp_path / "bad_config.json"
        path.write_text(json.dumps(config))
        assert main(["report", "-c", str(path), "-o", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_missing_key_named(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"inputs": {}}))
        assert main(["validate", "-c", str(path)]) == 1
        assert "missing key" in capsys.readouterr().err


    def test_non_finite_value_cost_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(bad)
        lines = (bad / "value_cost.csv").read_text().splitlines()
        year = lines[2].split(",")[0]
        lines[2] = f"{year},nan,1"
        (bad / "value_cost.csv").write_text("\n".join(lines) + "\n")
        rc = main(["report", "-c", str(bad / "config.json"),
                   "-o", str(tmp_path / "o")])
        assert rc == 1
        assert "'output_value', row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, artifact, where", [
        ("report", "decomposition.json", "at key 'area_effect'"),
        ("decompose", "decomposition.json", "at key 'area_effect'"),
        ("markets", "shares.csv", "in column 'value_share_pct'"),
    ])
    def test_overflow_to_non_finite_exits_1_writing_nothing(
            self, tmp_path, capsys, command, artifact, where):
        # finite inputs whose sums overflow to inf, and so to NaN
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        crops = inputs / "crops.csv"
        lines = crops.read_text().splitlines()
        for i, line in enumerate(lines):
            crop, year, area, production, price = line.split(",")
            if (crop, year) == ("paddy", "2000"):
                price = "1.7e308"
            elif (crop, year) == ("wheat", "2000"):
                area = "1.7e308"
            lines[i] = ",".join((crop, year, area, production, price))
        crops.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        out.mkdir()
        rc = main([command, "-c", str(inputs / "config.json"),
                   "-o", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {artifact}: non-finite")
        assert where in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["markets", "report"])
    def test_price_overflow_exits_1_naming_commodity_and_window(
            self, tmp_path, capsys, command):
        # finite prices whose sum overflows while they are averaged
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        prices = inputs / "prices.csv"
        prices.write_text("".join(
            f"maize,{line.split(',')[1]},1.7e308\n"
            if line.startswith("maize,") else line + "\n"
            for line in prices.read_text().splitlines()))
        rc = main([command, "-c", str(inputs / "config.json"),
                   "-o", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert err == ("error: before window for 'maize' around 2007: its "
                       "price statistics overflow a float\n")

    def test_index_overflow_exits_1_naming_series_and_year(self, tmp_path,
                                                           capsys):
        # each log change is finite; their sum is not, as a level
        panel = tmp_path / "io_panel.csv"
        panel.write_text("year,kind,item_id,quantity,share\n" + "".join(
            f"{year},output,grain,{quantity},1.0\n{year},input,labour,1,1.0\n"
            for year, quantity in ((2000, "1e-300"), (2001, "1e5"),
                                   (2002, "1e300"))))
        assert main(["tfp", "--io-panel", str(panel)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == ("error: index series 'output' value for 2002 "
                       "overflows a float\n")

    @pytest.mark.parametrize("command", ["growth", "tfp", "report"])
    def test_io_ratio_overflow_exits_1_naming_side_item_and_years(
            self, tmp_path, capsys, command):
        # 1e158 / 1e-152 overflows a float, though each quantity is finite
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        quantities = {2000: "1", 2001: "1e-152"}
        (inputs / "io_panel.csv").write_text(
            "year,kind,item_id,quantity,share\n" + "".join(
                f"{year},output,grain,{quantities.get(year, '1e158')},1.0\n"
                f"{year},input,labour,1,1.0\n" for year in fixtures.IO_YEARS))
        rc = main([command, "-c", str(inputs / "config.json"),
                   "-o", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == ("error: output 'grain': its quantity ratio "
                       "2001->2002 (1e+158 / 1e-152) leaves the float range\n")

    @pytest.mark.parametrize("command", ["validate", "report"])
    @pytest.mark.parametrize("name", [
        "crops.csv", "io_panel.csv", "prices.csv", "land_use.csv",
        "value_cost.csv", "area_region.csv", "area_nation.csv",
    ])
    def test_header_only_input_exits_1_naming_it(self, tmp_path, capsys,
                                                 command, name):
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        bad = inputs / name
        bad.write_text(bad.read_text().splitlines()[0] + "\n\n")
        out = tmp_path / "o"
        out.mkdir()
        rc = main([command, "-c", str(inputs / "config.json"),
                   "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")
        assert f"{bad}: header but no data rows" in captured.err
        assert "Traceback" not in captured.err
        assert "all inputs valid" not in captured.out
        assert list(out.iterdir()) == []

    # input file -> (the kind its errors name, year column, a value column)
    CSV_INPUTS = {
        "crops.csv": ("crop panel", 1, 2),
        "io_panel.csv": ("io panel", 0, 3),
        "prices.csv": ("price series", 1, 2),
        "land_use.csv": ("land use", 0, 1),
        "value_cost.csv": ("value/cost series", 0, 1),
        "area_region.csv": ("region area-share table", 1, 2),
        "area_nation.csv": ("nation area-share table", 1, 2),
    }

    # message kind -> (how the file is broken, a fragment of the message)
    BREAKS = {
        "empty file": (lambda lines, year, value: [],
                       "empty file, expected header"),
        "bad header": (lambda lines, year, value: ["nonsense", *lines[1:]],
                       "bad header"),
        "row width": (lambda lines, year, value: [*lines, "1,2"],
                      "has 2 columns"),
        "non-numeric": (lambda lines, year, value: set_first_row_cell(
            lines, year, "abc"), "non-numeric value 'abc' in column 'year'"),
        "negative": (lambda lines, year, value: set_first_row_cell(
            lines, value, "-1"), "-1"),
        "duplicate": (lambda lines, year, value: [*lines, lines[1]],
                      "duplicate"),
        "header only": (lambda lines, year, value: lines[:1],
                        "header but no data rows"),
        "negative, row named": (lambda lines, year, value: set_first_row_cell(
            lines, value, "-1"), "', row 2 must be finite and "),
        "not UTF-8": (None, "not UTF-8 text"),
    }

    @pytest.mark.parametrize("message", list(BREAKS))
    @pytest.mark.parametrize("name", list(CSV_INPUTS))
    def test_csv_error_names_input_kind_and_file(self, tmp_path, capsys,
                                                 name, message):
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        kind, year, value = self.CSV_INPUTS[name]
        breaks, fragment = self.BREAKS[message]
        bad = inputs / name
        if breaks is None:
            bad.write_bytes(bad.read_bytes() + b"\xff\n")
        else:
            lines = breaks(bad.read_text().splitlines(), year, value)
            bad.write_text("".join(f"{line}\n" for line in lines))
        rc = main(["validate", "-c", str(inputs / "config.json")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: {kind} {bad}: ")
        assert fragment in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("tree", [
        '{"manifest": {}, "roots": ["a"], "nodes": {"a": 5}}',
        '{"manifest": {}, "roots": ["a"], "nodes": ["a"]}',
        '7',
    ])
    def test_malformed_tree_exits_1(self, report_dir, tmp_path, capsys,
                                    tree):
        path = tmp_path / "tree.json"
        path.write_text(tree)
        rc = main(["diagnose", "--tree", str(path),
                   "--indicators", str(report_dir / "indicators.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("text, fragment", [
        ("[1, 2]", "must be an object mapping indicator names"),
        ('"str"', "must be an object mapping indicator names"),
        ('{"a": 1}', "indicator 'a' must be an object with a 'value'"),
        ('{"x": {}}', "indicator 'x' must be an object with a 'value'"),
        ('{"x": {"value": [[1, "a"]]}}', "indicator 'x': series"),
        ('{"x": {"value": [1]}}', "indicator 'x': series"),
        ('{"x": {"value": "str"}}', "indicator 'x': value 'str' is not a number"),
        ('{"x": {"value": true}}', "indicator 'x': value True is not a number"),
        ('{"x": {"value": null}}', "indicator 'x': value None is not a number"),
    ])
    def test_malformed_indicators_exit_1_naming_file_and_indicator(
            self, tmp_path, capsys, text, fragment):
        path = tmp_path / "indicators.json"
        path.write_text(text)
        assert main(["diagnose", "--indicators", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: indicators file {path}: ")
        assert fragment in err and "Traceback" not in err

    @pytest.mark.parametrize("fail_at", [1, 2, len(REPORT_ARTIFACTS)])
    def test_failed_write_keeps_the_last_report(self, run_dir, tmp_path,
                                                monkeypatch, capsys, fail_at):
        out = tmp_path / "o"
        out.mkdir()
        previous = {name: f"previous {name}\n".encode()
                    for name in REPORT_ARTIFACTS}
        for name, data in previous.items():
            (out / name).write_bytes(data)
        write_text = Path.write_text
        calls = []

        def failing_write_text(self, data, *args, **kwargs):
            # the FAIL_AT-th write stops partway, as on a full disk
            calls.append(self)
            if len(calls) == fail_at:
                write_text(self, data[:10], *args, **kwargs)
                raise OSError(28, "No space left on device")
            return write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write_text)
        rc = main(["report", "-c", str(run_dir / "config.json"),
                   "-o", str(out)])
        monkeypatch.undo()
        assert rc == 1
        assert "No space left" in capsys.readouterr().err
        assert len(calls) == fail_at
        # every old artifact unchanged and no temporary file left behind
        assert {p.name: p.read_bytes() for p in out.iterdir()} == previous

    @pytest.mark.parametrize("name", ["land_use.csv", "config.json",
                                      "tree.json", "indicators.json"])
    def test_non_utf8_file_exits_1_naming_it(self, report_dir, tmp_path,
                                             capsys, name):
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        bad = inputs / name
        bad.write_bytes(b"\xff\xfe\x00")
        argv = {
            "land_use.csv": ["report", "-c", str(inputs / "config.json")],
            "config.json": ["validate", "-c", str(bad)],
            "tree.json": ["diagnose", "--tree", str(bad), "--indicators",
                          str(report_dir / "indicators.json")],
            "indicators.json": ["diagnose", "--indicators", str(bad)],
        }[name]
        assert main(argv + ["-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(bad) in err and "not UTF-8" in err


class TestNoNumpyAtRuntime:
    """The package runs on the standard library alone."""

    def test_cli_import_and_report_leave_numpy_unloaded(self, run_dir,
                                                        tmp_path):
        src = str(Path(agrodiag.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import sys\n"
            "import agrodiag.cli\n"
            "assert 'numpy' not in sys.modules, 'import agrodiag.cli'\n"
            "rc = agrodiag.cli.main(['report', '-c', sys.argv[1],"
            " '-o', sys.argv[2]])\n"
            "assert rc == 0, rc\n"
            "assert 'numpy' not in sys.modules, 'report'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(run_dir / "config.json"),
             str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            sorted(REPORT_ARTIFACTS)


class TestRunConfig:
    def test_paths_resolve_relative_to_config(self, run_dir):
        config = load_run_config(run_dir / "config.json")
        assert config.crop_panel == run_dir / "crops.csv"
        assert config.output_dir == run_dir / "out"

    def test_compute_artifacts_is_pure(self, run_dir):
        config = load_run_config(run_dir / "config.json")
        artifacts, report = compute_artifacts(config)
        assert sorted(artifacts) == sorted(REPORT_ARTIFACTS)
        assert report.binding_constraints

    @pytest.mark.parametrize("key, value", [
        ("methods", []),
        ("periods", []),
        ("benchmarks", []),
        ("break_commodities", "rice"),
        ("break_commodities", ["rice", 5]),
        ("inputs.price_series", "x.csv"),
        ("methods.tfp_base_year", "1990"),
        ("methods.tfp_base_year", True),
        ("break_year", 2007.9),
        ("decomposition.base_year", 2002.5),
        ("decomposition.terminal_year", True),
        ("periods.x", [2001.7, True]),
        ("periods.x", [2001, 2005, 2009]),
        ("methods.cv_ddof", True),
        ("methods.cv_ddof", 1.0),
        ("benchmarks.national_tfp_growth_pct", "1.6"),
        ("benchmarks.national_tfp_growth_pct", True),
        ("benchmarks.national_tfp_growth_pct", "nan"),
        ("benchmarks.national_tfp_growth_pct", float("nan")),
        ("benchmarks.national_tfp_growth_pct", 10 ** 400),
        ("grain_commodity", 5),
        ("fertilizer_commodity", None),
        ("diversification_group", ["horticulture"]),
        ("tree", 7),
        ("inputs", "x"),
        ("decomposition", 5),
        ("inputs.crop_panel", 7),
        ("output_dir", 5),
        ("inputs.land_use", "land\u0000use.csv"),
        ("inputs.price_series", ["prices\u0000.csv"]),
        ("output_dir", "o\u0000ut"),
        ("tree", "tree\u0000.json"),
    ])
    def test_malformed_shape_exits_1_naming_the_key(self, tmp_path, capsys,
                                                    key, value):
        config_path = fixtures.write_synthetic_inputs(tmp_path / "inputs")
        config = json.loads(config_path.read_text())
        *owners, leaf = key.split(".")
        target = config
        for owner in owners:
            target = target[owner]
        target[leaf] = value
        config_path.write_text(json.dumps(config))
        rc = main(["report", "-c", str(config_path),
                   "-o", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert err.startswith(f"error: config {config_path}: {key} ")

    def test_byte_order_marks_change_no_artifact(self, report_dir, tmp_path):
        """A config and CSVs saved with a UTF-8 BOM, as spreadsheet
        programs write them, give the same report as without."""
        config_path = fixtures.write_synthetic_inputs(tmp_path / "inputs")
        for path in [config_path, *config_path.parent.glob("*.csv")]:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = tmp_path / "o"
        assert main(["report", "-c", str(config_path), "-o", str(out)]) == 0
        for name in REPORT_ARTIFACTS:
            assert (out / name).read_bytes() == \
                (report_dir / name).read_bytes(), name
