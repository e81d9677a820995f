import csv
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

import agrodiag
from agrodiag import cli, fixtures, serialize
from agrodiag.advantage import AreaShareTable
from agrodiag.cli import main, parse_args
from agrodiag.commands import _run
from agrodiag.config import load_run_config
from agrodiag.errors import CoverageError
from agrodiag.panel import (
    CropPanel, InputOutputPanel, LandUseRecord, PriceSeries,
)
from agrodiag.pipeline import Run

from helpers import (REPORT_ARTIFACTS, artifact_texts, crop_rows,
                     other_interpreters, out_flag)
from test_startup import ENTRY, RUN_CLI, SRC, loaded_modules, opened_files

# every command, as a usage error lists them
COMMANDS = ("validate, decompose, tfp, growth, markets, cai, diagnose, "
            "report")

# the digests of the fixture report, which the benchmark checks too
PINNED = json.loads((Path(__file__).parents[1] / "perfbench"
                     / "fixture_sha256.json").read_text())


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_inputs")
    fixtures.write_synthetic_inputs(directory)
    return directory


def print_values(configs) -> None:
    """Print the ``repr`` of each run config's unrounded values: the
    decomposition record, the index series, both trienniums' area and value
    shares, the land ratios and the CAI table."""
    from agrodiag import decomposition, markets
    from agrodiag.config import load_run_config
    from agrodiag.pipeline import Run

    for path in configs:
        run = Run(load_run_config(path))
        config = run.config
        trienniums = (config.decomposition_base, config.decomposition_terminal)
        print(repr(decomposition.decompose(
            run.panel, *trienniums, period_mode=config.period_mode
        ).to_record()))
        print(repr({kind: s.values for kind, s in run.series.items()}))
        for te in trienniums:
            for dimension in ("area", "value"):
                print(repr(list(
                    markets.crop_shares(run.panel, te, dimension)[1])))
        print(repr(run.readings["land"]))
        print(repr(run.cai_values))


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
        assert sorted(PINNED) == sorted(REPORT_ARTIFACTS)
        for name, digest in PINNED.items():
            assert hashlib.sha256((report_dir / name).read_bytes()) \
                .hexdigest() == digest, name

    def test_other_interpreters_write_the_pinned_bytes(self, run_dir,
                                                       tmp_path):
        found = other_interpreters()
        if not found:
            pytest.skip("no other python3.10 ... python3.13 on PATH starts")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
        for exe in found:
            out = tmp_path / Path(exe).name
            result = subprocess.run(
                [exe, "-m", "agrodiag", "report", "-c",
                 str(run_dir / "config.json"), "-o", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert (result.returncode, result.stderr) == (0, ""), exe
            assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in PINNED} == PINNED, exe

    def test_other_interpreters_compute_the_same_values(self, run_dir,
                                                        scaled_dir):
        # every total is added left to right, so no value depends on how
        # an interpreter's ``sum()`` adds floats (compensated from 3.12)
        found = other_interpreters()
        if not found:
            pytest.skip("no other python3.10 ... python3.13 on PATH starts")
        configs = [str(run_dir / "config.json"),
                   str(scaled_dir / "config.json")]
        here = io.StringIO()
        with redirect_stdout(here):
            print_values(configs)
        script = ("import sys\n" + inspect.getsource(print_values)
                  + "print_values(sys.argv[1:])\n")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
        for exe in found:
            result = subprocess.run([exe, "-c", script, *configs], env=env,
                                    capture_output=True, text=True,
                                    timeout=120)
            assert (result.returncode, result.stderr) == (0, ""), exe
            assert result.stdout == here.getvalue(), exe

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
        # the crop-panel counts cover every year, not only the comparison
        # trienniums a report keeps
        assert capsys.readouterr().out == (
            "crop panel: 170 observations, 10 crops, years 2000-2016\n"
            "io panel: 16 years, 2000-2015\n"
            "price series: 4 commodities (maize, paddy, urea, wheat)\n"
            "land use: 17 years\n"
            "value/cost series: 17 years\n"
            "area tables: 5 region groups, 5 nation groups\n"
            "tree: 5 chains, 7 nodes\n"
            "all inputs valid\n"
        )

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

    @pytest.mark.parametrize("flags, config_form", [
        *((["decompose", "--crop-panel", "{inputs}/crops.csv", "--base", "2002",
            "--terminal", "2016", "--mode", mode], ["decompose", "--mode", mode])
          for mode in ("triennium", "endpoint")),
        (["decompose", "--crop-panel", "{inputs}/crops.csv", "--base", "2002",
          "--terminal", "2016"], ["decompose"]),
        (["tfp", "--io-panel", "{inputs}/io_panel.csv"], ["tfp"]),
        (["tfp", "--io-panel", "{inputs}/io_panel.csv", "--base-year", "2005"],
         ["tfp", "--base-year", "2005"]),
        (["cai", "--region", "{inputs}/area_region.csv",
          "--nation", "{inputs}/area_nation.csv"], ["cai"]),
        (["diagnose", "--indicators", "{report}/indicators.json"], ["diagnose"]),
    ], ids=["decompose-triennium", "decompose-endpoint", "decompose-default",
            "tfp", "tfp-base-year", "cai", "diagnose"])
    def test_flag_form_equals_its_config_form(self, run_dir, report_dir,
                                              tmp_path, capsys, flags,
                                              config_form):
        command, *extra = config_form
        config_form = [command, "-c", str(run_dir / "config.json"), *extra]

        def run(argv, out=None):
            argv = [a.format(inputs=run_dir, report=report_dir) for a in argv]
            if out is not None:
                argv += ["-o", str(out)]
            assert main(argv) == 0, argv
            return capsys.readouterr().out

        assert run(flags) == run(config_form)
        assert run(flags, tmp_path / "flags") == \
            run(config_form, tmp_path / "config")
        got, want = ({p.name: p.read_bytes() for p in out.iterdir()}
                     for out in (tmp_path / "flags", tmp_path / "config"))
        if command == "diagnose":  # the config form also writes its input
            assert want.pop("indicators.json") == \
                (report_dir / "indicators.json").read_bytes()
        assert got == want

    @pytest.mark.parametrize("flags, config_form", [
        (["decompose", "--crop-panel", "{inputs}/crops.csv", "--base", "1990",
          "--terminal", "2016"], ["decompose", "--base", "1990",
                                  "--terminal", "2016"]),
        (["decompose", "--crop-panel", "{inputs}/crops.csv", "--base", "2002",
          "--terminal", "2030", "--mode", "endpoint"],
         ["decompose", "--terminal", "2030", "--mode", "endpoint"]),
        (["tfp", "--io-panel", "{inputs}/io_panel.csv", "--base-year", "1990"],
         ["tfp", "--base-year", "1990"]),
    ], ids=["decompose-triennium", "decompose-endpoint", "tfp-base-year"])
    def test_flag_form_fails_as_its_config_form(self, run_dir, tmp_path,
                                                capsys, flags, config_form):
        command, *extra = config_form
        config_form = [command, "-c", str(run_dir / "config.json"), *extra]
        errors = []
        for argv, out in ((flags, tmp_path / "flags"),
                          (config_form, tmp_path / "config")):
            argv = [a.format(inputs=run_dir) for a in argv]
            assert main([*argv, "-o", str(out)]) == 1, argv
            assert not out.exists()
            errors.append(capsys.readouterr())
        assert errors[0] == errors[1]
        assert errors[0].err.startswith("error: ")

    @pytest.mark.parametrize("mixed, flags", [
        (["decompose", "--crop-panel", "{edited}"],
         ["decompose", "--crop-panel", "{edited}", "--base", "2002",
          "--terminal", "2016"]),
        (["tfp", "--io-panel", "{inputs}/crops.csv"],
         ["tfp", "--io-panel", "{inputs}/crops.csv"]),
        (["cai", "--region", "{inputs}/area_nation.csv"],
         ["cai", "--region", "{inputs}/area_nation.csv",
          "--nation", "{inputs}/area_nation.csv"]),
    ], ids=["decompose", "tfp", "cai"])
    def test_a_flag_overrides_its_config_field(self, run_dir, tmp_path,
                                               capsys, mixed, flags):
        # each flag names a file the config's own input is not: a crop
        # panel with every price doubled, a file that is no io panel, and
        # the nation table as the region's
        lines = (run_dir / "crops.csv").read_text().splitlines()
        edited = tmp_path / "crops.csv"
        edited.write_text("\n".join([lines[0], *(
            f"{line.rsplit(',', 1)[0]},{2 * float(line.rsplit(',', 1)[1])}"
            for line in lines[1:])]) + "\n")
        command, *extra = mixed
        results = []
        for argv, out in (([command, "-c", str(run_dir / "config.json"),
                            *extra], tmp_path / "mixed"),
                          (flags, tmp_path / "flags")):
            argv = [a.format(inputs=run_dir, edited=edited) for a in argv]
            code = main([*argv, "-o", str(out)])
            results.append((code, capsys.readouterr(), out.exists() and {
                p.name: p.read_bytes() for p in out.iterdir()}))
        assert results[0] == results[1]

    def test_diagnose_indicators_with_config_uses_its_tree(
            self, run_dir, report_dir, tmp_path, capsys):
        # the config's tree, relative to its directory, marks the land
        # ratio binding; the indicators file marks technology binding
        tree = json.loads((Path(agrodiag.__file__).parent / "data"
                           / "bihar_tree.json").read_text())
        tree["nodes"]["land"]["predicate"]["threshold"] = 0.0
        (tmp_path / "tree.json").write_text(json.dumps(tree))
        config = absolute_config(run_dir)
        config["tree"] = "tree.json"
        path = write_config(tmp_path, config)
        indicators = json.loads((report_dir / "indicators.json").read_text())
        indicators["tfp_growth_gap_pp"]["value"] = -1.0
        (tmp_path / "indicators.json").write_text(json.dumps(indicators))
        results = []
        for argv, out in ((["-c", str(path)], tmp_path / "mixed"),
                          (["--tree", str(tmp_path / "tree.json")],
                           tmp_path / "flags")):
            assert main(["diagnose", *argv, "--indicators",
                         str(tmp_path / "indicators.json"),
                         "-o", str(out)]) == 0
            results.append((capsys.readouterr(), {
                p.name: p.read_bytes() for p in out.iterdir()}))
        assert results[0] == results[1]
        assert list(results[0][1]) == ["diagnosis.json"]
        diagnosis = json.loads(results[0][1]["diagnosis.json"])
        assert {"agricultural_land", "technology"} <= \
            set(diagnosis["binding_constraints"])

    @pytest.mark.parametrize("argv, usage", [
        *((argv, "decompose needs --config or --crop-panel with --base and "
                 "--terminal")
          for argv in (["decompose"], ["decompose", "--crop-panel",
                                       "crops.csv", "--base", "2002"])),
        *((argv, "tfp needs --config or --io-panel")
          for argv in (["tfp"], ["tfp", "--base-year", "2005"])),
        *((argv, "cai needs --config or both --region and --nation")
          for argv in (["cai"], ["cai", "--region", "area_region.csv"])),
        *((argv, "diagnose needs --indicators or --config")
          for argv in (["diagnose"], ["diagnose", "--tree", "builtin"])),
    ], ids=["decompose", "decompose-partial", "tfp", "tfp-base-year", "cai",
            "cai-region", "diagnose", "diagnose-tree"])
    def test_usage_error_exits_2_loading_no_layer(self, tmp_path, capsys,
                                                  argv, usage):
        out = tmp_path / "out"
        assert main([*argv, "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {usage}\n")
        assert loaded_modules(RUN_CLI, *argv, "-o", str(out)) == (2, ENTRY)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ([], f"no command; choose one of {COMMANDS}"),
        (["foo"], f"unknown command 'foo'; choose one of {COMMANDS}"),
        (["-c", "config.json"], f"unknown command '-c'; choose one of "
                                f"{COMMANDS}"),
        (["decompose", "--conf", "config.json"],
         "decompose: unknown flag --conf"),
        (["tfp", "--base", "2005"], "tfp: unknown flag --base"),
        (["report", "--mode=endpoint"], "report: unknown flag --mode"),
        (["validate", "-cconfig.json"], "validate: unknown flag -cconfig.json"),
        (["decompose", "crops.csv"],
         "decompose: unexpected argument 'crops.csv'"),
        (["report", "-c", "config.json", "extra"],
         "report: unexpected argument 'extra'"),
        (["decompose", "--base"], "decompose: --base needs a value"),
        (["cai", "--region", "--nation", "n.csv"],
         "cai: --region needs a value"),
        (["report", "-c"], "report: --config needs a value"),
        (["decompose", "--base", "x"],
         "decompose: --base must be an integer, got 'x'"),
        (["decompose", "--base=2002.0"],
         "decompose: --base must be an integer, got '2002.0'"),
        (["decompose", "--mode", "foo"],
         "decompose: --mode must be one of triennium, endpoint, got 'foo'"),
        (["growth", "--method", "CAGR"],
         "growth: --method must be one of loglinear, cagr, got 'CAGR'"),
        (["report"], "report needs --config"),
        (["validate"], "validate needs --config"),
        # validate writes nothing, so it refuses an output directory
        (["validate", "-c", "config.json", "-o", "out"],
         "validate: unknown flag --out"),
        (["validate", "--out=out", "-c", "config.json"],
         "validate: unknown flag --out"),
    ], ids=["no-command", "unknown-command", "flag-first", "prefix",
            "other-commands-flag", "report-flag", "attached-short-value",
            "positional", "positional-after-flags", "no-value",
            "flag-as-value", "config-no-value", "base-x", "base-float",
            "mode-foo", "method-case", "report-no-config",
            "validate-no-config", "validate-o", "validate-out"])
    def test_usage_error_is_one_line_exit_2_loading_no_layer(
            self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert loaded_modules(RUN_CLI, *argv) == (2, ENTRY)

    @pytest.mark.parametrize("argv, message", [
        (["markets", "-c", "{config}", "-o", ""], "markets: --out needs a value"),
        (["report", "-c", "{config}", "--out="], "report: --out needs a value"),
        (["report", "--config="], "report: --config needs a value"),
        (["report", "-c", ""], "report: --config needs a value"),
        (["decompose", "--crop-panel=", "--base", "2002", "--terminal",
          "2016"], "decompose: --crop-panel needs a value"),
    ], ids=["markets-o", "report-out", "report-config", "report-c",
            "decompose-crop-panel"])
    def test_an_empty_value_exits_2_writing_nothing(
            self, run_dir, tmp_path, monkeypatch, capsys, argv, message):
        # an empty path would be '.', the working directory
        monkeypatch.chdir(tmp_path)
        argv = [arg.format(config=run_dir / "config.json") for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spaced, joined", [
        (["decompose", "--crop-panel", "{inputs}/crops.csv", "--base",
          "2002", "--terminal", "2016", "--mode", "endpoint"],
         ["decompose", "--crop-panel={inputs}/crops.csv", "--base=2002",
          "--terminal=2016", "--mode=endpoint"]),
        (["tfp", "-c", "{inputs}/config.json", "--base-year", "2005"],
         ["tfp", "--config={inputs}/config.json", "--base-year=2005"]),
    ], ids=["decompose", "tfp"])
    def test_flag_equals_value_is_flag_then_value(self, run_dir, capsys,
                                                  spaced, joined):
        spaced, joined = ([a.format(inputs=run_dir) for a in argv]
                          for argv in (spaced, joined))
        assert parse_args(spaced) == parse_args(joined)
        assert main(spaced) == 0
        want = capsys.readouterr()
        assert main(joined) == 0
        assert capsys.readouterr() == want

    def test_the_last_of_a_repeated_flag_wins(self, run_dir, capsys):
        crops = str(run_dir / "crops.csv")
        last = ["decompose", "--crop-panel", crops, "--base", "2002",
                "--terminal", "2016"]
        repeated = ["decompose", "--crop-panel", "missing.csv", "--base",
                    "1990", "--terminal", "2016", "--crop-panel", crops,
                    "--base=2002"]
        assert parse_args(repeated) == parse_args(last)
        assert main(repeated) == 0
        want = capsys.readouterr()
        assert main(last) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_exits_0_naming_every_flag(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if command is None:
            names = list(cli._COMMANDS)
        else:
            writes = command != "validate"
            names = ["-c, --config", *["-o, --out"] * writes, *(
                flag for flag, spec in cli._COMMANDS[command][1].items()
                if spec is not None)]
            assert ("--out" in out) is writes
            assert main([command, "-c", "config.json", "-h"]) == 0
            assert capsys.readouterr() == (out, "")
        assert [name for name in names if f"  {name} " not in out] == []

    def test_every_command_dispatches(self):
        # the table lives in cli, the handlers in commands: a command with
        # no handler of its own runs the Run method of its name
        from agrodiag import commands

        assert commands._HANDLERS.keys() <= cli._COMMANDS.keys()
        assert [command for command in cli._COMMANDS
                if command not in commands._HANDLERS
                and not callable(getattr(Run, command, None))] == []

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
    @pytest.mark.parametrize("flags", [(), ("-u",)],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["--help"], ["decompose", "-c", "{inputs}/config.json"]],
        ids=["help", "decompose"])
    def test_closed_stdout_is_an_io_failure(self, run_dir, flags, argv):
        # the reader's end is closed before the process starts, so every
        # write to stdout fails: inside main, not in the interpreter's
        # flush at exit (exit 120) or as a traceback
        argv = [a.format(inputs=run_dir) for a in argv]
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, *flags, "-m", "agrodiag", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                timeout=60)
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == \
            (1, "error: I/O failure: [Errno 32] Broken pipe\n")

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

    @pytest.mark.parametrize("command, error, where", [
        pytest.param("report", "decomposition.json: non-finite",
                     "at key 'area_effect'",
                     id="report-decomposition.json-at key 'area_effect'"),
        pytest.param("decompose", "decomposition.json: non-finite",
                     "at key 'area_effect'",
                     id="decompose-decomposition.json-at key 'area_effect'"),
        # the overflowing value total is refused before any share is
        # taken, so no NaN reaches the column the id names
        pytest.param("markets", "total value in TE 2002 is not finite\n", "",
                     id="markets-shares.csv-in column 'value_share_pct'"),
    ])
    def test_overflow_to_non_finite_exits_1_writing_nothing(
            self, tmp_path, capsys, command, error, where):
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
        assert err.startswith(f"error: {error}")
        assert where in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_overflowing_share_total_exits_1_keeping_the_output(
            self, tmp_path, capsys):
        # finite cells whose triennium total overflows to inf: four crops'
        # 2016 areas (an overflowing value total is the markets case above)
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        crops = inputs / "crops.csv"
        header, *rows = [line.split(",")
                         for line in crops.read_text().splitlines()]
        for row in [row for row in rows if row[1] == "2016"][:4]:
            row[2] = "1.7e308"
        crops.write_text("".join(f"{','.join(row)}\n"
                                 for row in [header, *rows]))
        out = tmp_path / "o"
        out.mkdir()
        (out / "shares.csv").write_text("previous\n")
        assert main(["markets", "-c", str(inputs / "config.json"),
                     "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: total area in TE 2016 is not finite\n")
        assert {p.name: p.read_text() for p in out.iterdir()} == {
            "shares.csv": "previous\n"}

    def test_overflowing_growth_rate_exits_1_naming_the_window(
            self, tmp_path, capsys):
        # the TFP index jumps by a factor 1e312 from 2000 to its base year
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        config = absolute_config(inputs)
        config["periods"] = {"jump": [2000, 2001]}
        config["methods"]["tfp_base_year"] = 2001
        (inputs / "io_panel.csv").write_text(
            "year,kind,item_id,quantity,share\n"
            "2000,output,o,1e-78,1\n2001,output,o,1e78,1\n"
            "2002,output,o,1e78,1\n2000,input,i,1e78,1\n"
            "2001,input,i,1e-78,1\n2002,input,i,1e-78,1\n")
        out = tmp_path / "o"
        assert main(["growth", "-c", str(write_config(tmp_path, config)),
                     "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: the growth rate over [2000, 2001] overflows a float\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cai -c", "cai --region", "report -c"])
    @pytest.mark.parametrize("scope", ["region", "nation"])
    def test_overflowing_area_table_exits_1_naming_it(self, tmp_path, capsys,
                                                      command, scope):
        # every group's area is finite, their total is not
        inputs = tmp_path / "inputs"
        config = fixtures.write_synthetic_inputs(inputs)
        table = inputs / f"area_{scope}.csv"
        header, *rows = [line.split(",")
                         for line in table.read_text().splitlines()]
        table.write_text("".join(f"{','.join(row)}\n" for row in [
            header, *([crop, year, "1.7e308", *rest]
                      for crop, year, _, *rest in rows)]))
        out = tmp_path / "o"
        argv = [*command.split(), str(config)]
        if command == "cai --region":
            argv[2:] = [str(inputs / "area_region.csv"), "--nation",
                        str(inputs / "area_nation.csv")]
        assert main([*argv, "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {scope} area-share table {table}: {scope} table for "
            f"2015 has an infinite total area\n")
        assert not out.exists()

    @pytest.mark.parametrize("fault, message", [
        ("second year", "must cover exactly one year, got 2016 in row 3 "
                        "after 2015"),
        ("repeated group", "duplicate (aromatic_medicinal, 2015) in row 3"),
    ])
    @pytest.mark.parametrize("command", ["validate -c", "cai -c",
                                         "cai --region", "report -c"])
    @pytest.mark.parametrize("scope", ["region", "nation"])
    def test_area_table_row_fault_exits_1_naming_the_row(
            self, tmp_path, capsys, scope, command, fault, message):
        inputs = tmp_path / "inputs"
        config = fixtures.write_synthetic_inputs(inputs)
        table = inputs / f"area_{scope}.csv"
        header, first, *rows = table.read_text().splitlines()
        crop, _, *rest = first.split(",")
        added = (",".join([crop, "2016", *rest]) if fault == "second year"
                 else first)
        table.write_text("".join(f"{line}\n"
                                 for line in (header, first, added, *rows)))
        out = tmp_path / "o"
        argv = [*command.split(), str(config)]
        if command == "cai --region":
            argv[2:] = [str(inputs / "area_region.csv"), "--nation",
                        str(inputs / "area_nation.csv")]
        if command != "validate -c":
            argv += ["-o", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {scope} area-share table {table}: {message}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["validate", "markets", "report"])
    def test_land_components_over_total_exit_1_naming_the_row(
            self, tmp_path, capsys, command):
        config = fixtures.write_synthetic_inputs(tmp_path / "inputs")
        land = config.parent / "land_use.csv"
        lines = land.read_text().splitlines()
        cells = lines[2].split(",")
        lines[2] = ",".join([*cells[:3], "1"])
        land.write_text("".join(f"{line}\n" for line in lines))
        used = float(cells[1]) + float(cells[2])
        assert main([command, "-c", str(config),
                     *out_flag(command, tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: land use {land}: land components in {cells[0]} exceed "
            f"total reported area ({used!r} > 1.0) in row 3\n")

    @pytest.mark.parametrize("command", ["validate", "markets", "report"])
    @pytest.mark.parametrize("row, year, message", [
        (1, "0", "triennium ending 2 is missing years [1, 2] "
                 "(year 0 is in row 2)"),
        (-1, "9999", "triennium ending 9999 is missing years [9997, 9998] "
                     "(year 9999 is in row 18)"),
    ], ids=["first", "last"])
    def test_land_use_year_gap_exits_1_naming_file_and_row(
            self, tmp_path, capsys, command, row, year, message):
        config = fixtures.write_synthetic_inputs(tmp_path / "inputs")
        land = config.parent / "land_use.csv"
        lines = land.read_text().splitlines()
        lines[row] = ",".join([year, *lines[row].split(",")[1:]])
        land.write_text("".join(f"{line}\n" for line in lines))
        assert main([command, "-c", str(config),
                     *out_flag(command, tmp_path / "o")]) == 1
        assert capsys.readouterr() == \
            ("", f"error: land use {land}: {message}\n")

    @pytest.mark.parametrize("command", ["validate", "report"])
    @pytest.mark.parametrize("kind, name, column", [
        ("value/cost series", "value_cost.csv", "input_cost"),
        ("land use", "land_use.csv", "total_reported"),
    ])
    def test_zero_denominator_exits_1_naming_file_and_row(
            self, tmp_path, capsys, command, kind, name, column):
        # the value/cost ratio divides by input_cost, the land-use ratios by
        # the first triennium's total_reported: validate refuses what a
        # report could not use
        config = fixtures.write_synthetic_inputs(tmp_path / "inputs")
        bad = config.parent / name
        lines = bad.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = "0"
        lines[1] = ",".join(cells)
        bad.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / "o"
        assert main([command, "-c", str(config),
                     *out_flag(command, out)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: {kind} {bad}: value 0.0 in column '{column}', row 2 "
            f"must be finite and > 0\n"))
        assert not out.exists()

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
                   *out_flag(command, out)])
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
        "field over the limit": (lambda lines, year, value: [
            *lines, "x" * (csv.field_size_limit() + 1)],
            "is not valid CSV: field larger than field limit"),
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
        '{"roots":\n',
    ])
    def test_malformed_tree_exits_1(self, report_dir, tmp_path, capsys,
                                    tree):
        path = tmp_path / "tree.json"
        path.write_text(tree)
        rc = main(["diagnose", "--tree", str(path),
                   "--indicators", str(report_dir / "indicators.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: tree config {path}: ")

    def test_a_tree_path_is_read_as_a_file_whatever_its_name(
            self, report_dir, tmp_path, monkeypatch, capsys):
        builtin = Path(agrodiag.__file__).parent / "data" / "bihar_tree.json"
        (tmp_path / "{t}.json").write_bytes(builtin.read_bytes())
        monkeypatch.chdir(tmp_path)
        verdicts = []
        for tree in ("builtin", "{t}.json"):
            assert main(["diagnose", "--tree", tree, "--indicators",
                         str(report_dir / "indicators.json")]) == 0
            verdicts.append(capsys.readouterr().out)
        assert verdicts[0] == verdicts[1]

    @pytest.mark.parametrize("tree", [None, '{"roots":\n'],
                             ids=["missing", "malformed"])
    def test_validate_refuses_the_tree_as_report_does(self, run_dir,
                                                      tmp_path, capsys, tree):
        path = tmp_path / "tree.json"
        if tree is not None:
            path.write_text(tree)
        config = absolute_config(run_dir)
        config["tree"] = str(path)
        config = write_config(tmp_path, config)
        errors = []
        for command in ("report", "validate"):
            assert main([command, "-c", str(config),
                         *out_flag(command, tmp_path / "o")]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: no inputs: {path}\n"
                                    if tree is None else
                                    f"error: tree config {path}: ")

    @pytest.mark.parametrize("form", ["diagnose", "diagnose -o", "report"])
    def test_an_overflowing_severity_exits_1_naming_the_node(
            self, run_dir, report_dir, tmp_path, capsys, form):
        # cai_max is about 1.7: past a threshold of 5e-324, its distance
        # over the threshold's magnitude leaves the float range
        value = json.loads((report_dir / "indicators.json").read_text())[
            "cai_max"]["value"]
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "manifest": {"cai_max": "ratio"}, "roots": ["r"],
            "nodes": {"r": {
                "question": "is any group advantaged?",
                "predicate": {"indicator": "cai_max", "comparator": ">",
                              "threshold": 5e-324},
                "constraint_label": "advantage",
                "on_true": {"verdict": "binding"},
                "on_false": {"verdict": "not_binding"}}}}))
        out = tmp_path / "o"
        if form == "report":
            config = absolute_config(run_dir)
            config["tree"] = str(tree)
            argv = ["report", "-c", str(write_config(tmp_path, config)),
                    "-o", str(out)]
        else:
            argv = ["diagnose", "--tree", str(tree), "--indicators",
                    str(report_dir / "indicators.json"),
                    *(["-o", str(out)] if form.endswith("-o") else [])]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: node 'r': the severity of 'cai_max' = {value!r} against "
            f"threshold 5e-324 overflows a float\n")
        assert not out.exists()

    # a one-chain tree on cai_max (about 1.7), which nothing makes binding
    LAND_TREE = json.dumps({
        "manifest": {"cai_max": "ratio"}, "roots": ["land"],
        "nodes": {"land": {
            "predicate": {"indicator": "cai_max", "comparator": ">",
                          "threshold": 1e6},
            "constraint_label": "land",
            "on_true": {"verdict": "binding"},
            "on_false": {"verdict": "not_binding"}}}})

    def test_a_tree_in_which_nothing_binds_says_so(self, report_dir,
                                                   tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(self.LAND_TREE)
        assert main(["diagnose", "--indicators",
                     str(report_dir / "indicators.json"),
                     "--tree", str(tree)]) == 0
        assert capsys.readouterr() == (
            "Binding constraints: none\n"
            "Not binding:\n"
            "  - land: cai_max = 1.72\n", "")

    @pytest.mark.parametrize("edit, text", [
        (lambda tree: tree["nodes"]["land"]["on_true"].update(
            verdict="maybe"),
         "node 'land': verdict must be one of ('binding', 'not_binding'), "
         "got 'maybe'"),
        (lambda tree: tree.update(roots=[]), "tree has no roots"),
        (lambda tree: tree["roots"].append("ghost"),
         "root 'ghost' is not a node"),
        (lambda tree: tree["nodes"]["land"]["on_true"].update(extra=1),
         "node 'land': on_true has unknown keys ['extra']"),
    ], ids=["unknown-verdict", "no-roots", "root-not-a-node",
            "unknown-branch-key"])
    def test_a_refused_tree_exits_1_with_its_full_text(
            self, report_dir, tmp_path, capsys, edit, text):
        tree = json.loads(self.LAND_TREE)
        edit(tree)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree))
        assert main(["diagnose", "--indicators",
                     str(report_dir / "indicators.json"),
                     "--tree", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: tree config {path}: {text}\n")


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
        ('{"x": {"value": NaN}}', "indicator 'x': value nan is not a number"),
        pytest.param('{"x": {"value": 1%s}}' % ("0" * 400),
                     "indicator 'x': value 1000", id="huge integer value"),
        pytest.param('{"x": {"value": [[2000, 1%s]]}}' % ("0" * 400),
                     "indicator 'x': series", id="huge integer in a series"),
        ('{"x": {"value": 1, "units": ["a"]}}',
         "indicator 'x': units must be a string, got ['a']"),
        ('{"x": {"value": 1, "provenance": ["a"]}}',
         "indicator 'x': provenance must be a string, got ['a']"),
        pytest.param('{"x": {"value": 1%s}}' % ("0" * 5000), "not valid JSON",
                     id="integer of too many digits"),
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
        stage = serialize._stage
        calls = []

        def failing_stage(path, chunks):
            # the FAIL_AT-th write stops partway, as on a full disk
            calls.append(path)
            if len(calls) == fail_at:
                stage(path, ["".join(chunks)[:10]])
                raise OSError(28, "No space left on device")
            return stage(path, chunks)

        monkeypatch.setattr(serialize, "_stage", failing_stage)
        rc = main(["report", "-c", str(run_dir / "config.json"),
                   "-o", str(out)])
        monkeypatch.undo()
        assert rc == 1
        assert "No space left" in capsys.readouterr().err
        assert len(calls) == fail_at
        # every old artifact unchanged and no temporary file left behind
        assert {p.name: p.read_bytes() for p in out.iterdir()} == previous

    def test_target_in_the_way_keeps_the_last_report(self, run_dir, tmp_path,
                                                      capsys):
        # a directory where figure4.csv was fails its rename; no artifact
        # is replaced, though the growth rates of the new run differ
        out = tmp_path / "o"
        assert main(["report", "-c", str(run_dir / "config.json"),
                     "-o", str(out)]) == 0
        previous = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "figure4.csv").unlink()
        (out / "figure4.csv").mkdir()
        (out / "figure4.csv" / "kept").write_text("in the way\n")
        config = absolute_config(run_dir)
        config["methods"]["growth_method"] = "cagr"
        path = write_config(tmp_path, config)
        assert main(["growth", "-c", str(path), "-o",
                     str(tmp_path / "cagr")]) == 0
        assert (tmp_path / "cagr" / "growth_rates.json").read_bytes() != \
            previous["growth_rates.json"]
        capsys.readouterr()
        assert main(["report", "-c", str(path), "-o", str(out)]) == 1
        assert "figure4.csv" in capsys.readouterr().err
        # no temporary file left, and every other file is the old report's
        assert sorted(p.name for p in out.iterdir()) == sorted(previous)
        del previous["figure4.csv"]
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.is_file()} == previous

    @staticmethod
    def previous_report(out: Path) -> dict[str, bytes]:
        """OUT holding a previous report, unless OUT is under a directory
        that does not exist; the bytes it holds, by name."""
        if not out.parent.exists():
            return {}
        out.mkdir()
        previous = {name: f"previous {name}\n".encode()
                    for name in REPORT_ARTIFACTS}
        for name, data in previous.items():
            (out / name).write_bytes(data)
        return previous

    def assert_left_as_it_was(self, tmp_path, out, previous):
        """OUT byte-identical to PREVIOUS with no temporary file, or, if
        the run made it, gone with the directory made above it."""
        if previous:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == previous
        else:
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("under", [".", "new"])
    def test_failure_partway_through_shares_csv_keeps_the_last_report(
            self, run_dir, tmp_path, monkeypatch, capsys, under):
        # shares.csv is streamed in chunks of 4 lines; the disk fills
        # after two of them
        out = tmp_path / under / "o"
        previous = self.previous_report(out)
        stage, written = serialize._stage, []

        def filling_stage(path, chunks):
            def until_full():
                for chunk in chunks:
                    if len(written) == 2:
                        raise OSError(28, "No space left on device")
                    written.append(chunk)
                    yield chunk

            shares = path.name.startswith(".shares.csv.")
            return stage(path, until_full() if shares else chunks)

        monkeypatch.setattr(serialize, "CSV_CHUNK_LINES", 4)
        monkeypatch.setattr(serialize, "_stage", filling_stage)
        rc = main(["report", "-c", str(run_dir / "config.json"),
                   "-o", str(out)])
        monkeypatch.undo()
        assert rc == 1
        assert "No space left" in capsys.readouterr().err
        assert written[0].startswith("te_year,crop_id,") and len(written) == 2
        self.assert_left_as_it_was(tmp_path, out, previous)

    @pytest.mark.parametrize("under", [".", "new"])
    @pytest.mark.parametrize("fault, error, staged", [
        # the diversification group is looked up at the end of the crop
        # phase, once its two artifacts are staged
        (lambda config: config.update(diversification_group="no_such_group"),
         "error: diversification group 'no_such_group' not in the crop "
         "panel (have [", 2),
        # the growth windows, once every artifact but growth_rates.json,
        # indicators.json and diagnosis.json is staged
        (lambda config: config["periods"].update(overall=[2015, 2016]),
         "error: growth window [2015, 2016] covers 1 year(s)", 9),
    ], ids=["group", "growth"])
    def test_later_stage_failure_keeps_the_last_report(
            self, run_dir, tmp_path, monkeypatch, capsys, under, fault, error,
            staged):
        config = absolute_config(run_dir)
        fault(config)
        path = write_config(tmp_path, config)
        out = tmp_path / under / "o"
        previous = self.previous_report(out)
        stage, names = serialize._stage, []
        monkeypatch.setattr(serialize, "_stage", lambda path, chunks: (
            names.append(path.name), stage(path, chunks)))
        assert main(["report", "-c", str(path), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(error)
        assert len(names) == staged
        path.unlink()
        self.assert_left_as_it_was(tmp_path, out, previous)

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
        assert main(argv + out_flag(argv[0], tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(bad) in err and "not UTF-8" in err

    @pytest.mark.parametrize("kind, argv", [
        ("config", ["validate", "-c", "{bad}"]),
        ("tree config", ["diagnose", "--tree", "{bad}", "--indicators",
                         "{indicators}"]),
        ("indicators file", ["diagnose", "--indicators", "{bad}"]),
    ])
    def test_json_nested_too_deeply_exits_1_naming_it(
            self, report_dir, tmp_path, capsys, kind, argv):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 1000 + "]" * 1000)
        indicators = report_dir / "indicators.json"
        assert main([a.format(bad=bad, indicators=indicators)
                     for a in argv]) == 1
        assert capsys.readouterr().err == \
            f"error: {kind} {bad}: not valid JSON: nested too deeply\n"

    @pytest.mark.parametrize("kind, argv, key", [
        ("config", ["validate", "-c", "{bad}"], "break_year"),
        ("tree config", ["diagnose", "--tree", "{bad}", "--indicators",
                         "{indicators}"], "land"),
        ("indicators file", ["diagnose", "--indicators", "{bad}"],
         "tfp_growth_gap_pp"),
    ])
    def test_duplicate_json_key_exits_1_naming_it(
            self, run_dir, report_dir, tmp_path, capsys, kind, argv, key):
        # each key is written twice, the first time with a value that a
        # parse keeping the last one would silently drop
        indicators = report_dir / "indicators.json"
        tree = (Path(agrodiag.__file__).parent / "data"
                / "bihar_tree.json").read_text()
        land = json.loads(tree)["nodes"]["land"]
        land["predicate"]["threshold"] = -100.0
        text = {
            "config": '{"break_year": 1990, '
                      + json.dumps(absolute_config(run_dir))[1:],
            "tree config": tree.replace(
                '"nodes": {', '"nodes": {"land": %s, ' % json.dumps(land), 1),
            "indicators file": '{"tfp_growth_gap_pp": {"value": -1.0}, '
                               + indicators.read_text()[1:],
        }[kind]
        assert text.count(f'"{key}":') == 2
        bad = tmp_path / "dup.json"
        bad.write_text(text)
        assert main([a.format(bad=bad, indicators=indicators)
                     for a in argv]) == 1
        assert capsys.readouterr() == \
            ("", f"error: {kind} {bad}: duplicate key {key!r}\n")

INPUTS = ("area_nation.csv", "area_region.csv", "crops.csv", "io_panel.csv",
          "land_use.csv", "prices.csv", "value_cost.csv")
# the order in which every command opens the inputs it reads: those of the
# market readings, the crop panel, the io panel, the area tables, then the
# tree (the fixture's is the builtin one)
INPUT_ORDER = ("prices.csv", "value_cost.csv", "land_use.csv", "crops.csv",
               "io_panel.csv", "area_region.csv", "area_nation.csv",
               "bihar_tree.json")


@pytest.fixture
def loaded(monkeypatch):
    """The name of each input file read, one entry per loader call."""
    from agrodiag import advantage, ingest

    names = []

    def counting(load):
        def counted(source, *args, **kwargs):
            names.append(Path(source).name)
            return load(source, *args, **kwargs)
        return counted

    for module, loader in [(ingest, "load_crop_panel"),
                           (ingest, "load_io_panel"),
                           (ingest, "load_price_table"),
                           (ingest, "load_land_use"),
                           (ingest, "load_value_cost"),
                           (advantage, "load_area_share_table")]:
        monkeypatch.setattr(module, loader, counting(getattr(module, loader)))
    return names


def held_objects(value, depth: int = 3):
    """VALUE and what its dicts, lists and tuples hold, DEPTH levels down."""
    yield value
    if depth and isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from held_objects(item, depth - 1)


class TestArtifactShape:
    @pytest.mark.parametrize("command", ["decompose", "tfp", "growth",
                                         "markets", "cai", "diagnose",
                                         "report"])
    def test_every_artifact_is_an_iterable_of_chunks(self, run_dir,
                                                     command):
        # a bare string would be written one character at a time
        run = Run(load_run_config(run_dir / "config.json"))
        for name, chunks in getattr(run, command)():
            assert not isinstance(chunks, str), name
            assert all(type(chunk) is str for chunk in chunks), name


class TestPrintedSlices:
    """Without ``-o``, a slice prints each artifact's chunks as they are
    made, in name order: the texts ``-o`` writes, joined, and no artifact
    held whole."""

    @pytest.mark.parametrize("command",
                             ["decompose", "tfp", "growth", "markets", "cai"])
    def test_a_slice_yields_its_artifacts_in_name_order(self, run_dir,
                                                        command):
        run = Run(load_run_config(run_dir / "config.json"))
        names = [name for name, _ in getattr(run, command)()]
        assert names == sorted(names) and len(names) == len(set(names))

    @pytest.mark.parametrize("command",
                             ["decompose", "tfp", "growth", "markets", "cai"])
    def test_stdout_is_the_written_texts_in_name_order_chunk_by_chunk(
            self, run_dir, tmp_path, monkeypatch, command):
        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        config = str(run_dir / "config.json")
        assert main([command, "-c", config, "-o", str(tmp_path)]) == 0
        written = "".join(path.read_text()
                          for path in sorted(tmp_path.iterdir()))
        monkeypatch.setattr(serialize, "CSV_CHUNK_LINES", 4)
        writes, stdout = [], Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([command, "-c", config]) == 0
        assert stdout.getvalue() == written
        if command == "markets":  # shares.csv, the last, in six chunks
            shares = (tmp_path / "shares.csv").read_text()
            assert "".join(writes[-6:]) == shares != "".join(writes[-5:])


class TestRunHoldings:
    """A run reads each input file once, in one order, and keeps only what
    it reduced the input to, holding the crop panel only until its last
    reader has run."""

    @pytest.mark.parametrize("command, inputs", [
        ("report", INPUTS),
        ("validate", INPUTS),
        ("decompose", ("crops.csv",)),
        ("tfp", ("io_panel.csv",)),
        ("growth", ("io_panel.csv",)),
        ("markets", ("crops.csv", "land_use.csv", "prices.csv",
                     "value_cost.csv")),
        ("cai", ("area_nation.csv", "area_region.csv")),
        ("diagnose", INPUTS),
    ])
    @pytest.mark.parametrize("to", ["-o", "stdout"])
    def test_each_input_file_is_read_once(self, run_dir, tmp_path, capsys,
                                          loaded, command, inputs, to):
        argv = [command, "-c", str(run_dir / "config.json")]
        if to == "-o" or command == "report":
            argv += out_flag(command, tmp_path / "o")
        assert main(argv) == 0
        capsys.readouterr()
        assert sorted(loaded) == sorted(inputs)

    def test_a_finished_report_holds_no_input(self, run_dir):
        run = Run(load_run_config(run_dir / "config.json"))
        assert sorted(artifact_texts(run.report())) == \
            sorted(REPORT_ARTIFACTS)
        assert sorted(vars(run)) == [
            "cai_values", "config", "counts", "diagnosis", "group_share",
            "indicators", "readings", "series"]
        inputs = (InputOutputPanel, PriceSeries, LandUseRecord,
                  AreaShareTable, CropPanel)
        assert not any(isinstance(value, inputs)
                       for value in held_objects(vars(run)))

    def test_the_crop_panel_lives_from_its_load_to_its_last_reader(
            self, run_dir, tmp_path, monkeypatch):
        # the crop panel is loaded once the market readings are taken and
        # before any artifact is staged; only its own two artifacts are
        # staged while it is held, and it is freed before the io panel is
        # read
        from agrodiag import ingest

        run = Run(load_run_config(run_dir / "config.json"))
        staged, at_load, panel_held, held_at_io = [], [], {}, []
        stage, load = serialize._stage, ingest.load_crop_panel
        load_io = ingest.load_io_panel

        def staging(path, chunks):
            name = path.name[1:].rsplit(".", 2)[0]  # .NAME.PID.tmp
            staged.append(name)
            panel_held[name] = any(isinstance(value, CropPanel)
                                   for value in held_objects(vars(run)))
            return stage(path, chunks)

        def loading(*args, **kwargs):
            at_load.append((list(staged), sorted(vars(run))))
            return load(*args, **kwargs)

        def loading_io(*args, **kwargs):
            held_at_io.append(any(isinstance(value, CropPanel)
                                  for value in held_objects(vars(run))))
            return load_io(*args, **kwargs)

        monkeypatch.setattr(serialize, "_stage", staging)
        monkeypatch.setattr(ingest, "load_crop_panel", loading)
        monkeypatch.setattr(ingest, "load_io_panel", loading_io)
        serialize.write_artifacts(tmp_path / "o", run.report())
        assert sorted(staged) == sorted(REPORT_ARTIFACTS)
        assert at_load == [([], ["config", "counts", "readings"])]
        assert [name for name in staged if panel_held[name]] == [
            "decomposition.json", "shares.csv"]
        assert held_at_io == [False]

    def test_diagnose_frees_the_crop_panel_before_the_indicator_set(
            self, run_dir, monkeypatch):
        from agrodiag import diagnostics

        run = _run(parse_args(
            ["diagnose", "-c", str(run_dir / "config.json")]))
        held = []
        assemble = diagnostics.assemble_indicators

        def assembling(run):
            held.append(any(isinstance(value, CropPanel)
                            for value in held_objects(vars(run))))
            return assemble(run)

        monkeypatch.setattr(diagnostics, "assemble_indicators", assembling)
        run.diagnosis
        assert held == [False]
        assert "group_share" in vars(run)

    @pytest.mark.parametrize("command", ["report", "validate"])
    def test_a_crop_panel_fault_is_named_before_a_growth_window(
            self, run_dir, tmp_path, capsys, command):
        # the growth windows are computed once the crop panel is read
        config = with_broken_input(run_dir, tmp_path, "crop_panel")
        config["periods"]["overall"] = [2015, 2016]
        path = write_config(tmp_path, config)
        assert main([command, "-c", str(path),
                     *out_flag(command, tmp_path / "o")]) == 1
        assert capsys.readouterr() == ("", (
            f"error: crop panel {tmp_path / 'broken.csv'}: bad header "
            "['nonsense'], expected ['crop_id', 'year', 'area_ha', "
            "'production_t', 'price_per_t']\n"))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, inputs", [
        ("report", INPUT_ORDER), ("validate", INPUT_ORDER),
        ("diagnose", INPUT_ORDER), ("markets", INPUT_ORDER[:4])])
    def test_inputs_are_opened_in_the_declared_order(
            self, run_dir, tmp_path, command, inputs):
        code, opened = opened_files(command, str(run_dir / "config.json"),
                                    *out_flag(command, tmp_path / "o"))
        assert code == 0
        assert [name for name, _ in opened if name in INPUT_ORDER] == \
            list(inputs)

    @pytest.mark.parametrize("pair", list(combinations(INPUT_ORDER[:-1], 2)),
                             ids="+".join)
    def test_validate_and_report_name_the_same_of_two_faults(
            self, tmp_path, capsys, pair):
        # two inputs, each with a bad header: both commands name the one
        # that comes first in the declared order
        inputs = tmp_path / "inputs"
        fixtures.write_synthetic_inputs(inputs)
        for name in pair:
            bad = inputs / name
            bad.write_text("nonsense\n" + bad.read_text().split("\n", 1)[1])
        captured = []
        for command in ("validate", "report"):
            assert main([command, "-c", str(inputs / "config.json"),
                         *out_flag(command, tmp_path / "o")]) == 1
            captured.append(capsys.readouterr())
        assert captured[0] == captured[1]
        out, err = captured[0]
        assert out == "" and f" {inputs / pair[0]}: bad header " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command",
                             ["report", "markets", "diagnose", "validate"])
    def test_of_two_faults_the_one_read_first_is_named(
            self, run_dir, tmp_path, capsys, command):
        # a crops.csv that is not CSV, and a break commodity without prices:
        # the prices are read, and their commodities checked, before the
        # crop panel
        config = with_broken_input(run_dir, tmp_path, "crop_panel")
        config["break_commodities"].append("okra")
        path = write_config(tmp_path, config)
        assert main([command, "-c", str(path),
                     *out_flag(command, tmp_path / "o")]) == 1
        assert capsys.readouterr() == (
            "", "error: break commodity 'okra' has no price series\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("break_commodities", ["maize", "okra"], "break commodity 'okra'"),
        ("grain_commodity", "rye", "grain commodity 'rye'"),
        ("fertilizer_commodity", "potash", "fertilizer commodity 'potash'"),
    ])
    def test_validate_refuses_a_commodity_as_report_does(
            self, run_dir, tmp_path, capsys, key, value, named):
        config = absolute_config(run_dir)
        config[key] = value
        path = write_config(tmp_path, config)
        errors = []
        for command in ("report", "validate"):
            assert main([command, "-c", str(path),
                         *out_flag(command, tmp_path / "o")]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == \
            f"error: {named} has no price series\n"

    def test_validate_refuses_an_unknown_group_as_report_does(
            self, run_dir, tmp_path, capsys):
        config = absolute_config(run_dir)
        config["diversification_group"] = "nope"
        path = write_config(tmp_path, config)
        errors = []
        for command in ("report", "validate"):
            assert main([command, "-c", str(path),
                         *out_flag(command, tmp_path / "o")]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == (
            "error: diversification group 'nope' not in the crop panel "
            "(have ['horticulture', 'jute', 'maize', 'oilseeds', 'others', "
            "'paddy', 'potato', 'pulses', 'sugarcane', 'wheat'])\n")

    @pytest.mark.parametrize("base", [2016, 2017])
    @pytest.mark.parametrize("command", ["report", "validate", "decompose"])
    def test_a_base_year_not_before_the_terminal_is_refused(
            self, run_dir, tmp_path, capsys, command, base):
        # as a growth period's first year must precede its last
        config = absolute_config(run_dir)
        config["decomposition"]["base_year"] = base
        path = write_config(tmp_path, config)
        assert main([command, "-c", str(path),
                     *out_flag(command, tmp_path / "o")]) == 1
        assert capsys.readouterr() == ("", (
            f"error: decomposition base year {base} does not precede "
            "terminal year 2016\n"))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("base, terminal", [("2016", "2016"),
                                                ("2012", "2005")])
    @pytest.mark.parametrize("source", ["--crop-panel", "-c"])
    def test_decompose_flags_refuse_a_base_year_not_before_the_terminal(
            self, run_dir, tmp_path, capsys, source, base, terminal):
        given = (str(run_dir / "crops.csv") if source == "--crop-panel"
                 else str(run_dir / "config.json"))
        assert main(["decompose", source, given, "--base", base,
                     "--terminal", terminal, "-o", str(tmp_path / "o")]) == 1
        assert capsys.readouterr() == ("", (
            f"error: decomposition base year {base} does not precede "
            f"terminal year {terminal}\n"))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, streams", [
        (["decompose", "--crop-panel", "{missing}", "--base", "2002",
          "--terminal", "2016"], True),
        (["decompose", "-c", "{config}"], True),
        (["tfp", "--io-panel", "{missing}"], True),
        (["tfp", "-c", "{config}"], True),
        (["cai", "--region", "{missing}", "--nation", "{missing}"], True),
        (["diagnose", "--indicators", "{missing}"], False),
        (["diagnose", "-c", "{config}"], False),
    ], ids=["decompose", "decompose-config", "tfp", "tfp-config", "cai",
            "diagnose", "diagnose-config"])
    def test_of_a_bad_input_and_an_unusable_out(self, run_dir, tmp_path,
                                                capsys, argv, streams):
        # a slice streamed into -o makes it before it reads an input;
        # diagnose reaches its verdicts before it writes anything
        missing = tmp_path / "missing"
        config = absolute_config(run_dir)
        config["inputs"]["crop_panel"] = str(missing)
        config["inputs"]["io_panel"] = str(missing)
        path = write_config(tmp_path, config)
        (tmp_path / "afile").write_text("a file where a directory should go")
        argv = [a.format(missing=missing, config=path) for a in argv]
        assert main([*argv, "-o", str(tmp_path / "afile" / "o")]) == 1
        err = capsys.readouterr().err
        if streams:
            assert err.startswith("error: I/O failure: ")
        else:
            assert err == f"error: no inputs: {missing}\n"


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

    def test_a_tree_flag_is_relative_to_the_working_directory(
            self, run_dir, tmp_path, monkeypatch, capsys):
        # the config's tree is the builtin one, next to the config; the
        # working directory's marks the land ratio binding
        builtin = json.loads((Path(agrodiag.__file__).parent / "data"
                              / "bihar_tree.json").read_text())
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "tree.json").write_text(json.dumps(builtin))
        builtin["nodes"]["land"]["predicate"]["threshold"] = 0.0
        (tmp_path / "tree.json").write_text(json.dumps(builtin))
        config = absolute_config(run_dir)
        config["tree"] = "tree.json"
        path = write_config(tmp_path / "cfg", config)
        monkeypatch.chdir(tmp_path)
        binding = []
        for extra in ([], ["--tree", "tree.json"]):
            out = tmp_path / f"out{len(extra)}"
            assert main(["diagnose", "-c", str(path), *extra,
                         "-o", str(out)]) == 0
            binding.append("agricultural_land" in json.loads(
                (out / "diagnosis.json").read_text())["binding_constraints"])
        assert binding == [False, True]
        # an error names the flag's path as typed
        capsys.readouterr()
        assert main(["diagnose", "-c", str(path), "--tree", "missing.json"]) == 1
        assert capsys.readouterr().err == "error: no inputs: missing.json\n"

    def test_a_report_collected_in_memory_is_pure(self, run_dir):
        run = Run(load_run_config(run_dir / "config.json"))
        artifacts = artifact_texts(run.report())
        assert sorted(artifacts) == sorted(REPORT_ARTIFACTS)
        assert run.diagnosis.binding_constraints

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
        ("periods.overall", [2016, 2001]),
        ("periods.overall", [2005, 2005]),
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

    def test_a_repeated_break_commodity_exits_1_naming_the_key(
            self, run_dir, tmp_path, capsys):
        # repeated, its price-CV indicators would be added twice
        config = absolute_config(run_dir)
        config["break_commodities"] = ["paddy", "paddy", "wheat"]
        path = write_config(tmp_path, config)
        for command in COMMANDS.split(", "):
            out = [] if command == "validate" else ["-o", str(tmp_path / "o")]
            assert main([command, "-c", str(path), *out]) == 1
            assert capsys.readouterr() == ("", (
                f"error: config {path}: break_commodities must be a list of "
                "distinct strings, got ['paddy', 'paddy', 'wheat']\n"))
        assert sorted(tmp_path.iterdir()) == [path]

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


class TestCropYearsKept:
    """``report``, ``validate``, the ``-c`` subcommands and ``decompose
    --crop-panel`` keep only the comparison trienniums' crop years, but
    every crop-panel row is still read and checked, and counted."""

    KEPT = (2000, 2001, 2002, 2014, 2015, 2016)  # the fixture's TE 2002, 2016
    # the fixture's years, each folded as an end: a full load
    EVERY_YEAR = range(2000, 2017)

    @pytest.mark.parametrize("command", ["report", "decompose", "markets",
                                         "validate", "decompose --crop-panel"])
    @pytest.mark.parametrize("fault",
                             ["non-numeric", "negative area", "duplicate"])
    def test_bad_row_in_an_unkept_year_still_exits_1(self, tmp_path, capsys,
                                                     command, fault):
        config = fixtures.write_synthetic_inputs(tmp_path / "inputs")
        crops = config.parent / "crops.csv"
        lines = crops.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line.startswith("paddy,2008,"))
        cells = lines[i].split(",")
        if fault == "duplicate":
            lines.insert(i + 1, lines[i])
            message = f"duplicate (paddy, 2008) in row {i + 2}"
        elif fault == "non-numeric":
            lines[i] = ",".join([*cells[:2], "abc", *cells[3:]])
            message = f"non-numeric value 'abc' in column 'area_ha', row {i + 1}"
        else:
            lines[i] = ",".join([*cells[:2], "-1", *cells[3:]])
            message = (f"value -1.0 in column 'area_ha', row {i + 1} must be "
                       f"finite and >= 0")
        crops.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / "o"
        argv = ([command, "-c", str(config)] if " " not in command else
                [*command.split(), str(crops), "--base", "2002",
                 "--terminal", "2016"])
        assert main([*argv, *out_flag(command, out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: crop panel {crops}: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags, kept", [
        ([], KEPT),
        (["--mode", "endpoint"], KEPT),
        (["--base", "2005", "--terminal", "2012"],
         (2003, 2004, 2005, 2010, 2011, 2012)),
        (["--base", "2004", "--terminal", "2005", "--mode", "endpoint"],
         (2002, 2003, 2004, 2005)),
    ])
    def test_run_keeps_the_comparison_trienniums(self, run_dir, flags, kept):
        # folded from the rows as they came, with the bits of a full
        # load's, and the end years' columns; no other year is held
        from agrodiag.ingest import load_crop_panel, triennium_average

        args = parse_args(
            ["decompose", "-c", str(run_dir / "config.json"), *flags])
        run = _run(args)
        panel = run.panel
        full = load_crop_panel(run_dir / "crops.csv",
                               trienniums=self.EVERY_YEAR)
        ends = run.config.decomposition_base, run.config.decomposition_terminal
        assert panel.years == kept
        assert sorted(panel._trienniums) == list(ends)
        for end in ends:
            for got, want in ((triennium_average(panel, end),
                               triennium_average(full, end)),
                              (panel.columns(end), full.columns(end))):
                assert got[0] == want[0] and len(got[0]) == 10
                assert [c.tobytes() for c in got[1:]] == \
                    [c.tobytes() for c in want[1:]]
        with pytest.raises(CoverageError, match=rf"^year {kept[0]} is held "
                           "only in its triennium's average$"):
            panel.columns(kept[0])

    def test_endpoint_mode_in_the_config_keeps_the_trienniums(self, run_dir,
                                                              tmp_path):
        config = absolute_config(run_dir)
        config["methods"]["period_mode"] = "endpoint"
        run = Run(load_run_config(write_config(tmp_path, config)))
        assert run.panel.years == self.KEPT

    @pytest.mark.parametrize("mode", ["triennium", "endpoint"])
    def test_kept_years_decompose_as_the_full_panel(self, run_dir, tmp_path,
                                                    capsys, mode):
        # the flag form and the -c form keep the same six years; the flag
        # form against a full load is the next test
        years = ["--base", "2005", "--terminal", "2012", "--mode", mode]
        assert main(["decompose", "--crop-panel", str(run_dir / "crops.csv"),
                     *years]) == 0
        full = capsys.readouterr().out
        assert main(["decompose", "-c", str(run_dir / "config.json"),
                     *years]) == 0
        assert capsys.readouterr().out == full

    @pytest.mark.parametrize("mode", ["triennium", "endpoint"])
    def test_flag_form_keeps_six_years_and_decomposes_as_a_full_load(
            self, run_dir, capsys, monkeypatch, mode):
        from agrodiag import decomposition, ingest
        from agrodiag.serialize import json_text

        crops = run_dir / "crops.csv"
        full = decomposition.decompose(ingest.load_crop_panel(
            crops, trienniums=self.EVERY_YEAR), 2005, 2012, period_mode=mode)
        loaded = []
        load = ingest.load_crop_panel
        monkeypatch.setattr(ingest, "load_crop_panel",
                            lambda *a, **k: loaded.append(load(*a, **k))
                            or loaded[-1])
        assert main(["decompose", "--crop-panel", str(crops), "--base",
                     "2005", "--terminal", "2012", "--mode", mode]) == 0
        assert capsys.readouterr().out == json_text(full.to_record(),
                                                    "decomposition.json")
        assert loaded[0].years == (2003, 2004, 2005, 2010, 2011, 2012)

    def test_validate_keeps_the_comparison_trienniums(self, run_dir, capsys,
                                                      monkeypatch):
        # as ``report`` does, and counts every row
        from agrodiag import ingest

        loaded = []
        load = ingest.load_crop_panel
        monkeypatch.setattr(ingest, "load_crop_panel",
                            lambda *a, **k: loaded.append(load(*a, **k))
                            or loaded[-1])
        assert main(["validate", "-c", str(run_dir / "config.json")]) == 0
        [panel] = loaded
        assert panel.years == self.KEPT
        assert sorted(panel._trienniums) == [2002, 2016]
        assert len(crop_rows(panel, 2002) + crop_rows(panel, 2016)) == 20
        assert panel.checked == (170, 10, tuple(range(2000, 2017)))
        assert capsys.readouterr().out.startswith(
            "crop panel: 170 observations, 10 crops, years 2000-2016\n")

    def test_validate_counts_crops_of_every_year(self, tmp_path, capsys):
        # okra grows only in 1999, outside both trienniums and before the
        # first io year; paddy is missing in 2010
        config = fixtures.write_synthetic_inputs(tmp_path / "inputs")
        crops = config.parent / "crops.csv"
        lines = [line for line in crops.read_text().splitlines()
                 if not line.startswith("paddy,2010,")]
        crops.write_text("".join(f"{line}\n" for line in [
            *lines, "okra,1999,5,10,2000"]))
        assert main(["validate", "-c", str(config)]) == 0
        assert capsys.readouterr().out == (
            "crop panel: 170 observations, 11 crops, years 1999-2016\n"
            "io panel: 16 years, 2000-2015\n"
            "price series: 4 commodities (maize, paddy, urea, wheat)\n"
            "land use: 17 years\n"
            "value/cost series: 17 years\n"
            "area tables: 5 region groups, 5 nation groups\n"
            "tree: 5 chains, 7 nodes\n"
            "all inputs valid\n"
        )


# single faults of the fixture that ``report -c`` refuses: (id, config
# values by dotted key, each a value or a function of the value it
# replaces, input edit or None); an edit (input key or
# "tree", pattern, replacement string or function) is ``re.sub`` over
# that file's text, one line per match but for a tree node's predicate
SINGLE_FAULTS = [
    ("growth-window-of-one-year", {"periods.overall": [2015, 2016]}, None),
    ("tfp-base-year-outside-the-io-years",
     {"methods.tfp_base_year": 1990}, None),
    ("input-renamed-in-one-year", {},
     ("io_panel", r"^2005,input,labour,", "2005,input,labor,")),
    ("one-io-year-and-no-periods", {"periods": {}},
     ("io_panel", r"^20(0[1-9]|1\d),.*\n", "")),
    ("break-year-before-every-price", {"break_year": 1900}, None),
    ("break-year-at-the-last-price", {"break_year": 2016}, None),
    ("fertilizer-prices-miss-a-year", {},
     ("price_series", r"^urea,2010,.*\n", "")),
    ("base-triennium-before-the-panel",
     {"decomposition.base_year": 1980}, None),
    ("base-triennium-one-year-short", {"decomposition.base_year": 2001}, None),
    ("endpoint-base-year-before-the-panel",
     {"decomposition.base_year": 1980, "methods.period_mode": "endpoint"},
     None),
    ("unknown-diversification-group", {"diversification_group": "nope"},
     None),
    ("terminal-triennium-without-value", {},
     ("crop_panel", r"^([^,]*,201[4-6],[^,]*,[^,]*),.*$", r"\1,0")),
    ("unpriced-break-commodity", {"break_commodities": ["maize", "okra"]},
     None),
    ("base-year-not-before-the-terminal",
     {"decomposition.base_year": 2016}, None),
    ("nation-table-lacks-a-region-group", {},
     ("area_shares_nation", r"^flowers,.*\n", "")),
    ("manifest-names-an-unassembled-indicator", {},
     ("tree", r'^( *)"cai_max": "ratio",$',
      r'\1"cai_max": "ratio",\n\1"price_cv_before_okra": "percent",')),
    ("manifest-gives-an-indicator-other-units", {},
     ("tree", r'"cai_max": "ratio"', '"cai_max": "percent"')),
    ("value-cost-ratio-overflows", {},
     ("cost_series", r"^2004,.*$", "2004,1.7e308,1e-10")),
    ("grain-fertilizer-ratio-overflows", {},
     ("price_series", r"^(wheat|urea),2010,.*$",
      lambda match: {"wheat": "wheat,2010,1.7e308",
                     "urea": "urea,2010,1e-10"}[match[1]])),
    ("land-use-triennium-overflows", {},
     ("land_use", r"^(200[0-2]),.*$", r"\1,1.7e308,0.0,1.7e308")),
    ("base-triennium-without-area", {},
     ("crop_panel", r"^([^,]*,200[0-2]),[^,]*,", r"\1,0,")),
    ("terminal-triennium-without-area", {},
     ("crop_panel", r"^([^,]*,201[4-6]),[^,]*,[^,]*,", r"\1,0,0,")),
    ("price-file-listed-twice",
     {"inputs.price_series": lambda paths: paths * 2}, None),
    ("comparison-year-missing-from-the-panel", {},
     ("crop_panel", r"^[^,]*,2015,.*\n", "")),
    ("endpoint-year-missing-from-the-panel",
     {"methods.period_mode": "endpoint"},
     ("crop_panel", r"^[^,]*,2016,.*\n", "")),
    ("duplicate-crop-row", {},
     ("crop_panel", r"^(paddy,2008,.*)$", r"\1\n\1")),
    ("binding-severity-overflows", {},
     ("tree", r'("tfp_growth_gap_pp",\s*"comparator": )"<",'
      r'(\s*"threshold": )0\.0$', r'\1">",\g<2>5e-324')),
]

# the stderr of ``report -c`` for each fault of SINGLE_FAULTS but those of
# the crop panel, whose texts are in CROP_PANEL_REFUSALS
REPORT_REFUSALS = {
    "growth-window-of-one-year":
        "growth window [2015, 2016] covers 1 year(s); need at least 2",
    "tfp-base-year-outside-the-io-years":
        f"base year 1990 outside panel years {tuple(range(2000, 2016))}",
    "input-renamed-in-one-year":
        "input 'labor' carries share 0.5 but exists in only one of years "
        "2004 and 2005",
    "one-io-year-and-no-periods":
        "growth window [None, None] covers 1 year(s); need at least 2",
    "break-year-before-every-price":
        "before window for 'maize' around 1900 has 0 observation(s); "
        "need >= 2",
    "break-year-at-the-last-price":
        "after window for 'maize' around 2016 has 1 observation(s); "
        "need >= 2",
    "fertilizer-prices-miss-a-year":
        "price ratio wheat/urea: year coverage differs (only-numerator "
        "[2010], only-denominator [])",
    "base-triennium-before-the-panel":
        "triennium ending 1980 needs years (1978, 1979, 1980), missing "
        "[1978, 1979, 1980]",
    "unknown-diversification-group":
        "diversification group 'nope' not in the crop panel (have "
        "['horticulture', 'jute', 'maize', 'oilseeds', 'others', 'paddy', "
        "'potato', 'pulses', 'sugarcane', 'wheat'])",
    "terminal-triennium-without-value":
        "total value in TE 2016 is not positive",
    "terminal-triennium-without-area":
        "total cropped area in terminal period TE 2016 is not positive",
    "price-file-listed-twice":
        "commodity 'maize' appears in more than one price-series file",
    "unpriced-break-commodity": "break commodity 'okra' has no price series",
    "base-year-not-before-the-terminal":
        "decomposition base year 2016 does not precede terminal year 2016",
    "nation-table-lacks-a-region-group":
        "group 'flowers' not in nation table (have ['aromatic_medicinal', "
        "'fruits', 'spices', 'vegetables'])",
    "manifest-names-an-unassembled-indicator":
        "manifest indicator 'price_cv_before_okra' missing from indicator "
        "set",
    "manifest-gives-an-indicator-other-units":
        "indicator 'cai_max' has units 'ratio' but the tree expects "
        "'percent'",
    "value-cost-ratio-overflows":
        "value/cost ratio: the ratio in 2004 overflows a float",
    "grain-fertilizer-ratio-overflows":
        "price ratio wheat/urea: the ratio in 2010 overflows a float",
    "land-use-triennium-overflows":
        "land-use triennium ending 2002: its average areas or their ratios "
        "overflow a float",
    "binding-severity-overflows":
        "node 'technology': the severity of 'tfp_growth_gap_pp' = 0.110464 "
        "against threshold 5e-324 overflows a float",
}

# the builtin tree's JSON, which a tree edit of SINGLE_FAULTS starts from
BUILTIN_TREE = str(Path(agrodiag.__file__).with_name("data")
                   / "bihar_tree.json")


def fault_config(run_dir: Path, tmp_path: Path, values: dict, edit) -> Path:
    """A run config in TMP_PATH: RUN_DIR's, with the VALUES and the EDIT
    of a ``SINGLE_FAULTS`` entry, an edited file written to TMP_PATH."""
    config = absolute_config(run_dir)
    for key, value in values.items():
        *parents, leaf = key.split(".")
        node = config
        for parent in parents:
            node = node[parent]
        node[leaf] = value(node[leaf]) if callable(value) else value
    if edit is not None:
        key, pattern, replacement = edit
        holder = config if key == "tree" else config["inputs"]
        paths = holder[key]
        if paths == "builtin":
            paths = BUILTIN_TREE
        source = Path(paths[0] if isinstance(paths, list) else paths)
        text, count = re.subn(pattern, replacement, source.read_text(),
                              flags=re.MULTILINE)
        assert count
        target = tmp_path / source.name
        target.write_text(text)
        holder[key] = ([str(target)] if isinstance(paths, list)
                       else str(target))
    return write_config(tmp_path, config)


class TestValidateRefusesWhatReportRefuses:
    def test_each_fault_has_one_pinned_text(self):
        assert sorted(REPORT_REFUSALS.keys() | CROP_PANEL_REFUSALS.keys()) \
            == sorted(fault for fault, *_ in SINGLE_FAULTS)
        assert not REPORT_REFUSALS.keys() & CROP_PANEL_REFUSALS.keys()

    @pytest.mark.parametrize("fault, values, edit", SINGLE_FAULTS,
                             ids=[fault for fault, *_ in SINGLE_FAULTS])
    def test_validate_exits_and_errs_as_report_does(
            self, run_dir, tmp_path, capsys, fault, values, edit):
        # each with the text its fault names, so an edit that made another
        # fault would fail here
        path = fault_config(run_dir, tmp_path, values, edit)
        results = {}
        for command in ("report", "validate"):
            code = main([command, "-c", str(path),
                         *out_flag(command, tmp_path / "o")])
            results[command] = code, *capsys.readouterr()
        assert not (tmp_path / "o").exists()
        (code, out, err), (report_code, report_out, report_err) = (
            results["validate"], results["report"])
        assert (code, out) == (report_code, report_out) == (1, "")
        text = REPORT_REFUSALS.get(fault) or CROP_PANEL_REFUSALS[fault][0]
        assert err == report_err == \
            f"error: {text.format(crops=tmp_path / 'crops.csv')}\n"


# the crop-panel faults of SINGLE_FAULTS: the stderr of ``report``,
# ``validate`` and ``decompose`` under ``-c``, then of ``decompose -c
# --mode endpoint``, or None where that exits 0; CROPS is the edited crop
# panel. A load that folds the rows into the comparison trienniums gives
# each text that a load keeping their years gave
CROP_PANEL_REFUSALS = {
    "comparison-year-missing-from-the-panel": (
        "triennium ending 2016 needs years (2014, 2015, 2016), missing "
        "[2015]", None),
    "endpoint-year-missing-from-the-panel": (
        ("year 2016 not covered by panel (have (2000, 2001, 2002, 2014, "
         "2015))",) * 2),
    "duplicate-crop-row": (
        ("crop panel {crops}: duplicate (paddy, 2008) in row 83",) * 2),
    "base-triennium-without-area": (
        "total cropped area in base period TE 2002 is not positive",
        "total cropped area in base period 2002 is not positive"),
    "base-triennium-one-year-short": (
        "triennium ending 2001 needs years (1999, 2000, 2001), missing "
        "[1999]", None),
    "endpoint-base-year-before-the-panel": (
        ("year 1980 not covered by panel (have (2014, 2015, 2016))",) * 2),
}


class TestCropPanelRefusals:
    @pytest.mark.parametrize("fault", CROP_PANEL_REFUSALS)
    def test_each_command_refuses_with_its_text(self, run_dir, tmp_path,
                                                capsys, fault):
        [(values, edit)] = [(values, edit) for name, values, edit
                            in SINGLE_FAULTS if name == fault]
        path = fault_config(run_dir, tmp_path, values, edit)
        triennium, endpoint = CROP_PANEL_REFUSALS[fault]
        for command, flags, text in (
                ("report", [], triennium), ("validate", [], triennium),
                ("decompose", [], triennium),
                ("decompose", ["--mode", "endpoint"], endpoint)):
            code = main([command, "-c", str(path), *flags,
                         *out_flag(command, tmp_path / "o")])
            err = capsys.readouterr().err
            assert (code, err) == ((0, "") if text is None else (
                1, f"error: {text.format(crops=tmp_path / 'crops.csv')}\n"))
