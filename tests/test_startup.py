"""Start-up footprint: the package and the CLI load only the layers a
command runs, and the lazy public names of the package and of the CLI
behave like eager ones."""
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import agrodiag
from agrodiag import cli
from agrodiag.cli import main

from helpers import other_interpreters, out_flag

SRC = str(Path(agrodiag.__file__).resolve().parents[1])

# Without a bytecode cache (a read-only install, or
# PYTHONDONTWRITEBYTECODE=1) each process parses every module it imports
# from source, and CPython 3.11's parser holds ~0.5 KB of scratch per token
# of the module it is parsing, which stays in the process's peak memory:
# the largest module a command parses sets a floor under its peak
MAX_MODULE_TOKENS = 1750

# `python -m agrodiag` runs __main__.py as `__main__`, so the package's
# __main__ module is never registered under its own name
ENTRY = {"agrodiag", "agrodiag.cli"}
# the tokens the parse path (`--help`, `<command> --help`, a usage error)
# compiles: the package, its __main__.py and cli, layout not counted; 1,819
# while cli also held the command handlers and imported errors
MAX_PARSE_PATH_TOKENS = 1250

# runs ``python -m agrodiag ARGS`` as the interpreter's -m option does, then
# prints its exit code and the agrodiag modules it left loaded
RUN_CLI = (
    "import json, runpy, sys\n"
    "sys.argv = ['agrodiag', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('agrodiag', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, sorted(m for m in sys.modules\n"
    "                                if m.split('.')[0] == 'agrodiag')]))\n"
)


# runs ``main([COMMAND, '-c', CONFIG, *FLAGS])``, then prints its exit code
# and, for each file it opened, in order, the file's name and the agrodiag
# modules loaded when it was opened
OPENED_FILES = (
    "import json, os, sys\n"
    "opened = []\n"
    "def hook(event, args):\n"
    "    if event == 'open' and isinstance(args[0], (str, os.PathLike)):\n"
    "        opened.append([os.path.basename(args[0]), sorted(\n"
    "            m for m in sys.modules if m.split('.')[0] == 'agrodiag')])\n"
    "sys.addaudithook(hook)\n"
    "from agrodiag.cli import main\n"
    "command, config, *flags = sys.argv[1:]\n"
    "code = main([command, '-c', config, *flags])\n"
    "print(json.dumps([code, opened]))\n"
)


def script_output(script: str, *args: str, flags: tuple[str, ...] = ()):
    """Run SCRIPT in a fresh interpreter started with FLAGS; return its
    last line of output, decoded as JSON."""
    result = subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_modules(script: str, *args: str,
                   flags: tuple[str, ...] = ()) -> tuple[object, set[str]]:
    """Run SCRIPT in a fresh interpreter started with FLAGS; return its exit
    code and modules."""
    code, modules = script_output(script, *args, flags=flags)
    return code, set(modules)


def opened_files(*args: str) -> tuple[int, list[tuple[str, set[str]]]]:
    """Run OPENED_FILES on ARGS in a fresh interpreter; return its exit
    code and, in order, each file opened with the modules loaded then."""
    code, opened = script_output(OPENED_FILES, *args)
    return code, [(name, set(modules)) for name, modules in opened]


@pytest.fixture(scope="module")
def indicators(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("startup_report")
    assert main(["report", "-c", str(fixture_dir / "config.json"),
                 "-o", str(out)]) == 0
    return out / "indicators.json"


def layers(*names: str) -> set[str]:
    # a command that runs loads its handler and the errors it maps; every
    # layer defines its value classes on ``agrodiag._record``
    return ENTRY | {f"agrodiag.{name}" for name in (
        "commands", "errors", "_record", *names)}


def tokens(path: str) -> int:
    """The tokens of the module at PATH, layout not counted. An f-string
    counts as one token, as CPython 3.11 reads it: from 3.12 on,
    ``tokenize`` splits it into its parts, from ``FSTRING_START`` to the
    matching ``FSTRING_END``. Needs only ``tokenize``, so that other
    interpreters can run it as a script."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
              tokenize.ENDMARKER}
    start = getattr(tokenize, "FSTRING_START", None)
    end = getattr(tokenize, "FSTRING_END", None)
    count = depth = 0  # depth: the f-strings open around the token
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type == start:
                count += not depth
                depth += 1
            elif token.type == end:
                depth -= 1
            elif not depth and token.type not in layout:
                count += 1
    return count


class TestImportFootprint:
    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["cai", "--help"], 0),
        (["report"], 2),
    ])
    def test_parsing_loads_no_layer(self, argv, code):
        # nor __future__, which cli's annotations do not need
        script = RUN_CLI + (
            "print(json.dumps([code, [\n"
            "    m for m in sys.modules\n"
            "    if m.split('.')[0] in ('agrodiag', '__future__')]]))\n")
        assert loaded_modules(script, *argv) == (code, ENTRY)

    def test_parsing_reads_few_tokens(self):
        # without a bytecode cache, each start compiles every token of
        # what it loads
        paths = [importlib.import_module(name).__file__ for name in ENTRY]
        paths.append(str(Path(agrodiag.__file__).with_name("__main__.py")))
        assert sum(map(tokens, paths)) <= MAX_PARSE_PATH_TOKENS

    @pytest.mark.parametrize("argv, expected", [
        (["validate", "-c", "config.json"],
         layers("config", "pipeline", "ingest", "csvread", "panel",
                "advantage", "decomposition", "markets", "productivity",
                "diagnostics", "tree", "serialize")),
        (["cai", "-c", "config.json"],
         layers("config", "pipeline", "advantage", "csvread", "serialize")),
        (["cai", "--region", "area_region.csv",
          "--nation", "area_nation.csv"],
         layers("config", "pipeline", "advantage", "csvread", "serialize")),
        (["tfp", "--io-panel", "io_panel.csv"],
         layers("config", "pipeline", "ingest", "csvread", "panel",
                "productivity", "serialize")),
        (["decompose", "--crop-panel", "crops.csv", "--base", "2002",
          "--terminal", "2016"],
         layers("config", "pipeline", "ingest", "csvread", "panel",
                "decomposition", "serialize")),
    ])
    def test_subcommand_loads_only_its_layers(self, fixture_dir, tmp_path,
                                              argv, expected):
        argv = [str(fixture_dir / a) if a.endswith((".csv", ".json")) else a
                for a in argv]
        code, modules = loaded_modules(RUN_CLI, *argv,
                                       *out_flag(argv[0], tmp_path))
        assert (code, modules) == (0, expected)

    def test_diagnose_indicators_loads_only_the_tree(self, indicators,
                                                     tmp_path):
        code, modules = loaded_modules(
            RUN_CLI, "diagnose", "--indicators", str(indicators),
            "-o", str(tmp_path))
        assert (code, modules) == \
            (0, layers("config", "pipeline", "diagnostics", "tree",
                       "serialize"))

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["cai", "--help"], 0),
        (["decompose", "--base", "x"], 2),
    ])
    def test_help_loads_neither_dataclasses_nor_the_pipeline(self, argv,
                                                             code):
        # nor a command-line parser: argparse and the gettext and locale it
        # imports cost a fresh process ~0.6 MB of peak memory
        script = RUN_CLI + (
            "print(json.dumps([code, [m for m in ('dataclasses',\n"
            "                                     'agrodiag.pipeline',\n"
            "                                     'argparse', 'gettext',\n"
            "                                     'locale')\n"
            "                         if m in sys.modules]]))\n")
        assert loaded_modules(script, *argv) == (code, set())

    @pytest.mark.parametrize("argv", [
        *([command, "-c", "config.json"] for command in (
            "validate", "decompose", "tfp", "growth", "markets", "cai",
            "diagnose", "report")),
        ["diagnose", "--indicators", "indicators.json"],
    ])
    def test_runs_load_neither_dataclasses_nor_statistics(
            self, fixture_dir, indicators, tmp_path, argv):
        # nor what these two import: ~1.5 MB of a fresh report's peak; nor
        # argparse, gettext and locale: ~0.6 MB more
        paths = {"config.json": str(fixture_dir / "config.json"),
                 "indicators.json": str(indicators)}
        script = RUN_CLI + (
            "print(json.dumps([code, [m for m in ('dataclasses',\n"
            "                                     'statistics', 'inspect',\n"
            "                                     'fractions', 'decimal',\n"
            "                                     'argparse', 'gettext',\n"
            "                                     'locale')\n"
            "                         if m in sys.modules]]))\n")
        argv = [paths.get(a, a) for a in argv]
        assert loaded_modules(script, *argv,
                              *out_flag(argv[0], tmp_path)) == (0, set())

    def test_report_loads_no_importlib_resources(self, fixture_dir,
                                                 tmp_path):
        # -S: the site module may import it itself (a .pth file can)
        script = RUN_CLI + (
            "print(json.dumps([code, [m for m in ('importlib.resources',)\n"
            "                         if m in sys.modules]]))\n")
        assert loaded_modules(
            script, "report", "-c", str(fixture_dir / "config.json"),
            "-o", str(tmp_path), flags=("-S",)) == (0, set())

    def test_growth_config_loads_only_the_io_layers(self, fixture_dir,
                                                    tmp_path):
        code, modules = loaded_modules(
            RUN_CLI, "growth", "-c", str(fixture_dir / "config.json"),
            "-o", str(tmp_path))
        assert (code, modules) == (0, layers(
            "config", "pipeline", "ingest", "csvread", "panel",
            "productivity", "serialize"))

    def test_markets_config_loads_neither_productivity_nor_advantage(
            self, fixture_dir, tmp_path):
        code, modules = loaded_modules(
            RUN_CLI, "markets", "-c", str(fixture_dir / "config.json"),
            "-o", str(tmp_path))
        assert (code, modules) == (0, layers(
            "config", "pipeline", "ingest", "csvread", "panel", "markets",
            "serialize"))

    @pytest.mark.parametrize("command", ["report", "validate"])
    def test_report_compiles_each_layer_before_the_input_it_reads(
            self, fixture_dir, tmp_path, command):
        # without a bytecode cache, a layer compiled while the crop panel is
        # held would add its compile scratch to the report's peak memory: the
        # crop phase's layers compile before the panel is read, the others
        # once it is freed, each before the input it reads
        code, opened = opened_files(command, str(fixture_dir / "config.json"),
                                    *out_flag(command, tmp_path))
        assert code == 0
        first = {}
        for name, modules in opened:
            first.setdefault(name, modules)
        assert layers("decomposition", "markets", "ingest", "csvread",
                      "panel") <= first["crops.csv"]
        assert not {f"agrodiag.{name}" for name in (
            "productivity", "advantage", "diagnostics", "tree")
        } & first["crops.csv"]
        assert "agrodiag.productivity" in first["io_panel.csv"]
        assert "agrodiag.advantage" in first["area_region.csv"]

    def test_config_imports_the_tree_before_reading_an_input(
            self, fixture_dir, tmp_path):
        # ~0.7 MB of a scaled diagnose's peak, if compiled after the inputs
        code, opened = opened_files("diagnose",
                                    str(fixture_dir / "config.json"),
                                    "-o", str(tmp_path))
        assert code == 0
        modules = next(modules for name, modules in opened
                       if name.endswith(".csv"))
        assert layers("diagnostics", "config", "tree", "csvread") <= modules

    def test_report_parses_no_module_over_the_token_bound(self, fixture_dir,
                                                          tmp_path):
        code, modules = loaded_modules(
            RUN_CLI, "report", "-c", str(fixture_dir / "config.json"),
            "-o", str(tmp_path))
        assert code == 0
        sizes = {name: tokens(importlib.import_module(name).__file__)
                 for name in modules}
        assert {name: size for name, size in sizes.items()
                if size > MAX_MODULE_TOKENS} == {}
        assert "agrodiag.pipeline" in sizes

    def test_other_interpreters_count_the_same_tokens(self):
        # the bounds above hold under every interpreter, not only this one
        found = other_interpreters()
        if not found:
            pytest.skip("no other python3.10 ... python3.13 on PATH starts")
        paths = sorted(map(str, Path(agrodiag.__file__).parent.glob("*.py")))
        script = ("import json, sys, tokenize\n" + inspect.getsource(tokens)
                  + "print(json.dumps([tokens(p) for p in sys.argv[1:]]))\n")
        for exe in found:
            result = subprocess.run([exe, "-c", script, *paths],
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            assert dict(zip(paths, json.loads(result.stdout))) == \
                {path: tokens(path) for path in paths}, exe

    def test_import_package_loads_no_layer(self):
        script = ("import json, sys, agrodiag\n"
                  "print(json.dumps([0, [m for m in sys.modules\n"
                  "                     if m.split('.')[0] == 'agrodiag']]))\n")
        assert loaded_modules(script) == (0, {"agrodiag"})


class TestLazyPublicNames:
    @pytest.mark.parametrize("name", agrodiag.__all__)
    def test_name_is_its_defining_modules_object(self, name):
        value = getattr(agrodiag, name)
        module = value.__module__
        assert module.startswith("agrodiag.")
        assert getattr(importlib.import_module(module), name) is value

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from agrodiag import *", namespace)
        for name in agrodiag.__all__:
            assert namespace[name] is getattr(agrodiag, name), name

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            agrodiag.no_such_name
        assert not hasattr(agrodiag, "load_price_series")


class TestCliForwardedNames:
    @pytest.mark.parametrize("name", sorted(cli._FORWARDED))
    def test_name_is_its_defining_modules_object(self, name):
        module = importlib.import_module(f"agrodiag.{cli._FORWARDED[name]}")
        assert getattr(cli, name) is getattr(module, name)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name


def _module_imports(tree: ast.Module):
    """The (name bound, line) of every import at module level, also under
    an ``if`` (such as ``if TYPE_CHECKING:``); ``__future__`` excluded."""
    body = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _names_used(tree: ast.Module) -> set[str]:
    """Every name the module reads, also inside a quoted annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _names_used(ast.parse(note.value, mode="eval"))
    return used


class TestModuleImports:
    @pytest.mark.parametrize("path", [
        *sorted(Path(agrodiag.__file__).parent.glob("*.py")),
        *sorted(Path(__file__).parent.glob("*.py")),
        *sorted(Path(__file__).parents[1].glob("demos/*.py"))],
        ids=lambda p: p.name)
    def test_every_module_level_import_is_used(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        assert [f"{name} (line {line})" for name, line in _module_imports(tree)
                if name not in used] == []
