"""Command line: parse arguments, run one subcommand, map errors to exit
codes.

Every subcommand but ``report`` and ``validate`` writes its slice of the
report: the ``pipeline.Run`` method of its name, on the run config of
``-c`` with the fields its flags set. A flag overrides its field of the
config; without ``-c``, the flags must name every input the slice reads.
One table, ``_COMMANDS``, declares each subcommand; the parser, both help
texts and the overrides read it. Each handler imports what it runs in its
own body, so ``--help`` and a usage error load nothing else.
"""
from __future__ import annotations

import sys
from pathlib import Path

from .errors import AgrodiagError

# names defined elsewhere that stay reachable as ``agrodiag.cli.<name>``,
# each imported from its submodule on first access (PEP 562): the span
# tracer in ``perfbench/spans.py`` looks these two up here to find the
# functions it times
_FORWARDED = {
    "assemble_indicators": "pipeline",
    "write_artifacts": "serialize",
}


def __getattr__(name: str):
    try:
        submodule = _FORWARDED[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __package__), name)
    globals()[name] = value
    return value


# -- subcommand handlers ---------------------------------------------------


def _run(args: dict):
    """The ``pipeline.Run`` of ARGS's config, each flag given setting its
    field; without ``-c``, every field with no default is ``None``."""
    from .config import RunConfig, load_run_config
    from .pipeline import Run

    if "--config" not in args:
        config = RunConfig(**dict.fromkeys(
            RunConfig._fields - RunConfig._defaults.keys()))
    else:
        config = load_run_config(args["--config"])
    flags = _COMMANDS[args["command"]][2]
    for flag, value in args.items():
        if flag in flags:
            setattr(config, flags[flag][0], value)
    return Run(config)


def _cmd_run(args, run=None) -> int:
    """Write the artifacts of the subcommand's method of RUN (by default
    ARGS's) to ``-o`` as they are computed, or print them."""
    from .serialize import collect, write_artifacts

    artifacts = getattr(run or _run(args), args["command"])()
    if "--out" in args:
        write_artifacts(Path(args["--out"]), artifacts)
    else:
        for _, text in sorted(collect(artifacts).items()):
            sys.stdout.write(text)
    return 0


def _cmd_diagnose(args) -> int:
    """Print the tree's verdicts; with ``-o``, once they are reached, first
    write the artifacts through ``_cmd_run``."""
    run = _run(args)
    verdicts = run.diagnosis.to_text()
    if "--out" in args:
        _cmd_run(args, run)
    sys.stdout.write(verdicts)
    return 0


def _cmd_validate(args) -> int:
    run = _run(args)
    run.crop_years = set()  # count every row, keep none
    # each input read once and reduced to what is printed, in a fixed
    # order; nothing is printed unless every input is valid
    commodities = sorted(run.prices)
    value_cost_years = len(run.value_cost[0])
    rows, crops, years = run.panel.checked
    io_years = run.io_panel.years
    land_years = len(run.land)
    region, nation = (len(table.groups) for table in run.areas)
    print(f"crop panel: {rows} observations, {crops} crops, "
          f"years {years[0]}-{years[-1]}")
    print(f"io panel: {len(io_years)} years, {io_years[0]}-{io_years[-1]}")
    print(f"price series: {len(commodities)} commodities "
          f"({', '.join(commodities)})")
    print(f"land use: {land_years} years")
    print(f"value/cost series: {value_cost_years} years")
    print(f"area tables: {region} region groups, {nation} nation groups")
    print("all inputs valid")
    return 0


def _cmd_report(args) -> int:
    from .config import load_run_config
    from .pipeline import run_pipeline

    config = load_run_config(args["--config"])
    outdir = Path(args["--out"]) if "--out" in args else config.output_dir
    report = run_pipeline(config, outdir)
    sys.stdout.write(report.to_text())
    print(f"artifacts written to {outdir}")
    return 0


# command -> (help, handler, its flags, the flags it needs without -c, the
# usage error if one is missing); a flag -> (the run-config field it
# overrides, its type: str, int or a tuple of choices, its help), or None
# for a common flag the command refuses. A path is relative to the working
# directory, also with -c, and kept as typed, since errors name it
_COMMANDS = {
    "validate": ("load and validate all configured inputs", _cmd_validate,
                 {"--out": None}, ("--config",), "validate needs --config"),
    "decompose": ("revenue-change decomposition", _cmd_run, {
        "--crop-panel": ("crop_panel", str, "crop panel CSV"),
        "--base": ("decomposition_base", int, "base year (or TE end year)"),
        "--terminal": ("decomposition_terminal", int,
                       "terminal year (or TE end year)"),
        "--mode": ("period_mode", ("triennium", "endpoint"),
                   "period mode (default: triennium)"),
    }, ("--crop-panel", "--base", "--terminal"),
        "decompose needs --config or --crop-panel with --base and --terminal"),
    "tfp": ("output/input/TFP index series", _cmd_run, {
        "--io-panel": ("io_panel", str, "io panel CSV"),
        "--base-year": ("tfp_base_year", int, "index base year (=100)"),
    }, ("--io-panel",), "tfp needs --config or --io-panel"),
    "growth": ("average annual TFP growth per period", _cmd_run, {
        "--method": ("growth_method", ("loglinear", "cagr"),
                     "growth-rate method (default: loglinear)"),
    }, ("--config",), "growth needs --config"),
    "markets": ("price break stats and ratio series", _cmd_run,
                {}, ("--config",), "markets needs --config"),
    "cai": ("comparative-advantage table", _cmd_run, {
        "--region": ("area_shares_region", str, "region area table CSV"),
        "--nation": ("area_shares_nation", str, "nation area table CSV"),
    }, ("--region", "--nation"),
        "cai needs --config or both --region and --nation"),
    "diagnose": ("evaluate a diagnostic tree", _cmd_diagnose, {
        "--tree": ("tree", str, "'builtin' or a tree-config JSON file"),
        "--indicators": ("indicators", str,
                         "an indicators.json in place of the assembled set"),
    }, ("--indicators",), "diagnose needs --indicators or --config"),
    "report": ("full pipeline: all artifacts + diagnosis", _cmd_report,
               {}, ("--config",), "report needs --config"),
}
# the flags every command takes, each also by its initial: -c, -o
_COMMON = {"--config": (None, str, "run-config JSON file (other flags "
                                   "override it)"),
           "--out": (None, str, "output directory (default: print to stdout)")}


class UsageError(Exception):
    """A command line the table refuses: ``main`` prints it, returns 2."""


def _flags(command: str) -> dict:
    """The flags COMMAND takes: the common ones it does not refuse, then
    its own."""
    flags = {**_COMMON, **_COMMANDS[command][2]}
    return {flag: spec for flag, spec in flags.items() if spec is not None}


def _help(command: str | None) -> str:
    """The ``--help`` text of COMMAND, or the top level's if it is None."""
    if command is None:
        usage = "COMMAND"
        summary = ("growth accounting and binding-constraint diagnostics "
                   "for crop panels")
        rows = {name: row[0] for name, row in _COMMANDS.items()}
        rows["COMMAND --help"] = "the flags of COMMAND"
    else:
        summary, _, _, needs, _ = _COMMANDS[command]
        usage = command + " -c CONFIG" * (needs == ("--config",))
        rows = {}
        for flag, (_, kind, text) in _flags(command).items():
            short = f"{flag[1:3]}, " if flag in _COMMON else ""
            value = ("{%s}" % ",".join(kind) if type(kind) is tuple
                     else flag[2:].upper())
            rows[f"{short}{flag} {value}"] = text
        rows["-h, --help"] = "show this help"
    return "\n".join([
        f"usage: agrodiag {usage} [FLAG VALUE ...]\n\n{summary}\n",
        *(f"  {name:<28}{text}" for name, text in rows.items())])


def parse_args(argv: list[str]) -> dict:
    """ARGV as ``{"command": name, flag: value}``, each flag by its long
    name, typed, the last of a repeated one kept; with ``-h``/``--help``,
    ``{"command": name or None, "--help": True}``. Raises UsageError."""
    if argv[:1] in (["-h"], ["--help"]):
        return {"command": None, "--help": True}
    if not argv or argv[0] not in _COMMANDS:
        raise UsageError((f"unknown command {argv[0]!r}" if argv else
                          "no command") + "; choose one of "
                         + ", ".join(_COMMANDS))
    command, *rest = argv
    flags = _flags(command)
    args = {"command": command}
    rest = iter(rest)
    for arg in rest:
        if arg in ("-h", "--help"):
            return {"command": command, "--help": True}
        if not arg.startswith("-"):
            raise UsageError(f"{command}: unexpected argument {arg!r}")
        flag, eq, value = arg.partition("=")  # --flag=VALUE
        flag = {"-c": "--config", "-o": "--out"}.get(flag, flag)
        if flag not in flags:
            raise UsageError(f"{command}: unknown flag {flag}")
        if not eq:  # --flag VALUE; a VALUE starting with "-" needs the "="
            value = next(rest, "-")
            if value.startswith("-"):
                raise UsageError(f"{command}: {flag} needs a value")
        kind = flags[flag][1]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{command}: {flag} must be an integer, "
                                 f"got {value!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"{command}: {flag} must be one of "
                             f"{', '.join(kind)}, got {value!r}")
        args[flag] = value
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if "--help" in args:
            print(_help(args["command"]))
            return 0
        _, handler, _, needs, usage = _COMMANDS[args["command"]]
        if "--config" not in args and not all(f in args for f in needs):
            raise UsageError(usage)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return handler(args)
    except FileNotFoundError as exc:
        print(f"error: no inputs: {exc.filename or exc}", file=sys.stderr)
        return 1
    except AgrodiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
