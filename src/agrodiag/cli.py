"""Command line: parse arguments, print help and usage errors, and hand a
parsed command to ``commands``, which runs it.

One table, ``_COMMANDS``, declares each subcommand: its help, its flags
and the flags it needs without ``-c``. The parser, both help texts, the
no-``-c`` check and the overrides in ``commands`` read it. A flag
overrides its field of the run config; without ``-c``, the flags must
name every input the command reads. ``main`` imports ``commands`` only
once a command line has parsed, so ``--help`` and a usage error load no
other module of the package. ``main`` maps a missing input and any other
I/O failure to exit code 1, and ``commands`` an ``AgrodiagError``.
"""
import os
import sys

# names defined elsewhere that stay reachable as ``agrodiag.cli.<name>``,
# each imported from its submodule on first access (PEP 562): the span
# tracer in ``perfbench/spans.py`` looks these two up here to find the
# functions it times
_FORWARDED = {
    "assemble_indicators": "pipeline",
    "write_artifacts": "serialize",
}


def __getattr__(name: str):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_FORWARDED[name]}", __package__), name)
    globals()[name] = value
    return value


# command -> (help, its flags, the flags it needs without -c, the usage
# error if one is missing); a flag -> (the run-config field it overrides,
# its type: str, int or a tuple of choices, its help), or None for a
# common flag the command refuses. A path is relative to the working
# directory, also with -c, and kept as typed, since errors name it
_COMMANDS = {
    "validate": ("load and validate all configured inputs",
                 {"--out": None}, ("--config",), "validate needs --config"),
    "decompose": ("revenue-change decomposition", {
        "--crop-panel": ("crop_panel", str, "crop panel CSV"),
        "--base": ("decomposition_base", int, "base year (or TE end year)"),
        "--terminal": ("decomposition_terminal", int,
                       "terminal year (or TE end year)"),
        "--mode": ("period_mode", ("triennium", "endpoint"),
                   "period mode (default: triennium)"),
    }, ("--crop-panel", "--base", "--terminal"),
        "decompose needs --config or --crop-panel with --base and --terminal"),
    "tfp": ("output/input/TFP index series", {
        "--io-panel": ("io_panel", str, "io panel CSV"),
        "--base-year": ("tfp_base_year", int, "index base year (=100)"),
    }, ("--io-panel",), "tfp needs --config or --io-panel"),
    "growth": ("average annual TFP growth per period", {
        "--method": ("growth_method", ("loglinear", "cagr"),
                     "growth-rate method (default: loglinear)"),
    }, ("--config",), "growth needs --config"),
    "markets": ("price break stats and ratio series",
                {}, ("--config",), "markets needs --config"),
    "cai": ("comparative-advantage table", {
        "--region": ("area_shares_region", str, "region area table CSV"),
        "--nation": ("area_shares_nation", str, "nation area table CSV"),
    }, ("--region", "--nation"),
        "cai needs --config or both --region and --nation"),
    "diagnose": ("evaluate a diagnostic tree", {
        "--tree": ("tree", str, "'builtin' or a tree-config JSON file"),
        "--indicators": ("indicators", str,
                         "an indicators.json in place of the assembled set"),
    }, ("--indicators",), "diagnose needs --indicators or --config"),
    "report": ("full pipeline: all artifacts + diagnosis",
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
    flags = {**_COMMON, **_COMMANDS[command][1]}
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
        summary, _, needs, _ = _COMMANDS[command]
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
    if argv and argv[0] in ("-h", "--help"):
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
        if not value or not eq and value.startswith("-"):
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
            print(_help(args["command"]), flush=True)
            return 0
        _, _, needs, usage = _COMMANDS[args["command"]]
        if "--config" not in args and not all(f in args for f in needs):
            raise UsageError(usage)
        from .commands import run

        return run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no inputs: {exc.filename or exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # stdout's reader is gone, so the interpreter's flush at exit
            # would fail again on what is left in the buffer
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1
