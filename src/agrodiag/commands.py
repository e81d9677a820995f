"""The subcommand handlers, which ``cli.main`` imports only once a command
line has parsed, and the mapping of an ``AgrodiagError`` to exit code 1.

Every subcommand but ``report`` and ``validate`` writes its slice of the
report through ``_cmd_run``: the ``pipeline.Run`` method of its name, on
the run config of ``-c`` with the fields its flags set. ``_HANDLERS``
names the subcommands with a handler of their own. Each handler imports
what it runs in its own body.
"""
import sys
from pathlib import Path

from .cli import _COMMANDS
from .errors import AgrodiagError


def run(args: dict) -> int:
    """Run the parsed command line ARGS and flush stdout; return its exit
    code. An ``AgrodiagError`` is printed to stderr and returns 1."""
    try:
        code = _HANDLERS.get(args["command"], _cmd_run)(args)
    except AgrodiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()  # a closed stdout fails here, not at exit
    return code


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
    flags = _COMMANDS[args["command"]][1]
    for flag, value in args.items():
        if flag in flags:
            setattr(config, flags[flag][0], value)
    return Run(config)


def _cmd_run(args, run=None) -> int:
    """Write the artifacts of the subcommand's method of RUN (by default
    ARGS's) to ``-o`` as they are computed, or print each chunk as it is
    made: a slice yields its artifacts in name order."""
    from .serialize import write_artifacts

    artifacts = getattr(run or _run(args), args["command"])()
    if "--out" in args:
        write_artifacts(Path(args["--out"]), artifacts)
    else:
        for _, text in artifacts:
            sys.stdout.writelines([text] if isinstance(text, str) else text)
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
    """Run ``report``'s stages, writing nothing: each artifact's chunks are
    made and dropped one at a time. Then print what each input held."""
    from collections import deque

    run = _run(args)
    for _, text in run.report():
        deque(text, 0)
    counts, io_years = run.counts, run.series["tfp"].years
    rows, crops, years = counts["crop panel"]
    commodities = counts["price series"]
    region, nation = counts["area tables"]
    chains, nodes = counts["tree"]
    print(f"crop panel: {rows} observations, {crops} crops, "
          f"years {years[0]}-{years[-1]}")
    print(f"io panel: {len(io_years)} years, {io_years[0]}-{io_years[-1]}")
    print(f"price series: {len(commodities)} commodities "
          f"({', '.join(commodities)})")
    print(f"land use: {counts['land use']} years")
    print(f"value/cost series: {len(run.readings['value_cost'])} years")
    print(f"area tables: {region} region groups, {nation} nation groups")
    print(f"tree: {chains} chains, {nodes} nodes")
    print("all inputs valid")
    return 0


def _cmd_report(args) -> int:
    """Write every artifact to ``-o``, or to the config's output directory,
    as each stage yields it; then print the tree's verdicts."""
    from .serialize import write_artifacts

    run = _run(args)
    outdir = Path(args["--out"]) if "--out" in args else run.config.output_dir
    write_artifacts(outdir, run.report())
    sys.stdout.write(run.diagnosis.to_text())
    print(f"artifacts written to {outdir}")
    return 0


# the subcommands that are not a ``pipeline.Run`` slice
_HANDLERS = {
    "validate": _cmd_validate,
    "diagnose": _cmd_diagnose,
    "report": _cmd_report,
}
