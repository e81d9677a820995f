"""agrodiag benchmark: the CLI as fresh processes in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload scaled_report --seed 1 --seconds 30 --trace 0

One client sends the next op only after the previous one has exited (a
closed loop, no threads: numpy's BLAS pool is held to one thread). An op
is one fresh ``python -m agrodiag ...`` process; for ``scaled_subcommands``
it is one pass over its list of subcommands, each a fresh process. Ops are
started until ``--seconds`` have passed, so a run ends within one op of it.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics instead: it times ``import agrodiag.cli`` with
``-X importtime`` in fresh processes, then runs the same ops in this
process through ``cli.main``: one warm-up pass, then pairs of an untraced
pass and a pass traced by ``spans.Tracer``, in alternating order. Every
op's outputs are checked; an op fails on a non-zero exit, a missing or
extra artifact, or a failed check, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Inputs come from ``--seed``: ``fixture_report`` runs the shipped
synthetic fixture (its bytes are checked against ``fixture_sha256.json``,
so the seed does not alter it), the scaled workloads run ``gen.py``'s
files for that seed. Work files go to ``.perfbench_work/`` in the
repository root; the spans of the last traced pass are left there.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

INPUT_FILES = ("crops.csv", "io_panel.csv", "prices.csv", "land_use.csv",
               "value_cost.csv", "area_region.csv", "area_nation.csv")
REPORT_ARTIFACTS = (
    "decomposition.json", "tfp_index.csv", "growth_rates.json",
    "break_stats.json", "cai.csv", "shares.csv", "land_ratios.json",
    "indicators.json", "diagnosis.json", "figure2.csv", "figure3.csv",
    "figure4.csv",
)
EFFECTS = ("area_effect", "price_effect", "yield_effect",
           "diversification_effect", "interaction_effect")
SETUP_EVERY = 3.0     # seconds between set-up samples (setup_s)
# median wall of a bare `python -c pass` on the reference host (2-vCPU Linux
# VM, CPython 3.11.7); setup_s is expressed in its seconds
REFERENCE_START_S = 0.057
# One client and no threads. numpy's BLAS pool would otherwise start a thread
# per CPU at import, and its start-up would depend on whether the second vCPU
# is free: a fresh `--help` took 0.19-0.23 s for five minutes, then 0.31 s,
# when the same command with one BLAS thread took 0.24 s.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
IMPORT_SAMPLES = 5    # fresh `-X importtime` processes per traced run
TAIL_BEYOND = 10      # samples that must lie beyond the tail percentile

# The end-to-end metrics of BENCHMARK.json, and those printed beside them.
# Op latency is printed, not gated: on a shared 2-vCPU Linux VM the speed of
# fresh processes shifted by 20-50% for minutes at a time, so every latency
# statistic of a run, median or tail, spread by 0.1-0.3 over ten runs, as
# wide as the largest bound a metric may have (see setup.json).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}
PRINTED = {"wall_s_p50": "s", "wall_s_tail": "s", "rows_per_s": "rows/s",
           "python_start_s": "s"}
SUBCOMMANDS = ("validate", "decompose", "tfp", "growth", "markets", "cai",
               "diagnose", "report")
SELF_TIMED = (
    "cli.main", "cli.compute_artifacts", "cli.assemble_indicators",
    "cli.write_artifacts",
    "ingest.load_crop_panel", "ingest.load_io_panel",
    "ingest.load_price_table", "ingest.load_land_use",
    "ingest.load_value_cost", "ingest.triennium_average",
    "advantage.load_area_share_table", "advantage.cai_table",
    "panel.CropPanel", "decomposition.decompose",
    "productivity.build_index", "productivity.avg_annual_growth",
    "markets.share_table", "markets.break_analysis",
    "diagnostics.load_tree", "diagnostics.evaluate",
    "serialize.json_text", "serialize.csv_text",
)
COUNTED = ("cli.compute_artifacts", "ingest.triennium_average",
           "panel.CropPanel", "markets.share_table", "markets.break_analysis")
PER_LAYER = {
    "import.agrodiag_s": "s", "import.numpy_s": "s", "import.modules": "count",
    "cli.main.wall_s": "s",
    **{f"cli.{sub}.wall_s": "s" for sub in SUBCOMMANDS},
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in COUNTED},
    "ingest.rows": "count", "ingest.bytes": "bytes",
    "cli.useful_input_rows_frac": "fraction", "cli.artifact_bytes": "bytes",
    "diagnostics.tree_nodes": "count", "trace.overhead_frac": "fraction",
}


# An op's process: ``python -m agrodiag ARGS`` run through runpy, which on
# its way out writes its own peak RSS (VmHWM, in kB) to the file named by
# its first argument. ru_maxrss from wait4 would not do, because at exec the
# kernel keeps the spawning process's high-water mark: it would never read
# below this harness's own RSS.
CHILD = """\
import runpy, sys
peak_file = sys.argv.pop(1)
try:
    runpy.run_module("agrodiag", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        peak = next(line for line in fh if line.startswith("VmHWM:"))
    with open(peak_file, "w") as fh:
        fh.write(peak.split()[1])
"""


@dataclass(frozen=True)
class Step:
    """One CLI invocation of an op and what it must leave behind."""

    subcommand: str
    argv: tuple[str, ...]
    out: Path | None          # artifact directory, None if nothing is written
    artifacts: frozenset[str]
    needs: tuple[str, ...]    # input files the requested artifacts depend on


# -- inputs ------------------------------------------------------------------


def count_rows(path: Path) -> int:
    """Data rows of a CSV input: non-blank lines after the header."""
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def pythonpath_env() -> dict[str, str]:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def report_step(inputs: Path, out: Path) -> Step:
    return Step("report", ("report", "-c", str(inputs / "config.json"),
                           "-o", str(out)),
                out, frozenset(REPORT_ARTIFACTS), INPUT_FILES)


def prepare_fixture(work: Path, seed: int, env: dict) -> list[Step]:
    inputs = work / "inputs"
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from agrodiag.fixtures import write_synthetic_inputs; "
         "write_synthetic_inputs(sys.argv[1])", str(inputs)],
        cwd=ROOT, env=env, check=True)
    return [report_step(inputs, work / "out")]


def prepare_scaled_report(work: Path, seed: int, env: dict) -> list[Step]:
    inputs = work / "inputs"
    gen.write_scaled_inputs(inputs, seed)
    return [report_step(inputs, work / "out")]


def prepare_scaled_subcommands(work: Path, seed: int, env: dict) -> list[Step]:
    inputs = work / "inputs"
    gen.write_scaled_inputs(inputs, seed)
    builtin = json.loads((SRC / "agrodiag" / "data" / "bihar_tree.json")
                         .read_text(encoding="utf-8"))
    tree = inputs / "tree.json"
    gen.write_tree(tree, builtin)
    indicators = inputs / "indicators.json"
    gen.write_indicators(indicators,
                         json.loads(tree.read_text(encoding="utf-8"))["manifest"],
                         seed)
    config = str(inputs / "config.json")
    markets_inputs = ("crops.csv", "prices.csv", "land_use.csv",
                      "value_cost.csv")
    plan = (
        ("validate", (), None, INPUT_FILES),
        ("decompose", (), ("decomposition.json",), ("crops.csv",)),
        ("tfp", (), ("tfp_index.csv", "figure2.csv"), ("io_panel.csv",)),
        ("growth", (), ("growth_rates.json",), ("io_panel.csv",)),
        ("markets", (), ("break_stats.json", "figure3.csv", "figure4.csv",
                         "shares.csv", "land_ratios.json"), markets_inputs),
        ("cai", (), ("cai.csv",), ("area_region.csv", "area_nation.csv")),
        ("diagnose", ("--indicators", str(indicators), "--tree", str(tree)),
         ("diagnosis.json",), ()),
    )
    steps = []
    for sub, extra, artifacts, needs in plan:
        out = None if artifacts is None else work / f"out_{sub}"
        argv = (sub,) + (extra or ("-c", config))
        if out is not None:
            argv += ("-o", str(out))
        steps.append(Step(sub, argv, out, frozenset(artifacts or ()), needs))
    return steps


WORKLOADS = {
    "fixture_report": prepare_fixture,
    "scaled_report": prepare_scaled_report,
    "scaled_subcommands": prepare_scaled_subcommands,
}


# -- output checks -----------------------------------------------------------


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _reject_constant(text: str):
    raise ValueError(f"non-finite number {text}")


def check_numbers(name: str, data: bytes) -> None:
    """Every number in an artifact is finite; decomposition effects add up."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        doc = json.loads(text, parse_float=_finite_float,
                         parse_constant=_reject_constant)
        if name == "decomposition.json":
            effects = [doc[k] for k in EFFECTS]
            tolerance = 1e-5 * (sum(map(abs, effects)) + abs(doc["total"]))
            if abs(sum(effects) - doc["total"]) > tolerance:
                raise ValueError("decomposition effects do not sum to total")
        return
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # an identifier column
            if not math.isfinite(value):
                raise ValueError(f"non-finite cell {cell!r}")


class Checker:
    """Checks each op's outputs and that all ops of a run agree bytewise."""

    def __init__(self, workload: str) -> None:
        self.expected_sha = None
        if workload == "fixture_report":
            self.expected_sha = json.loads(
                (HERE / "fixture_sha256.json").read_text(encoding="utf-8"))
        self.first_digest: str | None = None

    def check(self, steps: list[Step], results: list[tuple[int, bytes]]
              ) -> str | None:
        """Return None if the op is correct, else the reason it failed."""
        digest = hashlib.sha256()
        for step, (code, stdout) in zip(steps, results):
            if code != 0:
                return f"{step.subcommand} exited {code}"
            digest.update(step.subcommand.encode() + b"\0" + stdout + b"\0")
            if step.out is None:
                if not stdout.endswith(b"all inputs valid\n"):
                    return f"{step.subcommand} did not report valid inputs"
                continue
            found = (sorted(p.name for p in step.out.iterdir())
                     if step.out.is_dir() else [])
            if set(found) != step.artifacts:
                return (f"{step.subcommand} wrote {found}, expected "
                        f"{sorted(step.artifacts)}")
            for name in found:
                data = (step.out / name).read_bytes()
                digest.update(name.encode() + b"\0" + data + b"\0")
                try:
                    if self.expected_sha is not None:
                        if hashlib.sha256(data).hexdigest() != self.expected_sha[name]:
                            return f"{name} differs from the seed's fixture bytes"
                    else:
                        check_numbers(name, data)
                except (ValueError, KeyError) as exc:
                    return f"{name}: {exc}"
        hexdigest = digest.hexdigest()
        if self.first_digest is None:
            self.first_digest = hexdigest
        elif hexdigest != self.first_digest:
            return "outputs differ from the run's first op"
        return None


# -- end-to-end run ----------------------------------------------------------


def run_process(argv: list[str], env: dict, log: Path
                ) -> tuple[float, int, bytes]:
    """Run one fresh process; return (wall s, exit code, stdout)."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        proc.wait()
        wall = time.perf_counter() - start
    return wall, proc.returncode, log.read_bytes()


def run_agrodiag(argv: tuple[str, ...], env: dict, work: Path
                 ) -> tuple[float, float, int, bytes]:
    """Run ``python -m agrodiag ARGV`` as a fresh process through CHILD;
    return (wall s, peak RSS MB, exit code, stdout)."""
    peak_file = work / "peak_kb"
    peak_file.unlink(missing_ok=True)
    wall, code, stdout = run_process(
        [sys.executable, "-c", CHILD, str(peak_file), *argv], env,
        work / "step.log")
    try:
        peak = int(peak_file.read_text()) / 1024.0
    except (OSError, ValueError):
        peak, code = math.nan, code or 1
    return wall, peak, code, stdout


class SetupSampler:
    """Set-up time: fresh `--help` processes (interpreter start, package
    import, parser build), each next to a bare `python -c pass`, taken every
    SETUP_EVERY seconds through the run.

    A wall time of a fresh process follows the host's speed, which on a
    shared VM moved by up to half between runs of the same code. The ratio
    of the two walls, taken a moment apart, does not: ``setup_s`` is the
    median ratio times REFERENCE_START_S, so it reads in seconds of the
    reference host and moves only when the program's start-up does."""

    def __init__(self, env: dict, work: Path) -> None:
        self.help = [sys.executable, "-m", "agrodiag", "--help"]
        self.bare = [sys.executable, "-c", "pass"]
        self.env, self.log = env, work / "help.log"
        self.ratios: list[float] = []
        self.bare_walls: list[float] = []
        self.ok = True
        self.last = -math.inf
        self.sample()  # warm-up: compiles bytecode, fills the page cache
        self.ratios.clear()
        self.bare_walls.clear()

    def _wall(self, argv: list[str]) -> float:
        wall, code, _ = run_process(argv, self.env, self.log)
        self.ok = self.ok and code == 0
        return wall

    def sample(self) -> None:
        if len(self.ratios) % 2:  # alternate which of the two starts first
            bare = self._wall(self.bare)
            help_ = self._wall(self.help)
        else:
            help_ = self._wall(self.help)
            bare = self._wall(self.bare)
        self.ratios.append(help_ / bare)
        self.bare_walls.append(bare)
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY:
            self.sample()

    def setup_s(self) -> float:
        return statistics.median(self.ratios) * REFERENCE_START_S


def tail(values: list[float]) -> tuple[float, float]:
    """The op wall at the highest percentile with TAIL_BEYOND ops beyond
    it, and that percentile. A run of fewer than 4 * TAIL_BEYOND + 1 ops
    keeps a quarter of its ops beyond it instead, so the tail stays in the
    upper quartile; a run of 4 ops or fewer reports its maximum."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 1 - min(TAIL_BEYOND, (n - 1) // 4)
    return ordered[i], 100.0 * i / (n - 1) if n > 1 else 100.0


def run_end_to_end(steps: list[Step], checker: Checker, env: dict,
                   work: Path, seconds: float) -> dict:
    setup = SetupSampler(env, work)
    walls, peaks, failures = [], [], []
    rows_per_op = sum(count_rows(work / "inputs" / name)
                      for step in steps for name in step.needs)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op_wall, op_peak, results = 0.0, 0.0, []
        for step in steps:
            if step.out is not None:
                shutil.rmtree(step.out, ignore_errors=True)
            wall, peak, code, stdout = run_agrodiag(step.argv, env, work)
            op_wall += wall
            op_peak = max(op_peak, peak)
            results.append((code, stdout))
            setup.maybe_sample()
        walls.append(op_wall)
        peaks.append(op_peak)
        reason = checker.check(steps, results)
        if reason is not None:
            failures.append(reason)
    if not setup.ratios:  # a run shorter than SETUP_EVERY
        setup.sample()
    tail_value, tail_pct = tail(walls)
    return {
        "ops": len(walls), "failures": failures, "setup_ok": setup.ok,
        "loop_s": time.perf_counter() - start,
        "tail_percentile": tail_pct,
        "metrics": {
            "wall_s_p50": statistics.median(walls),
            "wall_s_tail": tail_value,
            "rows_per_s": rows_per_op / statistics.median(walls),
            "setup_s": setup.setup_s(),
            "python_start_s": statistics.median(setup.bare_walls),
            "peak_rss_mb": statistics.median(peaks),
        },
    }


# -- traced run --------------------------------------------------------------


def measure_imports(env: dict) -> dict[str, float]:
    """Median import cost of agrodiag.cli in fresh `-X importtime` processes."""
    code = ("import sys; n = len(sys.modules); import agrodiag.cli; "
            "print(len(sys.modules) - n)")
    samples = {"import.agrodiag_s": [], "import.numpy_s": [],
               "import.modules": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True)
        package = numpy = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue  # the header
            cumulative, name = int(parts[1]), parts[2]
            top_level = not name[1:].startswith(" ")
            if top_level and name.strip().startswith("agrodiag"):
                package += cumulative
            if name.strip() == "numpy":
                numpy = cumulative
        samples["import.agrodiag_s"].append(package / 1e6)
        samples["import.numpy_s"].append(numpy / 1e6)
        samples["import.modules"].append(int(proc.stdout))
    return {k: statistics.median(v) for k, v in samples.items()}


def run_in_process(cli, steps: list[Step]) -> tuple[list[float], list]:
    """Run every step through cli.main; return step walls and results."""
    walls, results = [], []
    for step in steps:
        if step.out is not None:
            shutil.rmtree(step.out, ignore_errors=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(list(step.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # counted as a failed op, like a crash
                code = 1
            walls.append(time.perf_counter() - start)
        results.append((code, stdout.getvalue().encode("utf-8")))
    return walls, results


def traced_metrics(tracer: Tracer, steps: list[Step], inputs: Path,
                   row_cache: dict) -> dict[str, float]:
    summary = tracer.summary()
    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = summary.get(name, {}).get("self_s", 0.0)
    for name in COUNTED:
        metrics[f"{name}.calls"] = summary.get(name, {}).get("calls", 0)
    rows = nbytes = 0
    for path in tracer.loaded:
        if path not in row_cache:
            row_cache[path] = (count_rows(Path(path)), os.path.getsize(path))
        rows += row_cache[path][0]
        nbytes += row_cache[path][1]
    useful = sum(count_rows(inputs / name)
                 for step in steps for name in step.needs)
    metrics["ingest.rows"] = rows
    metrics["ingest.bytes"] = nbytes
    metrics["cli.useful_input_rows_frac"] = useful / rows if rows else 1.0
    metrics["cli.artifact_bytes"] = tracer.artifact_bytes
    metrics["diagnostics.tree_nodes"] = tracer.tree_nodes
    return metrics


def run_traced(steps: list[Step], checker: Checker, env: dict, work: Path,
               seconds: float) -> dict:
    imports = measure_imports(env)
    sys.path.insert(0, str(SRC))
    from agrodiag import cli

    tracer = Tracer()
    row_cache: dict = {}
    plain_walls, traced_walls, failures, samples = [], [], [], []
    step_walls = {sub: [] for sub in SUBCOMMANDS}
    sites: dict[str, int] = {}

    def plain_pass() -> None:
        walls, results = run_in_process(cli, steps)
        plain_walls.append(sum(walls))
        totals = dict.fromkeys(SUBCOMMANDS, 0.0)
        for step, wall in zip(steps, walls):
            totals[step.subcommand] += wall
        for sub, wall in totals.items():
            step_walls[sub].append(wall)
        reason = checker.check(steps, results)
        if reason is not None:
            failures.append(reason)

    def traced_pass() -> None:
        nonlocal sites
        tracer.reset()
        sites = tracer.install()
        try:
            walls, results = run_in_process(cli, steps)
        finally:
            tracer.uninstall()
        traced_walls.append(sum(walls))
        reason = checker.check(steps, results)
        if reason is not None:
            failures.append(reason)
        samples.append(traced_metrics(tracer, steps, work / "inputs",
                                      row_cache))

    run_in_process(cli, steps)  # warm-up, not counted: imports, page cache
    start = time.perf_counter()
    # pairs of passes, alternating which of the two runs first; at least two
    # pairs, so that each order is run and trace.overhead_frac is unbiased
    while len(samples) < 2 or ((time.perf_counter() - start)
                               * (len(samples) + 1) / len(samples) <= seconds):
        for run_pass in ((plain_pass, traced_pass) if len(samples) % 2 == 0
                         else (traced_pass, plain_pass)):
            run_pass()
    (WORK_ROOT / f"spans_{work.name.rsplit('-', 1)[0]}.json").write_text(
        json.dumps({"sites": sites, "spans": tracer.spans}), encoding="utf-8")
    metrics = dict(imports)
    metrics["cli.main.wall_s"] = statistics.median(plain_walls)
    for sub, walls in step_walls.items():
        metrics[f"cli.{sub}.wall_s"] = statistics.median(walls)
    for name in samples[0]:
        average = (statistics.median_low if PER_LAYER[name] in ("count", "bytes")
                   else statistics.median)
        metrics[name] = average(s[name] for s in samples)
    # pass walls of a pair are compared with each other, not across pairs,
    # so that the host's speed drifting between pairs cancels
    metrics["trace.overhead_frac"] = statistics.median(
        traced / plain for traced, plain in zip(traced_walls, plain_walls)) - 1.0
    return {"ops": 2 * len(samples), "failures": failures, "setup_ok": True,
            "loop_s": time.perf_counter() - start, "sites": sites,
            "metrics": metrics}


# -- main --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "agrodiag" / "__init__.py").is_file():
        print(f"error: no agrodiag sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(ONE_THREAD)  # before the traced run imports numpy
    env = pythonpath_env()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        steps = WORKLOADS[args.workload](work, args.seed, env)
        checker = Checker(args.workload)
        run = (run_traced if args.trace else run_end_to_end)(
            steps, checker, env, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(run["failures"])
    print(f"workload {args.workload}, seed {args.seed}: {run['ops']} ops in "
          f"{run['loop_s']:.1f} s, closed loop, one client")
    for name, unit in (units if args.trace else {**PRINTED, **units}).items():
        print(f"  {name:40s} {run['metrics'][name]:.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':40s} {failed / run['ops']:.6g} fraction")
        print(f"  {'wall_s_tail percentile':40s} "
              f"p{run['tail_percentile']:.0f} of {run['ops']} ops")
    if args.trace:
        print("  binding sites traced: " + ", ".join(
            f"{name} {count}" for name, count in sorted(run["sites"].items())))
    for reason in run["failures"][:5]:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": failed == 0 and run["setup_ok"],
        "attempted": run["ops"],
        "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
