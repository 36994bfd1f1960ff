"""Benchmark of the nsfd-epi package, driven through ``nsfd_epi.cli.main``.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload portrait --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process and one caller in a closed loop: each command is sent after
the previous one returns.  Times are scaled to a fixed host speed (see
reference.py).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see README.md).  The last line of
standard output is one JSON object; the exit code is 1 if any output was
wrong and 2 if the package cannot be found.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import reference
from check import DOCUMENTED_EXITS, Outcome, check
from reference import HostSpeed
from tracer import Stat, Tracer
from workloads import WORKLOADS, Op, make_pass

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

# A run measures at least this many passes, even past --seconds.
MIN_PASSES = 3
# Fresh interpreters started per run to time the import; the median is kept.
SETUP_REPEATS = 9
# The reference kernel runs after the timed import, since it imports numpy.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import nsfd_epi.cli
seconds = time.perf_counter() - start
sys.path.append(sys.argv[2])
import reference
reference.kernel()
print(seconds, sorted(reference.measure() for _ in range(3))[1])
"""
# The acceptance checks, as ``verify --list`` names them.
VERIFY_CHECKS = (
    "converges:general-disease-free",
    "converges:general-endemic",
    "converges:horizontal-disease-free",
    "converges:horizontal-endemic",
    "converges:horizontal-susceptible-free",
    "converges:vertical-disease-free",
    "interior-equilibrium-algebra",
    "reproduction-number-threshold",
    "positivity",
    "step-size-independence",
    "jury-eigenvalue-oracle",
    "theorem-crosscheck",
    "consistency-order",
)


class PackageMissing(Exception):
    pass


def load_cli(root: Path = ROOT):
    src = root / "src"
    if not (src / "nsfd_epi" / "cli.py").is_file():
        raise PackageMissing(f"no package source at {src / 'nsfd_epi'}")
    sys.path.insert(0, str(src))
    import nsfd_epi.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "nsfd_epi").resolve():
        raise PackageMissing(f"imported nsfd_epi from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Totals:
    """What the operations of a run did, summed."""

    attempted: int = 0
    failed: int = 0
    error_exits: int = 0  # failed with a documented exit 2 or 3
    problems: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # host-normalized
    raw_latencies: list[float] = field(default_factory=list)
    steps: int = 0
    trajectories: int = 0
    rows: int = 0
    bytes_out: int = 0
    analyses: int = 0


def run_op(cli, op: Op, out_dir: Path) -> Outcome:
    argv = [str(out_dir) if arg == "{out}" else arg for arg in op.argv]
    if op.writes_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags with exit 2
        rc = exc.code
    except Exception:
        error = traceback.format_exc()
    seconds = perf_counter() - start
    files = {}
    if op.writes_dir and rc == 0:
        files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    return Outcome(rc, seconds, stdout.getvalue(), stderr.getvalue(), error, files, start)


def run_pass(cli, ops: list[Op], out_dir: Path, totals: Totals, speed: HostSpeed) -> tuple[float, float]:
    """Run and check every op; returns the seconds spent inside ``main``, raw and host-normalized.

    The reference kernel is timed before the first op and after each op.
    """
    spans = []
    speed.sample()
    for op in ops:
        outcome = run_op(cli, op, out_dir)
        speed.sample()
        spans.append((outcome.start, outcome.start + outcome.seconds))
        result = check(op, outcome)
        totals.attempted += 1
        totals.failed += result.failed
        totals.error_exits += result.failed and outcome.rc in DOCUMENTED_EXITS
        totals.raw_latencies.append(outcome.seconds)
        totals.steps += result.steps
        totals.trajectories += result.trajectories
        totals.rows += result.rows
        totals.bytes_out += result.bytes_out
        totals.analyses += op.kind == "sweep" and not result.failed
        if result.problem is not None:
            totals.problems.append(result.problem)
            break
    latencies = speed.normalize(spans)
    totals.latencies.extend(latencies)
    return sum(end - start for start, end in spans), sum(latencies)


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import nsfd_epi.cli in fresh interpreters, raw and normalized.

    Each interpreter times the reference kernel right after the import.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, kernel_seconds = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * reference.NOMINAL_S / kernel_seconds)
    return raw[1:], scaled[1:]  # the first start may also write bytecode caches


def end_to_end(cli, workload: str, seed: int, seconds: float, out_dir: Path) -> tuple[Totals, dict, dict]:
    """Untraced passes for ``seconds``; returns totals, metrics and extras.

    Times are host-normalized (see reference.py); the raw medians are
    among the extras.
    """
    raw_setup, setup = measure_setup()
    totals = Totals()
    walls: list[tuple[float, float]] = []
    took: list[float] = []
    start = perf_counter()
    with HostSpeed() as speed:
        while not totals.problems:
            walls.append(run_pass(cli, make_pass(workload, seed, len(walls)), out_dir, totals, speed))
            took.append(perf_counter() - start - sum(took))
            if len(walls) >= MIN_PASSES and sum(took) + statistics.median(took) > seconds:
                break
    busy = sum(totals.latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(scaled for _, scaled in walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(totals.latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {
        "samples": f"setup {len(setup)}, passes {len(walls)}, operations {totals.attempted}",
        "raw setup_s": (statistics.median(raw_setup), "s"),
        "raw wall_s": (statistics.median(raw for raw, _ in walls), "s"),
        "raw op_p50_ms": (1e3 * statistics.median(totals.raw_latencies), "ms"),
        "failed_ratio": (totals.failed / totals.attempted, "ratio"),
    }
    if totals.attempted >= 100:
        extras["op_p90_ms"] = (1e3 * statistics.quantiles(totals.latencies, n=10)[-1], "ms")
    if totals.trajectories:
        extras["trajectories_per_s"] = (totals.trajectories / busy, "1/s")
        extras["steps_per_s"] = (totals.steps / busy, "1/s")
    if totals.analyses:
        extras["analyses_per_s"] = (totals.analyses / busy, "1/s")
    return totals, metrics, extras


def _us(seconds: float, count: int) -> float:
    return 1e6 * seconds / count if count else 0.0


def layer_metrics(stats: dict[str, Stat], totals: Totals) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass."""
    get = lambda name: stats.get(name, Stat())  # noqa: E731
    it, step, sim = get("nsfd.iterate"), get("nsfd.step"), get("integrators.simulate_continuous")
    upd, eqs, cli = get("convergence.update"), get("equilibria.all_equilibria"), get("cli")
    rep, jury = get("stability.stability_report"), get("stability.jury_conditions")
    converged = it.converged_steps
    metrics = {
        "nsfd.steps": (it.steps, "count"),
        "nsfd.us_per_step": (_us(it.self_time, it.steps), "us"),
        "nsfd.iterate.self_s": (it.self_time, "s"),
        "nsfd.step.calls": (step.calls, "count"),
        "nsfd.step.us_per_call": (_us(step.total, step.calls), "us"),
        "nsfd.steps_to_converge_p50": (statistics.median(converged) if converged else 0, "count"),
        "nsfd.errors": (it.errors + step.errors, "count"),
        "integrators.rk4_steps": (sim.steps, "count"),
        "integrators.us_per_step": (_us(sim.self_time, sim.steps), "us"),
        "integrators.simulate_continuous.self_s": (sim.self_time, "s"),
        "convergence.updates": (upd.calls, "count"),
        "convergence.update.us_per_call": (_us(upd.total, upd.calls), "us"),
        "equilibria.all_equilibria.calls": (eqs.calls, "count"),
        "equilibria.all_equilibria.us_per_call": (_us(eqs.total, eqs.calls), "us"),
        "stability.stability_report.calls": (rep.calls, "count"),
        "stability.stability_report.us_per_call": (_us(rep.total, rep.calls), "us"),
        "stability.jury_conditions.calls": (jury.calls, "count"),
        "stability.jury_conditions.us_per_call": (_us(jury.total, jury.calls), "us"),
        "harness.step_size_sweep.self_s": (get("harness.step_size_sweep").self_time, "s"),
        "harness.first_negative_step.self_s": (get("harness.first_negative_step").self_time, "s"),
    }
    for name in VERIFY_CHECKS:
        key = "verification." + name.replace(":", ".")
        metrics[f"{key}_s"] = (get(key).total, "s")
    metrics.update(
        {
            "cli.commands": (cli.calls, "count"),
            "cli.self_s": (cli.self_time, "s"),
            "cli.rows_out": (totals.rows, "count"),
            "cli.bytes_out": (totals.bytes_out, "count"),
        }
    )
    return metrics


def traced(cli, workload: str, seed: int, seconds: float, out_dir: Path) -> tuple[Totals, dict]:
    """Alternate traced and untraced repeats of the seed's first pass.

    An untraced warm-up pass goes first, since the first pass in a
    process is slower.  Times are medians over the traced repeats, each
    scaled by its pass's host-speed factor (normalized over raw time);
    counts come from one repeat and must be identical in all of them.
    The overhead is the traced pass time minus the untraced one.  The
    spans of the first traced repeat are written to .perfbench/.
    """
    ops = make_pass(workload, seed, 0)
    totals = Totals()
    start = perf_counter()
    plain: list[float] = []
    runs: list[tuple[float, float, dict]] = []
    with HostSpeed() as speed:
        run_pass(cli, ops, out_dir, totals, speed)
        while not totals.problems:
            pair_start = perf_counter()
            pass_totals = Totals()
            with Tracer() as tracer:
                raw, scaled = run_pass(cli, ops, out_dir, pass_totals, speed)
            if not runs:
                spans = [asdict(span) for span in tracer.spans]
                (SCRATCH / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
            runs.append((scaled, scaled / raw, layer_metrics(tracer.stats, pass_totals)))
            for name in ("attempted", "failed", "error_exits", "problems"):
                setattr(totals, name, getattr(totals, name) + getattr(pass_totals, name))
            plain.append(run_pass(cli, ops, out_dir, totals, speed)[1])
            now = perf_counter()
            if now - start + (now - pair_start) > seconds:
                break
    metrics = {}
    for name, (value, unit) in runs[0][2].items():
        if unit == "count":
            if any(m[name][0] != value for _, _, m in runs[1:]):
                totals.problems.append(f"{name} differs between traced repeats of one pass")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(factor * m[name][0] for _, factor, m in runs), unit)
    overhead = statistics.median(scaled for scaled, _, _ in runs) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return totals, metrics


def result_line(totals: Totals, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": not totals.problems,
            "attempted": totals.attempted,
            "failed": totals.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def print_table(title: str, metrics: dict, extras: dict | None = None) -> None:
    print(f"== {title}")
    for name, item in {**metrics, **(extras or {})}.items():
        if isinstance(item, str):
            print(f"  {name:44s} {item}")
        else:
            value, unit = item
            print(f"  {name:44s} {value:>14.6g} {unit}")


def report_problems(totals: Totals) -> None:
    for problem in totals.problems[:5]:
        print(f"wrong output: {problem}", file=sys.stderr)


def run_all(cli, seed: int, seconds: float, out_dir: Path) -> int:
    """Every workload end to end, then the edge probe and the CSV digests."""
    import digests

    correct = True
    summary = {}
    for workload in WORKLOADS:
        totals, metrics, extras = end_to_end(cli, workload, seed, seconds, out_dir)
        print_table(f"{workload} (seed {seed}, {seconds:g} s)", metrics, extras)
        report_problems(totals)
        correct &= not totals.problems
        summary[workload] = json.loads(result_line(totals, metrics))
    edge = Totals()
    with HostSpeed() as speed:
        run_pass(cli, make_pass("edge", seed, 0), out_dir, edge, speed)
    print_table(
        "edge probe: starts beside the axes, not timed",
        {"failed_ratio": (edge.failed / edge.attempted, "ratio")},
        {
            "samples": f"{edge.failed} of {edge.attempted} runs failed: {edge.error_exits} exited 2 or 3, "
            f"{edge.failed - edge.error_exits} converged to another equilibrium"
        },
    )
    report_problems(edge)
    correct &= not edge.problems
    mismatches = digests.compare(cli, out_dir)
    print(f"== README command digests: {len(mismatches)} differ from perfbench/digests.json")
    for line in mismatches:
        print(f"  {line}")
    correct &= not mismatches
    summary["edge"] = {"attempted": edge.attempted, "failed": edge.failed}
    print(json.dumps({"correct": bool(correct), "workloads": summary}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_cli()
    except (PackageMissing, ImportError) as exc:
        print(f"error: cannot load the package: {exc}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        out_dir = work / "out"
        if args.workload == "all":
            return run_all(cli, args.seed, args.seconds, out_dir)
        title = f"{args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})"
        if args.trace:
            totals, metrics = traced(cli, args.workload, args.seed, args.seconds, out_dir)
            print_table(title, metrics)
        else:
            totals, metrics, extras = end_to_end(cli, args.workload, args.seed, args.seconds, out_dir)
            print_table(title, metrics, extras)
        report_problems(totals)
        print(result_line(totals, metrics))
        return 0 if not totals.problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()


if __name__ == "__main__":
    sys.exit(main())
