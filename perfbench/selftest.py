"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run
from check import Outcome, check
from reference import HostSpeed
from tracer import Tracer
from workloads import SCENARIOS, WORKLOADS, make_pass, portrait_pass, analysis_pass

cli = run.load_cli()

import nsfd_epi  # noqa: E402  (importable once load_cli has put src/ on the path)
from nsfd_epi import verification  # noqa: E402
from nsfd_epi.convergence import ConvergenceMonitor  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_portrait(seed: int) -> list:
    """Two NSFD commands and one RK4 command on the cheapest scenario."""
    return [op for op in portrait_pass(seed, 0, starts=2, strata=2) if op.scenario.name == "vertical-disease-free"]


def package_bindings() -> dict:
    bindings = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "nsfd_epi" or name.startswith("nsfd_epi.")
        for attr, value in vars(module).items()
    }
    bindings[("ConvergenceMonitor", "update")] = ConvergenceMonitor.__dict__["update"]
    return bindings


class Case(unittest.TestCase):
    def setUp(self) -> None:
        run.SCRATCH.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
        self.out = self.work / "out"

    def tearDown(self) -> None:
        shutil.rmtree(self.work)
        if not any(run.SCRATCH.iterdir()):
            run.SCRATCH.rmdir()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_argv(self) -> None:
        for workload in (*WORKLOADS, "edge"):
            for index in (0, 3):
                self.assertEqual(make_pass(workload, 7, index), make_pass(workload, 7, index))

    def test_other_seed_or_pass_other_argv(self) -> None:
        for workload in ("portrait", "analysis", "edge"):
            self.assertNotEqual(make_pass(workload, 7, 0), make_pass(workload, 8, 0))
            self.assertNotEqual(make_pass(workload, 7, 0), make_pass(workload, 7, 1))

    def test_scenarios_match_the_package(self) -> None:
        self.assertEqual(len(SCENARIOS), len(verification.SCENARIOS))
        for mine, theirs in zip(SCENARIOS, verification.SCENARIOS):
            p = theirs.params
            self.assertEqual(mine.name, theirs.name)
            self.assertEqual(mine.model, theirs.variant.value)
            self.assertEqual(
                mine.params,
                {"bx": p.b_x, "by": p.b_y, "ux": p.u_x, "uy": p.u_y, "K": p.K, "e": p.e, "beta": p.beta},
            )
            self.assertEqual(mine.expected_kind, theirs.expected_kind.value)
            self.assertEqual(mine.expected_point, tuple(theirs.expected_point))

    def test_verify_check_names_match_the_package(self) -> None:
        self.assertEqual(list(run.VERIFY_CHECKS), verification.acceptance_check_names())


class TracerTest(Case):
    def test_restores_every_binding(self) -> None:
        before = package_bindings()
        with Tracer() as tracer:
            patched = {(holder, attr) for holder, attr, _ in tracer.patched}
            self.assertIsNot(nsfd_epi.cli.iterate, before[("nsfd_epi.cli", "iterate")])
            self.assertIsNot(nsfd_epi.harness.step, before[("nsfd_epi.harness", "step")])
            self.assertIsNot(ConvergenceMonitor.__dict__["update"], before[("ConvergenceMonitor", "update")])
        self.assertGreaterEqual(len(patched), 20)
        for key, value in package_bindings().items():
            self.assertIs(value, before[key], key)

    def test_restores_after_an_error(self) -> None:
        before = package_bindings()
        with self.assertRaises(RuntimeError):
            with Tracer():
                raise RuntimeError("inside the traced block")
        for key, value in package_bindings().items():
            self.assertIs(value, before[key], key)

    def test_counts_repeat_exactly(self) -> None:
        ops = small_portrait(3) + analysis_pass(3, 0, sets=4)
        counts = []
        for _ in range(2):
            totals = run.Totals()
            with HostSpeed() as speed, Tracer() as tracer:
                run.run_pass(cli, ops, self.out, totals, speed)
            self.assertEqual(totals.problems, [])
            metrics = run.layer_metrics(tracer.stats, totals)
            counts.append({name: value for name, (value, unit) in metrics.items() if unit == "count"})
        self.assertEqual(counts[0], counts[1])
        for name in ("nsfd.steps", "integrators.rk4_steps", "convergence.updates", "cli.rows_out", "cli.bytes_out"):
            self.assertGreater(counts[0][name], 0, name)
        self.assertEqual(counts[0]["cli.commands"], len(ops))
        self.assertGreater(counts[0]["stability.stability_report.calls"], 0)

    def test_self_times_add_up(self) -> None:
        with HostSpeed() as speed, Tracer() as tracer:
            run.run_pass(cli, small_portrait(4), self.out, run.Totals(), speed)
        kinds = {probe.name: probe.span for probe in tracer.probes}
        parts = sum(stat.self_time if kinds[name] else stat.total for name, stat in tracer.stats.items())
        self.assertAlmostEqual(parts, tracer.stats["cli"].total, delta=1e-9)


class CheckerTest(Case):
    def test_rejects_an_altered_limit(self) -> None:
        op = small_portrait(5)[0]
        outcome = run.run_op(cli, op, self.out)
        self.assertIsNone(check(op, outcome).problem)
        index = outcome.files["index.csv"].decode().strip().split("\n")
        fname, fx = index[1].split(",")[3], index[1].split(",")[5]
        moved = repr(float(fx) + 0.01)
        altered = dict(outcome.files)
        altered["index.csv"] = outcome.files["index.csv"].replace(fx.encode(), moved.encode())
        altered[fname] = outcome.files[fname].replace(f",{fx},".encode(), f",{moved},".encode())
        self.assertIsNotNone(check(op, replace(outcome, files=altered)).problem)
        other = replace(op, scenario=SCENARIOS[1])
        self.assertIsNotNone(check(other, outcome).problem)

    def test_rejects_a_disagreeing_report_and_a_failed_gate(self) -> None:
        op = [op for op in analysis_pass(5, 0, sets=3) if op.kind == "stability"][0]
        outcome = run.run_op(cli, op, self.out)
        self.assertIsNone(check(op, outcome).problem)
        bad = outcome.stdout.replace('"agree": true', '"agree": false', 1)
        self.assertIsNotNone(check(op, replace(outcome, stdout=bad)).problem)
        gate = make_pass("gate", 0, 0)[0]
        self.assertIsNotNone(check(gate, Outcome(1, 1.0, "FAIL  positivity  x\n12/13 checks passed\n")).problem)

    def test_traceback_is_a_problem_and_documented_exit_a_failure(self) -> None:
        op = small_portrait(5)[0]
        self.assertIsNotNone(check(op, Outcome(None, 0.1, "", error="Traceback ...")).problem)
        result = check(op, Outcome(3, 0.1, "", "error: undefined at X = 0"))
        self.assertIsNone(result.problem)
        self.assertTrue(result.failed)


class ContractTest(Case):
    def test_metric_names_match_benchmark_json(self) -> None:
        per_layer = run.layer_metrics({}, run.Totals())
        names = [*per_layer, "trace.overhead_s"]
        self.assertEqual(names, [m["name"] for m in BENCHMARK["per_layer"]])
        units = {name: unit for name, (_, unit) in per_layer.items()}
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(m["unit"], units.get(m["name"], "s"), m["name"])

    def test_end_to_end_names_and_units(self) -> None:
        totals, metrics, _ = run.end_to_end(cli, "analysis", 1, 0.0, self.out)
        self.assertEqual(totals.problems, [])
        self.assertEqual(
            [(name, unit) for name, (_, unit) in metrics.items()],
            [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]],
        )
        self.assertTrue(all(value > 0 for value, _ in metrics.values()))

    def test_missing_package_is_refused(self) -> None:
        with tempfile.TemporaryDirectory() as empty:
            with self.assertRaises(run.PackageMissing):
                run.load_cli(Path(empty))


if __name__ == "__main__":
    unittest.main()
