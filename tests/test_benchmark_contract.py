"""The benchmark's tracer wraps package functions by name; each must exist and be restored.

``perfbench/tracer.py`` patches the functions it probes at every module
binding that holds them.  A rename or deletion of one of them would
only show when the benchmark runs; this test makes it fail here.  The
README commands must also keep the bytes that ``perfbench/digests.py``
records, ``perfbench/selftest.py`` must pass, and one seeded pass of
``portrait``, ``analysis`` and the edge probe must each meet
``perfbench/check.py``'s contract (rows per step, the index's final
states, the closed-form answers).
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import nsfd_epi.cli  # imports every module the tracer probes
from nsfd_epi.convergence import ConvergenceMonitor

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve the module's annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def package_bindings():
    bindings = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "nsfd_epi" or name.startswith("nsfd_epi.")
        for attr, value in vars(module).items()
    }
    bindings[("ConvergenceMonitor", "update")] = ConvergenceMonitor.__dict__["update"]
    return bindings


def probe_holder(probe):
    module = sys.modules[f"nsfd_epi.{probe.module}"]
    return module if probe.owner is None else getattr(module, probe.owner)


def test_tracer_installs_every_probe_and_restores_every_binding(tracer_module):
    tracer = tracer_module.Tracer()
    assert any(probe.module == "verification" for probe in tracer.probes)
    originals = {}
    for probe in tracer.probes:
        holder = probe_holder(probe)
        assert probe.attr in vars(holder), f"the benchmark probes {probe.module}.{probe.attr}, which is gone"
        originals[probe] = vars(holder)[probe.attr]
    before = package_bindings()

    with tracer:
        for probe in tracer.probes:
            installed = vars(probe_holder(probe))[probe.attr]
            assert getattr(installed, "__wrapped__", None) is originals[probe], probe

    assert tracer.patched == []
    after = package_bindings()
    assert after.keys() == before.keys()
    for key, value in after.items():
        assert value is before[key], key


def test_readme_commands_write_the_recorded_bytes():
    """The byte-identical-output gate: ``perfbench/digests.py`` exits 0 with every README command matching."""
    proc = subprocess.run(
        [sys.executable, "perfbench/digests.py"], cwd=TRACER_PATH.parent.parent, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "7/7 README command outputs match digests.json" in proc.stdout


def test_benchmark_selftest_passes(package_env):
    """``perfbench/selftest.py``, the benchmark's own unit tests, pass against the package under test."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=TRACER_PATH.parent.parent, capture_output=True, text=True, env=package_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr.rstrip().endswith("OK"), proc.stderr


OPS_PER_PASS = {"portrait": 54, "analysis": 300, "edge": 24}


@pytest.mark.parametrize("workload", OPS_PER_PASS)
def test_pass_meets_the_benchmark_contract(workload, tmp_path, monkeypatch):
    """One seeded pass, run and checked in process as ``perfbench/run.py`` runs it: no op has a problem.

    The edge probe's starts reach into subnormal numbers, so it drives
    the map's rare paths; its failed ops (saddle limits and the X = 0
    underflow, roadmap items 1 and 6) are not pinned.  No op of the
    timed workloads fails.
    """
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    names = ("check", "reference", "run", "tracer", "workloads")
    for name in names:  # the harness imports its modules by these top-level names
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        from check import check
        from run import run_op
        from workloads import make_pass

        ops = make_pass(workload, 1, 0)
        results = [check(op, run_op(nsfd_epi.cli, op, tmp_path / "out")) for op in ops]
    finally:
        for name in names:
            sys.modules.pop(name, None)
    assert len(ops) == OPS_PER_PASS[workload]
    assert [(op.argv, r.problem) for op, r in zip(ops, results) if r.problem is not None] == []
    if workload != "edge":
        assert [op.argv for op, r in zip(ops, results) if r.failed] == []
        assert sum(r.trajectories for r in results) == sum(op.trajectories for op in ops)
