"""The benchmark's tracer wraps package functions by name; each must exist and be restored.

``perfbench/tracer.py`` patches the functions it probes at every module
binding that holds them.  A rename or deletion of one of them would
only show when the benchmark runs; this test makes it fail here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nsfd_epi.cli  # noqa: F401  (imports every module the tracer probes)
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
