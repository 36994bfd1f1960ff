"""RK4's C twin: where it loads, its canary, and the Python loop where it does not."""

import contextlib
import dataclasses
import io
import sys
from unittest import mock

import pytest

from nsfd_epi import cli, integrators, native
from nsfd_epi.convergence import ENDS_ONLY
from nsfd_epi.integrators import simulate_continuous
from nsfd_epi.model import ModelVariant
from test_convergence import GENERAL, python_rk4

needs_compiler = pytest.mark.skipif(native.compiler() is None, reason="no C compiler found")


def bits(run):
    return run.steps.tobytes(), run.states.tobytes(), run.verdict


def general_run():
    return bits(simulate_continuous(GENERAL, ModelVariant.GENERAL, (0.3, 0.2), 0.1, 3000))


@needs_compiler
def test_native_loop_loads_where_a_compiler_is_found():
    # Where a compiler is found, RK4 must not fall back to the Python loop without a word.
    simulate_continuous(GENERAL, ModelVariant.GENERAL, (0.3, 0.2), 0.1, 1)
    assert integrators.rk4_twin().function is not None, integrators.rk4_twin().failure


@needs_compiler
def test_canary_refuses_a_regrouped_sum():
    twin = integrators.rk4_twin()
    grouped = "k1x + 2.0 * (k2x + k3x) + k4x"
    assert twin.source.count(grouped) == 1
    with python_rk4():
        expected = general_run()
    regrouped = twin.source.replace(grouped, "k1x + k4x + 2.0 * (k2x + k3x)")
    with mock.patch.multiple(twin, source=regrouped, function=None, failure=None):
        assert general_run() == expected
        assert twin.function is None and twin.failure.startswith("canary: the run from "), twin.failure


def verify_vertical():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--only", "converges:vertical-disease-free"])
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv, failure",
    [(None, "no C compiler found"), ([sys.executable, "-c", "import sys; sys.exit('cc: bad flag')"], "cc: bad flag")],
    ids=["missing", "failing"],
)
def test_verify_prints_the_same_bytes_without_the_native_loop(argv, failure):
    expected = verify_vertical()
    twin = integrators.rk4_twin()
    with mock.patch.multiple(twin, function=None, failure=None), mock.patch.object(native, "compiler", lambda: argv):
        assert verify_vertical() == expected
        assert twin.function is None and failure in twin.failure, twin.failure


def test_out_of_domain_runs_take_the_python_loop():
    # A budget of 2**62 steps and K = 0 never reach the twin; below that budget ENDS_ONLY is clamped.
    simulate_continuous(GENERAL, ModelVariant.GENERAL, (0.3, 0.2), 0.1, 1)  # the twin's build and canary
    with mock.patch.object(native, "_scan", side_effect=AssertionError("the twin ran")):
        run = simulate_continuous(GENERAL, ModelVariant.GENERAL, (0.3, 0.2), 0.1, 1 << 62, record_every=ENDS_ONLY)
        with pytest.raises(ZeroDivisionError):
            simulate_continuous(dataclasses.replace(GENERAL, K=0.0), ModelVariant.GENERAL, (0.0, 0.0))
    assert run.verdict.converged
    below = simulate_continuous(GENERAL, ModelVariant.GENERAL, (0.3, 0.2), 0.1, (1 << 62) - 1, record_every=ENDS_ONLY)
    assert bits(below) == bits(run)
