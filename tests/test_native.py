"""The C twins of RK4's and the map's loops: where they load, their canaries, and the Python loops where they do not."""

import contextlib
import dataclasses
import io
import re
import sys
from unittest import mock

import pytest

from nsfd_epi import cli, integrators, native, nsfd
from nsfd_epi.convergence import ENDS_ONLY
from nsfd_epi.integrators import simulate_continuous
from nsfd_epi.model import DomainError, ModelVariant
from nsfd_epi.nsfd import iterate
from test_convergence import GENERAL, HORIZONTAL, python_map, python_rk4

needs_compiler = pytest.mark.skipif(native.compiler() is None, reason="no C compiler found")


def bits(run):
    return run.steps.tobytes(), run.states.tobytes(), run.verdict


def general_run():
    return bits(simulate_continuous(GENERAL, ModelVariant.GENERAL, (0.3, 0.2), 0.1, 3000))


def map_runs():
    """A general map run, and the refusal of `simulate --x0 1e-320 --y0 1 --h 1 --beta 0.3` at step 2."""
    with pytest.raises(DomainError) as refused:
        iterate(GENERAL, ModelVariant.GENERAL, 1.0, (1e-320, 1.0), 100_000)
    return bits(iterate(GENERAL, ModelVariant.GENERAL, 0.1, (0.3, 0.2), 3000)), str(refused.value)


@needs_compiler
def test_native_loop_loads_where_a_compiler_is_found():
    # Where a compiler is found, neither RK4 nor the map may fall back to the Python loop without a word.
    simulate_continuous(GENERAL, ModelVariant.GENERAL, (0.3, 0.2), 0.1, 1)
    assert integrators.rk4_twin().function is not None, integrators.rk4_twin().failure
    iterate(GENERAL, ModelVariant.GENERAL, 0.1, (0.3, 0.2), 1)
    assert nsfd.map_twin().function is not None, nsfd.map_twin().failure


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


@needs_compiler
@pytest.mark.parametrize(
    "cut",
    [lambda source: source.replace(" + e_k * ratio", ""),
     lambda source: re.sub(r" *if \(px == 0\) \{\n.*\n *\}\n", "", source)],
    ids=["without-the-ratio-term", "without-the-x0-refusal"],
)
def test_canary_refuses_a_map_without_a_term_or_a_refusal(cut):
    twin = nsfd.map_twin()
    with python_map():
        expected = map_runs()
    mutant = cut(twin.source)
    assert mutant != twin.source
    with mock.patch.multiple(twin, source=mutant, function=None, failure=None):
        assert map_runs() == expected
        assert twin.function is None and twin.failure.startswith("canary: the run from "), twin.failure


def verify_horizontal():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--only", "converges:horizontal-endemic"])
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv, failure",
    [(None, "no C compiler found"), ([sys.executable, "-c", "import sys; sys.exit('cc: bad flag')"], "cc: bad flag")],
    ids=["missing", "failing"],
)
def test_verify_prints_the_same_bytes_without_the_native_loop(argv, failure):
    expected = verify_horizontal()
    twins = integrators.rk4_twin(), nsfd.map_twin()
    with contextlib.ExitStack() as stack:
        for twin in twins:
            stack.enter_context(mock.patch.multiple(twin, function=None, failure=None))
        stack.enter_context(mock.patch.object(native, "compiler", lambda: argv))
        assert verify_horizontal() == expected
        for twin in twins:
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


def test_a_map_run_at_a_negative_rate_takes_the_python_loop():
    # A negative rate can make a denominator 0 (1 + h u_x at X = Y = 0), where Python raises
    # ZeroDivisionError and C would divide.
    permissive = dataclasses.replace(HORIZONTAL, u_x=-50.0)
    with python_map():
        expected = bits(iterate(permissive, ModelVariant.HORIZONTAL, 1.0, (0.0, 0.5), 4))
    with mock.patch.object(native, "_scan", side_effect=AssertionError("the twin ran")):
        assert bits(iterate(permissive, ModelVariant.HORIZONTAL, 1.0, (0.0, 0.5), 4)) == expected
        with pytest.raises(ZeroDivisionError):
            iterate(dataclasses.replace(HORIZONTAL, u_x=-1.0, beta=0.0), ModelVariant.VERTICAL, 1.0, (0.0, 0.0), 1)
