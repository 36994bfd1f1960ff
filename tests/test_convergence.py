import contextlib
import dataclasses
import inspect
import math
import subprocess
import sys
import traceback
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nsfd_epi.convergence import ENDS_ONLY, ConvergenceMonitor, ConvergenceSettings, Verdict, VerdictStatus
from nsfd_epi.equilibria import Equilibrium, EquilibriumKind, all_equilibria
from nsfd_epi.integrators import euler_kernel, simulate_continuous
from nsfd_epi.model import FIELD, BlowUpError, DomainError, HostParams, ModelVariant, State, effective_rates
from nsfd_epi import integrators, native, nsfd
from nsfd_epi.nsfd import iterate, map_kernel
from test_nsfd import ref_rk4

# Reference run loop: the per-step monitor and the run loop as they
# were before the rule moved into local comparisons.  All three loops
# must reproduce it bit for bit, and error for error: the NSFD loop of
# ``iterate`` against this loop stepping ``map_kernel``, the Euler loop
# against it stepping ``euler_kernel``, and the RK4 loop of
# ``simulate_continuous`` against it driven by the test's own RK4 step,
# ``ref_rk4``.  The map and RK4 run three ways: through the C twin of
# their loop (where a compiler is found), through the twin returning to
# Python every few steps and rows, and through the Python loop.


class RefMonitor:
    def __init__(self, settings, equilibria, scale):
        self.settings = settings
        self.known = [eq for eq in equilibria if eq.exists]
        self.limit = 1e6 * max(scale, 0.0)
        self.quiet_run = 0

    def _diverged(self, s):
        return max(abs(s[0]), abs(s[1])) > self.limit

    def start(self, s0):
        if self._diverged(s0):
            return Verdict(VerdictStatus.DIVERGED, at_step=0)
        return None

    def update(self, prev, cur, step):
        if self._diverged(cur):
            return Verdict(VerdictStatus.DIVERGED, at_step=step)
        movement = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]))
        self.quiet_run = self.quiet_run + 1 if movement < self.settings.tol_step else 0
        if self.quiet_run >= self.settings.window:
            nearest = self._nearest(cur)
            if nearest is not None:
                kind, point = nearest
                return Verdict(VerdictStatus.CONVERGED, kind=kind, point=point, at_step=step)
        return None

    def _nearest(self, s):
        best = None
        for eq in self.known:
            d = max(abs(s[0] - eq.point.X), abs(s[1] - eq.point.Y))
            if best is None or d < best[0]:
                best = (d, eq)
        if best is not None and best[0] <= self.settings.tol_eq:
            return best[1].kind, best[1].point
        return None


def ref_run_monitored(advance, params, variant, s0, n_steps, settings, record_every, scheme):
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every!r}")
    monitor = RefMonitor(settings, all_equilibria(params, variant), params.K)
    s = (float(s0[0]), float(s0[1]))
    recorded_steps = [0]
    recorded_states = [s]
    verdict = monitor.start(s)
    n = 0
    while verdict is None and n < n_steps:
        n += 1
        prev = s
        s = advance(*prev)
        if not (math.isfinite(s[0]) and math.isfinite(s[1])):
            raise BlowUpError(f"{scheme} update overflowed at step {n} from {prev!r}")
        verdict = monitor.update(prev, s, n)
        if n % record_every == 0 or verdict is not None or n == n_steps:
            recorded_steps.append(n)
            recorded_states.append(s)
    if verdict is None:
        verdict = Verdict(VerdictStatus.MAX_STEPS, at_step=n)
    steps = np.asarray(recorded_steps, dtype=np.int64)
    return steps, np.asarray(recorded_states, dtype=np.float64), verdict


def reference_kernel(params, variant, h, scheme):
    """The one-step kernel the reference loop runs for ``scheme``."""
    if scheme == "nsfd":
        return map_kernel(params, variant, h)
    if scheme == "euler":
        return euler_kernel(params, variant, h)
    e, beta = effective_rates(params, variant)
    return lambda x, y: ref_rk4(params.b_x, params.b_y, params.u_x, params.u_y, params.K, e, beta, x, y, h)


@contextlib.contextmanager
def python_loop(twin):
    """Runs take the Python loop, as where the C ``twin``'s build failed: no compiler is found."""
    with mock.patch.multiple(twin, function=None, failure=None):
        with mock.patch.object(native, "compiler", lambda: None):
            yield


def python_rk4():
    return python_loop(integrators.rk4_twin())


def python_map():
    return python_loop(nsfd.map_twin())


def straddled():
    """The C twin returns to Python every 3 steps and every 2 recorded rows."""
    return mock.patch.multiple(native, CHUNK=3, CAPACITY=4)


# The ways a scheme's runs are taken; each must give the reference's bits.
LOOPS = {"nsfd": [contextlib.nullcontext, straddled, python_map], "euler": [contextlib.nullcontext],
         "rk4": [contextlib.nullcontext, straddled, python_rk4]}


def run_loop(params, variant, h, s0, n_steps, run_settings, record_every, scheme):
    """The package's run: NSFD through ``iterate``, Euler and RK4 through ``simulate_continuous``."""
    if scheme == "nsfd":
        return iterate(params, variant, h, s0, n_steps, run_settings, record_every)
    return simulate_continuous(params, variant, s0, h, n_steps, run_settings, scheme=scheme, record_every=record_every)


def outcome(run):
    """The result of ``run()`` as comparable bits, or the exception's type and message."""
    try:
        return ("ok", run())
    except (DomainError, ArithmeticError) as exc:
        return ("raised", type(exc), str(exc))


def same_bits(a, b):
    assert a[0] == b[0], (a, b)
    if a[0] == "raised":
        assert a == b
        return
    (steps_a, states_a, verdict_a), (steps_b, states_b, verdict_b) = a[1], b[1]
    assert steps_a.dtype == steps_b.dtype and steps_a.tobytes() == steps_b.tobytes()
    assert states_a.dtype == states_b.dtype and states_a.shape == states_b.shape
    assert states_a.tobytes() == states_b.tobytes()
    assert verdict_a == verdict_b


rates = st.floats(0.0, 3.0)


@st.composite
def runs(draw):
    variant = draw(st.sampled_from(list(ModelVariant)))
    params = HostParams(
        b_x=draw(rates),
        b_y=draw(rates),
        u_x=draw(rates),
        u_y=draw(rates),
        K=draw(st.one_of(st.floats(0.05, 3.0), st.floats(1e100, 1e150))),  # a huge K lets RK4 overflow
        e=draw(st.floats(0.0, 1.0)) if variant is ModelVariant.GENERAL else 0.0,
        beta=draw(rates) if variant is not ModelVariant.VERTICAL else 0.0,
    )
    window = draw(st.integers(1, 6))
    run_settings = ConvergenceSettings(
        tol_step=draw(st.sampled_from([1e-10, 1e-6, 1e-3, 1e-1])),
        window=window,
        tol_eq=draw(st.sampled_from([1e-6, 1e-3, 1e-1, 1.0])),
    )
    try:
        known = [eq.point for eq in all_equilibria(params, variant) if eq.exists and eq.point.X >= 0 <= eq.point.Y]
    except (DomainError, ArithmeticError):
        known = []
    outside = st.one_of(st.just(-0.0), st.floats(-2.0, -0.0))  # the map refuses a negative start, not -0.0
    x0 = draw(
        st.one_of(
            st.floats(0.0, 2.0 * params.K),
            st.floats(0.0, 2.0),
            st.floats(5e-324, 1e-300),  # subnormal and tiny X
            st.sampled_from([eq.X for eq in known] or [0.5]),
            outside,
        )
    )
    y0 = draw(
        st.one_of(
            st.just(0.0), st.floats(0.0, 2.0 * params.K), st.sampled_from([eq.Y for eq in known] or [0.5]), outside
        )
    )
    return (
        params,
        variant,
        draw(st.sampled_from(["nsfd", "rk4", "euler"])),
        draw(st.floats(1e-3, 10.0)),
        (x0, y0),
        draw(st.integers(0, 3 * window)),
        run_settings,
        draw(st.integers(1, 60)),
    )


# Stops that fall on a recorded step: the loops test before they record, so the
# end state of a run that stops by a verdict must be added however n falls.
GENERAL = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.3)
INTERIOR = (0.1818181818181819, 0.45454545454545453)  # GENERAL's interior point
QUIET = ConvergenceSettings(tol_step=1e-3, window=3, tol_eq=1e-3)  # converges at step 3 from INTERIOR
GROWTH = HostParams(b_x=0.0, b_y=0.0, u_x=-0.5, u_y=0.0, K=1.0)  # X grows without bound at h = 1
# The step at which each scheme's run from (1, 0) under GROWTH leaves the bound 1e6, and a divisor of it.
DIVERGES_AT = {"nsfd": (20, 4), "rk4": (28, 7), "euler": (35, 5)}
HORIZONTAL = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, beta=0.1)  # simulate --model horizontal --e 0


def edge_examples(test):
    for scheme, (n, every) in DIVERGES_AT.items():
        for case in [
            (GENERAL, ModelVariant.GENERAL, scheme, 0.1, INTERIOR, 9, QUIET, 3),  # converged at 3
            (GROWTH, ModelVariant.VERTICAL, scheme, 1.0, (1.0, 0.0), n + 5, ConvergenceSettings(), every),
            (GENERAL, ModelVariant.GENERAL, scheme, 0.1, INTERIOR, 0, QUIET, 1),  # n_max = 0
            (GENERAL, ModelVariant.GENERAL, scheme, 0.1, (0.3, 0.2), 40, ConvergenceSettings(), ENDS_ONLY),
            (GENERAL, ModelVariant.GENERAL, scheme, 0.1, (0.3, 0.2), 42, ConvergenceSettings(), 7),  # max_steps, recorded
            (GENERAL, ModelVariant.GENERAL, scheme, 0.1, (0.3, 0.2), 42, ConvergenceSettings(), 50),  # every > budget
            (GENERAL, ModelVariant.GENERAL, scheme, 0.1, (-0.0, 0.5), 5, QUIET, 1),  # the map refuses X = 0 < Y
            (GENERAL, ModelVariant.GENERAL, scheme, 0.1, (0.3, -1e-300), 5, QUIET, 1),  # and leaving the quadrant
        ]:
            test = example(case)(test)
    # Two runs where the map without its zero-rate terms loses the whole map's bits.  From
    # X = -0.0 at the benchmark's horizontal rates the map writes X = 0.0 from step 1, where the
    # map without its e terms keeps -0.0; this start takes the C twin.  At u_x < 0 the map writes
    # X = -0.0 at every step, where the map without its e terms alternates 0.0 and -0.0 from
    # step 2; a negative rate takes the Python loop.  RK4 steps the full field at every rate;
    # from X = -0.0 the field writes X = 0.0, in the twin and the Python loop alike.
    for case in [
        (
            dataclasses.replace(HORIZONTAL, K=1.2, beta=0.3), ModelVariant.HORIZONTAL, "nsfd", 0.1, (-0.0, 0.5), 3,
            ConvergenceSettings(), 1,
        ),
        (
            dataclasses.replace(HORIZONTAL, u_x=-50.0), ModelVariant.HORIZONTAL, "nsfd", 1.0, (0.0, 0.5), 4,
            ConvergenceSettings(), 1,
        ),
        (HORIZONTAL, ModelVariant.HORIZONTAL, "rk4", 0.01, (-0.0, 0.5), 3, ConvergenceSettings(), 1),
    ]:
        test = example(case)(test)
    # The map's C twin returns to Python for each refusal of the step: a negative start, X = 0 < Y
    # at e > 0, and `simulate --x0 1e-320 --y0 1 --h 1 --beta 0.3`, whose X rounds to 0 at step 1;
    # and for a finite divergence (Y passes 1e6 at step 11) and an overflow (step 2).  At K = 0
    # the map's constants raise ZeroDivisionError before any run.
    sir = HostParams(b_x=0.0, b_y=0.0, u_x=0.0, u_y=0.0, K=1.0, beta=1e-7)
    for case in [
        (GENERAL, ModelVariant.GENERAL, "nsfd", 0.1, (-1.0, 0.5), 5, QUIET, 1),
        (GENERAL, ModelVariant.GENERAL, "nsfd", 0.1, (0.0, 0.5), 5, QUIET, 1),
        (GENERAL, ModelVariant.GENERAL, "nsfd", 1.0, (1e-320, 1.0), 100_000, ConvergenceSettings(), 1),
        (sir, ModelVariant.HORIZONTAL, "nsfd", 1.0, (9e5, 5e5), 15, ConvergenceSettings(), 4),
        (dataclasses.replace(GENERAL, K=1e300, u_y=0.0), ModelVariant.GENERAL, "nsfd", 1000.0, (1e305, 0.1), 6, QUIET, 1),
        (dataclasses.replace(GENERAL, K=0.0), ModelVariant.GENERAL, "nsfd", 0.1, (0.3, 0.2), 5, QUIET, 1),
    ]:
        test = example(case)(test)
    # The C twin's edges: a quiet count and a recorded row across its returns to Python (straddled),
    # quiet runs whose proximity tests fail until the budget, an overflow, K = 0 (where Python
    # raises ZeroDivisionError and the twin does not run), -0.0 starts, and a window and a
    # record_every past the twin's 64-bit counters.
    for case in [
        (GENERAL, ModelVariant.GENERAL, "rk4", 0.1, INTERIOR, 12, ConvergenceSettings(1e-3, 5, 1e-3), 2),
        (GENERAL, ModelVariant.GENERAL, "rk4", 0.1, (0.19, 0.45), 13, ConvergenceSettings(0.1, 2, 1e-6), 3),
        (dataclasses.replace(GENERAL, K=1e100), ModelVariant.GENERAL, "rk4", 10.0, (1.2, 0.15), 6, QUIET, 4),
        (dataclasses.replace(GENERAL, K=0.0), ModelVariant.GENERAL, "rk4", 0.1, (0.0, 0.0), 5, QUIET, 1),
        (GENERAL, ModelVariant.GENERAL, "rk4", 0.1, (-0.0, -0.0), 5, QUIET, 1),
        (GENERAL, ModelVariant.GENERAL, "rk4", 0.1, (0.3, -0.0), 5, QUIET, 1),
        (GENERAL, ModelVariant.GENERAL, "rk4", 0.1, INTERIOR, 9, ConvergenceSettings(1e-3, 2**64 + 1, 1e-3), 2**64 + 1),
    ]:
        test = example(case)(test)
    return test


@edge_examples
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_run_loop_matches_reference_bit_for_bit(case):
    params, variant, scheme, h, s0, n_steps, run_settings, record_every = case
    try:
        advance = reference_kernel(params, variant, h, scheme)
    except DomainError:
        assume(False)
    except ZeroDivisionError as error:  # the map's constants at K = 0
        ref = ("raised", ZeroDivisionError, str(error))
    else:
        ref = outcome(
            lambda: ref_run_monitored(advance, params, variant, s0, n_steps, run_settings, record_every, scheme)
        )
    for taken in LOOPS[scheme]:
        with taken():
            new = outcome(lambda: run_loop(params, variant, h, s0, n_steps, run_settings, record_every, scheme))
        if new[0] == "ok":
            run = new[1]
            with np.errstate(over="ignore"):
                assert run.times.tobytes() == (run.steps * h).tobytes()
            new = ("ok", (run.steps, run.states, run.verdict))
        same_bits(ref, new)


def test_run_loop_reaches_each_verdict():
    """Every verdict, blow-up and the map's domain error match the reference, for each scheme."""
    general = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.3)
    huge = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1e100, e=0.02, beta=0.3)
    vast = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1e300, e=0.02, beta=0.3)  # bound past the largest double
    few = ConvergenceSettings(tol_step=1e-3, window=2, tol_eq=1e-3), 6
    # Quiet for a few steps near (0.5, 0), then moving, then quiet to the end:
    # the quiet count must restart after the move, or the run stops at step 53.
    restart = ConvergenceSettings(tol_step=3e-3, window=10, tol_eq=1.0), 60
    eq = [e for e in all_equilibria(general, ModelVariant.GENERAL) if e.kind is EquilibriumKind.INTERIOR][0]
    cases = [
        (general, 0.1, eq.point, "nsfd", few, VerdictStatus.CONVERGED),
        (general, 10.0, (0.1, 0.9), "euler", few, VerdictStatus.DIVERGED),
        (general, 0.1, eq.point, "euler", few, VerdictStatus.CONVERGED),
        (general, 1.0, (0.5, 0.5), "euler", few, VerdictStatus.MAX_STEPS),
        (vast, 1.0, (1e200, 1e200), "euler", few, BlowUpError),  # "euler update overflowed at step 1 ..."
        (general, 1.0, (1e-320, 1.0), "nsfd", few, DomainError),
        (general, 0.1, eq.point, "rk4", few, VerdictStatus.CONVERGED),
        (general, 2.0, (0.5, 1e-3), "rk4", restart, VerdictStatus.CONVERGED),
        (general, 5.0, (1.2, 0.15), "rk4", few, VerdictStatus.DIVERGED),
        (general, 1.0, (2e6, 0.1), "rk4", few, VerdictStatus.DIVERGED),  # at step 0
        (general, 1.0, (0.5, 0.5), "rk4", few, VerdictStatus.MAX_STEPS),
        (huge, 10.0, (1.2, 0.15), "rk4", few, BlowUpError),
    ]
    for params, h, s0, scheme, (run_settings, n_steps), expected in cases:
        advance = reference_kernel(params, ModelVariant.GENERAL, h, scheme)
        ref = outcome(
            lambda: ref_run_monitored(advance, params, ModelVariant.GENERAL, s0, n_steps, run_settings, 4, scheme)
        )
        new = outcome(lambda: run_loop(params, ModelVariant.GENERAL, h, s0, n_steps, run_settings, 4, scheme))
        if new[0] == "ok":
            run = new[1]
            new = ("ok", (run.steps, run.states, run.verdict))
            assert run.verdict.status is expected, (scheme, s0)
        else:
            assert new[1] is expected, (scheme, s0, new)
        same_bits(ref, new)


@pytest.mark.parametrize("scheme", ["nsfd", "rk4", "euler"])
@pytest.mark.parametrize("n_steps, record_every", [(10, 2.5), (10.0, 1)], ids=["record_every-2.5", "n_max-10.0"])
def test_run_refuses_step_counts_that_are_not_integers(scheme, n_steps, record_every):
    # A record_every of 2.5 was never met by the countdown, so the run kept only its
    # start and returned it as the final state; a float budget failed inside range().
    with pytest.raises(DomainError, match="must be integers"):
        run_loop(GENERAL, ModelVariant.GENERAL, 0.1, (0.3, 0.2), n_steps, ConvergenceSettings(), record_every, scheme)


@pytest.mark.parametrize("scheme", ["nsfd", "rk4", "euler"])
def test_run_refuses_record_every_below_one(scheme):
    with pytest.raises(DomainError, match="record_every must be >= 1, got 0"):
        run_loop(GENERAL, ModelVariant.GENERAL, 0.1, (0.3, 0.2), 10, ConvergenceSettings(), 0, scheme)


@pytest.mark.parametrize("scheme", ["nsfd", "rk4", "euler"])
def test_run_takes_numpy_integer_step_counts(scheme):
    def bits(n_steps, record_every):
        run = run_loop(GENERAL, ModelVariant.GENERAL, 0.1, (0.3, 0.2), n_steps, QUIET, record_every, scheme)
        return run.steps.tobytes(), run.states.tobytes(), run.verdict

    assert bits(np.int64(10), np.int64(3)) == bits(10, 3)


def test_generated_loops_show_their_source():
    # Each loop is compiled from text; linecache holds it for inspect and tracebacks.  The map and
    # RK4 each take their one Python loop here, the whole step at every rate.
    few = ConvergenceSettings(tol_step=1e-3, window=2, tol_eq=1e-3)
    for e, beta in [(0.02, 0.3), (0.0, 0.3), (0.0, 0.0)]:
        params = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=e, beta=beta)
        with python_map(), pytest.raises(DomainError) as raised:
            iterate(params, ModelVariant.GENERAL, 0.1, (0.3, -0.5), 6)
        frames = traceback.extract_tb(raised.value.__traceback__)
        assert [frame.filename for frame in frames if frame.filename.startswith("<")] == ["<nsfd_epi._map_scan>"]
        lines = [frame.line for frame in frames if frame.filename == "<nsfd_epi._map_scan>"]
        assert lines == ["raise _refused_state(px, py)"]
        assert nsfd.MAP.splitlines()[0] in inspect.getsource(nsfd._map_scan)
        overflows = dataclasses.replace(params, b_x=1e300)  # the first step's second stage starts from X = inf
        with python_rk4(), pytest.raises(BlowUpError) as raised:
            run_loop(overflows, ModelVariant.GENERAL, 1e10, (0.1, 0.1), 6, few, 4, "rk4")
        frames = traceback.extract_tb(raised.value.__traceback__)
        assert [frame.filename for frame in frames if frame.filename.startswith("<")] == ["<nsfd_epi._rk4_scan>"]
        lines = [frame.line for frame in frames if frame.filename == "<nsfd_epi._rk4_scan>"]
        assert lines == ["verdict = _refused('rk4', n, px, py, x, y)"]
        assert "e * g" in inspect.getsource(integrators._rk4_scan)
    assert not [name for name in vars(integrators) if name.startswith("_rk4_scan_no_")]
    assert not [name for name in vars(nsfd) if name.startswith("_map_scan_no_")]
    # The C twins' text holds each assignment of the whole step as a statement.
    for step, twin in [(integrators._rk4_step(FIELD), integrators.rk4_twin()), (nsfd.RATIO + nsfd.MAP, nsfd.map_twin())]:
        for line in step.splitlines():
            if " = " in line:
                assert f"        {line};\n" in twin.source


def test_loops_compile_on_first_use(package_env):
    # Import and the commands that run no trajectory compile no loop and load neither ctypes nor
    # native; a vertical NSFD run compiles the map's one Python loop and imports native for its twin.
    code = """\
import contextlib, io, linecache, sys
from nsfd_epi import cli
def loops(argvs):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in argvs]
    print(codes, sorted(name for name in linecache.cache if "_scan" in name), "ctypes" in sys.modules,
          "nsfd_epi.native" in sys.modules)
loops([])
loops([["equilibria"], ["stability"], ["sweep"]])
loops([["simulate", "--model", "vertical", "--e", "0", "--beta", "0", "--steps", "1"]])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.stdout.splitlines() == [
        "[] [] False False",
        "[0, 0, 0] [] False False",
        "[0] ['<nsfd_epi._map_scan>'] True True",
    ], proc.stderr


def test_proximity_test_names_the_nearest_equilibrium():
    near = Equilibrium(EquilibriumKind.INTERIOR, State(0.5, 0.5), True)
    far = Equilibrium(EquilibriumKind.DISEASE_FREE, State(1.0, 0.0), True)
    absent = Equilibrium(EquilibriumKind.TRIVIAL, State(0.5, 0.5), False)
    monitor = ConvergenceMonitor(ConvergenceSettings(tol_eq=0.01), [far, absent, near], scale=1.0)
    assert monitor.update((0.505, 0.5), 7) == Verdict(
        VerdictStatus.CONVERGED, kind=EquilibriumKind.INTERIOR, point=near.point, at_step=7
    )
    assert monitor.update((0.7, 0.5), 7) is None


@pytest.mark.parametrize(
    "bad",
    [{"tol_eq": math.inf}, {"tol_step": math.inf}, {"tol_eq": math.nan}, {"tol_step": 0.0}, {"tol_eq": -1e-3},
     {"window": 0}],
    ids=["tol_eq-inf", "tol_step-inf", "tol_eq-nan", "tol_step-zero", "tol_eq-negative", "window-zero"],
)
def test_settings_need_finite_positive_tolerances(bad):
    # An infinite tol_eq matches any state to an equilibrium: the verdict would say nothing.
    with pytest.raises(ValueError, match="finite, positive tolerances"):
        ConvergenceSettings(**bad)
