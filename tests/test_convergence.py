import inspect
import math
import traceback

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nsfd_epi.convergence import ENDS_ONLY, ConvergenceMonitor, ConvergenceSettings, Verdict, VerdictStatus
from nsfd_epi.equilibria import Equilibrium, EquilibriumKind, all_equilibria
from nsfd_epi.integrators import euler_kernel, simulate_continuous
from nsfd_epi.model import BlowUpError, DomainError, HostParams, ModelVariant, State, effective_rates
from nsfd_epi import nsfd
from nsfd_epi.nsfd import iterate, map_kernel
from test_nsfd import ref_rk4

# Reference run loop: the per-step monitor and the run loop as they
# were before the rule moved into local comparisons.  All three loops
# must reproduce it bit for bit, and error for error: the NSFD loop of
# ``iterate`` against this loop stepping ``map_kernel``, the Euler loop
# against it stepping ``euler_kernel``, and the RK4 loop of
# ``simulate_continuous`` against it driven by the test's own RK4 step,
# ``ref_rk4``.


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
    ref = outcome(lambda: ref_run_monitored(advance, params, variant, s0, n_steps, run_settings, record_every, scheme))
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
def test_run_takes_numpy_integer_step_counts(scheme):
    def bits(n_steps, record_every):
        run = run_loop(GENERAL, ModelVariant.GENERAL, 0.1, (0.3, 0.2), n_steps, QUIET, record_every, scheme)
        return run.steps.tobytes(), run.states.tobytes(), run.verdict

    assert bits(np.int64(10), np.int64(3)) == bits(10, 3)


def test_generated_loops_show_their_source():
    # The loops are compiled from text; linecache holds it for inspect and tracebacks.
    assert nsfd.MAP.splitlines()[0] in inspect.getsource(nsfd._map_scan)
    huge = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1e100, e=0.02, beta=0.3)
    few = ConvergenceSettings(tol_step=1e-3, window=2, tol_eq=1e-3)
    with pytest.raises(BlowUpError) as raised:
        run_loop(huge, ModelVariant.GENERAL, 10.0, (1.2, 0.15), 6, few, 4, "rk4")
    frames = traceback.extract_tb(raised.value.__traceback__)
    lines = [frame.line for frame in frames if frame.filename == "<nsfd_epi._rk4_scan>"]
    assert lines == ["verdict = _refused('rk4', n, px, py, x, y)"]


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
