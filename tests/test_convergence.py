import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nsfd_epi.convergence import (
    ConvergenceMonitor,
    ConvergenceSettings,
    Verdict,
    VerdictStatus,
    _run_monitored,
)
from nsfd_epi.equilibria import Equilibrium, EquilibriumKind, all_equilibria
from nsfd_epi.integrators import scheme_kernel
from nsfd_epi.model import BlowUpError, DomainError, HostParams, ModelVariant, State
from nsfd_epi.nsfd import map_kernel

# Reference run loop: the per-step monitor and the run loop as they
# were before the rule moved into local comparisons.  The new loop must
# reproduce them bit for bit.


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
    try:
        known = all_equilibria(params, variant)
    except DomainError:
        known = ()
    monitor = RefMonitor(settings, known, params.K)
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
    x0 = draw(
        st.one_of(
            st.floats(0.0, 2.0 * params.K),
            st.floats(0.0, 2.0),
            st.floats(5e-324, 1e-300),  # subnormal and tiny X
            st.sampled_from([eq.X for eq in known] or [0.5]),
        )
    )
    y0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * params.K), st.sampled_from([eq.Y for eq in known] or [0.5])))
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


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_run_loop_matches_reference_bit_for_bit(case):
    params, variant, scheme, h, s0, n_steps, run_settings, record_every = case
    try:
        advance = map_kernel(params, variant, h) if scheme == "nsfd" else scheme_kernel(params, variant, h, scheme)
    except DomainError:
        assume(False)
    ref = outcome(lambda: ref_run_monitored(advance, params, variant, s0, n_steps, run_settings, record_every, scheme))
    new = outcome(
        lambda: _run_monitored(advance, params, variant, s0, n_steps, h, run_settings, record_every, scheme)
    )
    if new[0] == "ok":
        run = new[1]
        with np.errstate(over="ignore"):
            assert run.times.tobytes() == (run.steps * h).tobytes()
        new = ("ok", (run.steps, run.states, run.verdict))
    same_bits(ref, new)


def test_run_loop_reaches_each_verdict():
    """Convergence, divergence, blow-up and the map's domain error each match the reference."""
    general = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.3)
    huge = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1e100, e=0.02, beta=0.3)
    few = ConvergenceSettings(tol_step=1e-3, window=2, tol_eq=1e-3)
    eq = [e for e in all_equilibria(general, ModelVariant.GENERAL) if e.kind is EquilibriumKind.INTERIOR][0]
    cases = [
        (general, map_kernel(general, ModelVariant.GENERAL, 0.1), eq.point, "nsfd"),
        (general, scheme_kernel(general, ModelVariant.GENERAL, 10.0, "euler"), (0.1, 0.9), "euler"),
        (huge, scheme_kernel(huge, ModelVariant.GENERAL, 10.0, "rk4"), (1.2, 0.15), "rk4"),
        (general, map_kernel(general, ModelVariant.GENERAL, 1.0), (1e-320, 1.0), "nsfd"),
    ]
    seen = []
    for params, advance, s0, scheme in cases:
        ref = outcome(lambda: ref_run_monitored(advance, params, ModelVariant.GENERAL, s0, 6, few, 4, scheme))
        new = outcome(lambda: _run_monitored(advance, params, ModelVariant.GENERAL, s0, 6, 1.0, few, 4, scheme))
        if new[0] == "ok":
            run = new[1]
            new = ("ok", (run.steps, run.states, run.verdict))
            seen.append(run.verdict.status)
        else:
            seen.append(new[1])
        same_bits(ref, new)
    assert seen == [VerdictStatus.CONVERGED, VerdictStatus.DIVERGED, BlowUpError, DomainError]


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
