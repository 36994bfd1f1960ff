import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsfd_epi.convergence import ConvergenceSettings, Verdict, VerdictStatus
from nsfd_epi.integrators import euler_kernel, simulate_continuous
from nsfd_epi.equilibria import all_equilibria, disease_free_equilibrium, interior_equilibrium
from nsfd_epi.model import (
    BlowUpError, DomainError, HostParams, ModelVariant, effective_rates, field_kernel, vector_field
)
from nsfd_epi.nsfd import denominators, iterate, map_kernel, map_lanes, step
from nsfd_epi.verification import SCENARIOS, benchmark_params

GENERAL_LOW = benchmark_params(ModelVariant.GENERAL, 0.1)
GENERAL_HIGH = benchmark_params(ModelVariant.GENERAL, 0.3)
HORIZ_MID = benchmark_params(ModelVariant.HORIZONTAL, 0.3)
VERT = benchmark_params(ModelVariant.VERTICAL, 0.0)


class TestDenominators:
    def test_benchmark_values(self):
        # 40-digit evaluations of b_y(1 - exp(-beta K u_y h / b_y)) / (beta K u_y).
        assert denominators(GENERAL_HIGH, ModelVariant.GENERAL, 0.1).phi1 == pytest.approx(
            0.09925373597958226, abs=1e-15
        )
        assert denominators(GENERAL_LOW, ModelVariant.GENERAL, 0.1).phi1 == pytest.approx(
            0.09975041614635373, abs=1e-15
        )
        assert denominators(GENERAL_LOW, ModelVariant.GENERAL, 0.1).phi2 == 0.1

    def test_no_contact_limit_is_plain_step(self):
        no_beta = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.0)
        for h in (1e-3, 0.1, 5.0, 100.0):
            assert denominators(no_beta, ModelVariant.GENERAL, h).phi1 == h
        assert denominators(VERT, ModelVariant.VERTICAL, 2.5) == (2.5, 2.5)

    def test_saturation_for_large_steps(self):
        p = GENERAL_HIGH
        cap = p.b_y / (p.beta * p.K * p.u_y)
        phi1 = denominators(p, ModelVariant.GENERAL, 1e6).phi1
        assert phi1 == pytest.approx(cap, abs=1e-9)
        assert phi1 <= cap

    def test_series_branch_is_continuous(self):
        # Around the series cutoff (rate*h = 1e-8) both evaluation
        # branches give phi1/h = 1 - rate*h/2 + O((rate*h)^2).
        p = GENERAL_HIGH
        rate = p.beta * p.K * p.u_y / p.b_y
        h_cut = 1e-8 / rate
        below = denominators(p, ModelVariant.GENERAL, h_cut * 0.99).phi1 / (h_cut * 0.99)
        above = denominators(p, ModelVariant.GENERAL, h_cut * 1.01).phi1 / (h_cut * 1.01)
        assert below == pytest.approx(above, rel=1e-9)
        assert below == pytest.approx(1.0, abs=1e-7)

    def test_rejects_bad_step_sizes(self):
        for h in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(DomainError):
                denominators(GENERAL_HIGH, ModelVariant.GENERAL, h)


@settings(max_examples=200, deadline=None)
@given(h1=st.floats(1e-6, 50.0), h2=st.floats(1e-6, 50.0))
def test_phi1_is_strictly_increasing_and_bounded(h1, h2):
    # h capped before deep saturation, where increments fall below one
    # ulp of the limit value and float monotonicity must plateau.
    p = GENERAL_HIGH
    cap = p.b_y / (p.beta * p.K * p.u_y)
    phi_a = denominators(p, ModelVariant.GENERAL, min(h1, h2)).phi1
    phi_b = denominators(p, ModelVariant.GENERAL, max(h1, h2)).phi1
    assert 0.0 < phi_a < cap and 0.0 < phi_b < cap
    if abs(h1 - h2) > 1e-9:
        assert phi_a < phi_b


class TestStepGeneral:
    def test_interior_fixed_point(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        for h in (0.1, 1.0, 50.0):
            out = step(GENERAL_HIGH, ModelVariant.GENERAL, h, eq.point)
            assert max(abs(out.X - eq.point.X), abs(out.Y - eq.point.Y)) <= 1e-12

    def test_axis_follows_logistic_update(self):
        p = GENERAL_HIGH
        h = 0.1
        phi1 = denominators(p, ModelVariant.GENERAL, h).phi1
        out = step(p, ModelVariant.GENERAL, h, (0.4, 0.0))
        assert out.Y == 0.0
        expected = 0.4 * (1.0 + phi1 * p.b_x) / (1.0 + phi1 * (p.b_x / p.K * 0.4 + p.u_x))
        assert out.X == pytest.approx(expected, rel=1e-14)

    def test_term_by_term_arithmetic(self):
        # Independent evaluation of the update at (0.1, 0.9), h = 0.1.
        p = GENERAL_HIGH
        h = 0.1
        rate = p.beta * p.K * p.u_y / p.b_y
        phi1 = -math.expm1(-rate * h) / rate
        x, y = 0.1, 0.9
        num_x = x + phi1 * p.b_x * x + phi1 * p.e * y
        den_x = 1.0 + phi1 * (
            p.b_x * x / p.K + p.b_x * y / p.K + p.u_x + p.beta * y + p.e * y / p.K + p.e * y * y / (p.K * x)
        )
        num_y = y + h * (p.b_y + p.beta * x) * y
        den_y = 1.0 + h * (p.b_y * x / p.K + p.b_y * y / p.K + p.u_y)
        out = step(p, ModelVariant.GENERAL, h, (x, y))
        assert out.X == pytest.approx(num_x / den_x, rel=1e-13)
        assert out.Y == pytest.approx(num_y / den_y, rel=1e-13)
        assert out.X > 0 and out.Y > 0

    def test_origin_is_fixed(self):
        assert step(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (0.0, 0.0)) == (0.0, 0.0)

    def test_infected_axis_rejected(self):
        with pytest.raises(DomainError):
            step(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (0.0, 0.5))
        with pytest.raises(DomainError):
            step(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (-0.1, 0.5))


class TestStepHorizontal:
    def test_interior_fixed_point(self):
        eq = interior_equilibrium(HORIZ_MID, ModelVariant.HORIZONTAL)
        out = step(HORIZ_MID, ModelVariant.HORIZONTAL, 0.1, eq.point)
        assert max(abs(out.X - eq.point.X), abs(out.Y - eq.point.Y)) <= 1e-12

    def test_infected_axis_is_invariant(self):
        out = step(HORIZ_MID, ModelVariant.HORIZONTAL, 0.7, (0.0, 0.45))
        assert out.X == 0.0 and out.Y > 0

    def test_small_vertical_leakage_limit(self):
        leaky = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.2, e=1e-12, beta=0.3)
        a = step(leaky, ModelVariant.GENERAL, 0.1, (0.5, 0.5))
        b = step(HORIZ_MID, ModelVariant.HORIZONTAL, 0.1, (0.5, 0.5))
        assert max(abs(a.X - b.X), abs(a.Y - b.Y)) <= 1e-9


class TestStepVertical:
    def test_disease_free_fixed_point(self):
        eq = disease_free_equilibrium(VERT)
        out = step(VERT, ModelVariant.VERTICAL, 0.1, eq.point)
        assert max(abs(out.X - eq.point.X), abs(out.Y - eq.point.Y)) <= 1e-12

    def test_origin_fixed(self):
        assert step(VERT, ModelVariant.VERTICAL, 0.1, (0.0, 0.0)) == (0.0, 0.0)

    def test_small_contact_limit(self):
        weak = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.2, e=0.0, beta=1e-12)
        a = step(weak, ModelVariant.HORIZONTAL, 0.1, (0.3, 0.3))
        b = step(VERT, ModelVariant.VERTICAL, 0.1, (0.3, 0.3))
        assert max(abs(a.X - b.X), abs(a.Y - b.Y)) <= 1e-9


class TestIterate:
    def test_low_beta_reaches_disease_free_point(self):
        traj = iterate(GENERAL_LOW, ModelVariant.GENERAL, 0.1, (0.1, 0.1), 100_000)
        assert traj.verdict.converged
        assert traj.final_state.X == pytest.approx(0.8333, abs=1e-3)
        assert traj.final_state.Y == pytest.approx(0.0, abs=1e-3)

    def test_high_beta_reaches_coexistence(self):
        traj = iterate(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (1.2, 0.15), 100_000)
        assert traj.verdict.converged
        assert traj.final_state.X == pytest.approx(0.1818, abs=1e-3)
        assert traj.final_state.Y == pytest.approx(0.4545, abs=1e-3)

    def test_start_at_equilibrium_converges_within_window(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        settings_ = ConvergenceSettings()
        traj = iterate(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, eq.point, 10_000, settings=settings_)
        assert traj.verdict.converged
        assert traj.verdict.at_step <= settings_.window

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(DomainError):
            iterate(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (0.1, 0.1), -1)

    def test_zero_budget_returns_the_start_alone(self):
        traj = iterate(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (0.1, 0.1), 0)
        assert traj.steps.tolist() == [0] and traj.times.tolist() == [0.0]
        assert traj.states.tolist() == [[0.1, 0.1]]
        assert traj.verdict == Verdict(VerdictStatus.MAX_STEPS, at_step=0)

    def test_budget_above_a_million_steps_runs_in_full(self):
        # A window longer than the run keeps it from converging.
        budget = 1_000_005
        never = ConvergenceSettings(window=budget + 1)
        traj = iterate(
            GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (1.2, 0.15), budget, settings=never, record_every=budget + 1
        )
        assert traj.verdict == Verdict(VerdictStatus.MAX_STEPS, at_step=budget)
        assert traj.steps.tolist() == [0, budget]

    def test_thinning_keeps_endpoints_and_verdict(self):
        full = iterate(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (0.2, 0.4), 100_000)
        thin = iterate(GENERAL_HIGH, ModelVariant.GENERAL, 0.1, (0.2, 0.4), 100_000, record_every=25)
        assert thin.verdict == full.verdict
        assert thin.states.shape[0] < full.states.shape[0]
        assert np.array_equal(thin.states[0], full.states[0])
        assert np.array_equal(thin.states[-1], full.states[-1])

    def test_every_recorded_state_stays_in_quadrant(self):
        traj = iterate(GENERAL_HIGH, ModelVariant.GENERAL, 2.5, (0.05, 1.9), 5_000)
        assert np.all(traj.states[:, 0] > 0)
        assert np.all(traj.states[:, 1] >= 0)


def test_all_existing_equilibria_are_discrete_fixed_points():
    for scenario in SCENARIOS:
        for eq in all_equilibria(scenario.params, scenario.variant):
            if not eq.exists:
                continue
            for h in (0.1, 10.0):
                out = step(scenario.params, scenario.variant, h, eq.point)
                drift = max(abs(out.X - eq.point.X), abs(out.Y - eq.point.Y))
                scale = 1.0 + max(abs(eq.point.X), abs(eq.point.Y))
                assert drift <= 1e-10 * scale, (scenario.name, eq.kind, h, drift)


def test_detected_limits_match_known_equilibria():
    for scenario in SCENARIOS[:2]:
        traj = iterate(scenario.params, scenario.variant, scenario.h, (0.7, 0.6), scenario.max_steps)
        assert traj.verdict.status is VerdictStatus.CONVERGED
        assert traj.verdict.kind is scenario.expected_kind
        near = max(
            abs(traj.final_state.X - traj.verdict.point.X),
            abs(traj.final_state.Y - traj.verdict.point.Y),
        )
        assert near <= ConvergenceSettings().tol_eq


def test_one_step_defect_shrinks_linearly_with_h():
    params = GENERAL_HIGH
    grid = [(x, y) for x in (0.1, 0.6) for y in (0.2, 0.8)]
    defects = []
    for h in (1e-2, 1e-3, 1e-4):
        phi1, phi2 = denominators(params, ModelVariant.GENERAL, h)
        worst = 0.0
        for s in grid:
            nxt = step(params, ModelVariant.GENERAL, h, s)
            fx, fy = vector_field(params, ModelVariant.GENERAL, s)
            worst = max(worst, abs((nxt.X - s[0]) / phi1 - fx), abs((nxt.Y - s[1]) / phi2 - fy))
        defects.append(worst)
    for a, b in zip(defects, defects[1:]):
        assert 0.03 <= b / a <= 0.3


strict_params = st.builds(
    lambda b_x, by_frac, e_frac, u_x, du, big_k, beta: HostParams(
        b_x=b_x,
        b_y=b_x * by_frac,
        u_x=u_x,
        u_y=u_x + du,
        K=big_k,
        e=(b_x - b_x * by_frac) * e_frac,
        beta=beta,
    ),
    b_x=st.floats(0.05, 2.0),
    by_frac=st.floats(0.05, 1.0),
    e_frac=st.floats(0.0, 1.0),
    u_x=st.floats(0.01, 1.0),
    du=st.floats(0.01, 1.0),
    big_k=st.floats(0.2, 5.0),
    beta=st.floats(0.0, 2.0),
)


@settings(max_examples=150, deadline=None)
@given(
    params=strict_params,
    h=st.floats(1e-3, 100.0),
    x_frac=st.floats(1e-6, 2.0),
    y_frac=st.floats(0.0, 2.0),
)
def test_general_map_preserves_positivity(params, h, x_frac, y_frac):
    s = (x_frac * params.K, y_frac * params.K)
    for _ in range(30):
        s = step(params, ModelVariant.GENERAL, h, s)
        assert s.X > 0 and s.Y >= 0
        assert math.isfinite(s.X) and math.isfinite(s.Y)


# Reference formulas: the per-variant updates and the inlined RK4 and
# Euler kernels that the shared map and vector field replaced.  The
# shared code must reproduce them bit for bit.


def _ref_check_state(x, y):
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"state ({x!r}, {y!r}) is not finite")
    if x < 0 or y < 0:
        raise DomainError(f"state ({x!r}, {y!r}) leaves the nonnegative quadrant")


def ref_step_general(params, h, s):
    x, y = s
    _ref_check_state(x, y)
    b_x, b_y, u_x, u_y, big_k, e, beta = params.b_x, params.b_y, params.u_x, params.u_y, params.K, params.e, params.beta
    # Y^2/X is formed only where its coefficient e/K is nonzero; the map is undefined at X = 0 < Y there.
    if e / big_k != 0 and x == 0 and y > 0:
        raise DomainError("general map is undefined at X = 0 with Y > 0")
    phi1, phi2 = denominators(params, ModelVariant.GENERAL, h)
    ratio = y * y / x if e / big_k != 0 and y != 0 else 0.0
    num_x = x * (1.0 + phi1 * b_x) + phi1 * e * y
    den_x = 1.0 + phi1 * (b_x / big_k * x + b_x / big_k * y + u_x + beta * y + e / big_k * y + e / big_k * ratio)
    num_y = y * (1.0 + phi2 * (b_y + beta * x))
    den_y = 1.0 + phi2 * (b_y / big_k * x + b_y / big_k * y + u_y)
    return num_x / den_x, num_y / den_y


def ref_step_horizontal(params, h, s):
    x, y = s
    _ref_check_state(x, y)
    phi1, phi2 = denominators(params, ModelVariant.HORIZONTAL, h)
    b_x, b_y, u_x, u_y, big_k, beta = params.b_x, params.b_y, params.u_x, params.u_y, params.K, params.beta
    num_x = x * (1.0 + phi1 * b_x)
    den_x = 1.0 + phi1 * (b_x / big_k * x + b_x / big_k * y + u_x + beta * y)
    num_y = y * (1.0 + phi2 * (b_y + beta * x))
    den_y = 1.0 + phi2 * (b_y / big_k * x + b_y / big_k * y + u_y)
    return num_x / den_x, num_y / den_y


def ref_step_vertical(params, h, s):
    x, y = s
    _ref_check_state(x, y)
    effective_rates(params, ModelVariant.VERTICAL)
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"step size must be finite and positive, got {h!r}")
    b_x, b_y, u_x, u_y, big_k = params.b_x, params.b_y, params.u_x, params.u_y, params.K
    num_x = x * (1.0 + h * b_x)
    den_x = 1.0 + h * (b_x / big_k * x + b_x / big_k * y + u_x)
    num_y = y * (1.0 + h * b_y)
    den_y = 1.0 + h * (b_y / big_k * x + b_y / big_k * y + u_y)
    return num_x / den_x, num_y / den_y


REFERENCE_MAPS = {
    ModelVariant.GENERAL: ref_step_general,
    ModelVariant.HORIZONTAL: ref_step_horizontal,
    ModelVariant.VERTICAL: ref_step_vertical,
}


def ref_rk4(b_x, b_y, u_x, u_y, big_k, e, beta, x, y, dt):
    g = 1.0 - (x + y) / big_k
    k1x = (b_x * g - u_x - beta * y) * x + e * g * y
    k1y = (b_y * g - u_y + beta * x) * y
    half = 0.5 * dt
    x2, y2 = x + half * k1x, y + half * k1y
    g = 1.0 - (x2 + y2) / big_k
    k2x = (b_x * g - u_x - beta * y2) * x2 + e * g * y2
    k2y = (b_y * g - u_y + beta * x2) * y2
    x3, y3 = x + half * k2x, y + half * k2y
    g = 1.0 - (x3 + y3) / big_k
    k3x = (b_x * g - u_x - beta * y3) * x3 + e * g * y3
    k3y = (b_y * g - u_y + beta * x3) * y3
    x4, y4 = x + dt * k3x, y + dt * k3y
    g = 1.0 - (x4 + y4) / big_k
    k4x = (b_x * g - u_x - beta * y4) * x4 + e * g * y4
    k4y = (b_y * g - u_y + beta * x4) * y4
    sixth = dt / 6.0
    return x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x), y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)


def ref_euler(b_x, b_y, u_x, u_y, big_k, e, beta, x, y, dt):
    g = 1.0 - (x + y) / big_k
    return x + dt * ((b_x * g - u_x - beta * y) * x + e * g * y), y + dt * ((b_y * g - u_y + beta * x) * y)


def fit_variant(params, variant):
    """Zero the rates the variant leaves out."""
    if variant is ModelVariant.HORIZONTAL:
        return dataclasses.replace(params, e=0.0)
    if variant is ModelVariant.VERTICAL:
        return dataclasses.replace(params, e=0.0, beta=0.0)
    return params


def bits(state):
    return tuple(float(v).hex() for v in state)


def rk4_once(params, variant, dt, x, y):
    """One RK4 step as a one-step run of ``simulate_continuous``: the new state's bits, or "overflow"."""
    try:
        run = simulate_continuous(params, variant, (x, y), dt, 1)
    except BlowUpError:
        return "overflow"
    assert run.steps.tolist() == [0, 1]
    return bits(run.states[-1])


def finite_bits(state):
    """``bits``, with a state that is not finite, which the run loop refuses, as "overflow"."""
    return bits(state) if all(map(math.isfinite, state)) else "overflow"


def map_outcome(fn, *args):
    try:
        return bits(fn(*args))
    except DomainError:
        return "DomainError"


# Zero, the smallest subnormal, and anything up to far past K.
densities = st.one_of(st.just(0.0), st.just(5e-324), st.floats(5e-324, 1e3))


@settings(max_examples=600, deadline=None)
@given(
    params=strict_params,
    variant=st.sampled_from(list(ModelVariant)),
    h=st.floats(-12.0, 12.0).map(lambda k: 10.0**k),
    x=densities,
    y=densities,
)
def test_map_matches_per_variant_formulas_bit_for_bit(params, variant, h, x, y):
    params = fit_variant(params, variant)
    got = map_outcome(step, params, variant, h, (x, y))
    assert got == map_outcome(REFERENCE_MAPS[variant], params, h, (x, y))
    if variant is ModelVariant.GENERAL and params.e / params.K != 0 and x == 0.0 and y > 0.0:
        assert got == "DomainError"
    elif x == 0.0:
        assert got != "DomainError"


@settings(max_examples=300, deadline=None)
@given(
    params=strict_params,
    variant=st.sampled_from(list(ModelVariant)),
    dt=st.sampled_from([1e-3, 0.01, 0.1, 1.0, 10.0, 1e3]),
    x=st.floats(-10.0, 10.0),
    y=st.floats(-10.0, 10.0),
)
def test_rk4_and_euler_match_inlined_kernels_bit_for_bit(params, variant, dt, x, y):
    params = fit_variant(params, variant)
    e, beta = effective_rates(params, variant)
    args = (params.b_x, params.b_y, params.u_x, params.u_y, params.K, e, beta, x, y, dt)
    assert rk4_once(params, variant, dt, x, y) == finite_bits(ref_rk4(*args))
    # float.hex spells every NaN "nan", so a step that overflows compares too.
    assert bits(euler_kernel(params, variant, dt)(x, y)) == bits(ref_euler(*args))


# The lanes kernel against the scalar one: every state of every lane,
# bit for bit, sign of zero included, for as long as the scalar update
# accepts the lane's state.

permissive_params = st.builds(
    HostParams,
    b_x=st.floats(0.0, 3.0),
    b_y=st.floats(0.0, 3.0),
    u_x=st.floats(0.0, 3.0),
    u_y=st.floats(0.0, 3.0),
    K=st.one_of(st.floats(0.05, 3.0), st.floats(1e100, 1e150)),
    e=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 3.0),
)


@st.composite
def lane_setups(draw):
    variant = draw(st.sampled_from(list(ModelVariant)))
    params = fit_variant(draw(st.one_of(strict_params, permissive_params)), variant)
    h = draw(st.floats(-12.0, 12.0).map(lambda k: 10.0**k))
    x = draw(st.one_of(densities, st.just(-0.0)))
    y = draw(st.one_of(densities, st.just(-0.0)))
    if variant is ModelVariant.GENERAL and params.e / params.K != 0 and x == 0.0 and y != 0.0:
        x = draw(st.sampled_from([5e-324, 1e-300]))  # the scalar map refuses X = 0 < Y here
    return (params, variant, h), (x, y)


def scalar_states(setup, start, n_steps):
    """The scalar kernel's states after each step, up to the first state it refuses."""
    advance = map_kernel(*setup)
    states, s = [], start
    for _ in range(n_steps):
        try:
            s = advance(*s)
        except DomainError:
            break
        states.append(bits(s))
    return states


@settings(max_examples=400, deadline=None)
@given(cases=st.lists(lane_setups(), min_size=1, max_size=6), n_steps=st.integers(1, 12))
def test_lanes_match_scalar_kernel_bit_for_bit(cases, n_steps):
    setups = [setup for setup, _ in cases]
    try:
        expected = [scalar_states(setup, start, n_steps) for setup, start in cases]
    except DomainError:  # a lane's constants are refused
        with pytest.raises(DomainError):
            map_lanes(setups)
        return
    advance = map_lanes(setups)
    x = np.array([start[0] for _, start in cases])
    y = np.array([start[1] for _, start in cases])
    got = [[] for _ in cases]
    for _ in range(n_steps):
        x, y = advance(x, y)
        assert x.dtype == y.dtype == np.float64
        for lane, state in enumerate(zip(x.tolist(), y.tolist())):
            got[lane].append(bits(state))
    for lane, states in enumerate(expected):
        assert got[lane][: len(states)] == states


# The general map with e = 0 forms no Y^2/X, so it is the horizontal map:
# it steps X = 0 < Y, and a subnormal X whose ratio would be infinite.
subnormals = st.floats(5e-324, 2.2250738585072014e-308)


@settings(max_examples=300, deadline=None)
@example(params=HORIZ_MID, h=0.1, x=0.0, y=0.5, n_steps=20)
@example(params=HORIZ_MID, h=0.1, x=1e-320, y=0.6, n_steps=20)
@given(
    params=strict_params,
    h=st.floats(-12.0, 12.0).map(lambda k: 10.0**k),
    x=st.one_of(densities, subnormals, st.just(-0.0)),
    y=st.one_of(densities, st.just(-0.0)),
    n_steps=st.integers(1, 20),
)
def test_general_map_with_e_zero_steps_as_the_horizontal_map_bit_for_bit(params, h, x, y, n_steps):
    params = dataclasses.replace(params, e=0.0)
    general, horizontal = ((params, variant, h) for variant in (ModelVariant.GENERAL, ModelVariant.HORIZONTAL))
    expected = scalar_states(horizontal, (x, y), n_steps)
    assert len(expected) == n_steps
    assert scalar_states(general, (x, y), n_steps) == expected
    advance, xs, ys = map_lanes([general, horizontal]), np.full(2, x), np.full(2, y)
    for n in range(n_steps):
        xs, ys = advance(xs, ys)
        assert bits((xs[0], ys[0])) == bits((xs[1], ys[1])) == expected[n]
    # A window past the budget keeps the monitor out: the runs take every step.
    quiet = ConvergenceSettings(window=n_steps + 1)
    runs = [iterate(*setup, (x, y), n_steps, quiet) for setup in (general, horizontal)]
    for run in runs:
        assert [bits(state) for state in run.states] == [bits((x, y)), *expected]
        assert run.verdict == Verdict(VerdictStatus.MAX_STEPS, at_step=n_steps)


def test_lanes_step_refused_states_without_a_warning():
    # The general map refuses X = 0 < Y (Y^2/X is infinite) and a
    # negative X; the lanes step both, and the good lane beside them
    # keeps the scalar bits.  A numpy warning would fail the test.
    setups = [(GENERAL_HIGH, ModelVariant.GENERAL, 1.0)] * 3
    x, y = map_lanes(setups)(np.array([0.0, -1.0, 0.3]), np.array([0.5, 0.2, 0.2]))
    assert bits((x[2], y[2])) == bits(map_kernel(*setups[2])(0.3, 0.2))
    for start in ((0.0, 0.5), (-1.0, 0.2)):
        with pytest.raises(DomainError):
            map_kernel(*setups[0])(*start)


# The RK4 loop writes the field out in each stage for speed.  Staged
# through model.field_kernel, as four calls, a step must give the same
# bits; each state is stepped by a one-step run.


def staged_rk4(field, dt):
    half, sixth = 0.5 * dt, dt / 6.0

    def advance(x, y):
        k1x, k1y = field(x, y)
        k2x, k2y = field(x + half * k1x, y + half * k1y)
        k3x, k3y = field(x + half * k2x, y + half * k2y)
        k4x, k4y = field(x + dt * k3x, y + dt * k3y)
        return x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x), y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)

    return advance


# Zeros of both signs, the smallest subnormals, and magnitudes whose
# products overflow in the inner stages (1e154 squared, 1e300 times a
# rate).  A regrouped product changes the result for only about 1 in 40
# random general-variant states, so each example steps a list of them,
# and the general scenario (K = 1) at dt = 1 always steps a 32 x 32 grid.
# A start past the divergence limit, 1e6 K, takes no step, so each state
# carries a fraction f in [2e-6, 1]: such a start runs at K = f * |start|.
rk4_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e154, -1e154, 1e300, -1e300]),
    st.floats(-10.0, 10.0),
)
phase_grid = [(0.05 * i, 0.05 * j, 1.0) for i in range(32) for j in range(32)]


@settings(max_examples=600, deadline=None)
@example(params=GENERAL_HIGH, variant=ModelVariant.GENERAL, dt=1.0, states=phase_grid)
@given(
    params=st.one_of(strict_params, permissive_params),
    variant=st.sampled_from(list(ModelVariant)),
    dt=st.floats(-12.0, 12.0).map(lambda k: 10.0**k),
    states=st.lists(st.tuples(rk4_coords, rk4_coords, st.floats(2e-6, 1.0)), min_size=1, max_size=8),
)
def test_fused_rk4_matches_field_kernel_staged_bit_for_bit(params, variant, dt, states):
    params = fit_variant(params, variant)
    fused, staged = [], []
    for x, y, fraction in states:
        reach = max(abs(x), abs(y))
        p = params if reach <= 1e6 * params.K else dataclasses.replace(params, K=fraction * reach)
        fused.append(rk4_once(p, variant, dt, x, y))
        staged.append(finite_bits(staged_rk4(field_kernel(p, variant), dt)(x, y)))
    assert fused == staged
