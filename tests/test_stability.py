import cmath
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nsfd_epi
from nsfd_epi.equilibria import (
    EquilibriumKind,
    all_equilibria,
    disease_free_equilibrium,
    interior_equilibrium,
    reproduction_numbers,
    susceptible_free_equilibrium,
    trivial_equilibrium,
)
from nsfd_epi.model import DomainError, HostParams, ModelVariant, field_kernel
from nsfd_epi.nsfd import denominators, step
from nsfd_epi.stability import (
    Classification,
    Matrix2,
    Regime,
    TheoremPrediction,
    classifications,
    continuous_jacobian,
    eigenvalues2,
    jury_conditions,
    map_weights,
    prediction_matches,
    stability_conditions,
    stability_report,
)
from nsfd_epi.verification import _draw_strict_block, benchmark_params

GENERAL_LOW = benchmark_params(ModelVariant.GENERAL, 0.1)
GENERAL_HIGH = benchmark_params(ModelVariant.GENERAL, 0.3)
HORIZ_MID = benchmark_params(ModelVariant.HORIZONTAL, 0.3)
VERT = benchmark_params(ModelVariant.VERTICAL, 0.0)


def fd_jacobian(fn, point, delta=1e-6):
    """Central finite differences of a planar map; the independent oracle."""
    x, y = point
    dx = delta * (1.0 + abs(x))
    dy = delta * (1.0 + abs(y))
    fx_hi = fn((x + dx, y))
    fx_lo = fn((x - dx, y))
    fy_hi = fn((x, y + dy))
    fy_lo = fn((x, y - dy))
    return Matrix2(
        (fx_hi[0] - fx_lo[0]) / (2 * dx),
        (fy_hi[0] - fy_lo[0]) / (2 * dy),
        (fx_hi[1] - fx_lo[1]) / (2 * dx),
        (fy_hi[1] - fy_lo[1]) / (2 * dy),
    )


def forward_fd_jacobian(fn, point, delta=1e-5):
    """Second-order one-sided differences that never leave the closed quadrant (for boundary points)."""
    x, y = point
    dx = delta * (1.0 + abs(x))
    dy = delta * (1.0 + abs(y))
    f0 = fn((x, y))
    cols = []
    for f1, f2, d in ((fn((x + dx, y)), fn((x + 2 * dx, y)), dx), (fn((x, y + dy)), fn((x, y + 2 * dy)), dy)):
        cols.append([(-3.0 * a + 4.0 * b - c) / (2 * d) for a, b, c in zip(f0, f1, f2)])
    return Matrix2(cols[0][0], cols[1][0], cols[0][1], cols[1][1])


def increment_matrix(params, variant, point, h):
    """W Jc, the map's variational matrix minus I at a fixed point."""
    w1, w2 = map_weights(params, variant, point)(h)
    jc = continuous_jacobian(params, variant, point)
    return Matrix2(w1 * jc.a11, w1 * jc.a12, w2 * jc.a21, w2 * jc.a22)


def assert_matrices_close(got: Matrix2, want: Matrix2, rel=1e-6):
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=rel, abs=1e-8)


class TestContinuousJacobian:
    def test_triangular_at_origin(self):
        m = continuous_jacobian(GENERAL_LOW, ModelVariant.GENERAL, (0.0, 0.0))
        assert m.a21 == 0.0
        assert m.a11 == pytest.approx(GENERAL_LOW.b_x - GENERAL_LOW.u_x, rel=1e-15)
        assert m.a12 == pytest.approx(GENERAL_LOW.e, rel=1e-15)
        assert m.a22 == pytest.approx(GENERAL_LOW.b_y - GENERAL_LOW.u_y, rel=1e-15)
        eigs = eigenvalues2(m)
        assert eigs[0] == pytest.approx(0.5, abs=1e-12)
        assert eigs[1] == pytest.approx(0.2, abs=1e-12)

    def test_matches_finite_differences(self):
        for params, variant in [
            (GENERAL_HIGH, ModelVariant.GENERAL),
            (HORIZ_MID, ModelVariant.HORIZONTAL),
            (VERT, ModelVariant.VERTICAL),
        ]:
            for point in [(0.3, 0.5), (1.1, 0.2), (0.05, 0.9)]:
                got = continuous_jacobian(params, variant, point)
                want = fd_jacobian(lambda s: field_kernel(params, variant)(*s), point)
                assert_matrices_close(got, want)

    @pytest.mark.parametrize("point", [(math.nan, 0.2), (0.3, math.inf)])
    def test_point_that_is_not_finite_rejected(self, point):
        with pytest.raises(DomainError, match="is not finite"):
            continuous_jacobian(GENERAL_HIGH, ModelVariant.GENERAL, point)

    def test_interior_trace_and_determinant(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        m = continuous_jacobian(GENERAL_HIGH, ModelVariant.GENERAL, eq.point)
        assert m.trace < 0
        assert m.det > 0
        # Independent determinant expression obtained by eliminating the
        # crowding factor with the equilibrium identities.
        p = GENERAL_HIGH
        x, y = eq.point
        det_oracle = (
            p.e * p.u_y * y / x * (1.0 - p.u_y / p.b_y)
            + p.beta * x * y / p.K * (p.b_x - p.b_y - p.e)
            + p.beta**2 * x * y
            + p.e * p.beta**2 * x * y / p.b_y
        )
        assert m.det == pytest.approx(det_oracle, rel=1e-10)


class TestDiscreteJacobian:
    """The map's variational matrix at a fixed point is I + W Jc (``map_weights``)."""

    def test_triangular_at_origin_with_closed_form_eigenvalues(self):
        phi1, phi2 = denominators(GENERAL_LOW, ModelVariant.GENERAL, 0.1)
        assert increment_matrix(GENERAL_LOW, ModelVariant.GENERAL, (0.0, 0.0), 0.1).a21 == 0.0
        _, rep = stability_report(GENERAL_LOW, ModelVariant.GENERAL, trivial_equilibrium(), (0.1,))
        eigs = rep.eigenvalues
        expected_1 = (1.0 + phi1 * GENERAL_LOW.b_x) / (1.0 + phi1 * GENERAL_LOW.u_x)
        expected_2 = (1.0 + phi2 * GENERAL_LOW.b_y) / (1.0 + phi2 * GENERAL_LOW.u_y)
        assert eigs[0].real == pytest.approx(expected_1, rel=1e-12)
        assert eigs[1].real == pytest.approx(expected_2, rel=1e-12)
        # Frozen decimals (40-digit evaluation of the closed forms).
        assert eigs[0].real == pytest.approx(1.0493826144391073, abs=1e-12)
        assert eigs[1].real == pytest.approx(1.0196078431372549, abs=1e-12)
        assert rep.classification is Classification.SOURCE

    @pytest.mark.parametrize("h", [0.1, 1.0, 10.0])
    def test_matches_finite_differences_of_the_map(self, h):
        # J - I = W Jc holds where the field vanishes, so only equilibria are probed.  The
        # general map is undefined at X = 0 < Y, so its origin has no derivative in Y.
        checked = 0
        for params, variant in [
            (GENERAL_LOW, ModelVariant.GENERAL),
            (GENERAL_HIGH, ModelVariant.GENERAL),
            (HORIZ_MID, ModelVariant.HORIZONTAL),
            (VERT, ModelVariant.VERTICAL),
        ]:
            for eq in all_equilibria(params, variant):
                if not eq.exists or (variant is ModelVariant.GENERAL and eq.point == (0.0, 0.0)):
                    continue
                a = increment_matrix(params, variant, eq.point, h)
                got = Matrix2(1.0 + a.a11, a.a12, a.a21, 1.0 + a.a22)
                assert_matrices_close(got, forward_fd_jacobian(lambda s: step(params, variant, h, s), eq.point))
                want = sorted(np.linalg.eigvals(np.array(got).reshape(2, 2)), key=lambda z: (-abs(z), -z.real))
                rep = stability_report(params, variant, eq, (h,))[1]
                for g, w in zip(rep.eigenvalues, want):
                    assert cmath.isclose(g, complex(w), rel_tol=1e-12, abs_tol=1e-12)
                checked += 1
        assert checked == 10

    def test_boundary_points_handled(self):
        for params, variant, eq in [
            (GENERAL_HIGH, ModelVariant.GENERAL, disease_free_equilibrium(GENERAL_HIGH)),
            (HORIZ_MID, ModelVariant.HORIZONTAL, susceptible_free_equilibrium(HORIZ_MID, ModelVariant.HORIZONTAL)),
        ]:
            assert all(0.0 < w < 0.1 for w in map_weights(params, variant, eq.point)(0.1))
            reports = stability_report(params, variant, eq, (0.1,))
            assert all(math.isfinite(abs(z)) for rep in reports for z in rep.eigenvalues)

    def test_axis_with_infected_hosts_rejected(self):
        with pytest.raises(DomainError):
            map_weights(GENERAL_HIGH, ModelVariant.GENERAL, (0.0, 0.5))


def test_sympy_map_increment_is_w_times_the_field_so_j_minus_i_is_w_jc_at_a_fixed_point():
    """Symbolic proof, for the general map, of the identity the discrete classification rests on."""
    sp = pytest.importorskip("sympy")
    X, Y, b_x, b_y, u_x, u_y, K, e, beta, phi1, phi2 = sp.symbols(
        "X Y b_x b_y u_x u_y K e beta phi1 phi2", positive=True
    )
    g = 1 - (X + Y) / K
    f = ((b_x * g - u_x - beta * Y) * X + e * g * Y, (b_y * g - u_y + beta * X) * Y)
    d = (
        b_x * X / K + b_x * Y / K + u_x + beta * Y + e * Y / K + e * Y**2 / (K * X),
        b_y * X / K + b_y * Y / K + u_y,
    )
    new = (
        (X * (1 + phi1 * b_x) + phi1 * e * Y) / (1 + phi1 * d[0]),
        Y * (1 + phi2 * (b_y + beta * X)) / (1 + phi2 * d[1]),
    )
    w = (phi1 / (1 + phi1 * d[0]), phi2 / (1 + phi2 * d[1]))
    # 1. The increment is W f wherever the map is defined.
    assert sp.cancel(new[0] - X - w[0] * f[0]) == 0
    assert sp.cancel(new[1] - Y - w[1] * f[1]) == 0
    # 2. J - I - W Jc vanishes once f = 0 is substituted (solved for the death rates), and not elsewhere.
    fixed = sp.solve(f, (u_x, u_y), dict=True)
    assert len(fixed) == 1
    symbols = (X, Y, b_x, b_y, u_x, u_y, K, e, beta, phi1, phi2)
    elsewhere = dict(zip(symbols, (0.3, 0.5, 0.6, 0.4, 0.1, 0.2, 1, 0.02, 0.3, 1, 1)))
    for i, old in enumerate((X, Y)):
        for v in (X, Y):
            rest = sp.diff(new[i], v) - sp.diff(old, v) - w[i] * sp.diff(f[i], v)
            assert sp.cancel(rest.subs(fixed[0])) == 0
            assert abs(float(rest.subs(elsewhere))) > 1e-3
    # 3. The symbolic map, W and Jc are the code's, at an interior fixed point.
    eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
    p, h = GENERAL_HIGH, 0.1
    at = {X: eq.point.X, Y: eq.point.Y, b_x: p.b_x, b_y: p.b_y, u_x: p.u_x, u_y: p.u_y, K: p.K, e: p.e, beta: p.beta}
    at.update(zip((phi1, phi2), denominators(p, ModelVariant.GENERAL, h)))
    stepped = step(p, ModelVariant.GENERAL, h, eq.point)
    assert [float(expr.subs(at)) for expr in new] == pytest.approx(stepped, rel=1e-14)
    assert [float(expr.subs(at)) for expr in w] == pytest.approx(
        map_weights(p, ModelVariant.GENERAL, eq.point)(h), rel=1e-14
    )
    jc = [float(sp.diff(fi, v).subs(at)) for fi in f for v in (X, Y)]
    assert jc == pytest.approx(list(continuous_jacobian(p, ModelVariant.GENERAL, eq.point)), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("h", [1e-300, 1e-8, 0.1, 10.0, 1e200])
def test_multipliers_and_verdicts_match_a_50_digit_evaluation(h):
    """mpmath solves W Jc from the same float entries; no scaling, no cancellation."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.MPContext()
    mp.dps = 50
    for params, variant in [(GENERAL_HIGH, ModelVariant.GENERAL), (HORIZ_MID, ModelVariant.HORIZONTAL)]:
        for eq in all_equilibria(params, variant):
            if not eq.exists:
                continue
            w1, w2 = (mp.mpf(w) for w in map_weights(params, variant, eq.point)(h))
            jc = [mp.mpf(a) for a in continuous_jacobian(params, variant, eq.point)]
            a11, a12, a21, a22 = w1 * jc[0], w1 * jc[1], w2 * jc[2], w2 * jc[3]
            tr, det = a11 + a22, a11 * a22 - a12 * a21
            root = mp.sqrt(mp.mpc(tr * tr - 4 * det))
            nus = ((tr + root) / 2, (tr - root) / 2)
            # |1 + nu|^2 - 1, in a form that 50 digits resolve at h = 1e-300
            signs = {mp.sign(2 * mp.re(nu) + abs(nu) ** 2) for nu in nus}
            want = {frozenset({-1}): Classification.STABLE, frozenset({1}): Classification.SOURCE}.get(
                frozenset(signs), Classification.SADDLE
            )
            rep = stability_report(params, variant, eq, (h,))[1]
            assert rep.classification is want, (variant, eq.kind, h)
            mus = sorted((complex(1 + nu) for nu in nus), key=lambda z: (-abs(z), -z.real, -z.imag))
            for got, exact in zip(rep.eigenvalues, mus):
                assert cmath.isclose(got, exact, rel_tol=1e-14, abs_tol=1e-15)


def first_strict_params(rng, variant):
    """The first set of ``variant`` in the strict sampler's blocks from ``rng``; a block may hold none."""
    while True:
        lanes, _ = _draw_strict_block(rng, 16)
        for params, drawn, _ in lanes:
            if drawn is variant:
                return params


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(list(ModelVariant)),
    ks=st.lists(st.integers(-300, 300), min_size=1, max_size=4),
)
@example(seed=7, variant=ModelVariant.GENERAL, ks=[-300, -9, -8, 200, 300])
@example(seed=45, variant=ModelVariant.GENERAL, ks=[-300, 0, 300])  # seed 45's first block holds no general lane
def test_discrete_verdict_is_the_continuous_one_at_every_step_size(seed, variant, ks):
    """h = 10^k for k in [-300, 300]: every hyperbolic point keeps the flow's verdict under the map."""
    params = first_strict_params(np.random.default_rng(seed), variant)
    h_list = [10.0**k for k in ks]
    for eq in all_equilibria(params, variant):
        if not eq.exists:
            continue
        continuous, *discrete = stability_report(params, variant, eq, h_list)
        if continuous.classification is not Classification.NONHYPERBOLIC:
            assert [rep.classification for rep in discrete] == [continuous.classification] * len(h_list), (eq, h_list)


class TestEigenvalues2:
    def test_identity(self):
        assert eigenvalues2(Matrix2(1.0, 0.0, 0.0, 1.0)) == (1.0 + 0j, 1.0 + 0j)

    def test_rotation_gives_conjugate_pair(self):
        eigs = eigenvalues2(Matrix2(0.0, -1.0, 1.0, 0.0))
        assert eigs == (1j, -1j)

    def test_triangular(self):
        eigs = eigenvalues2(Matrix2(0.5, 0.0, 3.0, -0.05))
        assert eigs[0] == pytest.approx(0.5)
        assert eigs[1] == pytest.approx(-0.05)

    def test_ordering_by_modulus(self):
        eigs = eigenvalues2(Matrix2(-2.0, 0.0, 0.0, 1.0))
        assert eigs[0].real == -2.0 and eigs[1].real == 1.0

    def test_against_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = rng.uniform(-3, 3, size=4)
            m = Matrix2(*a)
            got = sorted(eigenvalues2(m), key=lambda z: (z.real, z.imag))
            want = sorted(np.linalg.eigvals(np.array(m).reshape(2, 2)), key=lambda z: (z.real, z.imag))
            for g, w in zip(got, want):
                assert cmath.isclose(g, complex(w), rel_tol=1e-8, abs_tol=1e-10)

    def test_overflowing_quadratic_at_huge_capacity(self):
        # E1's continuous matrix at K = 1e300: its squared trace overflows.
        params = dataclasses.replace(GENERAL_LOW, K=1e300)
        m = continuous_jacobian(params, ModelVariant.GENERAL, disease_free_equilibrium(params).point)
        assert not math.isfinite(m.trace * m.trace)
        eigs = eigenvalues2(m)
        assert eigs == (pytest.approx(8.3333333333e298), -0.5)
        assert classifications(m)[0] is Classification.SADDLE

    def test_eigenvalues_past_the_float_range_are_domain_error(self):
        for m in (Matrix2(1.5e308, -1.5e308, 1.5e308, 1.5e308), Matrix2(1.7e308, 1.7e308, 1.7e308, 1.7e308)):
            with pytest.raises(DomainError, match="out of floating-point range"):
                eigenvalues2(m)
        with pytest.raises(DomainError):
            eigenvalues2(Matrix2(math.inf, 0.0, 0.0, 1.0))


unit_entries = st.one_of(st.just(0.0), st.floats(2.0**-60, 1.0), st.floats(-1.0, -(2.0**-60)))


@settings(max_examples=300, deadline=None)
@given(entries=st.tuples(unit_entries, unit_entries, unit_entries, unit_entries), k=st.integers(520, 1020))
def test_overflowing_eigenvalues_are_2_to_the_k_times_those_of_the_matrix_over_2_to_the_k(entries, k):
    m = Matrix2(*(math.ldexp(a, k) for a in entries))
    assume(not (math.isfinite(m.trace * m.trace) and math.isfinite(m.det)))
    small = eigenvalues2(Matrix2(*entries))
    want = tuple(complex(z.real * 2.0**k, z.imag * 2.0**k) for z in small)
    if all(math.isfinite(math.hypot(z.real, z.imag)) for z in want):
        assert eigenvalues2(m) == want
    else:
        with pytest.raises(DomainError):
            eigenvalues2(m)


def map_verdict(*entries):
    """The map's classification of M, through ``classifications`` with W = I."""
    return classifications(Matrix2(*entries))[1](1.0, 1.0)


class TestClassify:
    def test_discrete_examples(self):
        # M = diag(nu), so the multipliers 1 + nu below are 0.9 and 0.5, 1.2 and 0.5, ...
        assert map_verdict(-0.1, 0.0, 0.0, -0.5) is Classification.STABLE
        assert map_verdict(0.2, 0.0, 0.0, -0.5) is Classification.SADDLE
        assert map_verdict(0.2, 0.0, 0.0, 0.05) is Classification.SOURCE
        assert map_verdict(0.0, 0.0, 0.0, -0.5) is Classification.NONHYPERBOLIC
        # mu = -1 is on the unit circle, and mu = -1.5 outside it.
        assert map_verdict(-2.0, 0.0, 0.0, -0.5) is Classification.NONHYPERBOLIC
        assert map_verdict(-2.5, 0.0, 0.0, -0.5) is Classification.SADDLE
        # mu = -1.00001 twice: P(-1) = 1e-10 is small, but neither multiplier is on the circle.
        assert map_verdict(-2.00001, 0.0, 0.0, -2.00001) is Classification.SOURCE
        # mu = 2 and -2: P(1) and P(-1) are both negative, a source.
        assert map_verdict(1.0, 0.0, 0.0, -3.0) is Classification.SOURCE
        # mu = 2 and 0.5: det J = 1, but the pair is real, so no multiplier is on the circle.
        assert map_verdict(1.0, 0.0, 0.0, -0.5) is Classification.SADDLE
        # 1 - 1e-300 rounds to 1, but M keeps the signs: nothing is subtracted from 1.
        assert map_verdict(-1e-300, 0.0, 0.0, -3e-301) is Classification.STABLE
        assert map_verdict(1e-300, 0.0, 0.0, -3e-301) is Classification.SADDLE
        # det M would overflow here; the multipliers are far outside the circle.
        assert map_verdict(-1e200, 0.0, 0.0, 1e200) is Classification.SOURCE

    def test_complex_pairs_use_modulus_or_real_part(self):
        # The stable spiral -0.1 +- 0.8i of the flow (an example of the flow's property below), as the
        # eigenvalues of M, gives multipliers 0.9 +- 0.8i, outside the unit circle.
        assert map_verdict(-0.1, -0.8, 0.8, -0.1) is Classification.SOURCE
        assert map_verdict(-0.5, -0.5, 0.5, -0.5) is Classification.STABLE  # 0.5 +- 0.5i
        assert map_verdict(-0.2, -0.8, 0.8, -0.2) is Classification.SOURCE  # 0.8 +- 0.8i


class TestJury:
    def test_stable_diagonal(self):
        # J = diag(0.5, 0.5): P(1) = 0.25, P(-1) = 2.25, 1 - det J = 0.75.
        res = jury_conditions(Matrix2(-0.5, 0.0, 0.0, -0.5))
        assert res == (0.25, 2.25, 0.75, True, True)

    def test_diagonal_outside_unit_interval(self):
        # J = diag(1.2, 0.5).
        res = jury_conditions(Matrix2(0.2, 0.0, 0.0, -0.5))
        assert not res.verdict and map_verdict(0.2, 0.0, 0.0, -0.5) is Classification.SADDLE

    @pytest.mark.parametrize("j11", [0.0, 1.0])
    def test_diagonal_at_an_interval_end_needs_no_hypothesis(self, j11):
        # J = (j11, 0.5, -0.2, 0.5) has both eigenvalues inside the unit circle; the
        # old rule refused it because a diagonal entry of J is not in (0, 1).
        m = Matrix2(j11 - 1.0, 0.5, -0.2, -0.5)
        assert all(abs(z) < 1.0 for z in eigenvalues2(Matrix2(j11, 0.5, -0.2, 0.5)))
        res = jury_conditions(m)
        assert res.p_one > 0 and res.p_minus_one > 0 and res.one_minus_det > 0
        assert res.verdict is True

    def test_discrete_interior_jacobian_verdict(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        a = increment_matrix(GENERAL_HIGH, ModelVariant.GENERAL, eq.point, 0.1)
        assert jury_conditions(a).verdict
        assert all(abs(z) < 1.0 for z in eigenvalues2(Matrix2(1.0 + a.a11, a.a12, a.a21, 1.0 + a.a22)))
        assert stability_report(GENERAL_HIGH, ModelVariant.GENERAL, eq, (0.1,))[1].classification is (
            Classification.STABLE
        )


@settings(max_examples=500, deadline=None)
@given(entries=st.tuples(*[st.floats(-3.0, 3.0)] * 4))
@example(entries=(1.0, 0.0, 0.0, -0.5))  # multipliers 2 and 0.5: det J = 1
@example(entries=(-2.00001, 0.0, 0.0, -2.00001))  # a double multiplier 1e-5 outside -1
def test_jury_matches_eigenvalue_moduli(entries):
    """Any real M: the verdict and classification count the eigenvalues of I + M inside the circle.

    For entries in [-3, 3] the bands reach about 2e-8 in modulus, and a
    double multiplier moves by about that much under rounding, so a
    multiplier within 1e-7 of the circle is skipped.
    """
    m = Matrix2(*entries)
    moduli = [abs(z) for z in eigenvalues2(Matrix2(1.0 + m.a11, m.a12, m.a21, 1.0 + m.a22))]
    assume(all(abs(mod - 1.0) > 1e-7 for mod in moduli))
    inside = sum(mod < 1.0 for mod in moduli)
    res = jury_conditions(m)
    assert res.verdict == (inside == 2)
    assert map_verdict(*m) is (Classification.SOURCE, Classification.SADDLE, Classification.STABLE)[inside]


wide_entries = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), st.integers(-1074, 1024)),
)


# w1, w2 > 0 from the least subnormal to the largest double.
wide_weights = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024))


@settings(max_examples=500, deadline=None)
@given(entries=st.tuples(*[wide_entries] * 4), weights=st.tuples(wide_weights, wide_weights))
@example(entries=(-1e200, 0.0, 0.0, 1e200), weights=(1.0, 1.0))  # det M overflows
@example(entries=(-1e-170, 0.0, 0.0, 1e-170), weights=(1.0, 1.0))  # det M underflows
@example(entries=(1e160, 0.0, 0.0, -1e-170), weights=(1.0, 1.0))  # M's eigenvalues differ by more than 2^1074
@example(entries=(0.0, 0.5, 0.5, 2.0**537), weights=(1.0, 1.0))  # the off-diagonal product is below 2^-1074 of the diagonal's square
@example(entries=(0.0, -(2.0**-1074), 2.0**-1074, 0.0), weights=(1.0, 1.0))  # det M is 2^-2148
@example(  # the trivial point of "w-times-jc-underflows" below: w1 a11 is below the least double
    entries=(-2.477558254729626e-217, 0.0, 0.0, -1.5704826040530992e-202),
    weights=(8.960535833409753e-108, 1.5582542291485052e58),
)
@example(entries=(0.5, 0.0, 0.0, -0.5), weights=(2.0**-1074, 2.0**1023))  # each weight at an end of the float range
def test_map_classification_takes_the_exact_signs_at_any_exponent(entries, weights):
    """Any float Jc and weights: the classification is the one of P(1), P(-1) and 1 - det J of M = diag(w) Jc in rationals.

    A sign within 1e-6 of 0, relative to the sum of the moduli of the
    terms that form it, is left to the bands and skipped.  So is M where
    a multiplier, 1 + eig(M), is not a finite double (``stability_report``
    refuses it first), and a 1 - det J below 2^-2148, which ``jury_conditions``
    cannot hold at any scale (it needs tr M = 0 and det M that small).
    """
    w1, w2 = map(Fraction, weights)
    a11, a12, a21, a22 = (w * Fraction(a) for w, a in zip((w1, w1, w2, w2), entries))
    tr, det = a11 + a22, a11 * a22 - a12 * a21
    assume(abs(tr) <= 2**1022 and abs(det) <= 2**2044)  # |eig(M)| <= 2^1023
    assume(abs(tr + det) >= Fraction(1, 2**2148))
    diagonal, products = abs(a11) + abs(a22), abs(a11 * a22) + abs(a12 * a21)
    signs = (det, 4 + 2 * tr + det, -(tr + det))
    sizes = (products, 4 + 2 * diagonal + products, diagonal + products)
    assume(all(abs(v) > Fraction(1, 10**6) * size for v, size in zip(signs, sizes)))
    if all(v > 0 for v in signs):
        want = Classification.STABLE
    elif (signs[0] > 0) != (signs[1] > 0):
        want = Classification.SADDLE
    else:
        want = Classification.SOURCE
    assert classifications(Matrix2(*entries))[1](*weights) is want


@settings(max_examples=500, deadline=None)
@given(entries=st.tuples(*[wide_entries] * 4))
@example(entries=(-1e-170, 0.0, 0.0, 1e-170))  # det Jc underflows in floats: a saddle
@example(entries=(-0.5, -8.333333333333334e298, 0.0, 8.333333333333334e298))  # the K = 1e300 disease-free Jc
@example(entries=(0.0, -1.0, 1.0, 0.0))  # a center, +-i
@example(entries=(-0.1, -0.8, 0.8, -0.1))  # a stable spiral, -0.1 +- 0.8i
def test_flow_classification_takes_the_exact_signs_at_any_exponent(entries):
    """Any float Jc: the flow's classification is the one of det Jc and tr Jc in rationals.

    det Jc = 0, or tr Jc = 0 where det Jc > 0, is nonhyperbolic.  Any other sign the verdict
    reads, within 1e-6 of 0 relative to the sum of the moduli of its terms, is left to the band
    and skipped.
    """
    a11, a12, a21, a22 = map(Fraction, entries)
    tr, det = a11 + a22, a11 * a22 - a12 * a21
    assume(det == 0 or abs(det) > Fraction(1, 10**6) * (abs(a11 * a22) + abs(a12 * a21)))
    if det == 0 or (det > 0 and tr == 0):
        want = Classification.NONHYPERBOLIC
    elif det < 0:
        want = Classification.SADDLE
    else:
        assume(abs(tr) > Fraction(1, 10**6) * (abs(a11) + abs(a22)))
        want = Classification.STABLE if tr < 0 else Classification.SOURCE
    assert classifications(Matrix2(*entries))[0] is want


normal_entries = st.one_of(st.just(0.0), st.floats(2.0**-400, 1.0), st.floats(-1.0, -(2.0**-400)))


@settings(max_examples=300, deadline=None)
@given(entries=st.tuples(*[normal_entries] * 4), k=st.integers(-60, 60))
def test_jury_on_m_over_2_to_the_k_is_jury_on_m_in_its_units(entries, k):
    """With m = M / 2^k, P(1) comes divided by 4^k, P(-1) by max(1, 4^k) and 1 - det J by 2^k max(1, 2^k)."""
    m = Matrix2(*entries)
    scaled, direct = jury_conditions(m, k), jury_conditions(Matrix2(*(math.ldexp(a, k) for a in m)))
    units = (2 * k, 2 * max(k, 0), k + max(k, 0))
    assert [math.ldexp(v, e) for v, e in zip(scaled[:3], units)] == list(direct[:3])
    assert scaled[3:] == direct[3:]


jury_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, math.nan, math.inf]), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.tuples(jury_entries, jury_entries, jury_entries, jury_entries), min_size=1, max_size=8),
    k=st.sampled_from([0, -1074, -600, -3, 5, 700, 1023]),
)
def test_jury_on_arrays_matches_jury_on_floats(entries, k):
    """One call on arrays of matrices gives each matrix's float verdict and quantities, bit for bit."""
    with np.errstate(invalid="ignore"):
        batched = jury_conditions(Matrix2(*(np.array(column) for column in zip(*entries))), k)
    for i, entry in enumerate(entries):
        single = jury_conditions(Matrix2(*entry), k)
        assert type(single.verdict) is bool and type(single.hyperbolic) is bool
        assert (batched.hyperbolic[i], batched.verdict[i]) == (single.hyperbolic, single.verdict)
        assert [float(v[i]).hex() for v in batched[:3]] == [float(v).hex() for v in single[:3]]


class TestTheoremPrediction:
    def test_disease_free_switches_with_threshold(self):
        eq = disease_free_equilibrium(GENERAL_LOW)
        assert (
            stability_conditions(GENERAL_LOW, ModelVariant.GENERAL, eq).prediction
            is TheoremPrediction.STABLE
        )
        eq_high = disease_free_equilibrium(GENERAL_HIGH)
        assert (
            stability_conditions(GENERAL_HIGH, ModelVariant.GENERAL, eq_high).prediction
            is TheoremPrediction.UNSTABLE
        )

    def test_susceptible_free_always_unstable_without_contact(self):
        eq = susceptible_free_equilibrium(VERT, ModelVariant.VERTICAL)
        assert stability_conditions(VERT, ModelVariant.VERTICAL, eq).prediction is TheoremPrediction.UNSTABLE

    @pytest.mark.parametrize("variant", [ModelVariant.VERTICAL, ModelVariant.HORIZONTAL])
    def test_susceptible_free_not_covered_when_its_side_condition_fails(self, variant):
        # b_x*u_y/b_y = 0.025 < u_x = 0.1: uninfected hosts cannot invade, and the point is stable.
        params = dataclasses.replace(VERT, b_x=0.05)
        eq = susceptible_free_equilibrium(params, variant)
        assert stability_conditions(params, variant, eq).prediction is TheoremPrediction.NOT_COVERED
        for rep in stability_report(params, variant, eq, (0.1,)):
            assert rep.classification is Classification.STABLE and not rep.agree
            assert [(c.name, c.holds) for c in rep.conditions] == [("b_x*u_y/b_y > u_x", False)]

    def test_nonexistent_equilibrium_not_covered(self):
        eq = interior_equilibrium(GENERAL_LOW, ModelVariant.GENERAL)
        assert stability_conditions(GENERAL_LOW, ModelVariant.GENERAL, eq).prediction is (
            TheoremPrediction.NOT_COVERED
        )

    def test_trivial_point_covered_only_when_both_rates_decay(self):
        dying = HostParams(b_x=0.05, b_y=0.03, u_x=0.3, u_y=0.4, K=1.0, e=0.02, beta=0.1)
        eq = trivial_equilibrium()
        assert stability_conditions(dying, ModelVariant.GENERAL, eq).prediction is TheoremPrediction.STABLE
        assert (
            stability_conditions(GENERAL_LOW, ModelVariant.GENERAL, eq).prediction
            is TheoremPrediction.NOT_COVERED
        )


# Permissive rates: 0, negative, subnormal, normal and up to 1e300; K > 0 over the same range.
permissive_rates = st.one_of(
    st.just(0.0), st.floats(-2.0, 0.0), st.floats(5e-324, 2.0**-1022), st.floats(0.0, 2.0), st.floats(0.0, 1e300)
)


@st.composite
def permissive_sets(draw):
    variant = draw(st.sampled_from(list(ModelVariant)))
    b_x, b_y, u_x, u_y = (draw(permissive_rates) for _ in range(4))
    big_k = draw(st.floats(5e-324, 1e300))
    e = draw(permissive_rates) if variant is ModelVariant.GENERAL else 0.0
    beta = 0.0 if variant is ModelVariant.VERTICAL else draw(st.one_of(st.just(0.0), permissive_rates))
    return HostParams(b_x, b_y, u_x, u_y, big_k, e, beta), variant


@settings(max_examples=400, deadline=None)
@given(case=permissive_sets())
@example(case=(HostParams(0.6, 0.0, 0.1, 0.2, 1.0, 0.02, 0.1), ModelVariant.GENERAL))  # b_y = 0
@example(case=(HostParams(0.6, 0.0, 0.1, 0.2, 1.0, 0.0, 0.1), ModelVariant.HORIZONTAL))
@example(case=(HostParams(-1.0, 5e-324, 0.1, -1.0, 1.0), ModelVariant.VERTICAL))  # u_y/b_y overflows
@example(case=(HostParams(0.6, 0.4, 0.1, 0.0, 1.0, 0.02, 0.3), ModelVariant.GENERAL))  # R0 undefined
def test_criteria_read_only_what_stability_adds_to_existence(case):
    """The criteria never re-decide existence: for every listed point they hold or fail on their own inequalities."""
    params, variant = case
    for eq in all_equilibria(params, variant):
        crit = stability_conditions(params, variant, eq)
        if not eq.exists:
            assert (crit.prediction, crit.conditions) == (TheoremPrediction.NOT_COVERED, ())
        elif crit.prediction is TheoremPrediction.STABLE:
            assert all(c.holds for c in crit.conditions), (eq, crit)
        elif crit.prediction is TheoremPrediction.UNSTABLE:
            if eq.kind is EquilibriumKind.DISEASE_FREE:
                assert reproduction_numbers(params).R0 > 1, (eq, crit)
            else:
                assert eq.kind is EquilibriumKind.SUSCEPTIBLE_FREE and params.beta == 0.0, (eq, crit)
                assert params.b_x * params.u_y / params.b_y - params.u_x > 0, (eq, crit)


def test_the_horizontal_threshold_is_written_once():
    # The horizontal interior's existence and the susceptible-free point's stability read one expression.
    sources = [path.read_text() for path in Path(nsfd_epi.__file__).parent.glob("*.py")]
    assert sum(source.count("* (1.0 - u_y / b_y)") for source in sources) == 1
    assert not any("side_conditions" in source for source in sources)


def rescaled(params, factor, keep=""):
    """``params`` with every rate but K (and ``keep``) multiplied by ``factor``."""
    rates = {r for r in ("b_x", "b_y", "u_x", "u_y", "e", "beta") if r != keep}
    return dataclasses.replace(params, **{r: getattr(params, r) * factor for r in rates})


# The verdicts at the trivial and disease-free points of GENERAL_HIGH and its rescalings.
GENERAL_AXES = (ModelVariant.GENERAL, (Classification.SOURCE, Classification.SADDLE))


class TestStabilityReports:
    def test_benchmark_report_agreement(self):
        for params, variant in [
            (GENERAL_LOW, ModelVariant.GENERAL),
            (GENERAL_HIGH, ModelVariant.GENERAL),
            (HORIZ_MID, ModelVariant.HORIZONTAL),
            (VERT, ModelVariant.VERTICAL),
        ]:
            for eq in all_equilibria(params, variant):
                if not eq.exists:
                    continue
                for rep in stability_report(params, variant, eq, (0.1, 10.0)):
                    if rep.prediction is not TheoremPrediction.NOT_COVERED:
                        assert rep.agree, (params, eq.kind, rep)

    def test_discrete_report_requires_h(self):
        # Without a step size there is no discrete report: only the continuous one.
        eq = disease_free_equilibrium(GENERAL_LOW)
        (rep,) = stability_report(GENERAL_LOW, ModelVariant.GENERAL, eq, ())
        assert (rep.regime, rep.h, rep.classification) == (Regime.CONTINUOUS, None, Classification.STABLE)
        reports = stability_report(GENERAL_LOW, ModelVariant.GENERAL, eq, (0.1, 10.0))
        assert [(r.regime, r.h) for r in reports] == [
            (Regime.CONTINUOUS, None), (Regime.DISCRETE, 0.1), (Regime.DISCRETE, 10.0),
        ]

    def test_stability_is_step_size_independent(self):
        for params, variant in [(GENERAL_HIGH, ModelVariant.GENERAL), (HORIZ_MID, ModelVariant.HORIZONTAL)]:
            for eq in all_equilibria(params, variant):
                if not eq.exists:
                    continue
                continuous, *discrete = stability_report(params, variant, eq, (0.01, 0.1, 1.0, 10.0, 50.0))
                assert {rep.classification for rep in discrete} == {continuous.classification}

    @pytest.mark.parametrize(
        "params, variant, want",
        [
            pytest.param(dataclasses.replace(GENERAL_HIGH, b_x=1e160, b_y=1e160), *GENERAL_AXES, id="det-M-overflows"),
            pytest.param(rescaled(GENERAL_HIGH, 1e150), *GENERAL_AXES, id="M-near-1e-150-at-h-1e-300"),
            pytest.param(rescaled(GENERAL_HIGH, 1e-170), *GENERAL_AXES, id="det-M-underflows"),
            pytest.param(rescaled(GENERAL_HIGH, 1e-170, keep="e"), *GENERAL_AXES, id="a12-large-beside-the-diagonal"),
            pytest.param(
                HostParams(
                    b_x=2.3855604062e-18, b_y=1.5705219632e-39, u_x=1.3919942532e-55, u_y=2.936728536e-09,
                    K=3.3475832433e266, beta=1.5066004076e-50,
                ),
                ModelVariant.HORIZONTAL,
                (Classification.SADDLE, Classification.SADDLE),
                id="eigenvalues-of-M-over-2^1074-apart",
            ),
            pytest.param(
                HostParams(
                    b_x=5.801148738664194e-219, b_y=2.91747207105568e-217, u_x=2.5355697421162683e-217,
                    u_y=1.5704826040531021e-202, K=1.0327266203056355e283, e=0.0, beta=2.0074938537680065e-191,
                ),
                ModelVariant.HORIZONTAL,
                (Classification.STABLE,),
                id="w-times-jc-underflows",
            ),
        ],
    )
    def test_discrete_verdict_past_the_float_range(self, params, variant, want):
        """Where det M or its terms leave the float range, the map and the flow read as at moderate h: (trivial, disease-free).

        Only the trivial point of "w-times-jc-underflows" exists; at h = 1.558e58, w1 a11 is below the least double.
        """
        got = []
        for eq in all_equilibria(params, variant):
            if eq.exists:
                reports = stability_report(params, variant, eq, (1e-300, 1e-8, 0.1, 10.0, 1.5582542291485052e58))
                got.append({r.classification for r in reports})
        assert got == [{w} for w in want]

    def test_prediction_matches_semantics(self):
        assert prediction_matches(TheoremPrediction.STABLE, Classification.STABLE)
        assert not prediction_matches(TheoremPrediction.STABLE, Classification.SADDLE)
        assert prediction_matches(TheoremPrediction.UNSTABLE, Classification.SADDLE)
        assert prediction_matches(TheoremPrediction.UNSTABLE, Classification.SOURCE)
        assert not prediction_matches(TheoremPrediction.NOT_COVERED, Classification.STABLE)
