import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsfd_epi.equilibria import (
    all_equilibria,
    disease_free_equilibrium,
    interior_equilibrium,
    susceptible_free_equilibrium,
    trivial_equilibrium,
)
from nsfd_epi.model import DomainError, HostParams, ModelVariant, vector_field
from nsfd_epi.nsfd import denominators, step
from nsfd_epi.stability import (
    Classification,
    Matrix2,
    Regime,
    TheoremPrediction,
    classify,
    continuous_jacobian,
    discrete_jacobian,
    eigenvalues2,
    jury_conditions,
    prediction_matches,
    stability_report,
    theorem_prediction,
)
from nsfd_epi.verification import benchmark_params

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
                want = fd_jacobian(lambda s: vector_field(params, variant, s), point)
                assert_matrices_close(got, want)

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
    def test_triangular_at_origin_with_closed_form_eigenvalues(self):
        phi1, phi2 = denominators(GENERAL_LOW, ModelVariant.GENERAL, 0.1)
        m = discrete_jacobian(GENERAL_LOW, ModelVariant.GENERAL, (0.0, 0.0), 0.1)
        assert m.a21 == 0.0
        eigs = eigenvalues2(m)
        expected_1 = (1.0 + phi1 * GENERAL_LOW.b_x) / (1.0 + phi1 * GENERAL_LOW.u_x)
        expected_2 = (1.0 + phi2 * GENERAL_LOW.b_y) / (1.0 + phi2 * GENERAL_LOW.u_y)
        assert eigs[0].real == pytest.approx(expected_1, rel=1e-12)
        assert eigs[1].real == pytest.approx(expected_2, rel=1e-12)
        # Frozen decimals (40-digit evaluation of the closed forms).
        assert eigs[0].real == pytest.approx(1.0493826144391073, abs=1e-12)
        assert eigs[1].real == pytest.approx(1.0196078431372549, abs=1e-12)
        assert classify(eigs, Regime.DISCRETE) is Classification.SOURCE

    @pytest.mark.parametrize("h", [0.1, 1.0, 10.0])
    def test_matches_finite_differences_of_the_map(self, h):
        cases = [
            (GENERAL_HIGH, ModelVariant.GENERAL, (0.3, 0.5)),
            (GENERAL_HIGH, ModelVariant.GENERAL, (1.1, 0.2)),
            (GENERAL_HIGH, ModelVariant.GENERAL, (0.18, 0.45)),
            (HORIZ_MID, ModelVariant.HORIZONTAL, (0.3, 0.5)),
            (HORIZ_MID, ModelVariant.HORIZONTAL, (0.05, 0.6)),
            (VERT, ModelVariant.VERTICAL, (0.7, 0.4)),
        ]
        for params, variant, point in cases:
            got = discrete_jacobian(params, variant, point, h)
            want = fd_jacobian(lambda s: step(params, variant, h, s), point)
            assert_matrices_close(got, want)

    def test_boundary_points_handled(self):
        eq = disease_free_equilibrium(GENERAL_HIGH)
        m = discrete_jacobian(GENERAL_HIGH, ModelVariant.GENERAL, eq.point, 0.1)
        assert all(math.isfinite(v) for v in m)
        eq2 = susceptible_free_equilibrium(HORIZ_MID, ModelVariant.HORIZONTAL)
        m2 = discrete_jacobian(HORIZ_MID, ModelVariant.HORIZONTAL, eq2.point, 0.1)
        assert all(math.isfinite(v) for v in m2)

    def test_axis_with_infected_hosts_rejected(self):
        with pytest.raises(DomainError):
            discrete_jacobian(GENERAL_HIGH, ModelVariant.GENERAL, (0.0, 0.5), 0.1)


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
        assert classify(eigs, Regime.CONTINUOUS) is Classification.SADDLE

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


class TestClassify:
    def test_discrete_examples(self):
        assert classify((0.9 + 0j, 0.5 + 0j), Regime.DISCRETE) is Classification.STABLE
        assert classify((1.2 + 0j, 0.5 + 0j), Regime.DISCRETE) is Classification.SADDLE
        assert classify((1.2 + 0j, 1.05 + 0j), Regime.DISCRETE) is Classification.SOURCE
        assert classify((1.0 + 0j, 0.5 + 0j), Regime.DISCRETE) is Classification.NONHYPERBOLIC

    def test_continuous_examples(self):
        assert classify((-0.5 + 0j, -0.05 + 0j), Regime.CONTINUOUS) is Classification.STABLE
        assert classify((0.5 + 0j, -0.05 + 0j), Regime.CONTINUOUS) is Classification.SADDLE
        assert classify((0.5 + 0j, 0.05 + 0j), Regime.CONTINUOUS) is Classification.SOURCE
        assert classify((0j, -0.5 + 0j), Regime.CONTINUOUS) is Classification.NONHYPERBOLIC

    def test_complex_pairs_use_modulus_or_real_part(self):
        spiral = (complex(-0.1, 0.8), complex(-0.1, -0.8))
        assert classify(spiral, Regime.CONTINUOUS) is Classification.STABLE
        assert classify(spiral, Regime.DISCRETE) is Classification.STABLE
        wide = (complex(0.8, 0.8), complex(0.8, -0.8))
        assert classify(wide, Regime.DISCRETE) is Classification.SOURCE


class TestJury:
    def test_stable_diagonal(self):
        res = jury_conditions(Matrix2(0.5, 0.0, 0.0, 0.5))
        assert res == (0.75, 0.25, 0.5, 0.5, True)

    def test_diagonal_outside_unit_interval(self):
        assert not jury_conditions(Matrix2(1.2, 0.0, 0.0, 0.5)).verdict

    @pytest.mark.parametrize("a11", [0.0, 1.0])
    def test_diagonal_at_an_interval_end_is_outside_the_hypothesis(self, a11):
        # Both eigenvalues lie inside the unit circle and both determinant
        # conditions hold, but a diagonal entry is not in (0, 1): False.
        m = Matrix2(a11, 0.5, -0.2, 0.5)
        assert all(abs(z) < 1.0 for z in eigenvalues2(m))
        res = jury_conditions(m)
        assert res.one_minus_det > 0 and res.one_minus_trace_plus_det > 0
        assert res.verdict is False

    def test_discrete_interior_jacobian_verdict(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        m = discrete_jacobian(GENERAL_HIGH, ModelVariant.GENERAL, eq.point, 0.1)
        res = jury_conditions(m)
        assert res.verdict
        assert all(abs(z) < 1.0 for z in eigenvalues2(m))


@settings(max_examples=500, deadline=None)
@given(
    a11=st.floats(1e-6, 1.0 - 1e-6),
    a22=st.floats(1e-6, 1.0 - 1e-6),
    a12=st.floats(-2.0, 2.0),
    a21=st.floats(-2.0, 2.0),
)
def test_jury_matches_eigenvalue_moduli(a11, a22, a12, a21):
    m = Matrix2(a11, a12, a21, a22)
    moduli = [abs(z) for z in eigenvalues2(m)]
    assume(all(abs(mod - 1.0) > 1e-9 for mod in moduli))
    assert jury_conditions(m).verdict == all(mod < 1.0 for mod in moduli)


jury_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, math.nan, math.inf]), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.tuples(jury_entries, jury_entries, jury_entries, jury_entries), min_size=1, max_size=8))
def test_jury_on_arrays_matches_jury_on_floats(entries):
    """One call on arrays of matrices gives each matrix's float verdict and quantities, bit for bit."""
    with np.errstate(invalid="ignore"):
        batched = jury_conditions(Matrix2(*(np.array(column) for column in zip(*entries))))
    for i, entry in enumerate(entries):
        single = jury_conditions(Matrix2(*entry))
        assert type(single.verdict) is bool
        assert batched.verdict[i] == single.verdict
        assert [float(v[i]).hex() for v in batched[:4]] == [float(v).hex() for v in single[:4]]


class TestTheoremPrediction:
    def test_disease_free_switches_with_threshold(self):
        eq = disease_free_equilibrium(GENERAL_LOW)
        assert (
            theorem_prediction(GENERAL_LOW, ModelVariant.GENERAL, eq)
            is TheoremPrediction.STABLE
        )
        eq_high = disease_free_equilibrium(GENERAL_HIGH)
        assert (
            theorem_prediction(GENERAL_HIGH, ModelVariant.GENERAL, eq_high)
            is TheoremPrediction.UNSTABLE
        )

    def test_susceptible_free_always_unstable_without_contact(self):
        eq = susceptible_free_equilibrium(VERT, ModelVariant.VERTICAL)
        assert theorem_prediction(VERT, ModelVariant.VERTICAL, eq) is TheoremPrediction.UNSTABLE

    def test_nonexistent_equilibrium_not_covered(self):
        eq = interior_equilibrium(GENERAL_LOW, ModelVariant.GENERAL)
        assert theorem_prediction(GENERAL_LOW, ModelVariant.GENERAL, eq) is (
            TheoremPrediction.NOT_COVERED
        )

    def test_trivial_point_covered_only_when_both_rates_decay(self):
        dying = HostParams(b_x=0.05, b_y=0.03, u_x=0.3, u_y=0.4, K=1.0, e=0.02, beta=0.1)
        eq = trivial_equilibrium()
        assert theorem_prediction(dying, ModelVariant.GENERAL, eq) is TheoremPrediction.STABLE
        assert (
            theorem_prediction(GENERAL_LOW, ModelVariant.GENERAL, eq)
            is TheoremPrediction.NOT_COVERED
        )


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
                for regime, h in [(Regime.CONTINUOUS, None), (Regime.DISCRETE, 0.1), (Regime.DISCRETE, 10.0)]:
                    rep = stability_report(params, variant, eq, regime, h=h)
                    if rep.prediction is not TheoremPrediction.NOT_COVERED:
                        assert rep.agree, (params, eq.kind, regime, h, rep)

    def test_discrete_report_requires_h(self):
        eq = disease_free_equilibrium(GENERAL_LOW)
        with pytest.raises(DomainError):
            stability_report(GENERAL_LOW, ModelVariant.GENERAL, eq, Regime.DISCRETE)

    def test_stability_is_step_size_independent(self):
        for params, variant in [(GENERAL_HIGH, ModelVariant.GENERAL), (HORIZ_MID, ModelVariant.HORIZONTAL)]:
            for eq in all_equilibria(params, variant):
                if not eq.exists:
                    continue
                classes = {
                    stability_report(params, variant, eq, Regime.DISCRETE, h=h).classification
                    for h in (0.01, 0.1, 1.0, 10.0, 50.0)
                }
                assert len(classes) == 1
                continuous = stability_report(params, variant, eq, Regime.CONTINUOUS).classification
                assert classes == {continuous}

    def test_prediction_matches_semantics(self):
        assert prediction_matches(TheoremPrediction.STABLE, Classification.STABLE)
        assert not prediction_matches(TheoremPrediction.STABLE, Classification.SADDLE)
        assert prediction_matches(TheoremPrediction.UNSTABLE, Classification.SADDLE)
        assert prediction_matches(TheoremPrediction.UNSTABLE, Classification.SOURCE)
        assert not prediction_matches(TheoremPrediction.NOT_COVERED, Classification.STABLE)
