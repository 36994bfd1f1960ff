import math
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nsfd_epi.equilibria import (
    EquilibriumKind,
    InteriorCoefficients,
    _positive_quadratic_root,
    all_equilibria,
    disease_free_equilibrium,
    interior_coefficients,
    interior_equilibrium,
    reproduction_numbers,
    susceptible_free_equilibrium,
    trivial_equilibrium,
)
from nsfd_epi.model import (
    DegenerateQuadraticError,
    DomainError,
    HostParams,
    ModelVariant,
    NotAnEquilibriumError,
    VariantParameterError,
    vector_field,
)
from nsfd_epi.verification import benchmark_params


def equilibrium_residual(params, variant, eq):
    """Infinity norm of the vector field at the equilibrium point."""
    dx, dy = vector_field(params, variant, eq.point)
    return max(abs(dx), abs(dy))


GENERAL_LOW = benchmark_params(ModelVariant.GENERAL, 0.1)
GENERAL_HIGH = benchmark_params(ModelVariant.GENERAL, 0.3)
HORIZ_LOW = benchmark_params(ModelVariant.HORIZONTAL, 0.1)
HORIZ_MID = benchmark_params(ModelVariant.HORIZONTAL, 0.3)
HORIZ_HIGH = benchmark_params(ModelVariant.HORIZONTAL, 0.42)
VERT = benchmark_params(ModelVariant.VERTICAL, 0.0)


class TestReproductionNumbers:
    def test_low_beta_decomposition(self):
        # V0 = (0.4/0.6)(0.1/0.2) = 1/3, H0 = (0.1/0.2)*1*(5/6) = 5/12.
        r = reproduction_numbers(GENERAL_LOW)
        assert r.V0 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert r.H0 == pytest.approx(5.0 / 12.0, abs=1e-15)
        assert r.R0 == pytest.approx(0.75, abs=1e-12)
        assert not r.xbar_negative

    def test_high_beta_value(self):
        r = reproduction_numbers(GENERAL_HIGH)
        assert r.R0 == pytest.approx(19.0 / 12.0, abs=1e-12)
        assert r.R0 == pytest.approx(1.58333, abs=1e-5)

    def test_zero_beta_is_pure_vertical(self):
        r = reproduction_numbers(VERT)
        assert r.H0 == 0.0
        assert r.R0 == r.V0

    def test_sum_is_exact(self):
        r = reproduction_numbers(GENERAL_HIGH)
        assert r.R0 == r.V0 + r.H0

    def test_negative_headroom_flagged(self):
        p = HostParams(b_x=0.1, b_y=0.05, u_x=0.3, u_y=0.4, K=1.0, e=0.0, beta=0.2)
        r = reproduction_numbers(p)
        assert r.xbar_negative and r.H0 < 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reproduction_numbers(HostParams(b_x=0.0, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0))
        with pytest.raises(DomainError):
            reproduction_numbers(HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.0, K=1.0))


class TestBoundaryEquilibria:
    def test_trivial_always_exists(self):
        eq = trivial_equilibrium()
        assert eq.exists and eq.point == (0.0, 0.0) and eq.kind is EquilibriumKind.TRIVIAL
        for params, variant in [(GENERAL_LOW, ModelVariant.GENERAL), (HORIZ_MID, ModelVariant.HORIZONTAL)]:
            assert equilibrium_residual(params, variant, eq) == 0.0

    def test_disease_free_values(self):
        eq = disease_free_equilibrium(GENERAL_LOW)
        assert eq.exists
        assert eq.point.X == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert eq.point.X == pytest.approx(0.8333, abs=1e-4)
        assert eq.point.Y == 0.0
        eq12 = disease_free_equilibrium(HORIZ_LOW)
        assert eq12.point.X == pytest.approx(1.0, abs=1e-15)

    def test_disease_free_degenerate_boundary(self):
        p = HostParams(b_x=0.1, b_y=0.05, u_x=0.1, u_y=0.2, K=1.0)
        eq = disease_free_equilibrium(p)
        assert not eq.exists
        assert eq.point == (0.0, 0.0)

    def test_susceptible_free_values(self):
        eq = susceptible_free_equilibrium(HORIZ_HIGH, ModelVariant.HORIZONTAL)
        assert eq.exists
        assert eq.point == (0.0, pytest.approx(0.6, abs=1e-15))

    def test_susceptible_free_degenerate_boundary(self):
        p = HostParams(b_x=0.6, b_y=0.2, u_x=0.1, u_y=0.2, K=1.2)
        eq = susceptible_free_equilibrium(p, ModelVariant.HORIZONTAL)
        assert not eq.exists and eq.point.Y == 0.0

    @pytest.mark.parametrize("b_y", [0.0, -0.5])
    def test_susceptible_free_without_infected_births_does_not_exist(self, b_y):
        # K(1 - u_y/b_y) is undefined: not existing, at (0, nan), with b_y > 0 failing beside b_y > u_y.
        p = HostParams(b_x=0.6, b_y=b_y, u_x=0.1, u_y=-1.0, K=1.0)
        eq = susceptible_free_equilibrium(p, ModelVariant.VERTICAL)
        assert not eq.exists and eq.point.X == 0.0 and math.isnan(eq.point.Y)
        assert eq.conditions == (("b_y > u_y", True, b_y + 1.0), ("b_y > 0", False, b_y))

    def test_susceptible_free_rejected_with_vertical_leakage(self):
        with pytest.raises(NotAnEquilibriumError):
            susceptible_free_equilibrium(GENERAL_LOW, ModelVariant.GENERAL)

    def test_susceptible_free_allowed_for_general_without_leakage(self):
        p = benchmark_params(ModelVariant.VERTICAL, 0.0)
        eq = susceptible_free_equilibrium(p, ModelVariant.GENERAL)
        assert eq.point.Y == pytest.approx(0.6, abs=1e-15)


class TestInteriorCoefficients:
    def test_benchmark_values(self):
        # Hand evaluation at beta=0.3: A = 297/800, B = -1/25, C = -1/200.
        a, b, c = interior_coefficients(GENERAL_HIGH)
        assert a == pytest.approx(0.37125, abs=1e-12)
        assert b == pytest.approx(-0.04, abs=1e-12)
        assert c == pytest.approx(-0.005, abs=1e-12)

    def test_vanishing_factors(self):
        no_e = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.0, beta=0.3)
        assert interior_coefficients(no_e).C == 0.0
        no_beta = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.0)
        assert interior_coefficients(no_beta).A == 0.0


class TestInteriorEquilibrium:
    def test_general_coefficients_out_of_range(self):
        # K**2 overflows: a candidate that does not exist, not an exception.
        eq = interior_equilibrium(replace(GENERAL_HIGH, K=1e300), ModelVariant.GENERAL)
        assert not eq.exists and math.isnan(eq.point.X) and math.isnan(eq.point.Y)
        assert eq.conditions[-1].name == "coefficients in floating-point range" and not eq.conditions[-1].holds
        # b_y <= 0 is no range problem: the candidate does not exist, with b_y > 0 failing last.
        eq = interior_equilibrium(replace(GENERAL_HIGH, b_y=0.0), ModelVariant.GENERAL)
        assert not eq.exists and math.isnan(eq.point.X) and math.isnan(eq.point.Y)
        assert eq.conditions[-1] == ("b_y > 0", False, 0.0)
        # interior_coefficients itself still refuses it.
        with pytest.raises(DomainError, match="need b_y > 0"):
            interior_coefficients(replace(GENERAL_HIGH, b_y=0.0))

    def test_general_benchmark_point(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        assert eq.exists
        # Exact value is (2/11, 5/11); the quoted benchmark rounds to 4 digits.
        assert eq.point.X == pytest.approx(2.0 / 11.0, abs=1e-12)
        assert eq.point.Y == pytest.approx(5.0 / 11.0, abs=1e-12)
        assert eq.point.X == pytest.approx(0.1818, abs=1e-4)
        assert eq.point.Y == pytest.approx(0.4545, abs=1e-4)

    def test_general_quadratic_residual(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        a, b, c = interior_coefficients(GENERAL_HIGH)
        residual = abs(a * eq.point.X**2 + b * eq.point.X + c)
        assert residual <= 1e-10 * max(abs(a), abs(b), abs(c))

    def test_general_field_residual(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        res = equilibrium_residual(GENERAL_HIGH, ModelVariant.GENERAL, eq)
        assert res <= 1e-9 * (1.0 + max(abs(eq.point.X), abs(eq.point.Y)))

    def test_general_low_beta_does_not_exist(self):
        eq = interior_equilibrium(GENERAL_LOW, ModelVariant.GENERAL)
        assert not eq.exists

    def test_horizontal_closed_form(self):
        eq = interior_equilibrium(HORIZ_MID, ModelVariant.HORIZONTAL)
        assert eq.exists
        assert eq.point.X == pytest.approx(1.0 / 21.0, abs=1e-12)
        assert eq.point.Y == pytest.approx(25.0 / 42.0, abs=1e-12)
        assert eq.point.X == pytest.approx(0.0476, abs=1e-4)
        assert eq.point.Y == pytest.approx(0.5952, abs=1e-4)
        res = equilibrium_residual(HORIZ_MID, ModelVariant.HORIZONTAL, eq)
        assert res <= 1e-9 * (1.0 + max(abs(eq.point.X), abs(eq.point.Y)))

    def test_horizontal_threshold_failure(self):
        # At beta=0.42 the invasion threshold flips: 0.3 < 0.1 + 0.252.
        eq = interior_equilibrium(HORIZ_HIGH, ModelVariant.HORIZONTAL)
        assert not eq.exists
        failing = {c.name: c for c in eq.failed_conditions()}
        assert "b_x*u_y/b_y > u_x + beta*K*(1 - u_y/b_y)" in failing
        assert failing["b_x*u_y/b_y > u_x + beta*K*(1 - u_y/b_y)"].margin == pytest.approx(-0.052, abs=1e-12)

    def test_degenerate_and_unsupported_variants(self):
        with pytest.raises(NotAnEquilibriumError):
            interior_equilibrium(VERT, ModelVariant.VERTICAL)
        no_beta_general = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.0)
        with pytest.raises(DegenerateQuadraticError):
            interior_equilibrium(no_beta_general, ModelVariant.GENERAL)
        no_beta_horizontal = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.2, e=0.0, beta=0.0)
        with pytest.raises(DegenerateQuadraticError):
            interior_equilibrium(no_beta_horizontal, ModelVariant.HORIZONTAL)

    def test_zero_vertical_leakage_limit_is_monotone(self):
        # As e -> 0 the general interior point approaches the e = 0
        # closed form; the gap shrinks monotonically with e = 10^-k.
        target = interior_equilibrium(HORIZ_MID, ModelVariant.HORIZONTAL).point
        distances = []
        for k in range(4, 9):
            p = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.2, e=10.0**-k, beta=0.3)
            eq = interior_equilibrium(p, ModelVariant.GENERAL)
            assert eq.exists
            distances.append(max(abs(eq.point.X - target.X), abs(eq.point.Y - target.Y)))
        assert all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))
        assert distances[-1] < 1e-6


class TestAllEquilibria:
    def test_general_catalog(self):
        kinds = [eq.kind for eq in all_equilibria(GENERAL_HIGH, ModelVariant.GENERAL)]
        assert kinds == [EquilibriumKind.TRIVIAL, EquilibriumKind.DISEASE_FREE, EquilibriumKind.INTERIOR]

    def test_horizontal_catalog(self):
        kinds = [eq.kind for eq in all_equilibria(HORIZ_MID, ModelVariant.HORIZONTAL)]
        assert kinds == [
            EquilibriumKind.TRIVIAL,
            EquilibriumKind.DISEASE_FREE,
            EquilibriumKind.SUSCEPTIBLE_FREE,
            EquilibriumKind.INTERIOR,
        ]

    def test_vertical_catalog_has_no_interior(self):
        kinds = [eq.kind for eq in all_equilibria(VERT, ModelVariant.VERTICAL)]
        assert EquilibriumKind.INTERIOR not in kinds
        assert len(kinds) == 3

    def test_every_existing_equilibrium_is_a_field_zero(self):
        for params, variant in [
            (GENERAL_LOW, ModelVariant.GENERAL),
            (GENERAL_HIGH, ModelVariant.GENERAL),
            (HORIZ_LOW, ModelVariant.HORIZONTAL),
            (HORIZ_MID, ModelVariant.HORIZONTAL),
            (HORIZ_HIGH, ModelVariant.HORIZONTAL),
            (VERT, ModelVariant.VERTICAL),
        ]:
            for eq in all_equilibria(params, variant):
                if eq.exists:
                    res = equilibrium_residual(params, variant, eq)
                    assert res <= 1e-9 * (1.0 + max(abs(eq.point.X), abs(eq.point.Y)))


@settings(max_examples=300, deadline=None)
@given(
    b_x=st.floats(0.05, 2.0),
    by_frac=st.floats(0.01, 1.0),
    u_x=st.floats(0.01, 1.0),
    du=st.floats(0.01, 1.0),
    big_k=st.floats(0.2, 5.0),
    beta=st.floats(0.01, 1.5),
)
def test_threshold_iff_infected_coexistence(b_x, by_frac, u_x, du, big_k, beta):
    """R0 > 1 exactly when the closed-form infected density is positive."""
    b_y = b_x * by_frac
    u_y = u_x + du
    params = HostParams(b_x=b_x, b_y=b_y, u_x=u_x, u_y=u_y, K=big_k, e=0.0, beta=beta)
    r = reproduction_numbers(params)
    assume(abs(r.R0 - 1.0) > 1e-9)
    denom = beta * (beta * big_k + b_x - b_y)
    assume(denom > 1e-12)
    y_interior = (b_y * u_x - b_x * u_y + beta * big_k * (b_x - u_x)) / denom
    assume(abs(y_interior) > 1e-12)
    assert (r.R0 > 1.0) == (y_interior > 0.0)


# _positive_quadratic_root near cancellation: B > 0 and 4|AC| <= 1e-6 B^2,
# where (-B + sqrt(B^2 - 4AC)) / 2A would lose 20 or more bits.  The
# reference is the root of the same float coefficients at 50 digits, in
# the form -2C / (B + sqrt(B^2 - 4AC)), whose sum has no cancellation.
# Over 20,000 such triples (log-uniform B and |A|, uniform AC/B^2, drawn
# with Python's random, seed 0) the root was at most 2.02 ulps off, and
# the direct formula more than 1e5 ulps off in 16,003 of them.  Where
# |C| is above half the largest double, 2C overflows, and the root is
# taken as (-C / denom) * 2.
ROOT_ULPS = 3.0


@st.composite
def cancelling_quadratics(draw):
    """Finite (A, B, C) with B^2 in the normal range, B > 0 and 4|AC| <= 1e-6 B^2, A of either sign or zero."""
    b = 10.0 ** draw(st.floats(-150.0, 150.0))
    a = draw(st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda k: 10.0**k)))
    a *= draw(st.sampled_from([-1.0, 1.0]))
    share = draw(st.floats(-2.5e-7, 2.5e-7))  # A C / B^2
    c = share * b * (b / a) if a else draw(st.floats(-1e300, 1e300))
    assume(math.isfinite(c))
    return a, b, c


@settings(max_examples=500, deadline=None)
@given(coeffs=cancelling_quadratics())
@example(coeffs=(3.64e-76, 2.06e120, 1.376e308))  # 2C overflows; the root is about -6.68e187
def test_positive_root_is_accurate_near_cancellation(coeffs):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.MPContext()
    mp.dps = 50
    a, b, c = (mp.mpf(v) for v in coeffs)
    assume(4 * abs(a * c) <= mp.mpf("1e-6") * b * b)
    want = -2 * c / (b + mp.sqrt(b * b - 4 * a * c))
    assume(abs(want) <= sys.float_info.max)
    x, disc = _positive_quadratic_root(InteriorCoefficients(*coeffs))
    assert disc >= 0
    assert abs(mp.mpf(x) - want) <= ROOT_ULPS * mp.mpf(math.ulp(float(want))), (coeffs, x, want)


finite_coefficients = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(a=finite_coefficients, b=finite_coefficients.filter(lambda b: b > 0), c=finite_coefficients)
@example(a=0.0, b=2.5005e-320, c=1e-310)  # -C / (denom/2) would differ: denom/2 is inexact
@example(a=0.0, b=5e-324, c=8.98846567431158e307)  # 2C overflows, and denom/2 would be 0
def test_positive_root_keeps_the_bits_of_minus_2c_over_denom_where_that_is_finite(a, b, c):
    x, disc = _positive_quadratic_root(InteriorCoefficients(a, b, c))
    assume(disc >= 0)
    denom = b + math.sqrt(disc)
    old = -2.0 * c / denom
    if math.isfinite(old):
        assert x.hex() == old.hex()


# Rates at the edges of the float range.  Each is also an explicit example, given to every rate at
# once, and to every rate but those the variant does not use, which are 0.
EDGE_RATES = (0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, -math.inf, math.nan)
edge_rates = st.one_of(st.sampled_from(EDGE_RATES), st.floats(-2.0, 2.0), st.floats())
UNUSED_RATES = {ModelVariant.GENERAL: (), ModelVariant.HORIZONTAL: ("e",), ModelVariant.VERTICAL: ("e", "beta")}


def with_edge_examples(test):
    for value in EDGE_RATES:
        for variant, unused in UNUSED_RATES.items():
            params = HostParams(*[value] * 7)
            test = example(params=params, variant=variant)(test)
            test = example(params=replace(params, **dict.fromkeys(unused, 0.0)), variant=variant)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(params=st.builds(HostParams, *[edge_rates] * 7), variant=st.sampled_from(list(ModelVariant)))
@with_edge_examples
def test_listing_raises_only_for_rates_the_variant_does_not_use(params, variant):
    """``all_equilibria`` lists the points at any rates, and refuses only a rate the variant does not use.

    The run loop matches its limit against this listing with no fallback,
    so any other error here would end a run at implausible rates.
    """
    try:
        all_equilibria(params, variant)
    except VariantParameterError:
        assert any(getattr(params, name) != 0 for name in UNUSED_RATES[variant])
