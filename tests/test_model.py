import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_epi.model import (
    HostParams,
    ModelVariant,
    State,
    VariantParameterError,
    field_kernel,
    validate_params,
)
from nsfd_epi.verification import benchmark_params

GENERAL_LOW = benchmark_params(ModelVariant.GENERAL, 0.1)
GENERAL_HIGH = benchmark_params(ModelVariant.GENERAL, 0.3)


def expanded_field(p: HostParams, x: float, y: float) -> tuple[float, float]:
    """Independent oracle: the fully multiplied-out right-hand sides."""
    dx = (
        p.b_x * x
        - p.b_x * x * x / p.K
        - p.b_x * x * y / p.K
        - p.u_x * x
        - p.beta * x * y
        + p.e * y
        - p.e * x * y / p.K
        - p.e * y * y / p.K
    )
    dy = p.b_y * y - p.b_y * x * y / p.K - p.b_y * y * y / p.K - p.u_y * y + p.beta * x * y
    return dx, dy


class TestValidateParams:
    def test_benchmark_set_is_strictly_valid(self):
        assert validate_params(GENERAL_LOW) == []

    def test_death_rate_ordering_violation(self):
        p = HostParams(b_x=0.6, b_y=0.4, u_x=0.3, u_y=0.2, K=1.0, e=0.02, beta=0.1)
        assert "u_y > u_x" in [v.predicate for v in validate_params(p)]

    def test_birth_rate_ordering_violation(self):
        p = HostParams(b_x=0.41, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.1)
        assert "b_x >= b_y + e" in [v.predicate for v in validate_params(p)]

    def test_permissive_downgrades_biological_checks(self):
        p = HostParams(b_x=0.41, b_y=0.4, u_x=0.3, u_y=0.2, K=1.0, e=0.02, beta=0.1)
        assert [v for v in validate_params(p) if v.hard] == []
        assert len(validate_params(p)) == 2

    def test_nonpositive_carrying_capacity_always_fails(self):
        p = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=0.0)
        assert "K > 0" in [v.predicate for v in validate_params(p) if v.hard]

    def test_nonfinite_always_fails(self):
        p = HostParams(b_x=math.inf, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0)
        assert "b_x finite" in [v.predicate for v in validate_params(p) if v.hard]

    def test_every_violation_once_the_hard_ones_first(self):
        p = HostParams(b_x=0.6, b_y=0.4, u_x=0.3, u_y=0.2, K=-1.0, e=-0.1, beta=math.inf)
        assert [(v.predicate, v.hard) for v in validate_params(p)] == [
            ("beta finite", True),
            ("K > 0", True),
            ("e >= 0", False),
            ("u_y > u_x", False),
        ]

    def test_negative_rate_strict_only(self):
        p = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.0, beta=-0.1)
        assert "beta >= 0" in [v.predicate for v in validate_params(p)]
        assert [v for v in validate_params(p) if v.hard] == []


class TestVectorField:
    def test_origin_is_an_equilibrium(self):
        for variant, params in [
            (ModelVariant.GENERAL, GENERAL_HIGH),
            (ModelVariant.HORIZONTAL, benchmark_params(ModelVariant.HORIZONTAL, 0.3)),
            (ModelVariant.VERTICAL, benchmark_params(ModelVariant.VERTICAL, 0.0)),
        ]:
            assert field_kernel(params, variant)(0.0, 0.0) == (0.0, 0.0)

    def test_disease_free_point_is_an_equilibrium(self):
        p = GENERAL_LOW
        xbar = p.K * (1.0 - p.u_x / p.b_x)
        dx, dy = field_kernel(p, ModelVariant.GENERAL)(xbar, 0.0)
        assert abs(dx) < 1e-12 and dy == 0.0

    def test_hand_evaluated_point(self):
        # At (0.1, 0.9) with beta=0.3 the crowding term vanishes, leaving
        # dX = (-u_x - beta*0.9)*0.1 = -0.037 and
        # dY = (-u_y + beta*0.1)*0.9 = -0.153.
        dx, dy = field_kernel(GENERAL_HIGH, ModelVariant.GENERAL)(0.1, 0.9)
        assert dx == pytest.approx(-0.037, abs=1e-12)
        assert dy == pytest.approx(-0.153, abs=1e-12)

    def test_matches_expanded_form(self):
        for s in [(0.1, 0.9), (0.5, 0.2), (1.3, 0.7), (0.0, 0.4), (2.0, 0.0)]:
            got = field_kernel(GENERAL_HIGH, ModelVariant.GENERAL)(*s)
            want = expanded_field(GENERAL_HIGH, *s)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-15)

    def test_density_regulation_at_capacity(self):
        p = GENERAL_LOW
        dx, dy = field_kernel(p, ModelVariant.GENERAL)(p.K, 0.0)
        assert dx == pytest.approx(-p.u_x * p.K, rel=1e-15)
        assert dy == 0.0

    def test_variant_forced_zeros_enforced(self):
        with pytest.raises(VariantParameterError):
            field_kernel(GENERAL_LOW, ModelVariant.HORIZONTAL)(0.1, 0.1)
        with pytest.raises(VariantParameterError):
            field_kernel(HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.2, e=0.0, beta=0.1), ModelVariant.VERTICAL)

    def test_general_with_zero_rates_is_permitted(self):
        p = benchmark_params(ModelVariant.VERTICAL, 0.0)
        assert field_kernel(p, ModelVariant.GENERAL)(0.4, 0.3) == field_kernel(p, ModelVariant.VERTICAL)(0.4, 0.3)


coords = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(x=coords, y=coords)
def test_vertical_equals_general_with_zero_rates(x, y):
    p = benchmark_params(ModelVariant.VERTICAL, 0.0)
    assert field_kernel(p, ModelVariant.VERTICAL)(x, y) == field_kernel(p, ModelVariant.GENERAL)(x, y)


@settings(max_examples=200, deadline=None)
@given(x=coords)
def test_x_axis_is_invariant(x):
    for variant, beta in [(ModelVariant.GENERAL, 0.3), (ModelVariant.HORIZONTAL, 0.3), (ModelVariant.VERTICAL, 0.0)]:
        _, dy = field_kernel(benchmark_params(variant, beta), variant)(x, 0.0)
        assert dy == 0.0


@settings(max_examples=200, deadline=None)
@given(y=st.floats(min_value=1e-9, max_value=3.0))
def test_y_axis_invariant_only_without_vertical_leakage(y):
    horizontal = benchmark_params(ModelVariant.HORIZONTAL, 0.3)
    dx, _ = field_kernel(horizontal, ModelVariant.HORIZONTAL)(0.0, y)
    assert dx == 0.0
    general = benchmark_params(ModelVariant.GENERAL, 0.3)
    dx, _ = field_kernel(general, ModelVariant.GENERAL)(0.0, y)
    expected = general.e * (1.0 - y / general.K) * y
    assert dx == pytest.approx(expected, rel=1e-15, abs=1e-300)
    if y < general.K:
        assert dx > 0.0


def test_state_is_a_named_pair():
    s = State(0.25, 0.5)
    assert s.X == 0.25 and s.Y == 0.5
    x, y = s
    assert (x, y) == (0.25, 0.5)
