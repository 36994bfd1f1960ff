import math

import pytest

from nsfd_epi import harness
from nsfd_epi.equilibria import EquilibriumKind, all_equilibria, interior_equilibrium
from nsfd_epi.harness import INITIAL_POINT_PRESETS, SWEEP_H_LIST, first_negative_step, step_size_sweep
from nsfd_epi.integrators import euler_kernel
from nsfd_epi.model import DomainError, HostParams, ModelVariant
from nsfd_epi.stability import Classification
from nsfd_epi.verification import benchmark_params

GENERAL_LOW = benchmark_params(ModelVariant.GENERAL, 0.1)
GENERAL_HIGH = benchmark_params(ModelVariant.GENERAL, 0.3)


def swept(params, kind):
    """The general model's sweep result for its point of ``kind``."""
    (res,) = [r for r in step_size_sweep(params, ModelVariant.GENERAL, SWEEP_H_LIST) if r.equilibrium.kind is kind]
    return res


class TestStepSizeSweep:
    def test_interior_is_stable_for_all_steps(self):
        res = swept(GENERAL_HIGH, EquilibriumKind.INTERIOR)
        assert res.uniform and res.matches_continuous
        assert {e.classification for e in res.entries} == {Classification.STABLE}

    def test_origin_is_a_source_for_all_steps(self):
        res = swept(GENERAL_HIGH, EquilibriumKind.TRIVIAL)
        assert res.uniform
        assert {e.classification for e in res.entries} == {Classification.SOURCE}
        assert res.continuous.classification is Classification.SOURCE

    def test_disease_free_stable_below_threshold(self):
        res = swept(GENERAL_LOW, EquilibriumKind.DISEASE_FREE)
        assert res.uniform and res.matches_continuous
        assert {e.classification for e in res.entries} == {Classification.STABLE}

    def test_a_point_that_does_not_exist_is_not_swept(self):
        assert not interior_equilibrium(GENERAL_LOW, ModelVariant.GENERAL).exists
        kinds = [r.equilibrium.kind for r in step_size_sweep(GENERAL_LOW, ModelVariant.GENERAL, (0.1,))]
        assert EquilibriumKind.INTERIOR not in kinds

    @pytest.mark.parametrize(
        "params, variant",
        [
            (GENERAL_LOW, ModelVariant.GENERAL),
            (GENERAL_HIGH, ModelVariant.GENERAL),
            (benchmark_params(ModelVariant.HORIZONTAL, 0.42), ModelVariant.HORIZONTAL),
            (benchmark_params(ModelVariant.VERTICAL, 0.0), ModelVariant.VERTICAL),
        ],
    )
    def test_results_are_the_existing_points_in_listing_order(self, params, variant):
        h_list = (0.1, 10.0)
        results = step_size_sweep(params, variant, h_list)
        assert [r.equilibrium for r in results] == [eq for eq in all_equilibria(params, variant) if eq.exists]
        for r in results:
            assert r.continuous.h is None and [e.h for e in r.entries] == list(h_list)


class TestEulerFailureDemo:
    def test_large_step_fails_at_step_one(self):
        assert first_negative_step(GENERAL_HIGH, ModelVariant.GENERAL, (0.1, 0.9), 10.0, scheme="euler") == 1

    def test_nonstandard_control_never_fails(self):
        idx = first_negative_step(GENERAL_HIGH, ModelVariant.GENERAL, (0.1, 0.9), 10.0, scheme="nsfd", max_steps=2000)
        assert idx is None

    def test_small_step_euler_stays_positive(self):
        idx = first_negative_step(
            GENERAL_HIGH, ModelVariant.GENERAL, (0.1, 0.9), 1e-3, scheme="euler", max_steps=10_000
        )
        assert idx is None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(DomainError):
            first_negative_step(GENERAL_HIGH, ModelVariant.GENERAL, (0.1, 0.9), 1.0, scheme="rk4")

    @pytest.mark.parametrize("s0", [(math.nan, 0.1), (0.1, math.inf)])
    def test_start_that_is_not_finite_rejected(self, s0):
        with pytest.raises(DomainError, match="is not finite"):
            first_negative_step(GENERAL_HIGH, ModelVariant.GENERAL, s0, 1.0)

    def test_diverging_run_stops_past_the_bound(self, monkeypatch):
        # dX/dt = X and dY/dt = Y, so Euler at h = 1 doubles both: 0.5 * 2**21 is the first past 1e6 * K.
        steps = 0

        def counting_kernel(*args):
            advance = euler_kernel(*args)

            def counted(x, y):
                nonlocal steps
                steps += 1
                return advance(x, y)

            return counted

        monkeypatch.setattr(harness, "euler_kernel", counting_kernel)
        growth = HostParams(b_x=0.0, b_y=0.0, u_x=-1.0, u_y=-1.0, K=1.0)
        assert first_negative_step(growth, ModelVariant.VERTICAL, (0.5, 0.5), 1.0) is None
        assert steps == 21


def test_preset_registry():
    assert INITIAL_POINT_PRESETS["paper-initials"] == ((0.1, 0.1), (0.2, 0.4), (0.7, 0.6), (1.0, 0.4), (1.2, 0.15))
