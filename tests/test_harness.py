import pytest

from nsfd_epi.convergence import ConvergenceSettings, VerdictStatus, detect_limit
from nsfd_epi.equilibria import EquilibriumKind, all_equilibria, interior_equilibrium, trivial_equilibrium
from nsfd_epi.harness import INITIAL_POINT_PRESETS, consistency_experiment, first_negative_step, step_size_sweep
from nsfd_epi.model import DomainError, ModelVariant
from nsfd_epi.stability import Classification
from nsfd_epi.verification import SCENARIOS, benchmark_params

GENERAL_LOW = benchmark_params(ModelVariant.GENERAL, 0.1)
GENERAL_HIGH = benchmark_params(ModelVariant.GENERAL, 0.3)

SETTINGS = ConvergenceSettings()


class TestDetectLimit:
    def test_constant_sequence_at_equilibrium(self):
        equilibria = all_equilibria(GENERAL_LOW, ModelVariant.GENERAL)
        point = [eq for eq in equilibria if eq.kind is EquilibriumKind.DISEASE_FREE][0].point
        states = [point] * (SETTINGS.window + 1)
        verdict = detect_limit(states, SETTINGS, equilibria, scale=GENERAL_LOW.K)
        assert verdict.status is VerdictStatus.CONVERGED
        assert verdict.kind is EquilibriumKind.DISEASE_FREE

    def test_prefix_padding_with_converged_tail_is_invariant(self):
        equilibria = all_equilibria(GENERAL_LOW, ModelVariant.GENERAL)
        point = [eq for eq in equilibria if eq.kind is EquilibriumKind.DISEASE_FREE][0].point
        base = [point] * (SETTINGS.window + 1)
        padded = [point] * 40 + base
        a = detect_limit(base, SETTINGS, equilibria, scale=GENERAL_LOW.K)
        b = detect_limit(padded, SETTINGS, equilibria, scale=GENERAL_LOW.K)
        assert a.status is b.status is VerdictStatus.CONVERGED
        assert a.kind is b.kind and a.point == b.point

    def test_geometric_growth_diverges(self):
        equilibria = all_equilibria(GENERAL_LOW, ModelVariant.GENERAL)
        states = [(2.0**n * GENERAL_LOW.K, 0.0) for n in range(40)]
        verdict = detect_limit(states, SETTINGS, equilibria, scale=GENERAL_LOW.K)
        assert verdict.status is VerdictStatus.DIVERGED

    def test_short_sequence_is_inconclusive(self):
        equilibria = all_equilibria(GENERAL_LOW, ModelVariant.GENERAL)
        verdict = detect_limit([(0.5, 0.5)] * 5, SETTINGS, equilibria, scale=GENERAL_LOW.K)
        assert verdict.status is VerdictStatus.MAX_STEPS

    def test_quiet_far_from_equilibria_is_not_convergence(self):
        equilibria = all_equilibria(GENERAL_LOW, ModelVariant.GENERAL)
        states = [(0.42, 0.37)] * (SETTINGS.window + 10)
        verdict = detect_limit(states, SETTINGS, equilibria, scale=GENERAL_LOW.K)
        assert verdict.status is VerdictStatus.MAX_STEPS


class TestConsistencyExperiment:
    def test_low_beta_scenario_agrees(self):
        report = consistency_experiment(
            GENERAL_LOW,
            ModelVariant.GENERAL,
            INITIAL_POINT_PRESETS["paper-initials"],
            h_list=[0.1],
            scenario="general-disease-free",
        )
        assert report.verdict
        for cell in report.cells:
            assert cell.agree and not cell.errors
            assert cell.continuous_final.X == pytest.approx(0.8333, abs=1e-3)
            for _, verdict, final in cell.discrete:
                assert verdict.converged
                assert final.X == pytest.approx(0.8333, abs=1e-3)
                assert final.Y == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_every_benchmark_scenario_is_dynamically_consistent(self, scenario):
        report = consistency_experiment(
            scenario.params,
            scenario.variant,
            scenario.initial_points,
            h_list=[scenario.h],
            dt=scenario.dt,
            t_max=scenario.t_max,
            n_max=scenario.max_steps,
            scenario=scenario.name,
        )
        assert report.verdict, [cell.errors or cell for cell in report.cells if not cell.agree]
        ex, ey = scenario.expected_point
        for cell in report.cells:
            assert cell.continuous_final.X == pytest.approx(ex, abs=1e-3)
            assert cell.continuous_final.Y == pytest.approx(ey, abs=1e-3)

    def test_single_point_already_at_equilibrium(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        report = consistency_experiment(
            GENERAL_HIGH, ModelVariant.GENERAL, [eq.point], h_list=[0.1, 5.0], t_max=50.0
        )
        assert report.verdict and report.cells[0].agree

    def test_failed_cell_is_recorded_not_fatal(self):
        # The general map cannot start on the infected axis; the cell
        # records the error and the experiment completes.
        report = consistency_experiment(
            GENERAL_HIGH, ModelVariant.GENERAL, [(0.0, 0.5)], h_list=[0.1], t_max=5.0
        )
        assert not report.verdict
        cell = report.cells[0]
        assert not cell.agree
        assert any("discrete" in err for err in cell.errors)


class TestStepSizeSweep:
    def test_interior_is_stable_for_all_steps(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        res = step_size_sweep(GENERAL_HIGH, ModelVariant.GENERAL, eq, (0.01, 0.1, 1.0, 10.0, 50.0))
        assert res.uniform and res.matches_continuous
        assert {e.classification for e in res.entries} == {Classification.STABLE}

    def test_origin_is_a_source_for_all_steps(self):
        res = step_size_sweep(GENERAL_HIGH, ModelVariant.GENERAL, trivial_equilibrium(), (0.01, 0.1, 1.0, 10.0, 50.0))
        assert res.uniform
        assert {e.classification for e in res.entries} == {Classification.SOURCE}
        assert res.continuous is Classification.SOURCE

    def test_disease_free_stable_below_threshold(self):
        eq = [e for e in all_equilibria(GENERAL_LOW, ModelVariant.GENERAL) if e.kind is EquilibriumKind.DISEASE_FREE][0]
        res = step_size_sweep(GENERAL_LOW, ModelVariant.GENERAL, eq, (0.01, 0.1, 1.0, 10.0, 50.0))
        assert res.uniform and res.matches_continuous
        assert {e.classification for e in res.entries} == {Classification.STABLE}

    def test_nonexistent_equilibrium_rejected(self):
        eq = interior_equilibrium(GENERAL_LOW, ModelVariant.GENERAL)
        with pytest.raises(DomainError):
            step_size_sweep(GENERAL_LOW, ModelVariant.GENERAL, eq, (0.1,))


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


def test_preset_registry():
    assert INITIAL_POINT_PRESETS["paper-initials"] == ((0.1, 0.1), (0.2, 0.4), (0.7, 0.6), (1.0, 0.4), (1.2, 0.15))
