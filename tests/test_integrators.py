import dataclasses
import math

import numpy as np
import pytest

from nsfd_epi import verification
from nsfd_epi.convergence import ENDS_ONLY, ConvergenceSettings, Verdict, VerdictStatus
from nsfd_epi.equilibria import disease_free_equilibrium, interior_equilibrium
from nsfd_epi.integrators import euler_kernel, simulate_continuous
from nsfd_epi.model import BlowUpError, DomainError, HostParams, ModelVariant
from nsfd_epi.verification import SCENARIOS, benchmark_params, convergence_check

GENERAL_HIGH = benchmark_params(ModelVariant.GENERAL, 0.3)
HORIZ_MID = benchmark_params(ModelVariant.HORIZONTAL, 0.3)


def integrate_fixed(params, variant, s0, dt, t_end):
    run = simulate_continuous(params, variant, s0, dt, round(t_end / dt), record_every=ENDS_ONLY)
    assert run.verdict == Verdict(VerdictStatus.MAX_STEPS, at_step=round(t_end / dt))
    return run.final_state


def euler(s, dt):
    return euler_kernel(GENERAL_HIGH, ModelVariant.GENERAL, dt)(*s)


def rk4(s, dt):
    """One RK4 step, as a one-step run."""
    run = simulate_continuous(GENERAL_HIGH, ModelVariant.GENERAL, s, dt, 1)
    assert run.steps.tolist() == [0, 1]
    return run.final_state


class TestRk4Step:
    def test_equilibrium_is_fixed(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        x, y = rk4(eq.point, 0.1)
        assert max(abs(x - eq.point.X), abs(y - eq.point.Y)) <= 1e-13

    def test_fourth_order_error_decay(self):
        # Against a dt = 1e-4 reference, halving dt from 0.1 to 0.05
        # should shrink the error about 16x.
        s0, t_end = (0.1, 0.1), 5.0
        ref = integrate_fixed(GENERAL_HIGH, ModelVariant.GENERAL, s0, 1e-4, t_end)
        coarse = integrate_fixed(GENERAL_HIGH, ModelVariant.GENERAL, s0, 0.1, t_end)
        fine = integrate_fixed(GENERAL_HIGH, ModelVariant.GENERAL, s0, 0.05, t_end)
        err_coarse = max(abs(coarse[0] - ref[0]), abs(coarse[1] - ref[1]))
        err_fine = max(abs(fine[0] - ref[0]), abs(fine[1] - ref[1]))
        assert 12.0 <= err_coarse / err_fine <= 20.0

    def test_long_run_reaches_coexistence(self):
        run = simulate_continuous(GENERAL_HIGH, ModelVariant.GENERAL, (0.2, 0.4), dt=0.01, n_max=200_000)
        assert run.verdict.converged
        assert run.final_state.X == pytest.approx(0.1818, abs=1e-3)
        assert run.final_state.Y == pytest.approx(0.4545, abs=1e-3)

    def test_stage_overflow_raises(self):
        # The run loop refuses the first step that is not finite, and names the state it stepped from.
        with pytest.raises(BlowUpError, match=r"^rk4 update overflowed at step 1 from \(0\.1, 0\.1\)$"):
            rk4((0.1, 0.1), 1e300)
        with pytest.raises(BlowUpError):
            simulate_continuous(GENERAL_HIGH, ModelVariant.GENERAL, (0.1, 0.1), dt=1e300, n_max=5)

    def test_rejects_bad_dt(self):
        for dt in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(DomainError, match="dt must be finite and positive"):
                rk4((0.1, 0.1), dt)
            with pytest.raises(DomainError, match="dt must be finite and positive"):
                euler_kernel(GENERAL_HIGH, ModelVariant.GENERAL, dt)


class TestEulerStep:
    def test_large_step_violates_positivity(self):
        # dX/dt at (0.1, 0.9) is -0.037, so one h = 10 step lands at
        # 0.1 - 0.37 = -0.27.
        x, _ = euler((0.1, 0.9), 10.0)
        assert x == pytest.approx(-0.27, abs=1e-12)
        assert x < 0

    def test_equilibrium_is_fixed(self):
        eq = disease_free_equilibrium(GENERAL_HIGH)
        x, y = euler(eq.point, 10.0)
        assert max(abs(x - eq.point.X), abs(y - eq.point.Y)) <= 1e-13

    def test_second_order_agreement_with_rk4(self):
        # euler - rk4 = O(dt^2), so shrinking dt 10x shrinks the gap ~100x.
        s = (0.3, 0.4)
        gaps = []
        for dt in (1e-2, 1e-3):
            a, b = euler(s, dt), rk4(s, dt)
            gaps.append(max(abs(a[0] - b[0]), abs(a[1] - b[1])))
        assert 50.0 <= gaps[0] / gaps[1] <= 200.0


class TestSimulateContinuous:
    def test_start_at_equilibrium_converges_immediately(self):
        eq = interior_equilibrium(GENERAL_HIGH, ModelVariant.GENERAL)
        settings = ConvergenceSettings()
        run = simulate_continuous(GENERAL_HIGH, ModelVariant.GENERAL, eq.point, dt=0.01, n_max=1000, settings=settings)
        assert run.verdict.converged
        assert run.verdict.at_step <= settings.window

    def test_blow_up_with_implausible_parameters(self):
        # Negative rates pass only permissive validation; the integrator
        # then overflows and reports the blow-up.
        bad = HostParams(b_x=-0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.1)
        with pytest.raises(BlowUpError):
            simulate_continuous(bad, ModelVariant.GENERAL, (0.1, 0.1), dt=1e300, n_max=10)

    def test_euler_scheme_records_negative_states_then_diverges(self):
        run = simulate_continuous(
            GENERAL_HIGH, ModelVariant.GENERAL, (0.1, 0.9), dt=10.0, n_max=100, scheme="euler"
        )
        assert run.verdict.status is VerdictStatus.DIVERGED
        assert np.any(run.states < 0)
        assert run.states[1, 0] == pytest.approx(-0.27, abs=1e-12)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(DomainError):
            simulate_continuous(GENERAL_HIGH, ModelVariant.GENERAL, (0.1, 0.1), scheme="leapfrog")

    # simulate_continuous takes a step budget; a scenario's t_max is turned
    # into one by convergence_check, whose conversion the t_max tests pin.

    def test_zero_t_max_returns_the_start_alone(self):
        for scheme in ("rk4", "euler"):
            run = simulate_continuous(HORIZ_MID, ModelVariant.HORIZONTAL, (0.2, 0.4), dt=0.01, n_max=0, scheme=scheme)
            assert run.steps.tolist() == [0] and run.times.tolist() == [0.0]
            assert run.states.tolist() == [[0.2, 0.4]]
            assert run.verdict == Verdict(VerdictStatus.MAX_STEPS, at_step=0)
        # Half a step of t_max is no step: the RK4 run stops at its start.
        result = convergence_check(dataclasses.replace(SCENARIOS[0], dt=0.01, t_max=0.005))
        assert not result.passed and result.details.endswith("ended max_steps")
        assert result.details.startswith("continuous run")

    def test_rejects_negative_t_max(self):
        with pytest.raises(DomainError, match="n_max must be nonnegative"):
            simulate_continuous(HORIZ_MID, ModelVariant.HORIZONTAL, (0.2, 0.4), dt=0.01, n_max=-1)
        with pytest.raises(DomainError, match="t_max must be nonnegative"):
            convergence_check(dataclasses.replace(SCENARIOS[0], t_max=-0.005))
        # A t_max that gives no finite step count is refused too.
        with pytest.raises(DomainError, match=r"t_max = 1e\+308 over dt = 1e-10 gives no finite step count"):
            convergence_check(dataclasses.replace(SCENARIOS[0], dt=1e-10, t_max=1e308))

    @pytest.mark.parametrize(
        "n, dt", [(200_000, 0.01), (234_914_347, 0.6378795625311319), (7, 0.1), (10**11 + 3, 1e-3)]
    )
    def test_t_max_of_n_steps_gives_n_steps(self, monkeypatch, n, dt):
        # The run is stubbed out: only the budget convergence_check gives RK4 is checked.
        class Budget(Exception):
            pass

        def stop_with_budget(params, variant, s0, dt, n_max, **kwargs):
            raise Budget(n_max)

        monkeypatch.setattr(verification, "simulate_continuous", stop_with_budget)
        with pytest.raises(Budget) as stopped:
            convergence_check(dataclasses.replace(SCENARIOS[0], dt=dt, t_max=n * dt))
        assert stopped.value.args == (n,)

    def test_sampling_grid_and_times(self):
        run = simulate_continuous(HORIZ_MID, ModelVariant.HORIZONTAL, (0.2, 0.4), dt=0.5, n_max=100)
        assert np.array_equal(run.times, run.steps * 0.5)
        assert run.states.shape == (len(run.times), 2)

    def test_euler_small_step_tracks_rk4_limit(self):
        run = simulate_continuous(
            HORIZ_MID, ModelVariant.HORIZONTAL, (0.7, 0.6), dt=0.01, n_max=200_000, scheme="euler"
        )
        assert run.verdict.converged
        assert run.final_state.X == pytest.approx(0.0476, abs=1e-3)
        assert run.final_state.Y == pytest.approx(0.5952, abs=1e-3)
