import tracemalloc

import numpy as np
import pytest

import oracles
from powertrack import (
    ConstantHeight,
    ConstantMean,
    DemandParams,
    JumpSpec,
    SinusoidMean,
    UpdateSchedule,
    cm1_control,
    cm2_control,
    cm3_control,
    conditional_variance,
    first_moment,
    sample_path,
    sample_paths,
    substream,
)

SPEED = 4.0
DELAY = 1.0 / SPEED


def _flat(level=10.0, kappa=1.0, sigma=0.0, y0=None, jump=None):
    return DemandParams(kappa=kappa, sigma=sigma, mean=ConstantMean(level),
                        y0=level if y0 is None else y0,
                        jump=jump or JumpSpec.none())


class TestUpdateSchedule:
    def test_regular_construction(self):
        sched = UpdateSchedule.regular(0.125, 0.75, 0.025)
        assert np.allclose(sched.times, 0.125 * np.arange(7))

    def test_alignment_with_lattice_enforced(self):
        with pytest.raises(ValueError):
            UpdateSchedule.regular(0.03, 0.75, 0.025)

    def test_interval_below_one_lattice_step_rejected_without_allocating(self):
        # 1e-12 / 0.025 rounds to 0 steps; accepted, the schedule would ask
        # for 7.5e11 update times
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="lattice step"):
                UpdateSchedule.regular(1e-12, 0.75, 0.025)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("interval", [1.0, 1e18, 1e300, 1e308])
    def test_interval_beyond_the_control_horizon_updates_once(self, interval):
        # 1e300 is 4e301 lattice steps, beyond any integer dtype; 1e308 is
        # 4e309, beyond the floats
        sched = UpdateSchedule.regular(interval, 0.75, 0.025)
        assert sched.times.tolist() == [0.0]

    def test_last_update_is_left_closed(self):
        sched = UpdateSchedule.regular(0.2, 0.75)
        assert sched.last_update(0.2) == 0.2  # new observation counts immediately
        assert sched.last_update(0.19) == 0.0
        assert sched.last_update(0.75) == pytest.approx(0.6)
        with pytest.raises(ValueError):
            sched.last_update(-0.1)


class TestCm1:
    def test_settled_at_the_mean(self):
        params = _flat()
        t = np.linspace(0.0, 0.75, 7)
        assert np.allclose(cm1_control(params, SPEED, t), 10.0, atol=1e-12)

    def test_flat_mean_value(self):
        params = _flat(y0=6.0)
        want = 10.0 - 4.0 * np.exp(-0.25)
        assert cm1_control(params, SPEED, 0.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(6.8848, abs=1e-4)

    def test_equals_mean_one_delay_ahead(self, ps3):
        t = np.linspace(0.0, 0.75, 16)
        assert np.allclose(cm1_control(ps3, SPEED, t), first_moment(ps3, t + DELAY),
                           atol=1e-14)

    def test_ps3_against_monte_carlo(self, ps3):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        draws = np.array([p.values[-1]
                          for p in sample_paths(ps3, [0.0, 0.75], 60_000, seed=25)])
        got = cm1_control(ps3, SPEED, 0.5)
        assert abs(draws.mean() - got) < 3 * oracles.se_mean(draws)

    def test_negative_time_rejected(self, ps3):
        with pytest.raises(ValueError):
            cm1_control(ps3, SPEED, -0.01)


class TestCm2:
    def test_start_time_update_recovers_cm1(self, ps1, ps2, ps3):
        t = np.linspace(0.0, 0.75, 31)
        for params in (ps1, ps2, ps3):
            assert np.allclose(cm2_control(params, SPEED, t, 0.0, params.y0),
                               cm1_control(params, SPEED, t), atol=1e-12)

    def test_settled_at_the_mean(self):
        params = _flat()
        assert cm2_control(params, SPEED, 0.4, 0.25, 10.0) == pytest.approx(10.0)

    def test_ps1_restart_against_monte_carlo(self, ps1):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        path = sample_path(ps1, np.linspace(0.0, 1.0, 41), substream(33, 0))
        y_obs = path.values[20]  # the demand at t = 0.5
        got = cm2_control(ps1, SPEED, 0.6, 0.5, y_obs)
        # Y_0.85 - e^{-0.35 kappa} Y_0.5 is independent of Y_0.5, so moving
        # each path to y_obs at t = 0.5 gives exact draws of the restart
        values = sample_paths(ps1, [0.0, 0.5, 0.85], 30_000, seed=34).values
        draws = values[:, 2] + np.exp(-ps1.kappa * 0.35) * (y_obs - values[:, 1])
        assert abs(draws.mean() - got) < 3 * oracles.se_mean(draws)

    def test_control_before_update_rejected(self, ps1):
        with pytest.raises(ValueError):
            cm2_control(ps1, SPEED, 0.2, 0.5, 1.0)


class TestCm3:
    def test_settled_at_the_mean(self):
        params = _flat()
        assert cm3_control(params, SPEED, 0.3, 10.0) == pytest.approx(10.0)

    def test_stiff_mean_reversion_tracks_the_forecast(self, ps3):
        # as kappa grows the law forgets y_now and drops the jump premium
        t, y_now = 0.4, 7.0
        target = ps3.mean.at(t + DELAY)
        errs = []
        for kappa in (1e2, 1e3, 1e4):
            params = DemandParams(kappa=kappa, sigma=ps3.sigma, mean=ps3.mean,
                                  y0=ps3.y0, jump=ps3.jump)
            errs.append(abs(cm3_control(params, SPEED, t, y_now) - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01

    def test_coincides_with_cm2_at_update_instants(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            params = DemandParams(
                kappa=float(rng.uniform(0.3, 4.0)),
                sigma=float(rng.uniform(0.0, 2.0)),
                mean=SinusoidMean(float(rng.uniform(0, 4)), float(rng.uniform(0, 3)),
                                  float(rng.uniform(0.5, 7.0))),
                y0=float(rng.uniform(-2, 5)),
                jump=JumpSpec(float(rng.uniform(0, 5)),
                              ConstantHeight(float(rng.uniform(-1, 1.5)))),
            )
            t = float(rng.uniform(0.0, 0.75))
            y = float(rng.uniform(-3, 6))
            assert cm3_control(params, SPEED, t, y) == pytest.approx(
                cm2_control(params, SPEED, t, t, y), abs=1e-12)


class TestInformationOrdering:
    def test_expected_cost_ranks_by_information_age(self):
        # cost of the optimal law at output time t is the conditional variance
        # over the age of its information: delay (CM3) <= t - t_hat (CM2) <= t (CM1)
        rng = np.random.default_rng(11)
        sched = UpdateSchedule.regular(0.125, 0.75)
        for _ in range(40):
            params = DemandParams(
                kappa=float(rng.uniform(0.3, 4.0)),
                sigma=float(rng.uniform(0.1, 2.5)),
                mean=ConstantMean(2.0),
                y0=1.0,
                jump=JumpSpec(float(rng.uniform(0, 5)),
                              ConstantHeight(float(rng.uniform(0, 1.5)))),
            )
            t = float(rng.uniform(DELAY, 1.0))
            span_cm2 = t - sched.last_update(t - DELAY)
            c3 = conditional_variance(params, DELAY)
            c2 = conditional_variance(params, span_cm2)
            c1 = conditional_variance(params, t)
            assert c3 <= c2 + 1e-15 and c2 <= c1 + 1e-15

    def test_zero_height_jumps_reduce_to_pure_diffusion_controls(self, ps1):
        no_jump = DemandParams(kappa=ps1.kappa, sigma=ps1.sigma, mean=ps1.mean,
                               y0=ps1.y0, jump=JumpSpec.none())
        t = np.linspace(0.0, 0.75, 13)
        assert np.allclose(cm1_control(ps1, SPEED, t), cm1_control(no_jump, SPEED, t),
                           atol=1e-12)
        assert np.allclose(cm2_control(ps1, SPEED, t, 0.0, 1.3),
                           cm2_control(no_jump, SPEED, t, 0.0, 1.3), atol=1e-12)
        assert np.allclose(cm3_control(ps1, SPEED, t, 1.3),
                           cm3_control(no_jump, SPEED, t, 1.3), atol=1e-12)
