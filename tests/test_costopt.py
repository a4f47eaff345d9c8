import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from powertrack import (
    Cm1Policy,
    Cm2Policy,
    Cm3Policy,
    ConstantHeight,
    ConstantMean,
    ControlSignal,
    ConvergenceError,
    CostReport,
    DemandParams,
    Grid,
    JumpSpec,
    SinusoidMean,
    UpdateSchedule,
    cm1_control,
    cm2_control,
    conditional_variance,
    cumrmse_analytic,
    deterministic_cost,
    first_moment,
    mc_cost_estimate,
    minimize_control,
    minimize_control_direct,
    sample_path,
    sample_paths,
    sequential_update_control,
    sequential_update_solve,
    substream,
    upwind_outflows,
    upwind_solve,
)
from powertrack import costopt

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def ps1_paths_small(ps1, ps_grid):
    return sample_paths(ps1, ps_grid.times(), 20_000, seed=43)


def _flat_params(level=10.0, y0=None, sigma=0.0):
    return DemandParams(kappa=1.0, sigma=sigma, mean=ConstantMean(level),
                        y0=level if y0 is None else y0)


class TestDeterministicCost:
    def test_perfect_tracking_of_deterministic_demand_costs_nothing(self, ps_grid):
        params = _flat_params(y0=6.0)
        u = minimize_control_direct(params, ps_grid)
        report = deterministic_cost(params, ps_grid, u)
        assert report.expected_cost == pytest.approx(0.0, abs=1e-15)
        assert report.cumrmse == pytest.approx(0.0, abs=1e-12)

    def test_optimal_control_leaves_exactly_the_variance(self, ps1, ps_grid):
        ct = ps_grid.control_times()
        u = ControlSignal(ct, cm1_control(ps1, ps_grid.speed, ct))
        report = deterministic_cost(ps1, ps_grid, u)
        var = (conditional_variance(ps1, report.times))
        assert np.allclose(report.per_time, var, atol=1e-10)

    def test_matches_monte_carlo_for_fixed_control(self, ps1, ps_grid):
        """Two 3-sigma gates (0.27% each) and 31 per-time 5-sigma gates
        (5.7e-7 each): 0.54% (union bound)."""
        paths = sample_paths(ps1, ps_grid.times(), 100_000, seed=41)
        ct = ps_grid.control_times()
        u = ControlSignal(ct, 2.0 + np.sin(TWO_PI * ct))
        det = deterministic_cost(ps1, ps_grid, u)
        mc = mc_cost_estimate(paths, ps_grid, u)
        assert abs(mc.expected_cost - det.expected_cost) < 3 * mc.expected_cost_se
        assert abs(mc.cumrmse - det.cumrmse) < 3 * mc.cumrmse_se
        assert np.all(np.abs(mc.per_time - det.per_time) < 5 * mc.per_time_se)

    def test_cost_never_below_the_optimum(self, ps1, ps_grid):
        rng = np.random.default_rng(3)
        floor = deterministic_cost(
            ps1, ps_grid, minimize_control_direct(ps1, ps_grid)).expected_cost
        ct = ps_grid.control_times()
        for _ in range(10):
            u = ControlSignal(ct, rng.normal(2.0, 2.0, ct.size))
            assert deterministic_cost(ps1, ps_grid, u).expected_cost >= floor - 1e-12

    def test_mismatched_control_lattice_rejected(self, ps1, ps_grid):
        u = ControlSignal([0.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            deterministic_cost(ps1, ps_grid, u)


class TestMcCostEstimate:
    def test_exact_tracking_of_noise_free_demand(self, ps_grid):
        params = _flat_params(y0=6.0)
        paths = sample_paths(params, ps_grid.times(), 3, seed=1)
        u = minimize_control_direct(params, ps_grid)
        mc = mc_cost_estimate(paths, ps_grid, u)
        assert mc.expected_cost == pytest.approx(0.0, abs=1e-18)
        assert mc.cumrmse == pytest.approx(0.0, abs=1e-12)

    def test_cm1_policy_matches_analytic_cumrmse(self, ps1, ps_grid, ps1_paths_small):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        mc = mc_cost_estimate(ps1_paths_small, ps_grid, Cm1Policy(ps1))
        ana = cumrmse_analytic(ps1, ps_grid.speed, "CM1", ps_grid.horizon)
        assert abs(mc.cumrmse - ana) < 3 * mc.cumrmse_se

    def test_cm2_policy_matches_conditional_variance(self, ps1, ps_grid,
                                                     ps1_paths_small):
        """31 per-time 5-sigma gates (5.7e-7 each) and one 3-sigma gate
        (0.27%): 0.27% (union bound)."""
        # per_time of the scheduled law equals the conditional variance over
        # the age of its information; compare the cumrmse on the same lattice
        # (the continuous-time analytic integral differs by O(dt) at the
        # information-refresh kinks, which fall mid-panel for the trapezoid)
        sched = UpdateSchedule.regular(0.125, 0.75, ps_grid.dt)
        mc = mc_cost_estimate(ps1_paths_small, ps_grid, Cm2Policy(ps1, sched))
        out_t = mc.times
        t_hat = sched.times[sched.last_index(out_t - ps_grid.delay)]
        expected = conditional_variance(ps1, out_t - t_hat)
        assert np.all(np.abs(mc.per_time - expected) < 5 * mc.per_time_se)
        lattice_cumrmse = float(np.trapezoid(np.sqrt(expected), out_t))
        assert abs(mc.cumrmse - lattice_cumrmse) < 3 * mc.cumrmse_se

    def test_cm3_policy_matches_analytic_cumrmse(self, ps3, ps_grid):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        paths = sample_paths(ps3, ps_grid.times(), 20_000, seed=44)
        mc = mc_cost_estimate(paths, ps_grid, Cm3Policy(ps3))
        ana = cumrmse_analytic(ps3, ps_grid.speed, "CM3", ps_grid.horizon)
        assert abs(mc.cumrmse - ana) < 3 * mc.cumrmse_se

    def test_standard_error_follows_sqrt_n(self, ps1, ps_grid):
        # quadrupling the path budget halves the standard error
        small = sample_paths(ps1, ps_grid.times(), 2_000, seed=45)
        big = sample_paths(ps1, ps_grid.times(), 8_000, seed=46)
        u = minimize_control_direct(ps1, ps_grid)
        se_small = mc_cost_estimate(small, ps_grid, u).expected_cost_se
        se_big = mc_cost_estimate(big, ps_grid, u).expected_cost_se
        assert 0.5 * 0.75 < se_big / se_small < 0.5 * 1.25

    def test_wrong_lattice_rejected(self, ps1, ps_grid):
        paths = sample_paths(ps1, [0.0, 0.5, 1.0], 3, seed=2)
        with pytest.raises(ValueError):
            mc_cost_estimate(paths, ps_grid, minimize_control_direct(ps1, ps_grid))

    def test_single_path_rejected(self, ps1, ps_grid):
        paths = sample_paths(ps1, ps_grid.times(), 1, seed=2)
        with pytest.raises(ValueError):
            mc_cost_estimate(paths, ps_grid, minimize_control_direct(ps1, ps_grid))


def _per_path_cost(paths, grid, control) -> CostReport:
    """mc_cost_estimate written path by path: one control_for call and one
    row of squared deviations per path, then the same reductions."""
    out_t = grid.output_times()
    d0 = grid.delay_steps
    n = len(paths)
    rows = []
    for p in paths:
        y = (control.values if isinstance(control, ControlSignal)
             else control.control_for(p, grid).values)
        rows.append((p.values[d0:] - y) ** 2)
    dev2 = np.stack(rows)
    per_time = dev2.mean(axis=0)
    costs = np.trapezoid(dev2, out_t, axis=1)
    root = np.sqrt(per_time)
    slope = np.divide(0.5, root, out=np.zeros_like(root), where=root > 0)
    return CostReport(
        expected_cost=float(costs.mean()),
        cumrmse=float(np.trapezoid(root, out_t)),
        times=out_t,
        per_time=per_time,
        per_time_se=dev2.std(axis=0, ddof=1) / np.sqrt(n),
        expected_cost_se=float(costs.std(ddof=1) / np.sqrt(n)),
        cumrmse_se=float(np.trapezoid(dev2 * slope, out_t, axis=1).std(ddof=1)
                         / np.sqrt(n)),
    )


class TestMcCostEstimateProperty:
    @settings(max_examples=40)
    @given(kappa=st.floats(0.1, 10.0), sigma=st.floats(0.0, 3.0),
           intensity=st.floats(0.0, 20.0), height=st.floats(-2.0, 2.0),
           update_steps=st.integers(1, 10), n=st.integers(2, 30),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_path_reference(self, kappa, sigma, intensity, height,
                                       update_steps, n, seed):
        grid = Grid.make(4.0, 0.1, 1.0)
        params = DemandParams(kappa=kappa, sigma=sigma,
                              mean=SinusoidMean(2.0, 3.0, TWO_PI), y0=1.0,
                              jump=JumpSpec(intensity, ConstantHeight(height)))
        paths = sample_paths(params, grid.times(), n, seed)
        sched = UpdateSchedule.regular(update_steps * grid.dt,
                                       grid.horizon - grid.delay, grid.dt)
        ct = grid.control_times()
        controls = (Cm1Policy(params), Cm2Policy(params, sched), Cm3Policy(params),
                    ControlSignal(ct, 2.0 + np.sin(TWO_PI * ct)))
        for control in controls:
            want = _per_path_cost(list(paths), grid, control)
            got = mc_cost_estimate(paths, grid, control)
            for field in dataclasses.fields(CostReport):
                a = np.asarray(getattr(got, field.name))
                b = np.asarray(getattr(want, field.name))
                assert a.tobytes() == b.tobytes(), (type(control), field.name)


class TestMinimizeControl:
    def test_agrees_with_closed_form_minimiser(self, ps1, ps2, ps3, ps_grid):
        for params in (ps1, ps2, ps3):
            it = minimize_control(params, ps_grid)
            direct = minimize_control_direct(params, ps_grid)
            assert np.max(np.abs(it.values - direct.values)) < 1e-6

    def test_flat_demand_needs_flat_injection(self, ps_grid):
        params = _flat_params(level=10.0)
        u = minimize_control(params, ps_grid)
        assert np.allclose(u.values, 10.0, atol=1e-9)

    def test_deterministic_sine_demand_is_tracked_exactly(self):
        grid = Grid.make(2.0, 0.5, 5.0)
        profile = SinusoidMean(2.0, 1.0, 0.5 * np.pi)
        u = minimize_control(profile, grid)
        out = upwind_solve(grid, None, u).outflow[grid.delay_steps:]
        target = np.asarray(profile.at(grid.output_times()))
        assert np.max(np.abs(out - target)) <= 1e-8

    def test_gradient_matches_central_differences(self, ps1, ps_grid):
        # discретised objective J(u) via deterministic_cost; analytic gradient
        # is 2 w (u - m) with trapezoid weights w and target means m
        ct = ps_grid.control_times()
        out_t = ps_grid.output_times()
        w = np.full(out_t.size, ps_grid.dt)
        w[0] = w[-1] = 0.5 * ps_grid.dt
        m = first_moment(ps1, out_t)
        rng = np.random.default_rng(8)
        for _ in range(3):
            u = rng.normal(2.0, 1.5, ct.size)
            analytic = 2.0 * w * (u - m)
            h = 1e-6
            for k in rng.choice(ct.size, 5, replace=False):
                up, dn = u.copy(), u.copy()
                up[k] += h
                dn[k] -= h
                cup = deterministic_cost(ps1, ps_grid, ControlSignal(ct, up)).expected_cost
                cdn = deterministic_cost(ps1, ps_grid, ControlSignal(ct, dn)).expected_cost
                fd = (cup - cdn) / (2 * h)
                assert fd == pytest.approx(analytic[k], rel=1e-6, abs=1e-12)

    def test_perturbing_the_optimum_never_helps(self, ps3, ps_grid):
        u = minimize_control(ps3, ps_grid)
        base = deterministic_cost(ps3, ps_grid, u).expected_cost
        scale = float(np.max(np.abs(u.values)))
        h = 1e-4 * scale
        for k in range(u.values.size):
            for sign in (+1.0, -1.0):
                bumped = u.values.copy()
                bumped[k] += sign * h
                cost = deterministic_cost(
                    ps3, ps_grid, ControlSignal(u.times, bumped)).expected_cost
                assert cost >= base - 1e-12

    def test_iteration_budget_exhaustion_raises(self, ps1, ps_grid, monkeypatch):
        monkeypatch.setattr(costopt, "_MAX_ITERS", 1)
        with pytest.raises(ConvergenceError) as err:
            minimize_control(ps1, ps_grid)
        assert err.value.grad_norm > 0
        assert err.value.control.values.size == ps_grid.control_steps + 1


class TestMinimizeControlDirect:
    def test_no_information_equals_cm1(self, ps3, ps_grid):
        u = minimize_control_direct(ps3, ps_grid)
        ct = ps_grid.control_times()
        assert np.allclose(u.values, cm1_control(ps3, ps_grid.speed, ct), atol=1e-14)


class TestSequentialUpdateSolve:
    def test_single_interval_equals_no_update_solve(self, ps3, ps_grid):
        path = sample_path(ps3, ps_grid.times(), substream(12, 1))
        sched = UpdateSchedule.regular(1.0, 0.75, ps_grid.dt)
        u = Cm2Policy(ps3, sched).control_for(path, ps_grid)
        base = minimize_control_direct(ps3, ps_grid)
        assert np.allclose(u.values, base.values, atol=1e-12)
        # the field of the CM2 control reproduces that of the no-update solve
        field = upwind_solve(ps_grid, None, u)
        one_shot = upwind_solve(ps_grid, None, base)
        assert np.allclose(field.outflow, one_shot.outflow, atol=1e-12)

    def test_noise_free_demand_ignores_the_schedule(self, ps_grid):
        params = _flat_params(level=4.0, y0=1.0)
        path = sample_path(params, ps_grid.times(), substream(1, 0))
        controls = []
        for interval in (0.75, 0.25, 0.05):
            sched = UpdateSchedule.regular(interval, 0.75, ps_grid.dt)
            controls.append(Cm2Policy(params, sched).control_for(path, ps_grid).values)
        for values in controls[1:]:
            assert np.allclose(values, controls[0], atol=1e-12)

    @pytest.mark.parametrize("route", ["direct", "iterative"])
    def test_gap_to_continuous_law_shrinks_with_interval(self, ps3, ps_grid, route):
        """``direct`` sends the closed-form CM2 law down the line,
        ``iterative`` the per-interval descent."""
        path = sample_path(ps3, ps_grid.times(), substream(7, 0))
        u3 = Cm3Policy(ps3).control_for(path, ps_grid)
        y3 = upwind_solve(ps_grid, None, u3).outflow
        d0 = ps_grid.delay_steps
        out_t = ps_grid.output_times()
        gaps = []
        for steps in (5, 3, 2, 1):
            sched = UpdateSchedule.regular(steps * ps_grid.dt, 0.75, ps_grid.dt)
            if route == "direct":
                u = Cm2Policy(ps3, sched).control_for(path, ps_grid)
                field = upwind_solve(ps_grid, None, u)
            else:
                _, field = sequential_update_solve(ps3, ps_grid, sched, path)
            gaps.append(float(np.trapezoid(
                np.abs(field.outflow[d0:] - y3[d0:]), out_t)))
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5

    def test_misaligned_schedule_rejected(self, ps3, ps_grid):
        path = sample_path(ps3, ps_grid.times(), substream(7, 0))
        with pytest.raises(ValueError):
            sequential_update_solve(
                ps3, ps_grid, UpdateSchedule.regular(0.03, 0.75), path)

    def test_subunit_courant_rejected(self, ps3):
        grid = Grid.make(4.0, 0.1, 1.0, courant=0.5)
        path = sample_path(ps3, grid.times(), substream(7, 0))
        sched = UpdateSchedule.regular(0.125, 0.75, grid.dt)
        with pytest.raises(ValueError):
            sequential_update_solve(ps3, grid, sched, path)

    def test_solve_sends_the_control_down_the_line(self, ps3, ps_grid):
        path = sample_path(ps3, ps_grid.times(), substream(7, 0))
        sched = UpdateSchedule.regular(0.125, 0.75, ps_grid.dt)
        u, field = sequential_update_solve(ps3, ps_grid, sched, path)
        control = sequential_update_control(ps3, ps_grid, sched, path)
        assert control.values.tobytes() == u.values.tobytes()
        assert (upwind_outflows(ps_grid, [control])[0].tobytes()
                == field.outflow.tobytes())

    @staticmethod
    def _first_interval_times(grid, sched):
        # the first update interval [0, 0.125) fails: lattice steps 0..4
        return grid.control_times()[:round(sched.interval / grid.dt)]

    def test_budget_exhaustion_reports_the_interval_times(self, ps1, ps_grid,
                                                          monkeypatch):
        monkeypatch.setattr(costopt, "_MAX_ITERS", 1)
        path = sample_path(ps1, ps_grid.times(), substream(7, 0))
        sched = UpdateSchedule.regular(0.125, 0.75, ps_grid.dt)
        with pytest.raises(ConvergenceError) as err:
            sequential_update_solve(ps1, ps_grid, sched, path)
        want = self._first_interval_times(ps_grid, sched)
        assert err.value.control.times.tobytes() == want.tobytes()

    def test_overflowing_objective_reports_the_interval_times(self, ps1, ps_grid):
        # y0 = 1e200 squares past the float range at the first objective
        params = dataclasses.replace(ps1, y0=1e200)
        path = sample_path(params, ps_grid.times(), substream(7, 0))
        sched = UpdateSchedule.regular(0.125, 0.75, ps_grid.dt)
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError) as err:
            sequential_update_solve(params, ps_grid, sched, path)
        assert "non-finite objective" in str(err.value)
        want = self._first_interval_times(ps_grid, sched)
        assert err.value.control.times.tobytes() == want.tobytes()


class TestSequentialUpdateSolveProperty:
    @settings(max_examples=50)
    @given(kappa=st.floats(0.1, 10.0), sigma=st.floats(0.0, 3.0),
           intensity=st.floats(0.0, 20.0), height=st.floats(-2.0, 2.0),
           nx=st.integers(2, 40), update_steps=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_cm2_law_sent_down_the_line(self, kappa, sigma, intensity, height,
                                        nx, update_steps, seed):
        grid = Grid.make(4.0, 1.0 / nx, 1.0)
        params = DemandParams(kappa=kappa, sigma=sigma,
                              mean=SinusoidMean(2.0, 3.0, TWO_PI), y0=1.0,
                              jump=JumpSpec(intensity, ConstantHeight(height)))
        path = sample_path(params, grid.times(), substream(seed, 0))
        sched = UpdateSchedule.regular(update_steps * grid.dt,
                                       grid.horizon - grid.delay, grid.dt)
        u = Cm2Policy(params, sched).control_for(path, grid)
        field = upwind_solve(grid, None, u)

        # CM2 law: the update in force at lattice step k is k // update_steps
        last = np.arange(u.values.size) // update_steps
        want = [cm2_control(params, grid.speed, t, sched.times[i],
                            path.values[i * update_steps])
                for t, i in zip(grid.control_times(), last)]
        np.testing.assert_allclose(u.values, want, rtol=1e-12, atol=1e-12)
        shifted = oracles.exact_shift_output(grid.speed, None, u, grid.times())
        np.testing.assert_allclose(field.outflow, shifted, rtol=1e-12, atol=1e-12)

        # the descent stops once every |2 w_k (u_k - m_k)| < grad_tol, and
        # each trapezoid weight w_k is at least dt / 2
        u_it, field_it = sequential_update_solve(params, grid, sched, path)
        assert np.max(np.abs(u_it.values - u.values)) < costopt._GRAD_TOL / grid.dt
        shifted = oracles.exact_shift_output(grid.speed, None, u_it, grid.times())
        np.testing.assert_allclose(field_it.outflow, shifted, rtol=1e-12, atol=1e-12)


class TestCumrmseAnalytic:
    def test_zero_for_noise_free_demand(self):
        params = _flat_params(y0=3.0)
        for method in ("CM1", "CM2", "CM3"):
            val = cumrmse_analytic(params, 4.0, method, 1.0, update_interval=0.125)
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_cm3_closed_form_for_ps1(self, ps1):
        want = 0.75 * np.sqrt(2.0 * (1.0 - np.exp(-0.5)))
        got = cumrmse_analytic(ps1, 4.0, "CM3", 1.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.6653, abs=1e-4)

    def test_information_ordering_for_all_presets(self, ps1, ps2, ps3):
        for params in (ps1, ps2, ps3):
            for dtup in (0.05, 0.125, 0.25):
                c1 = cumrmse_analytic(params, 4.0, "CM1", 1.0)
                c2 = cumrmse_analytic(params, 4.0, "CM2", 1.0, update_interval=dtup)
                c3 = cumrmse_analytic(params, 4.0, "CM3", 1.0)
                assert c3 < c2 < c1  # strict: sigma > 0 in every preset

    def test_update_reduction_is_larger_for_slower_reversion(self, ps1, ps2):
        # slower mean reversion leaves more value in fresh observations
        def reduction(params):
            c1 = cumrmse_analytic(params, 4.0, "CM1", 1.0)
            c2 = cumrmse_analytic(params, 4.0, "CM2", 1.0, update_interval=0.125)
            return (c1 - c2) / c1

        assert reduction(ps1) > reduction(ps2)

    def test_horizon_shorter_than_delay_rejected(self, ps1):
        with pytest.raises(ValueError):
            cumrmse_analytic(ps1, 4.0, "CM1", 0.2)

    def test_cm2_without_interval_rejected(self, ps1):
        with pytest.raises(ValueError):
            cumrmse_analytic(ps1, 4.0, "CM2", 1.0)
