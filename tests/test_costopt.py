import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    preset,
    sample_path,
    sample_paths,
    scenario_grid,
    scenario_schedule,
    sequential_update_solve,
    substream,
    upwind_solve,
)
from powertrack import costopt
from powertrack.experiments import PRESET_NAMES

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

    def test_scaling_by_a_power_of_two_scales_every_estimate_exactly(self, ps1, ps_grid):
        # the squared deviations reach 2**600, so their standard errors,
        # which square them again, would overflow without rescaling
        paths = sample_paths(ps1, ps_grid.times(), 50, seed=3)
        u = minimize_control_direct(ps1, ps_grid)
        s = 2.0 ** 300
        base = mc_cost_estimate(paths, ps_grid, u)
        scaled = mc_cost_estimate(dataclasses.replace(paths, values=paths.values * s),
                                  ps_grid, ControlSignal(u.times, u.values * s))
        for name, factor in [("per_time", s * s), ("per_time_se", s * s),
                             ("expected_cost", s * s), ("expected_cost_se", s * s),
                             ("cumrmse", s), ("cumrmse_se", s)]:
            want = np.asarray(getattr(base, name)) * factor
            got = np.asarray(getattr(scaled, name))
            assert np.all(np.isfinite(got)) and got.tobytes() == want.tobytes(), name

    def test_wrong_lattice_rejected(self, ps1, ps_grid):
        # a coarser lattice; and the grid's times scaled by 1 + 2e-6, inside
        # np.allclose's default rtol of 1e-5 but 2e-6 off at t = 1
        for times in ([0.0, 0.5, 1.0], ps_grid.times() * (1 + 2e-6)):
            paths = sample_paths(ps1, times, 3, seed=2)
            with pytest.raises(ValueError, match="transport lattice"):
                mc_cost_estimate(paths, ps_grid, minimize_control_direct(ps1, ps_grid))

    def test_single_path_rejected(self, ps1, ps_grid):
        paths = sample_paths(ps1, ps_grid.times(), 1, seed=2)
        with pytest.raises(ValueError):
            mc_cost_estimate(paths, ps_grid, minimize_control_direct(ps1, ps_grid))

    def test_score_does_not_depend_on_the_layout_of_the_values(self):
        """A sampled ensemble keeps the sampler's step-major block; scoring
        it equals, bit for bit, scoring a row-major copy."""
        sc = preset("PS3")
        grid = scenario_grid(sc)
        paths = sample_paths(sc.params, grid.times(), 500, seed=7)
        assert not paths.values.flags.c_contiguous
        copy = dataclasses.replace(paths, values=np.ascontiguousarray(paths.values))
        for policy in (Cm1Policy(sc.params),
                       Cm2Policy(sc.params, scenario_schedule(sc, grid)),
                       Cm3Policy(sc.params)):
            got, want = (mc_cost_estimate(p, grid, policy) for p in (paths, copy))
            for field in dataclasses.fields(CostReport):
                assert (np.asarray(getattr(got, field.name)).tobytes()
                        == np.asarray(getattr(want, field.name)).tobytes()), \
                    (type(policy).__name__, field.name)

    def test_scoring_holds_at_most_three_blocks(self):
        """Scoring a policy holds its (n, k) blocks of n paths by k output
        times one or two at a time: the control block until the squared
        deviations exist, then one working block next to those."""
        sc = preset("PS3")
        grid = scenario_grid(sc)
        paths = sample_paths(sc.params, grid.times(), 2000, seed=5)
        block = len(paths) * grid.output_times().size * 8
        for policy in (Cm1Policy(sc.params),
                       Cm2Policy(sc.params, scenario_schedule(sc, grid)),
                       Cm3Policy(sc.params)):
            mc_cost_estimate(paths, grid, policy)  # warm
            tracemalloc.start()
            try:
                mc_cost_estimate(paths, grid, policy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * block, (type(policy).__name__, peak / block)


_SHAPES = st.tuples(st.integers(2, 40), st.integers(2, 40))
_BIG = st.floats(-1e300, 1e300)


class TestInPlaceReductions:
    """The reductions of :func:`mc_cost_estimate` run in place, and must be
    bitwise the numpy calls they replace."""

    @settings(max_examples=200)
    @given(a=_SHAPES.flatmap(lambda shape: arrays(np.float64, shape, elements=_BIG)),
           axis=st.sampled_from([0, None]))
    def test_std_equals_scaled_ndarray_std(self, a, axis):
        _, e = np.frexp(max(a.max(), -a.min()))
        want = np.ldexp(np.ldexp(a, -e).std(axis, ddof=1), e)
        before = a.tobytes()
        got = costopt._std(a, axis)
        assert a.tobytes() == before  # mc_cost_estimate reads it again
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=200)
    @given(data=st.data(), shape=_SHAPES)
    def test_trapezoid_rows_equals_np_trapezoid(self, data, shape):
        n, k = shape
        steps = data.draw(arrays(np.float64, k - 1, elements=st.floats(1e-3, 1.0)))
        x = np.concatenate([[0.0], np.cumsum(steps)])
        buf = np.empty((n, k - 1))
        for _ in range(2):  # the buffer is reused as mc_cost_estimate reuses it
            y = data.draw(arrays(np.float64, shape, elements=_BIG))
            got = costopt._trapezoid_rows(y, np.diff(x), buf)
            assert got.tobytes() == np.trapezoid(y, x, axis=1).tobytes()


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
        grid = Grid(4.0, 0.1, 1.0)
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
        grid = Grid(2.0, 0.5, 5.0)
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


def _assert_same_error(got, want):
    assert str(got) == str(want)
    assert got.control.times.tobytes() == want.control.times.tobytes()
    assert got.control.values.tobytes() == want.control.values.tobytes()
    assert got.grad_norm == want.grad_norm


class TestDescendRows:
    """The lockstep descent against one descent per row, bitwise."""

    @settings(max_examples=80)
    @given(rows=st.integers(1, 8), length=st.integers(1, 300),
           spread=st.sampled_from([0.0, 0.5, 2.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_each_row_equals_its_own_descent(self, rows, length, spread, seed):
        """L crosses the pairwise-sum blocks of 8 and 128.  Equal interior
        weights converge in one step; half-weight ends take Barzilai-Borwein
        steps, and weights spread over up to two decades backtrack."""
        rng = np.random.default_rng(seed)
        dt = 10.0 ** rng.uniform(-4.0, 0.0)
        weights = dt * 10.0 ** -rng.uniform(0.0, spread, (rows, length))
        weights[:, 0] *= rng.choice([0.5, 1.0], rows)
        weights[:, -1] *= rng.choice([0.5, 1.0], rows)
        targets = (rng.choice([-1.0, 1.0], (rows, length))
                   * 10.0 ** rng.uniform(-3.0, 6.0, (rows, length)))
        times = dt * np.arange(rows * length, dtype=float).reshape(rows, length)
        try:  # row by row, so the first row that fails raises
            want = [oracles.descend_1d(m, w, t)
                    for m, w, t in zip(targets, weights, times)]
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError) as got:
                costopt._descend(targets, weights, times)
            _assert_same_error(got.value, err)
            return
        got = costopt._descend(targets, weights, times)
        assert got.shape == (rows, length)
        for row, values in zip(got, want):
            assert row.tobytes() == values.tobytes()

    def test_budget_exhaustion_names_the_first_failing_row(self, monkeypatch):
        # rows 0 and 2 start at their optimum, rows 1 and 3 need a step more
        monkeypatch.setattr(costopt, "_MAX_ITERS", 1)
        rng = np.random.default_rng(5)
        weights = np.full((4, 6), 0.025)
        weights[:, [0, -1]] = 0.0125
        targets = rng.uniform(1.0, 2.0, (4, 6))
        targets[[0, 2]] = 0.0
        times = 0.025 * np.arange(24.0).reshape(4, 6)
        assert oracles.descend_1d(targets[0], weights[0], times[0]).tobytes() \
            == np.zeros(6).tobytes()
        with pytest.raises(ConvergenceError) as want:
            oracles.descend_1d(targets[1], weights[1], times[1])
        with pytest.raises(ConvergenceError) as got:
            costopt._descend(targets, weights, times)
        _assert_same_error(got.value, want.value)
        assert got.value.control.times.tobytes() == times[1].tobytes()


def _preset_and_converge_fine_schedules():
    """Every preset's schedule, and the five of the benchmark's converge-fine
    workload: PS1 at dx 0.0005, its intervals given by --dtup."""
    scenarios = [preset(name) for name in PRESET_NAMES]
    fine = dataclasses.replace(preset("PS1"), dx=0.0005)
    scenarios += [dataclasses.replace(fine, update_interval=dtup)
                  for dtup in (0.125, 0.05, 0.025, 0.01, 0.005)]
    for scenario in scenarios:
        grid = scenario_grid(scenario)
        schedule = scenario_schedule(scenario, grid)
        if schedule is not None:
            yield grid, schedule


class TestCm2Policy:
    def test_update_in_force_is_the_last_at_or_before_each_control_time(
            self, ps1, monkeypatch):
        """Each update holds from its own lattice step to the next update's:
        on every preset and converge-fine schedule that is the update which
        ``UpdateSchedule.last_index`` finds in continuous time."""
        # cm2_control's arguments come back as its result
        monkeypatch.setattr(costopt, "cm2_control",
                            lambda params, speed, t, t_hat, y_obs: (t_hat, y_obs))
        checked = 0
        for grid, schedule in _preset_and_converge_fine_schedules():
            steps = np.arange(grid.nt + 1.0)[np.newaxis]  # each value its step
            t_hat, y_obs = Cm2Policy(ps1, schedule).control_block(steps, grid)
            last = schedule.last_index(grid.control_times())
            assert t_hat.tobytes() == schedule.times[last].tobytes()
            assert y_obs[0].tolist() == np.round(schedule.times[last] / grid.dt).tolist()
            checked += 1
        assert checked == 3 + 5

    @pytest.mark.parametrize("speed, interval", [(4.0, 0.3), (3.0, 0.1)])
    def test_exact_multiples_run_at_long_horizons(self, ps1, speed, interval):
        # beyond t = 4096 one rounding of interval * k moves it more than
        # 1e-12 from its lattice time dt * steps * k (1.8e-12 here)
        grid = Grid(speed, 0.1, 10_000.0)
        sched = UpdateSchedule.regular(interval, grid.horizon - grid.delay, grid.dt)
        steps = round(interval / grid.dt)
        drift = np.abs(grid.dt * (steps * np.arange(sched.times.size)) - sched.times)
        assert drift.max() > 1e-12
        values = np.full((1, grid.nt + 1), ps1.y0)
        u = Cm2Policy(ps1, sched).control_block(values, grid)
        assert np.all(np.isfinite(u))


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
        grid = Grid(4.0, 0.1, 1.0, courant=0.5)
        path = sample_path(ps3, grid.times(), substream(7, 0))
        sched = UpdateSchedule.regular(0.125, 0.75, grid.dt)
        with pytest.raises(ValueError):
            sequential_update_solve(ps3, grid, sched, path)

    def test_solve_sends_the_control_down_the_line(self, ps3, ps_grid):
        path = sample_path(ps3, ps_grid.times(), substream(7, 0))
        sched = UpdateSchedule.regular(0.125, 0.75, ps_grid.dt)
        u, field = sequential_update_solve(ps3, ps_grid, sched, path)
        control = sequential_update_solve(ps3, ps_grid, sched, path)[0]
        assert control.values.tobytes() == u.values.tobytes()
        assert (upwind_solve(ps_grid, None, control).outflow.tobytes()
                == field.outflow.tobytes())

    @staticmethod
    def _first_interval_times(grid, sched):
        # the first update interval [0, 0.125) fails: lattice steps 0..4
        return grid.control_times()[:round(sched.times[1] / grid.dt)]

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
        grid = Grid(4.0, 1.0 / nx, 1.0)
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

    def test_interval_far_below_the_horizon_refused_at_once(self, ps1):
        """At 1e-12 the schedule alone would be 7.5e11 update times (a
        5.46 TiB allocation); the interval is refused before it is built."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="update_interval"):
            cumrmse_analytic(ps1, 4.0, "CM2", 1.0, 1e-12)
        assert time.perf_counter() - start < 1.0

    def test_segment_cap_bounds_the_segments(self, ps1, monkeypatch):
        # the control horizon 0.75 holds 10 intervals of 0.075, 11 of 0.07
        monkeypatch.setattr(costopt, "_MAX_CM2_SEGMENTS", 10)
        assert cumrmse_analytic(ps1, 4.0, "CM2", 1.0, 0.075) > 0.0
        with pytest.raises(ValueError, match="update_interval"):
            cumrmse_analytic(ps1, 4.0, "CM2", 1.0, 0.07)

    @pytest.mark.parametrize("name, want", [
        ("PS1", ("0x1.610c665fef8c4p-1", "0x1.7154bfedea4b5p-1",
                 "0x1.87c063b93bbddp-1")),
        ("PS2", ("0x1.19aedf389bc81p-1", "0x1.1fd1691f8c82ap-1",
                 "0x1.26bf25b1d3dfdp-1")),
        ("PS3", ("0x1.a6864ed4e9ac2p-1", "0x1.afba1daf52c3ep-1",
                 "0x1.ba1eb88abdcfcp-1")),
    ])
    def test_preset_values_keep_their_bits(self, name, want):
        """CM2 at intervals 0.05, 0.125 and 0.25, as the segment loop gives
        them: the cap refuses intervals before any arithmetic."""
        params = preset(name).params
        got = tuple(cumrmse_analytic(params, 4.0, "CM2", 1.0, dtup).hex()
                    for dtup in (0.05, 0.125, 0.25))
        assert got == want
