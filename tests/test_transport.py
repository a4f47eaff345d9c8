import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from powertrack import (
    CFLError,
    ControlSignal,
    Grid,
    upwind_outflows,
    upwind_solve,
    validate_cfl,
)

TWO_PI = 2.0 * np.pi


class TestGrid:
    def test_default_construction_is_courant_one(self):
        g = Grid.make(4.0, 0.1, 1.0)
        assert g.dt == pytest.approx(0.025)
        assert (g.nx, g.nt, g.delay_steps) == (10, 40, 10)
        assert validate_cfl(g) == pytest.approx(1.0)

    def test_paper_style_lattices_pass_cfl(self):
        assert validate_cfl(Grid(4.0, 0.1, 0.025, 10, 40, 1.0)) == pytest.approx(1.0)
        assert validate_cfl(Grid(2.0, 0.5, 0.25, 2, 20, 5.0)) == pytest.approx(1.0)

    def test_cfl_violation_reports_courant(self):
        g = Grid(4.0, 0.1, 0.05, 10, 20, 1.0)  # delay still on the lattice
        with pytest.raises(CFLError) as err:
            validate_cfl(g)
        assert err.value.courant == pytest.approx(2.0)
        with pytest.raises(CFLError):
            Grid.make(4.0, 0.1, 1.0, courant=2.0)

    def test_misaligned_or_degenerate_grids_rejected(self):
        with pytest.raises(ValueError):
            Grid.make(4.0, 0.3, 1.0)  # 1/dx not an integer
        with pytest.raises(ValueError):
            Grid.make(4.0, 0.1, 0.25)  # horizon equals the delay
        with pytest.raises(ValueError):
            Grid(4.0, 0.1, 0.03, 10, 33, 1.0)  # delay off the time lattice

    def test_lattice_views(self):
        g = Grid.make(2.0, 0.5, 5.0)
        assert g.times()[-1] == pytest.approx(5.0)
        assert g.control_times()[-1] == pytest.approx(4.5)
        assert g.output_times()[0] == pytest.approx(0.5)


class TestControlSignal:
    def test_piecewise_constant_left(self):
        u = ControlSignal([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
        assert u.at(0.0) == 5.0
        assert u.at(0.99) == 5.0
        assert u.at(1.0) == 6.0
        assert u.at(2.5) == 7.0  # held past the last knot
        assert np.allclose(u.at([0.5, 1.5]), [5.0, 6.0])

    def test_evaluation_before_first_knot_rejected(self):
        u = ControlSignal([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            u.at(-0.5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ControlSignal([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ControlSignal([0.0, 1.0], [1.0, np.inf])
        with pytest.raises(ValueError):
            ControlSignal([0.0, 1.0], [1.0])


class TestUpwindSolve:
    def test_constant_state_is_preserved(self):
        g = Grid.make(4.0, 0.1, 1.0)
        u = ControlSignal(g.control_times(), np.full(g.control_steps + 1, 3.0))
        fs = upwind_solve(g, np.full(g.nx + 1, 3.0), u)
        assert np.max(np.abs(fs.z - 3.0)) < 1e-14

    def test_courant_one_is_exact_shift(self):
        g = Grid.make(4.0, 0.1, 1.0)
        ct = g.control_times()
        u = ControlSignal(ct, np.sin(TWO_PI * ct) + 0.3 * ct)
        fs = upwind_solve(g, None, u)
        t = g.times()
        expected = np.where(t >= g.delay - 1e-12, u.at(np.maximum(t - g.delay, 0.0)), 0.0)
        assert np.max(np.abs(fs.outflow - expected)) < 1e-12
        assert np.max(np.abs(fs.outflow[t < g.delay - 1e-12])) == 0.0

    def test_boundary_and_initial_profile_recorded(self):
        g = Grid.make(4.0, 0.1, 1.0)
        z0 = np.linspace(1.0, 2.0, g.nx + 1)
        u = ControlSignal(g.control_times(), np.full(g.control_steps + 1, 9.0))
        fs = upwind_solve(g, z0, u)
        assert np.all(fs.z[0, :] == 9.0)  # inflow wins at the corner
        assert np.array_equal(fs.z[1:, 0], z0[1:])

    def test_first_order_convergence_at_half_courant(self):
        # Sup error measured past the startup layer: the derivative kink from
        # the empty-line corner needs ~1/speed to clear the outflow.
        def sup_err(dx):
            g = Grid.make(4.0, dx, 1.0, courant=0.5)
            t = g.times()
            u = ControlSignal(t, np.sin(TWO_PI * t))
            fs = upwind_solve(g, None, u)
            exact = oracles.exact_shift_output(g.speed, None, u, t)
            mask = t >= 2.0 * g.delay - 1e-12
            return float(np.max(np.abs(fs.outflow[mask] - exact[mask])))

        coarse, fine = sup_err(0.05), sup_err(0.025)
        assert 1.6 <= coarse / fine <= 2.4

    def test_monotone_range_preservation(self):
        rng = np.random.default_rng(5)
        g = Grid.make(4.0, 0.1, 1.0, courant=0.5)
        t = g.times()
        u = ControlSignal(t, rng.uniform(-1.0, 2.0, t.size))
        z0 = rng.uniform(-1.0, 2.0, g.nx + 1)
        fs = upwind_solve(g, z0, u)
        lo = min(z0.min(), u.values.min())
        hi = max(z0.max(), u.values.max())
        assert fs.z.min() >= lo - 1e-12
        assert fs.z.max() <= hi + 1e-12

    def test_linearity(self):
        g = Grid.make(4.0, 0.1, 1.0, courant=0.5)
        rng = np.random.default_rng(6)
        t = g.times()
        ua = ControlSignal(t, rng.normal(size=t.size))
        ub = ControlSignal(t, rng.normal(size=t.size))
        za = rng.normal(size=g.nx + 1)
        zb = rng.normal(size=g.nx + 1)
        fs_sum = upwind_solve(g, za + zb, ControlSignal(t, ua.values + ub.values))
        fs_a = upwind_solve(g, za, ua)
        fs_b = upwind_solve(g, zb, ub)
        assert np.max(np.abs(fs_sum.z - (fs_a.z + fs_b.z))) < 1e-12

    @settings(max_examples=60)
    @given(speed=st.sampled_from([0.5, 1.0, 2.0, 4.0]), nx=st.integers(1, 30),
           extra_steps=st.integers(0, 30), later_steps=st.integers(1, 40),
           with_z0=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_strided_field_march(self, speed, nx, extra_steps,
                                                  later_steps, with_z0, seed):
        # dx = 1/nx and a delay of nx + extra_steps time steps give every
        # Courant number nx / (nx + extra_steps) in (0, 1]
        delay_steps = nx + extra_steps
        dt = 1.0 / (speed * delay_steps)
        nt = delay_steps + later_steps
        g = Grid(speed, 1.0 / nx, dt, nx, nt, nt * dt)
        rng = np.random.default_rng(seed)
        z0 = rng.normal(size=nx + 1) if with_z0 else None
        u = ControlSignal(g.control_times(), rng.normal(size=g.control_steps + 1))
        z, outflow = oracles.strided_upwind(g, z0, u)
        fs = upwind_solve(g, z0, u)
        assert np.array_equal(fs.outflow, outflow)
        assert np.array_equal(fs.z, z)

    def test_outflow_holds_no_field_and_field_is_built_once_read(self):
        g = Grid.make(4.0, 5e-4, 1.0)  # 2001 x 8001 cells, 122 MiB as a field
        u = ControlSignal(g.control_times(), np.sin(g.control_times()))
        tracemalloc.start()
        try:
            upwind_solve(g, np.ones(g.nx + 1), u).outflow
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

        g = Grid.make(4.0, 0.1, 1.0, courant=0.5)
        z0 = np.linspace(0.0, 1.0, g.nx + 1)
        values = np.sin(g.control_times())
        fs = upwind_solve(g, z0, ControlSignal(g.control_times(), values))
        expected, _ = oracles.strided_upwind(
            g, z0.copy(), ControlSignal(g.control_times(), values.copy()))
        assert "z" not in vars(fs)
        # the field comes from the inputs as they were at solve time
        z0[:] = -1.0
        values[:] = 7.0
        assert np.array_equal(fs.z, expected)
        assert "z" in vars(fs)

    def test_mismatched_initial_profile_rejected(self):
        g = Grid.make(4.0, 0.1, 1.0)
        u = ControlSignal(g.control_times(), np.zeros(g.control_steps + 1))
        with pytest.raises(ValueError):
            upwind_solve(g, np.zeros(g.nx), u)


class TestUpwindOutflows:
    @pytest.mark.parametrize("unit_courant", [True, False])
    @settings(max_examples=40)
    @given(speed=st.sampled_from([0.5, 1.0, 2.0, 4.0]), log_nx=st.integers(0, 5),
           extra_steps=st.integers(1, 30), later_steps=st.integers(1, 40),
           m=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_single_solves_bitwise(self, unit_courant, speed, log_nx,
                                              extra_steps, later_steps, m, seed):
        # with nx a power of two, dx and dt are exact and the Courant number
        # nx / (nx + extra) is exactly 1 with no extra steps, where the
        # march skips its scaling, and below 1 otherwise
        nx = 2 ** log_nx
        delay_steps = nx + (0 if unit_courant else extra_steps)
        dt = 1.0 / (speed * delay_steps)
        nt = delay_steps + later_steps
        g = Grid(speed, 1.0 / nx, dt, nx, nt, nt * dt)
        assert (g.courant == 1.0) is unit_courant and 0.0 < g.courant <= 1.0
        rng = np.random.default_rng(seed)
        controls = [ControlSignal(g.control_times(),
                                  rng.normal(size=g.control_steps + 1))
                    for _ in range(m)]
        outflows = upwind_outflows(g, controls)
        assert outflows.shape == (m, g.nt + 1)
        for row, u in zip(outflows, controls):
            assert row.tobytes() == upwind_solve(g, None, u).outflow.tobytes()


class TestExactShiftOutput:
    def test_empty_line_before_first_arrival(self):
        u = ControlSignal([0.0, 0.25, 0.5, 0.75], [1.0, 2.0, 3.0, 4.0])
        assert oracles.exact_shift_output(4.0, None, u, 0.1) == 0.0

    def test_shift_by_transport_delay(self):
        times = np.arange(0.0, 0.8, 0.05)
        u = ControlSignal(times, times)  # u(t) = t on the lattice
        assert oracles.exact_shift_output(4.0, None, u, 0.5) == pytest.approx(0.25)

    def test_initial_profile_advected_out(self):
        z0 = np.linspace(0.0, 1.0, 11)  # z0(x) = x
        u = ControlSignal([0.0, 0.5], [5.0, 5.0])
        # y(t) = z0(1 - speed t) = 1 - 2 t for t < 1/2
        assert oracles.exact_shift_output(2.0, z0, u, 0.2) == pytest.approx(0.6)
        assert oracles.exact_shift_output(2.0, lambda x: x, u, 0.2) == pytest.approx(0.6)

    def test_matches_courant_one_upwind_everywhere(self):
        g = Grid.make(2.0, 0.5, 5.0)
        rng = np.random.default_rng(7)
        u = ControlSignal(g.control_times(), rng.normal(size=g.control_steps + 1))
        fs = upwind_solve(g, None, u)
        exact = oracles.exact_shift_output(g.speed, None, u, g.times())
        assert np.max(np.abs(fs.outflow - exact)) < 1e-12

    def test_out_of_range_time_rejected(self):
        u = ControlSignal([0.0, 0.5], [1.0, 2.0])
        with pytest.raises(ValueError):
            oracles.exact_shift_output(2.0, None, u, -0.1)
        with pytest.raises(ValueError):
            oracles.exact_shift_output(2.0, None, u, 1.6)
