import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from powertrack import (
    CFLError,
    ControlSignal,
    Grid,
    convergence_study,
    preset,
    transport,
    upwind_solve,
    validate_cfl,
)

TWO_PI = 2.0 * np.pi


def _one_binade(sign, exponent):
    """Values whose every update pair x - (x - y) rounds back to y: one sign
    and one binade, so each difference is exact (Sterbenz) and so is the
    step back."""
    return st.floats(1.0, 2.0).map(lambda f: sign * f * 2.0 ** exponent)


# Values over many binades, with sign changes, subnormals and signed zeros.
WIDE_VALUES = st.one_of(st.floats(-1e300, 1e300),
                        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-17, 1.0]))


def _pow2_grid(unit_courant, speed, log_nx, extra_steps, later_steps):
    # with nx a power of two, dx and dt are exact and the Courant number
    # nx / (nx + extra) is exactly 1 with no extra steps, where the march
    # skips its scaling, and below 1 otherwise
    nx = 2 ** log_nx
    delay_steps = nx + (0 if unit_courant else extra_steps)
    dt = 1.0 / (speed * delay_steps)
    nt = delay_steps + later_steps
    g = Grid(speed, 1.0 / nx, dt, nx, nt, nt * dt)
    assert (g.courant == 1.0) is unit_courant and 0.0 < g.courant <= 1.0
    return g


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
        # six solves on the same lattice, one at a time
        sc = replace(preset("PS1"), dx=5e-4)
        tracemalloc.start()
        try:
            convergence_study(sc, [0.125, 0.05, 0.025, 0.01, 0.005])
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_profile_rejected(self, bad):
        g = Grid.make(4.0, 0.1, 1.0)
        u = ControlSignal(g.control_times(), np.zeros(g.control_steps + 1))
        z0 = np.zeros(g.nx + 1)
        z0[3] = bad
        with pytest.raises(ValueError, match="initial profile values must be finite"):
            upwind_solve(g, z0, u)


class TestCheckedShift:
    """At Courant 1 the outflow is the shifted inputs when no update pair
    rounds, and the shift repaired where pairs round; both routes against the
    oracle march."""

    @pytest.mark.parametrize("unit_courant", [True, False])
    @settings(max_examples=60)
    @given(speed=st.sampled_from([0.5, 1.0, 2.0, 4.0]), log_nx=st.integers(0, 5),
           extra_steps=st.integers(1, 30), later_steps=st.integers(1, 40),
           m=st.integers(1, 6), with_z0=st.booleans(), wide=st.booleans(),
           sign=st.sampled_from([1.0, -1.0]), exponent=st.integers(-1000, 1000),
           data=st.data())
    def test_outflows_equal_strided_march_bitwise(self, unit_courant, speed, log_nx,
                                                  extra_steps, later_steps, m, with_z0,
                                                  wide, sign, exponent, data):
        g = _pow2_grid(unit_courant, speed, log_nx, extra_steps, later_steps)
        values = WIDE_VALUES if wide else _one_binade(sign, exponent)

        def draw(size):
            return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

        z0 = None
        if with_z0:
            z0 = draw(g.nx + 1)
            if wide:
                z0[data.draw(st.integers(1, g.nx))] = -0.0
        controls = []
        for _ in range(m):
            v = draw(g.control_steps + 1)
            if wide:
                v[0] = -0.0  # 0.0 - (0.0 - -0.0) is 0.0
            controls.append(ControlSignal(g.control_times(), v))
        for u in controls:
            # bytes, since array_equal takes -0.0 for 0.0
            assert (upwind_solve(g, None, u).outflow.tobytes()
                    == oracles.strided_upwind(g, None, u)[1].tobytes())
            assert (upwind_solve(g, z0, u).outflow.tobytes()
                    == oracles.strided_upwind(g, z0, u)[1].tobytes())

    def test_a_rounding_pair_marches_the_whole_block(self):
        # 1.0 - (1.0 - 1e-17) is 0.0: the march loses the 1e-17 that a
        # plain shift would carry to the outflow; the repair re-runs that
        # pair, and a smooth control keeps its shift
        g = Grid.make(4.0, 0.1, 1.0)
        values = np.ones(g.control_steps + 1)
        values[1] = 1e-17
        u = ControlSignal(g.control_times(), values)
        smooth = ControlSignal(g.control_times(), np.linspace(1.0, 1.5, values.size))
        _, expected = oracles.strided_upwind(g, None, u)
        shift = np.concatenate((np.zeros(g.nx), u.at(g.times())))[:g.nt + 1]
        assert expected[g.delay_steps + 1] == 0.0
        assert shift[g.delay_steps + 1] == 1e-17
        assert upwind_solve(g, None, u).outflow.tobytes() == expected.tobytes()
        assert (upwind_solve(g, None, smooth).outflow.tobytes()
                == oracles.strided_upwind(g, None, smooth)[1].tobytes())


class TestRepair:
    """Where update pairs round at Courant 1, only those pairs are re-run,
    and the solve marches where that takes more than 64 levels; bitwise
    against the oracle march."""

    @staticmethod
    def _solves(monkeypatch, g, controls):
        """The outflow of each control, checked against the oracle march,
        and whether ``_repair`` finished each solve."""
        returned = []
        repair = transport._repair

        def spy(*args):
            returned.append(repair(*args))
            return returned[-1]

        monkeypatch.setattr(transport, "_repair", spy)
        outflows = [upwind_solve(g, None, u).outflow for u in controls]
        for row, u in zip(outflows, controls):
            assert row.tobytes() == oracles.strided_upwind(g, None, u)[1].tobytes()
        assert len(returned) == len(controls)
        return outflows, returned

    @staticmethod
    def _shift(g, u):
        return np.concatenate((np.zeros(g.nx), u.at(g.times())))[:g.nt + 1]

    def test_white_noise_gives_up_to_the_march(self, monkeypatch):
        # about a quarter of the pairs of normal draws round, so nearly every
        # level needs a re-run and each repair gives up after 64 of them
        g = _pow2_grid(True, 1.0, 5, 0, 200)
        rng = np.random.default_rng(3)
        controls = [ControlSignal(g.control_times(), rng.normal(size=g.control_steps + 1))
                    for _ in range(3)]
        _, done = self._solves(monkeypatch, g, controls)
        assert not any(done)

    def test_only_some_columns_round(self, monkeypatch):
        g = _pow2_grid(True, 2.0, 3, 0, 60)
        t = g.control_times()
        smooth = ControlSignal(t, np.linspace(1.0, 1.5, t.size))
        values = np.ones(t.size)
        values[[2, 9, 10, 30]] = [1e-17, -0.0, 1e-300, 5e-324]
        rough = ControlSignal(t, values)
        outflows, done = self._solves(monkeypatch, g, [smooth, rough, smooth])
        assert all(done)
        assert outflows[1].tobytes() != self._shift(g, rough).tobytes()
        assert outflows[0].tobytes() == self._shift(g, smooth).tobytes()

    def test_one_cell_line_block_is_repaired(self, monkeypatch):
        # with nx == 1, pair m is inside the line at level m alone, so each
        # level re-runs the pairs that enter it and the neighbours of the
        # values that moved
        g = _pow2_grid(True, 1.0, 0, 0, 23)
        t = g.control_times()
        pattern = [1.0, 1e-17, 3.0, -0.0, 2.0, 1e-300, 1.0, 0.0]
        controls = [ControlSignal(t, np.resize(np.roll(pattern, k), t.size))
                    for k in range(3)]
        outflows, done = self._solves(monkeypatch, g, controls)
        assert all(done)
        for row, u in zip(outflows, controls):
            assert row.tobytes() != self._shift(g, u).tobytes()

    def test_line_of_no_cells_passes_the_inflow_through(self, monkeypatch):
        # dx = 2e9 gives nx == 0: the march has no update pairs, so even a
        # pair that would round (1.0 then 1e-17) leaves as it came in
        g = Grid.make(1.0, 2e9, 2.4e10)
        assert g.nx == 0 and g.nt == 12
        t = g.control_times()
        pattern = [1.0, 1e-17, 3.0, -0.0, 2.0, 1e-300]
        controls = [ControlSignal(t, np.resize(np.roll(pattern, k), t.size))
                    for k in range(2)]
        outflows, done = self._solves(monkeypatch, g, controls)
        assert all(done)
        for row, u in zip(outflows, controls):
            assert row.tobytes() == self._shift(g, u).tobytes()


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
