import tracemalloc
from dataclasses import fields, replace

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
    upwind_solve,
)
from powertrack import transport

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
    # nx / (nx + extra) is exactly 1 with no extra steps, where the solve
    # is the delay line, and below 1 otherwise, where it marches
    nx = 2 ** log_nx
    delay_steps = nx + (0 if unit_courant else extra_steps)
    dt = 1.0 / (speed * delay_steps)
    nt = delay_steps + later_steps
    g = Grid(speed, 1.0 / nx, nt * dt, courant=nx / delay_steps)
    assert (g.courant == 1.0) is unit_courant and 0.0 < g.courant <= 1.0
    assert g.dt == dt and (g.nx, g.nt, g.delay_steps) == (nx, nt, delay_steps)
    return g


def _delayed(g, z0, u):
    """The exact delay at Courant 1, index by index: outflow i carries
    z0[nx - i] until the first injection arrives at step nx, and the inflow
    of step i - nx from then on."""
    z0 = np.zeros(g.nx + 1) if z0 is None else z0
    inflow = np.atleast_1d(u.at(g.times()))
    return np.array([z0[g.nx - i] if i < g.nx else inflow[i - g.nx]
                     for i in range(g.nt + 1)])


class TestGrid:
    def test_default_construction_is_courant_one(self):
        g = Grid(4.0, 0.1, 1.0)
        assert g.courant == 1.0 and g.dt == 0.1 / 4.0
        assert (g.nx, g.nt, g.delay_steps) == (10, 40, 10)

    def test_paper_style_lattices_pass_cfl(self):
        for args, dt, nx, nt in (((4.0, 0.1, 1.0), 0.025, 10, 40),
                                 ((2.0, 0.5, 5.0), 0.25, 2, 20)):
            g = Grid(*args)
            assert g.courant == 1.0
            assert (g.dt, g.nx, g.nt) == (dt, nx, nt)

    def test_cfl_violation_reports_courant(self):
        for courant in (2.0, 1.0 + 1e-15, 0.0, -0.5, np.nan):
            with pytest.raises(CFLError) as err:
                Grid(4.0, 0.1, 1.0, courant=courant)
            assert err.value.courant is courant

    # each grid, its Courant number, and the input and ratio its error names
    _MISALIGNED = [
        ((4.0, 0.3, 1.0), 1.0, "dx", "1/dx"),  # 1/dx not a whole number
        ((4.0, 0.1, 1.01), 1.0, "horizon", "horizon/dt"),  # 40.4 time steps
        ((4.0, 0.1, 0.25), 1.0, "horizon", "transport delay"),  # equals the delay
        # dt = 0.01875: the horizon is 64 steps, the delay 13.33
        ((4.0, 0.1, 1.2), 0.75, "dx", "delay/dt"),
        ((0.0, 0.1, 1.0), 1.0, "speed", "finite and > 0"),
        ((None, 0.1, 1.0), 1.0, "speed", "finite and > 0"),
        ((4.0, 5e-324, 1.0), 1.0, "dx", "1/dx"),  # 1/dx overflows
        ((4.0, 0.1, np.inf), 1.0, "horizon", "finite and > 0"),
    ]

    def test_misaligned_or_degenerate_grids_rejected(self):
        for args, courant, name, ratio in self._MISALIGNED:
            with pytest.raises(ValueError) as err:
                Grid(*args, courant=courant)
            assert not isinstance(err.value, CFLError)
            message = str(err.value)
            assert message.split()[0] == name and ratio in message, message

    @settings(max_examples=200)
    @given(speed=st.floats(1e-3, 1e3), nx=st.integers(1, 1000),
           extra_steps=st.integers(0, 1000), later_steps=st.integers(1, 10 ** 5),
           free=st.one_of(st.none(), st.floats(1e-3, 1.0)),
           outside=st.one_of(st.floats(min_value=1.0, exclude_min=True),
                             st.floats(max_value=0.0), st.just(np.nan)))
    def test_the_inputs_fix_the_lattice(self, speed, nx, extra_steps, later_steps,
                                        free, outside):
        """A grid builds when its delay is nx + extra_steps time steps; one
        of a free Courant number builds or names dx or horizon.  A grid that
        builds keeps its Courant number exactly, derives dt from it, and its
        lattice ends at the horizon.  A Courant number outside (0, 1] raises
        CFLError."""
        courant = nx / (nx + extra_steps) if free is None else free
        dx = 1.0 / nx
        dt = courant * dx / speed
        k = nx + extra_steps + later_steps
        with pytest.raises(CFLError):
            Grid(speed, dx, k * dt, outside)
        try:
            g = Grid(speed, dx, k * dt, courant)
        except ValueError as err:
            assert free is not None and not isinstance(err, CFLError)
            assert str(err).split()[0] in ("dx", "horizon")
            return
        assert g.courant == courant and g.dt == dt
        assert g.times()[-1] == pytest.approx(g.horizon, rel=1e-9, abs=0.0)

    def test_default_grid_whose_product_rounds_reads_the_delay_line(self, monkeypatch):
        # 7 * (1/2339 / 7) / (1/2339) rounds to 0.9999999999999999, but dt
        # is dx / speed, so the grid is at Courant 1 and must not march
        g = Grid(7.0, 1 / 2339, 1.0)
        assert g.speed * g.dt / g.dx < 1.0 and g.courant == 1.0

        def no_march(*args, **kwargs):
            raise AssertionError("a Courant-1 solve marched")

        monkeypatch.setattr(transport, "_march", no_march)
        t = g.control_times()
        u = ControlSignal(t, np.sin(TWO_PI * t))
        z0 = np.linspace(-1.0, 1.0, g.nx + 1)
        delay_line = transport._delay_line(z0, np.atleast_1d(u.at(g.times())))
        outflow = upwind_solve(g, z0, u).outflow
        assert outflow.tobytes() == delay_line[:g.nt + 1].tobytes()

    def test_lattice_views(self):
        g = Grid(2.0, 0.5, 5.0)
        assert g.times()[-1] == pytest.approx(5.0)
        assert g.control_times()[-1] == pytest.approx(4.5)
        assert g.output_times()[0] == pytest.approx(0.5)

    def test_lattice_is_built_once_and_read_only(self):
        g = Grid(4.0, 0.1, 1.0)
        h = hash(g)
        for method, lo, hi in ((g.times, 0, g.nt + 1),
                               (g.control_times, 0, g.control_steps + 1),
                               (g.output_times, g.delay_steps, g.nt + 1)):
            lattice = method()
            assert method() is lattice
            assert not lattice.flags.writeable
            with pytest.raises(ValueError):
                lattice[0] = 1.0
            assert lattice.tobytes() == (g.dt * np.arange(lo, hi)).tobytes()
        # the cache is no field: equality and hash are those of the fields
        fresh = Grid(4.0, 0.1, 1.0)
        assert g == fresh and hash(g) == h == hash(fresh)
        assert [f.name for f in fields(g) if f.init] == ["speed", "dx", "horizon",
                                                        "courant"]
        assert [f.name for f in fields(g) if not f.init] == ["dt", "nx", "nt",
                                                            "delay_steps"]
        same = replace(g)
        assert same == g and hash(same) == h
        assert same.times() is not g.times()
        longer = replace(g, horizon=2.0)
        assert longer != g and longer.nt == 80
        assert longer.times().tobytes() == (g.dt * np.arange(81)).tobytes()
        assert longer.output_times().tobytes() == (
            g.dt * np.arange(g.delay_steps, 81)).tobytes()


def _lattice_grid(dt, delay_steps, nx, later_steps):
    """A grid of time step ``dt`` whose delay is ``delay_steps`` steps, with
    ``nx`` <= ``delay_steps`` cells, so at Courant number at most 1."""
    nt = delay_steps + later_steps
    g = Grid(1.0 / (delay_steps * dt), 1.0 / nx, nt * dt, courant=nx / delay_steps)
    assert (g.nx, g.nt, g.delay_steps) == (nx, nt, delay_steps)
    return g


# Time steps over fifteen decades, and at the 1e-12 tolerance of
# ControlSignal.at, below which a lattice time is read from a later knot
_STEPS = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
              st.integers(-15, 0)),
    st.sampled_from([1e-12, 1.5e-12, 2e-12, 4e-12, 1e-13]))


class TestLatticeInflow:
    """A control whose knots are the grid's first k times is read by index;
    every other control through ``ControlSignal.at``.  Either way the inflow,
    row 0 of the field, is ``u.at(grid.times())`` bit for bit."""

    @staticmethod
    def _inflow(g, u):
        with np.errstate(all="ignore"):  # a march of wide values overflows
            return upwind_solve(g, None, u).z[0]

    @settings(max_examples=150)
    @given(dt=_STEPS, delay_steps=st.integers(1, 8), later_steps=st.integers(1, 30),
           data=st.data())
    def test_inflow_equals_at_bitwise(self, dt, delay_steps, later_steps, data):
        g = _lattice_grid(dt, delay_steps,
                          data.draw(st.integers(1, delay_steps)), later_steps)
        times = g.times()
        k = data.draw(st.integers(1, g.nt + 1))
        values = np.array(data.draw(st.lists(WIDE_VALUES, min_size=k,
                                             max_size=k)))
        # on the lattice, then with knots 1.. off it (knot 0 stays at the
        # first lattice time): one ulp up, and shifts either side of the
        # 1e-12 tolerance and below the 1e-9 lattice check of costopt
        shifted = [times[1:k], np.nextafter(times[1:k], np.inf)]
        shifted += [times[1:k] + s for s in (-1e-10, -2e-12, 5e-13, 2e-12, 1e-10)]
        for later in shifted:
            knots = np.append(times[0], later)
            if not np.all(np.diff(knots) > 0):
                continue  # a shift that merges knots is no control
            u = ControlSignal(knots, values)
            assert self._inflow(g, u).tobytes() == np.atleast_1d(
                u.at(times)).tobytes()

    @pytest.mark.parametrize("g, shift", [
        (Grid(4.0, 0.1, 1.0), 1e-10),  # within costopt's lattice check
        (_lattice_grid(1e-13, 4, 4, 30), 0.0),  # dt below the tolerance
    ])
    def test_at_reads_a_later_knot_than_the_index(self, g, shift):
        """Where ``at`` reads lattice time i from a knot other than i, the
        inflow follows ``at``, not the index."""
        k = g.control_steps + 1
        knots = g.times()[:k] + shift
        knots[0] = 0.0
        u = ControlSignal(knots, np.arange(k, dtype=float))
        by_index = np.minimum(np.arange(g.nt + 1), k - 1).astype(float)
        inflow = self._inflow(g, u)
        assert inflow.tobytes() == u.at(g.times()).tobytes()
        assert not np.array_equal(inflow, by_index)


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
        g = Grid(4.0, 0.1, 1.0)
        u = ControlSignal(g.control_times(), np.full(g.control_steps + 1, 3.0))
        fs = upwind_solve(g, np.full(g.nx + 1, 3.0), u)
        assert np.max(np.abs(fs.z - 3.0)) < 1e-14

    def test_courant_one_is_exact_shift(self):
        g = Grid(4.0, 0.1, 1.0)
        ct = g.control_times()
        u = ControlSignal(ct, np.sin(TWO_PI * ct) + 0.3 * ct)
        fs = upwind_solve(g, None, u)
        t = g.times()
        expected = np.where(t >= g.delay - 1e-12, u.at(np.maximum(t - g.delay, 0.0)), 0.0)
        assert np.max(np.abs(fs.outflow - expected)) < 1e-12
        assert np.max(np.abs(fs.outflow[t < g.delay - 1e-12])) == 0.0

    def test_boundary_and_initial_profile_recorded(self):
        g = Grid(4.0, 0.1, 1.0)
        z0 = np.linspace(1.0, 2.0, g.nx + 1)
        u = ControlSignal(g.control_times(), np.full(g.control_steps + 1, 9.0))
        fs = upwind_solve(g, z0, u)
        assert np.all(fs.z[0, :] == 9.0)  # inflow wins at the corner
        assert np.array_equal(fs.z[1:, 0], z0[1:])

    def test_first_order_convergence_at_half_courant(self):
        # Sup error measured past the startup layer: the derivative kink from
        # the empty-line corner needs ~1/speed to clear the outflow.
        def sup_err(dx):
            g = Grid(4.0, dx, 1.0, courant=0.5)
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
        g = Grid(4.0, 0.1, 1.0, courant=0.5)
        t = g.times()
        u = ControlSignal(t, rng.uniform(-1.0, 2.0, t.size))
        z0 = rng.uniform(-1.0, 2.0, g.nx + 1)
        fs = upwind_solve(g, z0, u)
        lo = min(z0.min(), u.values.min())
        hi = max(z0.max(), u.values.max())
        assert fs.z.min() >= lo - 1e-12
        assert fs.z.max() <= hi + 1e-12

    def test_linearity(self):
        g = Grid(4.0, 0.1, 1.0, courant=0.5)
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
           extra_steps=st.integers(1, 30), later_steps=st.integers(1, 40),
           with_z0=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_strided_field_march(self, speed, nx, extra_steps,
                                                  later_steps, with_z0, seed):
        # dx = 1/nx and a delay of nx + extra_steps time steps give Courant
        # numbers nx / (nx + extra_steps) below 1, where the solve marches
        delay_steps = nx + extra_steps
        dt = 1.0 / (speed * delay_steps)
        nt = delay_steps + later_steps
        g = Grid(speed, 1.0 / nx, nt * dt, courant=nx / delay_steps)
        assert (g.nx, g.nt, g.delay_steps) == (nx, nt, delay_steps)
        rng = np.random.default_rng(seed)
        z0 = rng.normal(size=nx + 1) if with_z0 else None
        u = ControlSignal(g.control_times(), rng.normal(size=g.control_steps + 1))
        z, outflow = oracles.strided_upwind(g, z0, u)
        fs = upwind_solve(g, z0, u)
        assert np.array_equal(fs.outflow, outflow)
        assert np.array_equal(fs.z, z)

    @settings(max_examples=60)
    @given(speed=st.sampled_from([0.5, 1.0, 2.0, 4.0]), log_nx=st.integers(0, 5),
           later_steps=st.integers(1, 40), with_z0=st.booleans(), data=st.data())
    def test_courant_one_field_is_a_read_only_view_of_the_delay_line(
            self, speed, log_nx, later_steps, with_z0, data):
        g = _pow2_grid(True, speed, log_nx, 0, later_steps)

        def draw(size):
            return np.array(data.draw(st.lists(WIDE_VALUES, min_size=size,
                                               max_size=size)))

        z0 = draw(g.nx + 1) if with_z0 else None
        u = ControlSignal(g.control_times(), draw(g.control_steps + 1))
        fs = upwind_solve(g, z0, u)
        z = fs.z
        assert z.shape == (g.nx + 1, g.nt + 1) and not z.flags.writeable
        z0 = np.zeros(g.nx + 1) if z0 is None else z0
        # w[nx - j + i]: the profile from the outflow end, then the inflow;
        # bytes, since array_equal takes -0.0 for 0.0
        w = np.concatenate((z0[:0:-1], np.atleast_1d(u.at(g.times()))))
        j, i = np.indices(z.shape)
        assert z.tobytes() == w[g.nx - j + i].tobytes()
        assert z[-1].tobytes() == fs.outflow.tobytes()

    def test_outflow_holds_no_field_and_field_is_built_once_read(self):
        g = Grid(4.0, 5e-4, 1.0)  # 2001 x 8001 cells, 122 MiB as a field
        u = ControlSignal(g.control_times(), np.sin(g.control_times()))
        tracemalloc.start()
        try:
            upwind_solve(g, np.ones(g.nx + 1), u).outflow
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        # at Courant 1 the field is a view of the delay line: reading it
        # copies none of the 2001 x 8001 cells
        fs = upwind_solve(g, np.ones(g.nx + 1), u)
        tracemalloc.start()
        try:
            z = fs.z
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert z.shape == (g.nx + 1, g.nt + 1) and not z.flags.writeable
        assert np.array_equal(z[:, 0], np.append(u.at(0.0), np.ones(g.nx)))
        assert z[-1].tobytes() == fs.outflow.tobytes()
        # six solves on the same lattice, one at a time
        sc = replace(preset("PS1"), dx=5e-4)
        tracemalloc.start()
        try:
            convergence_study(sc, [0.125, 0.05, 0.025, 0.01, 0.005])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

        g = Grid(4.0, 0.1, 1.0, courant=0.5)
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
        g = Grid(4.0, 0.1, 1.0)
        u = ControlSignal(g.control_times(), np.zeros(g.control_steps + 1))
        with pytest.raises(ValueError):
            upwind_solve(g, np.zeros(g.nx), u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_profile_rejected(self, bad):
        g = Grid(4.0, 0.1, 1.0)
        u = ControlSignal(g.control_times(), np.zeros(g.control_steps + 1))
        z0 = np.zeros(g.nx + 1)
        z0[3] = bad
        with pytest.raises(ValueError, match="initial profile values must be finite"):
            upwind_solve(g, z0, u)


class TestCheckedShift:
    """Outflows against references, bitwise: at Courant 1 the delay line,
    and the strided march too wherever it does not round; below Courant 1
    the strided march."""

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
            for profile in (None, z0):
                # bytes, since array_equal takes -0.0 for 0.0
                outflow = upwind_solve(g, profile, u).outflow.tobytes()
                march = oracles.strided_upwind(g, profile, u)[1].tobytes()
                if unit_courant:
                    assert outflow == _delayed(g, profile, u).tobytes()
                if not (unit_courant and wide):
                    # within one binade every update x - (x - y) is exactly
                    # y, so at Courant 1 the march is the delay too
                    assert outflow == march


class TestExactDelay:
    """At Courant 1 inputs leave as they came in, also where the march's
    update x - (x - y) would round them."""

    def test_a_rounding_pair_leaves_as_it_came_in(self):
        # 1.0 - (1.0 - 1e-17) is 0.0 and 0.0 - (0.0 - -0.0) is 0.0: the
        # march loses the 1e-17 and the sign of the zero, the delay keeps them
        g = Grid(4.0, 0.1, 1.0)
        values = np.ones(g.control_steps + 1)
        values[1] = 1e-17
        values[3:5] = [0.0, -0.0]
        u = ControlSignal(g.control_times(), values)
        _, march = oracles.strided_upwind(g, None, u)
        outflow = upwind_solve(g, None, u).outflow
        assert outflow.tobytes() == _delayed(g, None, u).tobytes()
        d = g.delay_steps
        assert outflow[d + 1] == 1e-17 and march[d + 1] == 0.0
        assert np.signbit(outflow[d + 4]) and not np.signbit(march[d + 4])

    @pytest.mark.parametrize("log_nx, later_steps, kind", [
        (5, 200, "white-noise"), (3, 60, "some-columns"),
        (0, 23, "one-cell"), (None, None, "no-cells")],
        ids=["white-noise", "some-columns", "one-cell", "no-cells"])
    def test_rounding_inputs_leave_as_they_came_in(self, log_nx, later_steps, kind):
        if log_nx is None:
            g = Grid(1.0, 2e9, 2.4e10)  # dx = 2e9 gives nx == 0
            assert g.nx == 0 and g.nt == 12
        else:
            g = _pow2_grid(True, 1.0, log_nx, 0, later_steps)
        t = g.control_times()
        if kind == "white-noise":
            # about a quarter of the update pairs of normal draws round
            rng = np.random.default_rng(3)
            controls = [rng.normal(size=t.size) for _ in range(3)]
        elif kind == "some-columns":
            rough = np.ones(t.size)
            rough[[2, 9, 10, 30]] = [1e-17, -0.0, 1e-300, 5e-324]
            controls = [np.linspace(1.0, 1.5, t.size), rough]
        else:
            pattern = [1.0, 1e-17, 3.0, -0.0, 2.0, 1e-300, 1.0, 0.0, 5e-324]
            controls = [np.resize(np.roll(pattern, k), t.size) for k in range(3)]
        rounded = []
        for values in controls:
            u = ControlSignal(t, values)
            outflow = upwind_solve(g, None, u).outflow
            assert outflow.tobytes() == _delayed(g, None, u).tobytes()
            march = oracles.strided_upwind(g, None, u)[1]
            rounded.append(outflow.tobytes() != march.tobytes())
        # a line of no cells has no update to round; on any other line the
        # march rounds these inputs, and a smooth control not at all
        expected = {"no-cells": [False] * 3, "some-columns": [False, True]}
        assert rounded == expected.get(kind, [True] * 3)


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
        g = Grid(2.0, 0.5, 5.0)
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
