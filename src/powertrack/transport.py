"""Linear advection of injected power along the unit line.

The state z(x, t) obeys z_t + speed * z_x = 0 on (0, 1) with inflow boundary
z(0, t) = u(t) and initial profile z(x, 0) = z0(x).  The outflow y(t) =
z(1, t) therefore reproduces the inflow delayed by the transport time
1/speed.  A left-sided upwind scheme discretises the dynamics.  At Courant
number exactly 1, the default grid construction, the scheme is that delay:
each value moves one cell per time step, so the solve returns the delay
line (the initial profile read from the outflow end, then the inflow)
without marching.  A march would compute each update as x - (x - y), which
is y in exact arithmetic but not always in doubles (x = 1.0 and y = 1e-17
give 0.0); the delay line carries y.  Sub-unit Courant numbers, supported
for convergence experiments only, march one contiguous state vector over
the spatial lattice and keep only the outflow.  The space-time field is
built on its first read, so callers that need only the outflow never hold
a field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CFLError",
    "Grid",
    "ControlSignal",
    "FieldState",
    "validate_cfl",
    "upwind_solve",
]


class CFLError(ValueError):
    """Time step too large for the spatial step; carries the Courant number."""

    def __init__(self, courant: float):
        super().__init__(f"CFL condition violated: Courant number {courant} > 1")
        self.courant = courant


def _near_int(x: float, tol: float = 1e-9) -> int:
    n = round(x)
    if abs(x - n) > tol * max(1.0, abs(x)):
        raise ValueError(f"{x} is not an integer multiple within tolerance")
    return int(n)


@dataclass(frozen=True)
class Grid:
    """Space-time lattice for the advection solve.

    ``dx`` must divide the unit line and the transport delay 1/speed must be
    an integer number of time steps, so that injection decisions line up with
    the delayed outflow they produce.
    """

    speed: float
    dx: float
    dt: float
    nx: int
    nt: int
    horizon: float

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("transport speed must be > 0")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("grid steps must be > 0")
        if self.nx != _near_int(1.0 / self.dx):
            raise ValueError("dx must divide the unit line: nx = 1/dx")
        if self.nt != _near_int(self.horizon / self.dt):
            raise ValueError("dt must divide the horizon: nt = horizon/dt")
        _near_int(self.delay / self.dt)  # delay must sit on the time lattice
        if self.horizon <= self.delay:
            raise ValueError("horizon must exceed the transport delay 1/speed")

    @classmethod
    def make(cls, speed: float, dx: float, horizon: float,
             courant: float = 1.0) -> "Grid":
        """Build a lattice with the given Courant number (default exactly 1,
        which makes the upwind solve an exact delay)."""
        if not (0 < courant <= 1.0):
            raise CFLError(courant)
        for name, value in (("transport speed", speed), ("dx", dx),
                            ("horizon", horizon)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")
        dt = courant * dx / speed
        return cls(speed=speed, dx=dx, dt=dt, nx=_near_int(1.0 / dx),
                   nt=_near_int(horizon / dt), horizon=horizon)

    @property
    def courant(self) -> float:
        """speed dt / dx, and exactly 1.0 when dt is dx / speed as
        :meth:`make` builds it by default: the product need not round back
        to 1, and the solve reads the delay line only at exactly 1.0."""
        if self.dt == self.dx / self.speed:
            return 1.0
        return self.speed * self.dt / self.dx

    @property
    def delay(self) -> float:
        """Transport time from inflow to outflow."""
        return 1.0 / self.speed

    @property
    def delay_steps(self) -> int:
        return _near_int(self.delay / self.dt)

    @property
    def control_steps(self) -> int:
        """Index of the last control time T - 1/speed on the time lattice."""
        return self.nt - self.delay_steps

    @functools.cached_property
    def _lattice(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The time lattice dt * i, built on first use and read-only, with
        its control and output windows as views of it; each window has the
        bits of dt * np.arange over its own index range."""
        times = self.dt * np.arange(self.nt + 1)
        times.flags.writeable = False
        return times, times[:self.control_steps + 1], times[self.delay_steps:]

    def times(self) -> np.ndarray:
        """Lattice times of the whole horizon [0, T] (read-only)."""
        return self._lattice[0]

    def control_times(self) -> np.ndarray:
        """Lattice times of the control horizon [0, T - 1/speed] (read-only)."""
        return self._lattice[1]

    def output_times(self) -> np.ndarray:
        """Lattice times of the scored outflow window [1/speed, T] (read-only)."""
        return self._lattice[2]


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Injection values on lattice times, applied piecewise-constant-left.

    Values are held from each knot until the next one (decisions take effect
    at the left endpoint); past the last knot the final value is held, which
    only ever feeds lattice cells whose outflow falls beyond the horizon.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if times.shape != values.shape or times.ndim != 1 or times.size == 0:
            raise ValueError("control times and values must be matching 1-d arrays")
        if np.any(np.diff(times) <= 0):
            raise ValueError("control times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def at(self, t):
        """Evaluate the signal at time(s) ``t``."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.times[0] - 1e-12):
            raise ValueError("control signal evaluated before its first knot")
        idx = np.searchsorted(self.times, t + 1e-12, side="right") - 1
        out = self.values[np.clip(idx, 0, self.values.size - 1)]
        return float(out) if out.ndim == 0 else out


def _delay_line(z0: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """What each characteristic carries, outflow end first: z0[nx], ...,
    z0[1], then the inflow (the corner takes boundary[0], so z0[0] never
    leaves).  At Courant 1, level i of the field is ``w[nx-j+i]`` at cell j,
    and the outflow is the first nt+1 entries."""
    return np.concatenate((z0[:0:-1], boundary))


def _march(c: float, z0: np.ndarray, boundary: np.ndarray,
           rows: np.ndarray | None = None) -> np.ndarray:
    """March the upwind scheme below Courant 1 from ``z0`` with inflow
    ``boundary`` and return the outflow; with ``rows``, also store each time
    level in ``rows[i]``."""
    n = boundary.size
    x = z0.copy()
    x[0] = boundary[0]  # inflow boundary wins at the (0, 0) corner
    inner, left = x[1:], x[:-1]  # views made once, not per step
    tmp = np.empty(inner.shape)
    outflow = np.empty(n)
    outflow[0] = x[-1]
    if rows is not None:
        rows[0] = x
    for i in range(1, n):
        np.subtract(inner, left, out=tmp)
        tmp *= c
        inner -= tmp
        x[0] = boundary[i]
        outflow[i] = x[-1]
        if rows is not None:
            rows[i] = x
    return outflow


@dataclass(frozen=True, eq=False)
class FieldState:
    """Outflow of an upwind solve, with the field on demand.

    ``z[j, i]`` is the field over (space x time), built on first read from
    the initial profile and inflow boundary copied at solve time.  At
    Courant 1 it is a read-only view of the delay line, z[j, i] = w[nx-j+i],
    which copies nothing; below Courant 1 it is marched.
    """

    outflow: np.ndarray
    grid: Grid
    _z0: np.ndarray
    _boundary: np.ndarray

    @functools.cached_property
    def z(self) -> np.ndarray:
        g = self.grid
        if g.courant == 1.0:
            w = _delay_line(self._z0, self._boundary)
            return np.lib.stride_tricks.sliding_window_view(w, g.nt + 1)[::-1]
        rows = np.empty((g.nt + 1, g.nx + 1))
        _march(g.courant, self._z0, self._boundary, rows)
        return rows.T


def validate_cfl(grid: Grid) -> float:
    """Return the Courant number; raise :class:`CFLError` if it exceeds 1."""
    c = grid.courant
    if c > 1.0 + 1e-12:
        raise CFLError(c)
    return c


def _inflow(grid: Grid, u: ControlSignal) -> np.ndarray:
    """``u.at(grid.times())``, as a fresh array.

    A control whose k knots are exactly the grid's first k times feeds
    lattice time i from knot min(i, k - 1), so its values are read by index,
    with the last one held, instead of searched.  That is what ``at``
    returns whenever its 1e-12 tolerance cannot reach the next knot: the
    knots are at least dt less two roundings apart, and ``t + 1e-12``
    rounds by at most one more spacing of the largest lattice time, so
    ``dt > 1e-12 + 4 * spacing`` suffices.  Every other control goes
    through ``at``.
    """
    times = grid.times()
    k = u.times.size
    if (grid.dt > 1e-12 + 4.0 * np.spacing(times[-1])
            and np.array_equal(u.times, times[:k])):
        boundary = np.empty(times.size)
        boundary[:k] = u.values
        boundary[k:] = u.values[-1]
        return boundary
    return np.array(np.atleast_1d(u.at(times)), dtype=float)


def upwind_solve(grid: Grid, z0, u: ControlSignal) -> FieldState:
    """Solve the left-sided upwind scheme

        z_j^{i+1} = z_j^i - c (z_j^i - z_{j-1}^i),   c = speed dt / dx,

    with boundary z_0^i = u(tau_i) and initial profile ``z0`` (array on the
    spatial lattice, or None for an empty line).  At c == 1 this is the
    exact delay z_j^{i+1} = z_{j-1}^i, and the outflow z_{nx}^i is read off
    the delay line; below 1 it is marched.  Only the outflow is kept; the
    field ``z`` of the result is built on first read.
    """
    c = validate_cfl(grid)
    if z0 is None:
        z0 = np.zeros(grid.nx + 1)
    z0 = np.array(z0, dtype=float)  # a copy: the field may be built later
    if z0.shape != (grid.nx + 1,):
        raise ValueError(f"z0 must have {grid.nx + 1} lattice values")
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial profile values must be finite")
    boundary = _inflow(grid, u)
    outflow = (_delay_line(z0, boundary)[:boundary.size] if c == 1.0
               else _march(c, z0, boundary))
    return FieldState(outflow=outflow, grid=grid, _z0=z0, _boundary=boundary)

