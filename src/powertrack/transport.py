"""Linear advection of injected power along the unit line.

The state z(x, t) obeys z_t + speed * z_x = 0 on (0, 1) with inflow boundary
z(0, t) = u(t) and initial profile z(x, 0) = z0(x).  The outflow y(t) =
z(1, t) therefore reproduces the inflow delayed by the transport time
1/speed.  A left-sided upwind scheme discretises the dynamics on a
:class:`Grid` of speed, dx, horizon and Courant number.  At Courant number
exactly 1, the default, the scheme is that delay: each value moves one cell
per time step, so the solve returns the delay line (the initial profile read
from the outflow end, then the inflow) without marching.  A march would
compute each update as x - (x - y), which is y in exact arithmetic but not
always in doubles (x = 1.0 and y = 1e-17 give 0.0); the delay line carries
y.  Sub-unit Courant numbers, supported for convergence experiments only,
march one contiguous state vector over the spatial lattice and keep only the
outflow.  The space-time field is built on its first read, so callers that
need only the outflow never hold a field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CFLError",
    "Grid",
    "ControlSignal",
    "FieldState",
    "upwind_solve",
]


class CFLError(ValueError):
    """Courant number outside (0, 1]; carries the Courant number."""

    def __init__(self, courant: float):
        super().__init__(f"Courant number {courant!r} outside (0, 1]")
        self.courant = courant


def _whole(x: float, requirement: str, ratio: str) -> int:
    """``x`` rounded, if it is within 1e-9 relative of a whole number."""
    if math.isfinite(x) and abs(x - round(x)) <= 1e-9 * max(1.0, abs(x)):
        return round(x)
    raise ValueError(f"{requirement}: {ratio} = {x!r} is not a whole number")


@dataclass(frozen=True)
class Grid:
    """Space-time lattice for the advection solve, fixed by its four inputs.

    ``dx`` must divide the unit line, and the horizon and the delay 1/speed
    must be whole numbers of time steps dt = courant dx / speed, so that
    injection decisions line up with the delayed outflow they produce.
    ``dt``, ``nx``, ``nt`` and ``delay_steps`` are derived on construction.
    An input that fits no lattice raises ``ValueError``, whose message starts
    with its name; a Courant number outside (0, 1] raises :class:`CFLError`.
    """

    speed: float
    dx: float
    horizon: float
    courant: float = 1.0
    dt: float = field(init=False)
    nx: int = field(init=False)
    nt: int = field(init=False)
    delay_steps: int = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.courant <= 1.0):
            raise CFLError(self.courant)
        for name in ("speed", "dx", "horizon"):
            value = getattr(self, name)
            if value is None or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        dt = self.courant * self.dx / self.speed
        for name, value in (
                ("dt", dt),
                ("nx", _whole(1.0 / self.dx, "dx must divide the unit line", "1/dx")),
                ("nt", _whole(self.horizon / dt, "horizon must be a whole number "
                                                 "of time steps", "horizon/dt")),
                ("delay_steps", _whole(self.delay / dt, "dx must put the delay "
                                       "1/speed on the time lattice", "delay/dt"))):
            object.__setattr__(self, name, value)
        if self.horizon <= self.delay:
            raise ValueError("horizon must exceed the transport delay 1/speed")

    @property
    def delay(self) -> float:
        """Transport time from inflow to outflow."""
        return 1.0 / self.speed

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

        z_j^{i+1} = z_j^i - c (z_j^i - z_{j-1}^i),   c = grid.courant,

    with boundary z_0^i = u(tau_i) and initial profile ``z0`` (array on the
    spatial lattice, or None for an empty line).  At c == 1 this is the
    exact delay z_j^{i+1} = z_{j-1}^i, and the outflow z_{nx}^i is read off
    the delay line; below 1 it is marched.  Only the outflow is kept; the
    field ``z`` of the result is built on first read.
    """
    c = grid.courant
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

