"""Linear advection of injected power along the unit line.

The state z(x, t) obeys z_t + speed * z_x = 0 on (0, 1) with inflow boundary
z(0, t) = u(t) and initial profile z(x, 0) = z0(x).  The outflow y(t) =
z(1, t) therefore reproduces the inflow delayed by the transport time
1/speed.  A left-sided upwind scheme discretises the dynamics; at Courant
number exactly 1 the scheme is an exact shift, which is the default grid
construction.  Sub-unit Courant numbers are supported for convergence
experiments only.

The scheme marches one contiguous state vector over the spatial lattice and
keeps only the outflow.  The space-time field is built on its first read, by
the same march, so callers that need only the outflow never hold a field;
several such solves march as the columns of one block (:func:`upwind_outflows`).
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
    "upwind_outflows",
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

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt + 1)

    def control_times(self) -> np.ndarray:
        """Lattice times of the control horizon [0, T - 1/speed]."""
        return self.dt * np.arange(self.control_steps + 1)

    def output_times(self) -> np.ndarray:
        """Lattice times of the scored outflow window [1/speed, T]."""
        return self.dt * np.arange(self.delay_steps, self.nt + 1)


@dataclass(frozen=True)
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


def _march(c: float, z0: np.ndarray, boundary: np.ndarray,
           rows: np.ndarray | None = None) -> np.ndarray:
    """March the upwind scheme from ``z0`` with inflow ``boundary`` and
    return the outflow; with ``rows``, also store each time level in
    ``rows[i]``.  Both the outflow and the field come from this one loop,
    so they agree bit for bit.  A trailing batch axis on ``z0`` and
    ``boundary`` marches several solves elementwise alike; at ``c == 1.0``
    the scaling is skipped, since ``x * 1.0 == x`` exactly."""
    x = z0.copy()
    x[0] = boundary[0]  # inflow boundary wins at the (0, 0) corner
    inner, left = x[1:], x[:-1]  # views made once, not per step
    tmp = np.empty(inner.shape)
    outflow = np.empty(boundary.shape)
    outflow[0] = x[-1]
    if rows is not None:
        rows[0] = x
    for i in range(1, boundary.shape[0]):
        np.subtract(inner, left, out=tmp)
        if c != 1.0:
            tmp *= c
        inner -= tmp
        x[0] = boundary[i]
        outflow[i] = x[-1]
        if rows is not None:
            rows[i] = x
    return outflow


@dataclass(frozen=True)
class FieldState:
    """Outflow of an upwind solve, with the field on demand.

    ``z[j, i]`` is the field over (space x time).  Its first read re-runs the
    march from the initial profile and inflow boundary copied at solve time.
    """

    outflow: np.ndarray
    grid: Grid
    _z0: np.ndarray
    _boundary: np.ndarray

    @functools.cached_property
    def z(self) -> np.ndarray:
        rows = np.empty((self.grid.nt + 1, self.grid.nx + 1))
        _march(self.grid.courant, self._z0, self._boundary, rows)
        return rows.T


def validate_cfl(grid: Grid) -> float:
    """Return the Courant number; raise :class:`CFLError` if it exceeds 1."""
    c = grid.courant
    if c > 1.0 + 1e-12:
        raise CFLError(c)
    return c


def upwind_solve(grid: Grid, z0, u: ControlSignal) -> FieldState:
    """March the left-sided upwind scheme

        z_j^{i+1} = z_j^i - c (z_j^i - z_{j-1}^i),   c = speed dt / dx,

    with boundary z_0^i = u(tau_i) and initial profile ``z0`` (array on the
    spatial lattice, or None for an empty line).  Only the outflow z_{nx}^i
    is kept; the field ``z`` of the result is built on first read.
    """
    c = validate_cfl(grid)
    if z0 is None:
        z0 = np.zeros(grid.nx + 1)
    z0 = np.array(z0, dtype=float)  # a copy: the field may be built later
    if z0.shape != (grid.nx + 1,):
        raise ValueError(f"z0 must have {grid.nx + 1} lattice values")
    boundary = np.array(np.atleast_1d(u.at(grid.times())), dtype=float)
    return FieldState(outflow=_march(c, z0, boundary), grid=grid,
                      _z0=z0, _boundary=boundary)


def upwind_outflows(grid: Grid, controls) -> np.ndarray:
    """(m, nt+1) outflows of ``m`` controls down an empty line, from one
    march; row ``k`` is ``upwind_solve(grid, None, controls[k]).outflow`` bit
    for bit.  ``controls`` is sized, so the boundary block is allocated once;
    a lazy sequence streams into it, holding one control at a time."""
    c = validate_cfl(grid)
    times = grid.times()
    boundary = np.fromiter((u.at(times) for u in controls), (float, times.size), len(controls))
    return _march(c, np.zeros((grid.nx + 1, len(boundary))), boundary.T).T
