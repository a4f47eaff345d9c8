"""Closed-form injection laws for three information levels.

All three laws inject the best available prediction of the demand one
transport delay ahead (the conditional mean given what the controller has
seen), differing only in how fresh that information is:

* ``cm1_control``  - no observations after start: predict from time 0.
* ``cm2_control``  - periodic observations: predict from the last update.
* ``cm3_control``  - continuous observation: predict from the current value.

The laws are pure formulas of parameters and observations; reading values
off a path and applying the transport delay is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import DemandParams
from .moments import conditional_mean, first_moment

__all__ = [
    "UpdateSchedule",
    "cm1_control",
    "cm2_control",
    "cm3_control",
]


def _aligned(times: np.ndarray, steps: np.ndarray, dt: float) -> bool:
    """Whether each update time lies within 1e-12 (relative beyond 1) of its
    lattice time ``dt * steps``: the slack of :func:`cm2_control`'s t >= t_hat
    check, which an update held from its own lattice step then passes."""
    return bool(np.all(np.abs(dt * steps - times) <= 1e-12 * np.maximum(1.0, times)))


@dataclass(frozen=True, eq=False)
class UpdateSchedule:
    """Observation instants on the control horizon, increasing from t_hat_0 = 0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("update schedule must start at t=0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("update times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def regular(cls, interval: float, control_end: float,
                lattice_dt: float | None = None) -> "UpdateSchedule":
        """Updates at 0, interval, 2*interval, ... within [0, control_end].

        When ``lattice_dt`` is given, the interval must be 1, 2, 3, ... lattice
        steps and each update within 1e-12 (relative beyond 1) of its lattice time.
        """
        if not 0 < interval < np.inf:
            raise ValueError("update interval must be finite and > 0")
        steps = 1 if lattice_dt is None else np.round(interval / lattice_dt)
        if steps >= 1:  # below one step, refused before its updates are built
            k = np.arange(int(np.floor(control_end / interval + 1e-9)) + 1)
            times = interval * k
            # the update at 0 is on the lattice even where steps overflowed to inf
            if lattice_dt is None or _aligned(times[1:], steps * k[1:], lattice_dt):
                return cls(times)
        raise ValueError(f"update interval {interval} is not a multiple (>= 1) of "
                         f"the lattice step {lattice_dt}")

    def last_index(self, t: float) -> int:
        """Index of the most recent update at or before ``t``."""
        if np.any(np.asarray(t) < -1e-12):
            raise ValueError("t must be >= 0")
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float) + 1e-12,
                              side="right") - 1
        return int(idx) if np.ndim(t) == 0 else idx

    def last_update(self, t: float) -> float:
        return float(self.times[self.last_index(t)])


def _check_horizon(t) -> None:
    if np.any(np.asarray(t, dtype=float) < 0):
        raise ValueError("control time must be >= 0")


def cm1_control(params: DemandParams, speed: float, t):
    """Optimal injection using start-time information only: the unconditional
    mean demand one transport delay ahead, E[Y_{t + 1/speed}]."""
    _check_horizon(t)
    return first_moment(params, np.asarray(t, dtype=float) + 1.0 / speed)


def cm2_control(params: DemandParams, speed: float, t, t_hat, y_obs):
    """Optimal injection given the demand ``y_obs`` observed at the last
    update ``t_hat``: E[Y_{t + 1/speed} | Y_{t_hat} = y_obs].

    ``t_hat`` may be a scalar or an array of the update in force at each
    control time in ``t``; ``y_obs`` broadcasts against them, so an (n, k)
    block of observations gives the (n, k) block of controls of n paths.
    """
    _check_horizon(t)
    if np.any(np.asarray(t, dtype=float) < t_hat - 1e-12 * np.maximum(1.0, t_hat)):
        raise ValueError("control time t must be >= the update time t_hat")
    return conditional_mean(params, t_hat, y_obs,
                            np.asarray(t, dtype=float) + 1.0 / speed)


def cm3_control(params: DemandParams, speed: float, t, y_now: float):
    """Optimal injection under continuous observation of the demand:
    E[Y_{t + 1/speed} | Y_t = y_now]."""
    _check_horizon(t)
    t = np.asarray(t, dtype=float)
    return conditional_mean(params, t, y_now, t + 1.0 / speed)
