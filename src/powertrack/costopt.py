"""Deterministic cost evaluation and control optimisation.

The expected squared tracking error E[(Y_t - y(t))^2] reduces to
E[Y_t^2] - 2 y(t) E[Y_t] + y(t)^2, so the stochastic tracking problem
becomes a deterministic one in the first two moments of the demand.  On a
delay-aligned lattice the outflow is the injection shifted by the transport
time, which makes the discretised objective a separable quadratic in the
control vector.  This module evaluates that cost (analytically and by Monte
Carlo), minimises it by gradient descent, and chains per-interval descents
when the demand is re-observed on a schedule.  The optimum has a closed form
at each information level, the conditional mean one delay ahead: the
policies build it, and the descents are checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .control import UpdateSchedule, cm1_control, cm2_control, cm3_control
from .demand import DemandParams, DemandPath, MeanFunction, PathEnsemble
from .moments import conditional_variance, first_moment, second_moment
from .transport import ControlSignal, FieldState, Grid, upwind_solve, validate_cfl

__all__ = [
    "CostReport",
    "ConvergenceError",
    "Cm1Policy",
    "Cm2Policy",
    "Cm3Policy",
    "deterministic_cost",
    "mc_cost_estimate",
    "minimize_control",
    "minimize_control_direct",
    "sequential_update_control",
    "sequential_update_solve",
    "cumrmse_analytic",
]


# A forecast alone is a perfectly known demand: mean = forecast, variance = 0.
DemandModel = Union[DemandParams, MeanFunction]


@dataclass(frozen=True)
class CostReport:
    """Time-integrated tracking cost over the scored window [1/speed, T].

    ``per_time`` holds E[(Y_t - y(t))^2] at the lattice times in ``times``;
    ``expected_cost`` integrates it and ``cumrmse`` integrates its square
    root.  Monte-Carlo estimates also carry standard errors.
    """

    expected_cost: float
    cumrmse: float
    times: np.ndarray
    per_time: np.ndarray
    per_time_se: np.ndarray | None = None
    expected_cost_se: float | None = None
    cumrmse_se: float | None = None


# Iteration budget, gradient sup-norm tolerance, Armijo sufficient-decrease
# constant and backtracking factor of the descent
_MAX_ITERS = 500
_GRAD_TOL = 1e-10
_ARMIJO = 1e-4
_SHRINK = 0.5


class ConvergenceError(RuntimeError):
    """Optimizer ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, control: ControlSignal, grad_norm: float):
        super().__init__(message)
        self.control = control
        self.grad_norm = grad_norm


# ---------------------------------------------------------------------------
# Mean series on the lattice
# ---------------------------------------------------------------------------

def _mean_series(model: DemandModel, out_t: np.ndarray) -> np.ndarray:
    """Unconditional mean of the demand at the output times ``out_t``."""
    if isinstance(model, DemandParams):
        return first_moment(model, out_t)
    return np.atleast_1d(np.asarray(model.at(out_t), dtype=float))


def _check_control_lattice(u: ControlSignal, grid: Grid) -> None:
    ct = grid.control_times()
    if u.times.shape != ct.shape or not np.allclose(u.times, ct, atol=1e-9):
        raise ValueError("control signal is not defined on the grid's control lattice")


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros(times.size)
    d = np.diff(times)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


# ---------------------------------------------------------------------------
# Cost evaluation
# ---------------------------------------------------------------------------

def deterministic_cost(model: DemandModel, grid: Grid, u: ControlSignal) -> CostReport:
    """Exact expected tracking cost of a fixed injection plan.

    ``model`` is a stochastic demand, or a forecast alone, which is scored
    as a perfectly known demand.  The injection is propagated as an exact
    shift (outflow at t equals the injection at t - 1/speed), the
    squared-error integrand is evaluated from the closed-form moments at
    every scored lattice time, and both the cost and its square root are
    integrated by the trapezoid rule.
    """
    _check_control_lattice(u, grid)
    out_t = grid.output_times()
    m1 = _mean_series(model, out_t)
    m2 = (second_moment(model, out_t) if isinstance(model, DemandParams)
          else m1 ** 2)
    y = u.values
    per_time = m2 - 2.0 * y * m1 + y ** 2
    expected = float(np.trapezoid(per_time, out_t))
    cumrmse = float(np.trapezoid(np.sqrt(np.maximum(per_time, 0.0)), out_t))
    return CostReport(expected_cost=expected, cumrmse=cumrmse,
                      times=out_t, per_time=per_time)


def _control_for(self, path: DemandPath, grid: Grid) -> ControlSignal:
    """The policy's control on one path: row 0 of its block over that path."""
    return ControlSignal(grid.control_times(),
                         self.control_block(path.values[np.newaxis], grid)[0])


# Each policy maps an (n, nt+1) block of path values to an (n, k) block of
# controls on the control lattice; ``control_for`` is row 0 of that block.

@dataclass(frozen=True)
class Cm1Policy:
    """Apply the no-update law: injection fixed at start time."""

    params: DemandParams

    def control_block(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        ct = grid.control_times()
        u = cm1_control(self.params, grid.speed, ct)
        return np.broadcast_to(u, (values.shape[0], ct.size))

    control_for = _control_for


@dataclass(frozen=True)
class Cm2Policy:
    """Re-read the path at each scheduled update, hold the law in between."""

    params: DemandParams
    schedule: UpdateSchedule

    def control_block(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        ct = grid.control_times()
        obs_idx = _lattice_indices(self.schedule.times, grid, values.shape[1])
        last = self.schedule.last_index(ct)
        return cm2_control(self.params, grid.speed, ct, self.schedule.times[last],
                           values[:, obs_idx[last]])

    control_for = _control_for


@dataclass(frozen=True)
class Cm3Policy:
    """Read the path continuously; injections still act one delay later."""

    params: DemandParams

    def control_block(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        ct = grid.control_times()
        return cm3_control(self.params, grid.speed, ct, values[:, :ct.size])

    control_for = _control_for


Policy = Union[Cm1Policy, Cm2Policy, Cm3Policy]


def _lattice_indices(times: np.ndarray, grid: Grid, n_times: int) -> np.ndarray:
    idx = np.round(np.asarray(times, dtype=float) / grid.dt).astype(int)
    if np.any(np.abs(idx * grid.dt - times) > 1e-9) or np.any(idx >= n_times):
        raise ValueError("times are not aligned with the path lattice")
    return idx


def _check_path_lattice(path_times: np.ndarray, grid_times: np.ndarray) -> None:
    if path_times.shape != grid_times.shape or not np.allclose(
            path_times, grid_times, atol=1e-9):
        raise ValueError("path grid does not match the transport lattice")


def mc_cost_estimate(paths: PathEnsemble, grid: Grid,
                     control: Union[ControlSignal, Policy]) -> CostReport:
    """Monte-Carlo tracking cost of a fixed control or of a causal policy.

    ``paths`` is a :class:`PathEnsemble` on the grid's time lattice; its
    (n, nt+1) value block is scored as it is.  A policy builds the controls
    of all paths as one (n, k) block; policies read the paths only through
    what their information level allows (CM2 at update times, CM3
    continuously) and always act one transport delay later.  The squared deviations of all
    paths then reduce to per-time means with standard errors; the cumrmse
    standard error comes from the delta method.
    """
    if len(paths) < 2:
        raise ValueError("need at least 2 paths for a Monte-Carlo estimate")
    _check_path_lattice(paths.times, grid.times())
    values = paths.values
    if isinstance(control, ControlSignal):
        _check_control_lattice(control, grid)
        y = control.values
    else:
        y = control.control_block(values, grid)
    out_t = grid.output_times()
    n = values.shape[0]
    dev2 = (values[:, grid.delay_steps:] - y) ** 2

    per_time = dev2.mean(axis=0)
    per_time_se = dev2.std(axis=0, ddof=1) / np.sqrt(n)
    costs = np.trapezoid(dev2, out_t, axis=1)
    expected = float(costs.mean())
    expected_se = float(costs.std(ddof=1) / np.sqrt(n))
    root = np.sqrt(per_time)
    cumrmse = float(np.trapezoid(root, out_t))
    # delta method: linearise sqrt(mean) around the per-time means
    slope = np.divide(0.5, root, out=np.zeros_like(root), where=root > 0)
    per_path_lin = np.trapezoid(dev2 * slope, out_t, axis=1)
    cumrmse_se = float(per_path_lin.std(ddof=1) / np.sqrt(n))
    return CostReport(expected_cost=expected, cumrmse=cumrmse, times=out_t,
                      per_time=per_time, per_time_se=per_time_se,
                      expected_cost_se=expected_se, cumrmse_se=cumrmse_se)


# ---------------------------------------------------------------------------
# Optimisation
# ---------------------------------------------------------------------------

def _descend(targets: np.ndarray, weights: np.ndarray,
             times: np.ndarray) -> np.ndarray:
    """Gradient descent with backtracking on J(u) = sum_k w_k (u_k - m_k)^2.

    ``times`` are the lattice control times of the entries of ``u``.  The
    objective equals the discretised tracking cost up to a constant, so the
    line search behaves identically on either.  The descent starts from
    zero; steps start at the inverse curvature bound and continue with
    Barzilai-Borwein estimates, each safeguarded by an Armijo backtracking
    search of at most 60 halvings.  If the budget runs out, or at the first
    iterate whose objective is not finite (it overflowed), it raises
    :class:`ConvergenceError` with the last finite iterate on ``times``.
    """
    u = np.zeros(targets.size)

    def value(v: np.ndarray) -> float:
        return float(np.sum(weights * (v - targets) ** 2))

    def gradient(v: np.ndarray) -> np.ndarray:
        return 2.0 * weights * (v - targets)

    step = 1.0 / (2.0 * float(np.max(weights)))
    g = gradient(u)
    prev_u = prev_g = None
    reason = (f"did not reach tolerance {_GRAD_TOL} "
              f"within {_MAX_ITERS} iterations")
    for _ in range(_MAX_ITERS):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < _GRAD_TOL:
            return u
        j0 = value(u)
        if not math.isfinite(j0):
            reason = f"stopped at a non-finite objective ({j0})"
            break
        if prev_u is not None:
            s = u - prev_u
            yv = g - prev_g
            sy = float(np.dot(s, yv))
            if sy > 0:
                step = float(np.dot(s, s)) / sy
        gg = float(np.dot(g, g))
        alpha = step
        for _ in range(60):
            trial = u - alpha * g
            if value(trial) <= j0 - _ARMIJO * alpha * gg:
                break
            alpha *= _SHRINK
        prev_u, prev_g = u, g
        u = u - alpha * g
        g = gradient(u)
    if prev_u is not None and not np.all(np.isfinite(u)):
        u, g = prev_u, prev_g  # its objective was finite, so it is too
    raise ConvergenceError(
        f"gradient descent {reason}",
        control=ControlSignal(times, u),
        grad_norm=float(np.max(np.abs(g))),
    )


def minimize_control(model: DemandModel, grid: Grid) -> ControlSignal:
    """Minimise the discretised tracking cost over the control vector.

    The objective is a separable quadratic, so its gradient is analytic;
    convergence is declared when the gradient sup-norm falls below
    ``_GRAD_TOL``.  Raises :class:`ConvergenceError` (with the last iterate
    attached) if ``_MAX_ITERS`` iterations do not reach it.
    """
    validate_cfl(grid)
    out_t = grid.output_times()
    m1 = _mean_series(model, out_t)
    weights = _trapezoid_weights(out_t)
    ct = grid.control_times()
    return ControlSignal(ct, _descend(np.asarray(m1, dtype=float), weights, ct))


def minimize_control_direct(model: DemandModel, grid: Grid) -> ControlSignal:
    """Closed-form minimiser: inject the mean demand one transport delay
    ahead.  Serves as the oracle for the iterative solver."""
    m1 = _mean_series(model, grid.output_times())
    return ControlSignal(grid.control_times(), np.asarray(m1, dtype=float))


# ---------------------------------------------------------------------------
# Sequential re-optimisation under demand updates
# ---------------------------------------------------------------------------

def sequential_update_control(params: DemandParams, grid: Grid, schedule: UpdateSchedule,
                              path: DemandPath) -> ControlSignal:
    """Re-optimise the injection on each update interval of a realised path.

    On each interval the gradient descent minimises the tracking cost
    against the conditional mean one delay ahead, given the value observed
    at the interval's update.  :class:`Cm2Policy` is that law in closed
    form, and the descent is checked against it.
    """
    if abs(grid.courant - 1.0) > 1e-9:
        raise ValueError("sequential update solve requires a Courant-1 grid")
    _check_path_lattice(path.times, grid.times())
    upd = _lattice_indices(schedule.times, grid, path.times.size)
    if np.any(upd > grid.control_steps):
        raise ValueError("update times must lie on the control horizon")
    u = Cm2Policy(params, schedule).control_block(path.values[np.newaxis], grid)[0]
    ct = grid.control_times()
    weights = _trapezoid_weights(grid.output_times())
    bounds = np.append(upd, u.size).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        u[a:b] = _descend(u[a:b], weights[a:b], ct[a:b])
    return ControlSignal(ct, u)


def sequential_update_solve(params: DemandParams, grid: Grid, schedule: UpdateSchedule,
                            path: DemandPath) -> tuple[ControlSignal, FieldState]:
    """:func:`sequential_update_control` and its :func:`upwind_solve` from an
    empty line; :func:`upwind_outflows` marches outflows of many at once."""
    signal = sequential_update_control(params, grid, schedule, path)
    return signal, upwind_solve(grid, None, signal)


# ---------------------------------------------------------------------------
# Analytic cumulative RMSE of the optimal laws
# ---------------------------------------------------------------------------

_POINTS_PER_SEGMENT = 801


def cumrmse_analytic(params: DemandParams, speed: float, method: str,
                     horizon: float, update_interval: float | None = None) -> float:
    """Time integral of the root expected squared error of the optimal law.

    Under the optimal injection the expected squared error at output time t
    equals the conditional variance over the age of the information used:
    the full elapsed time for the no-update law, the time since the last
    update plus the delay for the scheduled law, and exactly the delay for
    the continuously informed law.  Integration is trapezoidal on segments
    split at the information-refresh instants, with 801 points on each.
    """
    delay = 1.0 / speed
    if horizon <= delay:
        raise ValueError("horizon must exceed the transport delay 1/speed")
    method = method.upper()
    if method == "CM1":
        segments = [(delay, horizon, 0.0)]
    elif method == "CM3":
        segments = [(delay, horizon, None)]
    elif method == "CM2":
        if update_interval is None:
            raise ValueError("CM2 needs an update interval")
        sched = UpdateSchedule.regular(update_interval, horizon - delay)
        segments = []
        for i, t_hat in enumerate(sched.times):
            a = t_hat + delay
            b = sched.times[i + 1] + delay if i + 1 < sched.times.size else horizon
            b = min(b, horizon)
            if b > a:
                segments.append((a, b, float(t_hat)))
    else:
        raise ValueError("method must be 'CM1', 'CM2' or 'CM3'")

    total = 0.0
    for a, b, t_hat in segments:
        t = np.linspace(a, b, _POINTS_PER_SEGMENT)
        span = np.full_like(t, delay) if t_hat is None else t - t_hat
        total += float(np.trapezoid(
            np.sqrt(conditional_variance(params, span)), t))
    return total
