"""Deterministic cost evaluation and control optimisation.

The expected squared tracking error E[(Y_t - y(t))^2] reduces to
E[Y_t^2] - 2 y(t) E[Y_t] + y(t)^2, so the stochastic tracking problem
becomes a deterministic one in the first two moments of the demand.  On a
delay-aligned lattice the outflow is the injection shifted by the transport
time, which makes the discretised objective a separable quadratic in the
control vector.  This module evaluates that cost (analytically and by Monte
Carlo), minimises it by gradient descent, and chains per-interval descents
when the demand is re-observed on a schedule.  The descent runs on the rows
of a block in lockstep, so the intervals of one length share one descent,
and each row still does exactly the arithmetic of a descent of its own.
The optimum has a closed form at each information level, the conditional
mean one delay ahead: the policies build it, and the descents are checked
against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .control import UpdateSchedule, _aligned, cm1_control, cm2_control, cm3_control
from .demand import DemandParams, DemandPath, MeanFunction, PathEnsemble
from .moments import conditional_variance, first_moment, second_moment
from .transport import ControlSignal, FieldState, Grid, upwind_solve

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
    "sequential_update_solve",
    "cumrmse_analytic",
]


# A forecast alone is a perfectly known demand: mean = forecast, variance = 0.
DemandModel = Union[DemandParams, MeanFunction]


@dataclass(frozen=True, eq=False)
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


def _require_lattice(times: np.ndarray, lattice: np.ndarray, what: str) -> None:
    """Refuse ``times`` unless they match ``lattice`` to 1e-9; equal arrays,
    the usual case, pass without the tolerance test."""
    if not (times.shape == lattice.shape and (np.array_equal(times, lattice) or
            np.allclose(times, lattice, rtol=0.0, atol=1e-9))):
        raise ValueError(f"{what} does not match the transport lattice")


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
    _require_lattice(u.times, grid.control_times(), "control signal")
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


@dataclass(frozen=True, eq=False)
class Cm2Policy:
    """Re-read the path at each scheduled update, hold the law in between."""

    params: DemandParams
    schedule: UpdateSchedule

    def control_block(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        ct = grid.control_times()
        obs_idx = _lattice_indices(self.schedule.times, grid, values.shape[1])
        # update j is observed at lattice step obs_idx[j] and holds until the next
        last = np.searchsorted(obs_idx, np.arange(ct.size), side="right") - 1
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
    if not _aligned(times, idx, grid.dt) or np.any(idx >= n_times):
        raise ValueError("times are not aligned with the path lattice")
    return idx


def _std(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """``a.std(axis, ddof=1)`` taken on ``a`` scaled by a power of two that
    brings its largest magnitude below 1, so that squaring the deviations
    of values that are already squares cannot overflow; scaling by a power
    of two is exact for normal numbers, so the result is too.

    The scaled copy is the only block allocated: numpy's ``_var`` steps run
    on it in place, in its order (sum with keepdims over the count,
    subtract, square, sum, over the count less one, square root), so the
    result is bitwise ``ndarray.std``'s.
    """
    _, e = np.frexp(max(a.max(), -a.min()))
    x = np.ldexp(a, -e)
    n = x.size if axis is None else x.shape[axis]
    mean = x.sum(axis=axis, keepdims=True)
    mean /= n
    x -= mean
    np.multiply(x, x, out=x)
    var = x.sum(axis=axis) / (n - 1)
    return np.ldexp(np.sqrt(var), e)


def _trapezoid_rows(y: np.ndarray, d: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``np.trapezoid(y, x, axis=1)`` with ``d = np.diff(x)``, its terms
    ``d * (y[:, 1:] + y[:, :-1]) / 2.0`` formed in the (n, k-1) ``buf`` by
    the same ufuncs in the same order, so bitwise equal."""
    np.add(y[:, 1:], y[:, :-1], out=buf)
    np.multiply(d, buf, out=buf)
    np.divide(buf, 2.0, out=buf)
    return np.add.reduce(buf, axis=1)


def mc_cost_estimate(paths: PathEnsemble, grid: Grid,
                     control: Union[ControlSignal, Policy]) -> CostReport:
    """Monte-Carlo tracking cost of a fixed control or of a causal policy.

    ``paths`` is a :class:`PathEnsemble` on the grid's time lattice; its
    (n, nt+1) value block is scored as it is.  A policy builds the controls
    of all paths as one (n, k) block; policies read the paths only through
    what their information level allows (CM2 at update times, CM3
    continuously) and always act one transport delay later.  The squared
    deviations of all paths then reduce to per-time means with standard
    errors; the cumrmse standard error comes from the delta method.

    The squared deviations are one row-major (n, k) block, squared and
    then weighted in place; the control block is released once they exist,
    and the standard deviations and both per-path trapezoids each take one
    more block, so at most two are alive at once.
    """
    if len(paths) < 2:
        raise ValueError("need at least 2 paths for a Monte-Carlo estimate")
    _require_lattice(paths.times, grid.times(), "path grid")
    values = paths.values
    if isinstance(control, ControlSignal):
        _require_lattice(control.times, grid.control_times(), "control signal")
        y = control.values
    else:
        y = control.control_block(values, grid)
    out_t = grid.output_times()
    n = values.shape[0]
    # row-major whatever the layout of values, so the reductions run in one order
    dev2 = np.subtract(values[:, grid.delay_steps:], y, out=np.empty((n, out_t.size)))
    del y
    np.square(dev2, out=dev2)

    per_time = dev2.mean(axis=0)
    per_time_se = _std(dev2, axis=0) / np.sqrt(n)
    d = np.diff(out_t)
    buf = np.empty((n, d.size))
    costs = _trapezoid_rows(dev2, d, buf)
    expected = float(costs.mean())
    expected_se = float(_std(costs) / np.sqrt(n))
    root = np.sqrt(per_time)
    cumrmse = float(np.trapezoid(root, out_t))
    # delta method: linearise sqrt(mean) around the per-time means
    slope = np.divide(0.5, root, out=np.zeros_like(root), where=root > 0)
    per_path_lin = _trapezoid_rows(np.multiply(dev2, slope, out=dev2), d, buf)
    cumrmse_se = float(_std(per_path_lin) / np.sqrt(n))
    return CostReport(expected_cost=expected, cumrmse=cumrmse, times=out_t,
                      per_time=per_time, per_time_se=per_time_se,
                      expected_cost_se=expected_se, cumrmse_se=cumrmse_se)


# ---------------------------------------------------------------------------
# Optimisation
# ---------------------------------------------------------------------------

def _descend(targets: np.ndarray, weights: np.ndarray,
             times: np.ndarray) -> np.ndarray:
    """Gradient descent with backtracking on J(u) = sum_k w_k (u_k - m_k)^2,
    run on each row of a (rows, L) block in lockstep.

    ``targets``, ``weights`` and ``times`` are (rows, L) blocks; ``times``
    are the lattice control times of the entries of ``u``.  The objective
    equals the discretised tracking cost up to a constant, so the
    line search behaves identically on either.  Each descent starts from
    zero; steps start at the inverse curvature bound and continue with
    Barzilai-Borwein estimates, each safeguarded by an Armijo backtracking
    search of at most 60 halvings.  A row that converges, or stops at an
    iterate whose objective is not finite (it overflowed), drops out; the
    others go on.  If any row stops without converging, it raises
    :class:`ConvergenceError` for the first such row, with its last finite
    iterate on its own ``times``.

    Every row does exactly the arithmetic of a descent on that row alone:
    row sums are ``sum(axis=1)`` and row dots ``np.vecdot``, which reduce a
    contiguous row in the order that ``sum`` and ``np.dot`` reduce it.  So
    rows of other lengths go to other calls: padding a shorter row with
    zeros would change how numpy's pairwise sum groups its terms (blocks of
    8, halved above 128 terms), and so the bits of its objective.
    """
    m, w = targets, weights
    out = np.empty(m.shape)
    rows = np.arange(m.shape[0])  # the block row of each row still running
    failed = {}  # block row -> (reason, last finite iterate, its gradient)

    def value(v: np.ndarray) -> np.ndarray:
        return (w * (v - m) ** 2).sum(axis=1)

    def fail(i: int, reason: str) -> None:
        ui, gi = u[i], g[i]
        if prev_u is not None and not np.all(np.isfinite(ui)):
            ui, gi = prev_u[i], prev_g[i]  # its objective was finite, so it is too
        failed[int(rows[i])] = (reason, ui, gi)

    u = np.zeros(m.shape)
    g = 2.0 * w * (u - m)
    step = 1.0 / (2.0 * w.max(axis=1))
    prev_u = prev_g = None
    for _ in range(_MAX_ITERS):
        j0 = value(u)
        done = np.abs(g).max(axis=1) < _GRAD_TOL
        stopped = ~done & ~np.isfinite(j0)
        keep = ~(done | stopped)
        if not keep.all():
            out[rows[done]] = u[done]
            for i in np.flatnonzero(stopped).tolist():
                fail(i, f"stopped at a non-finite objective ({float(j0[i])})")
            if not keep.any():
                break
            rows, m, w, u, g, j0, step = (
                a[keep] for a in (rows, m, w, u, g, j0, step))
            if prev_u is not None:
                prev_u, prev_g = prev_u[keep], prev_g[keep]
        if prev_u is not None:
            s = u - prev_u
            sy = np.vecdot(s, g - prev_g)
            np.divide(np.vecdot(s, s), sy, out=step, where=sy > 0)
        gg = np.vecdot(g, g)
        alpha = step.copy()
        searching = np.ones(rows.size, dtype=bool)
        for _ in range(60):
            trial = u - alpha[:, np.newaxis] * g
            searching &= ~(value(trial) <= j0 - _ARMIJO * alpha * gg)
            if not searching.any():
                break
            alpha[searching] *= _SHRINK
        prev_u, prev_g = u, g
        u = u - alpha[:, np.newaxis] * g
        g = 2.0 * w * (u - m)
    else:
        for i in range(rows.size):
            fail(i, f"did not reach tolerance {_GRAD_TOL} "
                    f"within {_MAX_ITERS} iterations")
    if not failed:
        return out
    row = min(failed)
    reason, u_row, g_row = failed[row]
    raise ConvergenceError(
        f"gradient descent {reason}",
        control=ControlSignal(times[row], u_row),
        grad_norm=float(np.abs(g_row).max()),
    )


def minimize_control(model: DemandModel, grid: Grid) -> ControlSignal:
    """Minimise the discretised tracking cost over the control vector.

    The objective is a separable quadratic, so its gradient is analytic;
    convergence is declared when the gradient sup-norm falls below
    ``_GRAD_TOL``.  Raises :class:`ConvergenceError` (with the last iterate
    attached) if ``_MAX_ITERS`` iterations do not reach it.
    """
    out_t = grid.output_times()
    m1 = np.asarray(_mean_series(model, out_t), dtype=float)
    weights = _trapezoid_weights(out_t)
    ct = grid.control_times()
    return ControlSignal(ct, _descend(m1[np.newaxis], weights[np.newaxis],
                                      ct[np.newaxis])[0])


def minimize_control_direct(model: DemandModel, grid: Grid) -> ControlSignal:
    """Closed-form minimiser: inject the mean demand one transport delay
    ahead.  Serves as the oracle for the iterative solver."""
    m1 = _mean_series(model, grid.output_times())
    return ControlSignal(grid.control_times(), np.asarray(m1, dtype=float))


# ---------------------------------------------------------------------------
# Sequential re-optimisation under demand updates
# ---------------------------------------------------------------------------

def sequential_update_solve(params: DemandParams, grid: Grid, schedule: UpdateSchedule,
                            path: DemandPath) -> tuple[ControlSignal, FieldState]:
    """Re-optimise the injection on each update interval of a realised path,
    and send it down the line with :func:`upwind_solve` from an empty line.

    On each interval the gradient descent minimises the tracking cost
    against the conditional mean one delay ahead, given the value observed
    at the interval's update.  :class:`Cm2Policy` is that law in closed
    form, and the descent is checked against it.  Each run of consecutive
    intervals of one length is one descent, over the (intervals, length)
    views of the control, weights and times; on a regular schedule that is
    every interval but a shorter last one.  An interval that fails raises
    :class:`ConvergenceError` as if the intervals ran one by one: the first
    to fail is named.
    """
    if grid.courant != 1.0:
        raise ValueError("sequential update solve requires a Courant-1 grid")
    _require_lattice(path.times, grid.times(), "path grid")
    upd = _lattice_indices(schedule.times, grid, path.times.size)
    if np.any(upd > grid.control_steps):
        raise ValueError("update times must lie on the control horizon")
    u = Cm2Policy(params, schedule).control_block(path.values[np.newaxis], grid)[0]
    ct = grid.control_times()
    weights = _trapezoid_weights(grid.output_times())
    lo = int(upd[0])
    for length, run in itertools.groupby(np.diff(np.append(upd, u.size)).tolist()):
        hi = lo + length * len(list(run))
        views = (a[lo:hi].reshape(-1, length) for a in (u, weights, ct))
        u[lo:hi] = _descend(*views).reshape(-1)
        lo = hi
    signal = ControlSignal(ct, u)
    return signal, upwind_solve(grid, None, signal)


# ---------------------------------------------------------------------------
# Analytic cumulative RMSE of the optimal laws
# ---------------------------------------------------------------------------

_POINTS_PER_SEGMENT = 801
# Most CM2 segments (update intervals within the horizon) one call builds:
# each takes about 50 us, so the cap bounds a call near a minute, and an
# interval far below the horizon is refused before its schedule is built.
_MAX_CM2_SEGMENTS = 10 ** 6


def cumrmse_analytic(params: DemandParams, speed: float, method: str,
                     horizon: float, update_interval: float | None = None) -> float:
    """Time integral of the root expected squared error of the optimal law.

    Under the optimal injection the expected squared error at output time t
    equals the conditional variance over the age of the information used:
    the full elapsed time for the no-update law, the time since the last
    update plus the delay for the scheduled law, and exactly the delay for
    the continuously informed law.  Integration is trapezoidal on segments
    split at the information-refresh instants, with 801 points on each; an
    update interval that would need more than ``_MAX_CM2_SEGMENTS`` of them
    raises ValueError.
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
        if horizon - delay > _MAX_CM2_SEGMENTS * update_interval > 0:
            raise ValueError(
                f"update_interval {update_interval} splits the horizon into "
                f"more than {_MAX_CM2_SEGMENTS} CM2 segments")
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
