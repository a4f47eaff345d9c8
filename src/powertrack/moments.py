"""Closed-form moments of the jump-diffusion demand process.

All quantities follow from the explicit solution of the SDE.  The one
derivation is the Markov restart: given Y_{t0} = y, the conditional mean is
the decayed observation plus the weighted mean integral plus the mean of
the decayed jump sum, and the conditional variance adds the diffusion
variance to the variance of the decayed jump sum.  The unconditional
moments restart from the fixed Y_0 = y0: E[Y_t] is the conditional mean
from time 0, and E[Y_t^2] = Var[Y_t] + E[Y_t]^2.  Setting the jump height
moments to zero collapses everything to the pure-diffusion formulas.

Near-zero time spans are evaluated with expm1 so that 1 - e^{-kappa dt}
never suffers catastrophic cancellation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .demand import DemandParams, JumpSpec, MeanFunction

__all__ = [
    "JumpMoments",
    "weighted_mean_integral",
    "jump_sum_moments",
    "first_moment",
    "conditional_mean",
    "second_moment",
    "conditional_variance",
]


class JumpMoments(NamedTuple):
    mean: float
    second_moment: float


def _as_times(t, lower=0.0, name: str = "t"):
    t = np.asarray(t, dtype=float)
    if np.any(t < lower):
        raise ValueError(f"{name} must be >= {lower}")
    return t


def weighted_mean_integral(mean: MeanFunction, kappa: float, t0, t):
    """kappa * int_{t0}^{t} exp(-kappa (t - s)) mu(s) ds.

    Closed form for all three forecasts: constant, sinusoidal and tabulated
    (piecewise linear, integrated exactly segment by segment).
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    t0a = np.asarray(t0, dtype=float)
    ta = np.asarray(t, dtype=float)
    if np.any(ta < t0a):
        raise ValueError("t must be >= t0")
    return mean.weighted_integral(kappa, t0, t)


def _jump_mean(jump: JumpSpec, kappa: float, one_minus):
    """gbar (nu / kappa) (1 - e^{-kappa delta}), given its last factor."""
    return jump.height_law.mean * (jump.intensity / kappa) * one_minus


def jump_sum_moments(jump: JumpSpec, kappa: float, delta) -> JumpMoments:
    """Mean and second moment of sum_i gamma_i e^{-kappa (delta - t_i)} over a
    span of length ``delta`` with Poisson(nu * delta) events at uniform times.

        mean = gbar (nu / kappa) (1 - e^{-kappa delta})
        E[.^2] = nu (1 - e^{-2 kappa delta}) / (2 kappa) E[gamma^2]
                 + nu^2 (1 - e^{-kappa delta})^2 / kappa^2 gbar^2
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    delta = _as_times(delta, name="delta")
    nu = jump.intensity
    gbar = jump.height_law.mean
    g2 = jump.height_law.mean_square
    one_minus = -np.expm1(-kappa * delta)          # 1 - e^{-kappa delta}
    one_minus2 = -np.expm1(-2.0 * kappa * delta)   # 1 - e^{-2 kappa delta}
    mean = _jump_mean(jump, kappa, one_minus)
    second = nu * one_minus2 / (2.0 * kappa) * g2
    # the ratio is squared, not its parts: at tiny kappa one_minus ** 2 and
    # kappa ** 2 both underflow, to 0/0
    if gbar != 0.0:
        second = second + (nu ** 2) * (one_minus / kappa) ** 2 * gbar ** 2
    if mean.ndim == 0:
        return JumpMoments(float(mean), float(second))
    return JumpMoments(mean, second)


def first_moment(params: DemandParams, t):
    """E[Y_t], the conditional mean restarted from Y_0 = y0 at time 0."""
    return conditional_mean(params, 0.0, params.y0, _as_times(t))


def conditional_mean(params: DemandParams, t0, y_t0, t):
    """E[Y_t | Y_{t0} = y_t0], the Markov restart of the first moment."""
    t0a = _as_times(t0, name="t0")
    ta = np.asarray(t, dtype=float)
    if np.any(ta < t0a):
        raise ValueError("t must be >= t0")
    # -kappa (t - t0): the exponent of the decay, and of the jump-sum mean
    # as jump_sum_moments writes it
    exponent = -params.kappa * (ta - t0a)
    # the terms share or broadcast into the first one's shape, which holds
    # a block of observations, so they add into it in place
    out = np.exp(exponent) * np.asarray(y_t0, dtype=float)
    out += weighted_mean_integral(params.mean, params.kappa, t0, t)
    out += _jump_mean(params.jump, params.kappa, -np.expm1(exponent))
    return float(out) if np.ndim(out) == 0 else out


def second_moment(params: DemandParams, t):
    """E[Y_t^2] = Var[Y_t] + E[Y_t]^2; Y_0 is fixed, so the variance is
    :func:`conditional_variance` over the whole span t."""
    t = _as_times(t)
    return conditional_variance(params, t) + first_moment(params, t) ** 2


def conditional_variance(params: DemandParams, delta):
    """Var[Y_{t+delta} | F_t]; depends only on the elapsed span ``delta``.

    Equals the diffusion variance plus the variance of the decayed jump sum,
    and is the expected squared tracking error left by a control built from
    information ``delta`` old.
    """
    delta = _as_times(delta, name="delta")
    sigma, kappa = params.sigma, params.kappa
    diff_var = sigma * sigma * (-np.expm1(-2.0 * kappa * delta)) / (2.0 * kappa)
    jm = jump_sum_moments(params.jump, kappa, delta)
    out = diff_var + (jm.second_moment - np.square(jm.mean))
    return float(out) if np.ndim(out) == 0 else out
