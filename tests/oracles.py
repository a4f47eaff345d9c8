"""Independent oracles used by the test suite.

Everything here is deliberately written against the underlying definitions
(adaptive quadrature, brute-force event simulation, vectorised Euler
stepping) rather than against the library code it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import poisson

# Poisson mass left beyond the truncation point of a series oracle.
SERIES_TAIL_MASS = 1e-16


def quad_weighted_mean(mu, kappa: float, t0: float, t: float,
                       breakpoints=None) -> float:
    """Adaptive quadrature of kappa * int_{t0}^{t} e^{-kappa (t-s)} mu(s) ds."""
    val, _ = quad(lambda s: kappa * np.exp(-kappa * (t - s)) * mu(s),
                  t0, t, epsabs=1e-12, epsrel=1e-12, limit=400,
                  points=breakpoints)
    return val


def decayed_jump_sums(nu: float, kappa: float, delta: float, height_sampler,
                      n: int, seed: int) -> np.ndarray:
    """Brute-force draws of sum_i gamma_i e^{-kappa (delta - t_i)} where the
    event count is Poisson(nu * delta) and event times are uniform."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(nu * delta, n)
    total = int(counts.sum())
    times = delta * rng.random(total)
    heights = height_sampler(rng, total)
    decayed = heights * np.exp(-kappa * (delta - times))
    owner = np.repeat(np.arange(n), counts)
    return np.bincount(owner, weights=decayed, minlength=n)


def jump_sum_second_moment_series(nu: float, kappa: float, delta: float,
                                  mean_height: float,
                                  mean_square_height: float) -> float:
    """E[S^2] for S = sum_i gamma_i e^{-kappa (delta - t_i)}, summed over the
    Poisson(nu * delta) event count N.

    Given N = n the event times are iid uniform on [0, delta], so

        E[S^2 | N = n] = n E[gamma^2] a_2 + n (n - 1) gbar^2 a_1^2,
        a_j = (1 / delta) int_0^delta e^{-j kappa (delta - s)} ds,

    with a_j by adaptive quadrature.  Since n p(n) = lam p(n - 1) and
    n (n - 1) p(n) = lam^2 p(n - 2) for lam = nu * delta, the terms left out
    beyond the last count n_max are at most P(N > n_max - 2) times the full
    sum of each part; n_max is the first count at which that Poisson tail
    mass is below ``SERIES_TAIL_MASS``.
    """
    def a(j):
        val, _ = quad(lambda s: np.exp(-j * kappa * (delta - s)), 0.0, delta,
                      epsabs=1e-14, epsrel=1e-14, limit=400)
        return val / delta

    lam = nu * delta
    a1, a2 = a(1), a(2)
    n_max = 2
    while poisson.sf(n_max - 2, lam) >= SERIES_TAIL_MASS:
        n_max += 1
    n = np.arange(n_max + 1, dtype=float)
    conditional = n * mean_square_height * a2 + n * (n - 1) * mean_height ** 2 * a1 ** 2
    return float(np.sum(poisson.pmf(n, lam) * conditional))


def euler_mc_values(kappa: float, sigma: float, mu, y0: float, nu: float,
                    height_sampler, t_end: float, dt: float, n: int,
                    seed: int) -> np.ndarray:
    """Vectorised Euler-Maruyama endpoint values for n independent paths."""
    rng = np.random.default_rng(seed)
    steps = int(round(t_end / dt))
    y = np.full(n, float(y0))
    sqdt = np.sqrt(dt)
    for k in range(steps):
        t = k * dt
        counts = rng.poisson(nu * dt, n)
        total = int(counts.sum())
        if total:
            heights = height_sampler(rng, total)
            owner = np.repeat(np.arange(n), counts)
            jumps = np.bincount(owner, weights=heights, minlength=n)
        else:
            jumps = 0.0
        y = (y + kappa * (mu(t) - y) * dt
             + sigma * sqdt * rng.standard_normal(n) + jumps)
    return y


def stepwise_path(params, times, rng):
    """One exact-transition path sampled step by step in Python floats.

    The draws come in the sampler's order: the per-step jump counts, one
    gaussian per step, then the uniforms and heights of each step with
    events.  Each step applies the transition formula directly,
    y e^{-kappa dt} + drift + sd xi, and then adds the np.sum of the step's
    decayed jumps.  Returns (values, gaussians, jump_times, jump_heights).
    """
    times = np.asarray(times, dtype=float)
    kappa = params.kappa
    nsteps = times.size - 1
    counts = rng.poisson(params.jump.intensity * np.diff(times))
    gaussians = rng.standard_normal(nsteps)
    values = [float(params.y0)]
    jump_times, jump_heights = [], []
    for k in range(nsteps):
        t0, t1 = float(times[k]), float(times[k + 1])
        delta = t1 - t0
        decay = math.exp(-kappa * delta)
        drift = float(params.mean.weighted_integral(kappa, t0, t1))
        sd = params.sigma * math.sqrt(-math.expm1(-2.0 * kappa * delta) / (2.0 * kappa))
        y = values[-1] * decay + drift + sd * float(gaussians[k])
        c = int(counts[k])
        if c:
            step_times = np.sort(times[k] + (times[k + 1] - times[k])
                                 * (1.0 - rng.random(c)))
            step_heights = params.jump.height_law.sample(rng, c)
            y += float(np.sum(step_heights * np.exp(-kappa * (t1 - step_times))))
            jump_times.append(step_times)
            jump_heights.append(step_heights)
        values.append(y)
    return (np.array(values), gaussians, np.concatenate([np.empty(0)] + jump_times),
            np.concatenate([np.empty(0)] + jump_heights))


def strided_upwind(grid, z0, u):
    """The upwind march written as a full (nx+1, nt+1) field filled one
    strided column per time step, z[1:, i+1] = z[1:, i] - c (z[1:, i] -
    z[:-1, i]).  Returns (z, outflow)."""
    c = grid.courant
    if z0 is None:
        z0 = np.zeros(grid.nx + 1)
    z0 = np.asarray(z0, dtype=float)
    z = np.empty((grid.nx + 1, grid.nt + 1))
    z[:, 0] = z0
    boundary = np.atleast_1d(np.asarray(u.at(grid.times()), dtype=float))
    z[0, :] = boundary  # inflow boundary wins at the (0, 0) corner
    for i in range(grid.nt):
        z[1:, i + 1] = z[1:, i] - c * (z[1:, i] - z[:-1, i])
    return z, z[grid.nx, :].copy()


def se_mean(x: np.ndarray) -> float:
    """Standard error of the sample mean."""
    x = np.asarray(x, dtype=float)
    return float(np.std(x, ddof=1) / np.sqrt(x.size))


def se_variance(x: np.ndarray) -> float:
    """Asymptotic, distribution-free standard error of the sample variance."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    m4 = float(np.mean(centered ** 4))
    v = float(np.var(x, ddof=1))
    return float(np.sqrt(max(m4 - v ** 2, 0.0) / n))
