"""Independent oracles used by the test suite.

Everything here is deliberately written against the underlying definitions
(adaptive quadrature, brute-force event simulation, vectorised Euler
stepping) rather than against the library code it checks.  Two of them
stand beside a library routine as its reference:

- :func:`euler_values`, the Euler-Maruyama recursion driven by the noise
  that the sampler draws for an ensemble, a discretisation that converges
  to the library's exact transitions;
- :func:`exact_shift_output`, the exact outflow of the transport equation,
  which the upwind scheme reproduces at Courant number 1;
- :func:`descend_1d`, the gradient descent on one interval alone, which
  each row of the library's lockstep descent must reproduce bit for bit.
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


def euler_values(params, times, n: int, seed: int) -> np.ndarray:
    """Euler-Maruyama values of the ``n`` rows of ``sample_paths(params,
    times, n, seed)``, driven by the noise that sampler draws for them: the
    gaussians, and the grid step and height of each jump event, of
    :func:`powertrack._streams.draw`:

        Y_{k+1} = Y_k + kappa (mu(t_k) - Y_k) dt + sigma sqrt(dt) xi_k
                  + the sum of the jump heights in the step.

    The heights of a step are summed left to right from 0.0, in draw order.
    Requires kappa * dt < 1 on every step.  Returns the (paths, nt+1) values.
    """
    from powertrack import ConstantHeight, _streams

    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    if dts.size and np.max(params.kappa * dts) >= 1.0:
        raise ValueError("Euler scheme unstable: kappa * dt must be < 1")
    law = params.jump.height_law
    constant = isinstance(law, ConstantHeight)
    steps, gaussians, uniforms, heights, offsets = _streams.draw(
        params.jump.intensity * dts, n, None if constant else law.sample, seed)
    if constant:
        heights = np.full(uniforms.size, float(law.value))
    nsteps = dts.size
    groups = np.repeat(np.arange(n), np.diff(offsets)) * nsteps + steps
    events = np.bincount(groups, minlength=n * nsteps)
    sums = np.bincount(groups, weights=heights, minlength=n * nsteps)
    sums, has_jumps = sums.reshape(n, nsteps), events.reshape(n, nsteps) > 0
    mu = np.asarray(params.mean.at(times[:-1]), dtype=float).reshape(-1)
    out = np.empty((nsteps + 1, n))
    out[0] = params.y0
    for k in range(nsteps):
        dt = float(dts[k])
        y = (out[k] + params.kappa * (float(mu[k]) - out[k]) * dt
             + params.sigma * math.sqrt(dt) * gaussians[k + 1])
        np.add(y, sums[:, k], out=y, where=has_jumps[:, k])
        out[k + 1] = y
    return out.T


def stepwise_path(params, times, rng):
    """One exact-transition path sampled step by step in Python floats.

    The draws come in the sampler's order: the per-step jump counts, one
    gaussian per step, then the uniforms and heights of each step with
    events.  Each step applies the transition formula directly,
    y e^{-kappa dt} + drift + sd xi, and then adds the sum of the step's
    decayed jumps, taken left to right from 0.0 in draw order (not np.sum,
    which is pairwise from 8 terms, nor builtin sum, which is compensated
    from Python 3.12).  Returns (values, gaussians, jump_times, jump_heights).
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
            jumps = 0.0
            for w in (step_heights * np.exp(-kappa * (t1 - step_times))).tolist():
                jumps += w
            y += jumps
            jump_times.append(step_times)
            jump_heights.append(step_heights)
        values.append(y)
    return (np.array(values), gaussians, np.concatenate([np.empty(0)] + jump_times),
            np.concatenate([np.empty(0)] + jump_heights))


# The 128-bit PCG multiplier (O'Neill, HMC-CS-2014-0905) and its inverse.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)


def crafted_state(r: int) -> int:
    """The PCG64 state, with inc = 1, whose next raw word is ``r``: one step
    from (r - 1) M^-1 gives the state r, whose high word is 0, so its
    XSL-RR output is r itself."""
    return (r - 1) * _PCG_MULT_INV % (1 << 128)


def drawing(r: int) -> np.random.Generator:
    """A generator whose next raw word is ``r``."""
    bit_gen = np.random.PCG64(0)
    bit_gen.state = {"bit_generator": "PCG64",
                     "state": {"state": crafted_state(r), "inc": 1},
                     "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_gen)


def ziggurat_branches(rng, count: int) -> list[str]:
    """The branch numpy's ``standard_normal`` takes on each of its next
    ``count`` draws from the PCG64 generator ``rng``, read off its raw
    words with the tables of :mod:`powertrack._ziggurat`: "fast" (rabs <
    ki[idx]), "wedge" (accepted by the density test) or "reject" (a wedge
    draw that starts over, one entry per rejection).  Stops at "tail", the
    idx = 0 branch, which is not followed.  Advances ``rng`` as
    ``standard_normal`` would, up to any tail."""
    from powertrack import _ziggurat

    ki, wi, fi = _ziggurat.KI, _ziggurat.WI, _ziggurat.FI
    branches = []
    while branches.count("fast") + branches.count("wedge") < count:
        r = int(rng.bit_generator.random_raw())
        idx, rabs = r & 0xFF, (r >> 9) & ((1 << 52) - 1)
        if rabs < int(ki[idx]):
            branches.append("fast")
            continue
        if idx == 0:
            return branches + ["tail"]
        x = rabs * float(wi[idx])
        u = (int(rng.bit_generator.random_raw()) >> 11) * 2.0 ** -53
        accept = (fi[idx - 1] - fi[idx]) * u + fi[idx] < math.exp(-0.5 * x * x)
        branches.append("wedge" if accept else "reject")
    return branches


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


def exact_shift_output(speed: float, z0, u, t):
    """Outflow of the exact transport solution for the control signal ``u``:
    u(t - 1/speed) once the first injection arrives, and the advected initial
    profile z0(1 - speed t) before that.  ``z0`` is None (an empty line), a
    callable, or values on an evenly spaced lattice of [0, 1]."""
    if speed <= 0:
        raise ValueError("transport speed must be > 0")
    delay = 1.0 / speed
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    horizon = u.times[-1] + delay
    if np.any(t_arr < -1e-12) or np.any(t_arr > horizon + 1e-9):
        raise ValueError("output time outside [0, horizon]")
    out = np.empty(t_arr.shape)
    late = t_arr >= delay - 1e-12
    if np.any(late):
        out[late] = np.atleast_1d(u.at(np.maximum(t_arr[late] - delay, 0.0)))
    if np.any(~late):
        x = 1.0 - speed * t_arr[~late]
        if z0 is None:
            out[~late] = 0.0
        elif callable(z0):
            out[~late] = np.asarray([z0(xx) for xx in x], dtype=float)
        else:
            z0 = np.asarray(z0, dtype=float)
            xs = np.linspace(0.0, 1.0, z0.size)
            out[~late] = np.interp(x, xs, z0)
    return float(out[0]) if np.ndim(t) == 0 else out


def descend_1d(targets: np.ndarray, weights: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    """Gradient descent with backtracking on J(u) = sum_k w_k (u_k - m_k)^2
    over one 1-d interval, with the library's budget, tolerance, Armijo
    constant and backtracking factor (read at call time, so a patched
    budget applies here too).  Raises the library's ConvergenceError."""
    from powertrack import ControlSignal, costopt

    u = np.zeros(targets.size)

    def value(v: np.ndarray) -> float:
        return float((weights * (v - targets) ** 2).sum())

    def gradient(v: np.ndarray) -> np.ndarray:
        return 2.0 * weights * (v - targets)

    step = 1.0 / (2.0 * float(weights.max()))
    g = gradient(u)
    prev_u = prev_g = None
    reason = (f"did not reach tolerance {costopt._GRAD_TOL} "
              f"within {costopt._MAX_ITERS} iterations")
    for _ in range(costopt._MAX_ITERS):
        gnorm = float(np.abs(g).max())
        if gnorm < costopt._GRAD_TOL:
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
            if value(trial) <= j0 - costopt._ARMIJO * alpha * gg:
                break
            alpha *= costopt._SHRINK
        prev_u, prev_g = u, g
        u = u - alpha * g
        g = gradient(u)
    if prev_u is not None and not np.all(np.isfinite(u)):
        u, g = prev_u, prev_g  # its objective was finite, so it is too
    raise costopt.ConvergenceError(
        f"gradient descent {reason}",
        control=ControlSignal(times, u),
        grad_norm=float(np.abs(g).max()),
    )


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
