"""Mean-reverting demand processes with optional compound-Poisson jumps.

The demand Y_t follows

    dY_t = kappa * (mu(t) - Y_t) dt + sigma dW_t + gamma_t dN_t,    Y_0 = y0,

where N_t is a Poisson process of rate ``nu`` and the jump heights gamma_t
are i.i.d. draws from a configurable law.  Sampling uses the explicit
solution of the SDE, so transitions between arbitrary grid times are exact
(no discretisation bias).

Every sampled path carries its full noise record (standard-normal draws,
jump times, jump heights and the grid step of each jump), so ensembles can
share one realisation of the noise across different initial values.

Monte-Carlo ensembles are a :class:`PathEnsemble`: values and gaussians as
(paths, steps) arrays and the jump events of all paths in one compressed-row
record.  Row ``i`` is still exactly the stream of ``substream(seed, i)``, but
the generator states of all rows are derived at once, by numpy's
``SeedSequence`` algorithm (NEP 19) and PCG64's seeding step (O'Neill,
HMC-CS-2014-0905), and set on one reused generator.  A constant-height law
draws nothing, so each path draws its jump uniforms in one call.  The exact
recursion then runs step by step over all paths at once, in Python floats
for a single path.  Indexing an ensemble gives :class:`DemandPath` views.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

__all__ = [
    "ConstantHeight",
    "NormalHeight",
    "LognormalHeight",
    "JumpSpec",
    "ConstantMean",
    "SinusoidMean",
    "TabulatedMean",
    "MeanFunction",
    "DemandParams",
    "DemandPath",
    "PathEnsemble",
    "substream",
    "sample_path",
    "sample_paths",
    "sample_ensemble",
]


# ---------------------------------------------------------------------------
# Jump height laws
# ---------------------------------------------------------------------------

# Largest argument of math.exp whose result is finite.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class ConstantHeight:
    """Degenerate jump height: every jump has size ``value``."""

    value: float

    def __post_init__(self) -> None:
        # value * value saturates to inf where value ** 2 raises
        if not math.isfinite(self.value * self.value):
            raise ValueError("jump height second moment value^2 must be finite")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def mean_square(self) -> float:
        return self.value ** 2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))


@dataclass(frozen=True)
class NormalHeight:
    """Gaussian jump heights with mean ``loc`` and standard deviation ``scale``."""

    loc: float
    scale: float

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("jump height scale must be >= 0")
        # squares saturate to inf where ** 2 raises; nan fails the test too
        if not math.isfinite(self.loc * self.loc + self.scale * self.scale):
            raise ValueError("jump height second moment loc^2 + scale^2 "
                             "must be finite")

    @property
    def mean(self) -> float:
        return self.loc

    @property
    def mean_square(self) -> float:
        return self.loc ** 2 + self.scale ** 2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.loc, self.scale, n)


@dataclass(frozen=True)
class LognormalHeight:
    """Log-normal jump heights; parameters are those of the underlying normal."""

    log_mean: float
    log_std: float

    def __post_init__(self) -> None:
        if self.log_std < 0:
            raise ValueError("jump height log_std must be >= 0")
        # The exponent of mean_square, with log_std * log_std, which saturates
        # to inf where log_std ** 2 raises; nan fails the comparison too.
        if not (2.0 * self.log_mean + 2.0 * self.log_std * self.log_std
                <= _LOG_FLOAT_MAX):
            raise ValueError("jump height second moment exp(2 log_mean + "
                             "2 log_std^2) exceeds the float range")

    @property
    def mean(self) -> float:
        return math.exp(self.log_mean + 0.5 * self.log_std ** 2)

    @property
    def mean_square(self) -> float:
        return math.exp(2.0 * self.log_mean + 2.0 * self.log_std ** 2)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.log_mean, self.log_std, n)


HeightLaw = Union[ConstantHeight, NormalHeight, LognormalHeight]


@dataclass(frozen=True)
class JumpSpec:
    """Compound-Poisson jump component: event rate plus height law.

    ``intensity == 0`` disables jumps entirely (pure diffusion).
    """

    intensity: float
    height_law: HeightLaw = ConstantHeight(0.0)

    def __post_init__(self) -> None:
        if not math.isfinite(self.intensity) or self.intensity < 0:
            raise ValueError("jump intensity must be finite and >= 0")

    @classmethod
    def none(cls) -> "JumpSpec":
        return cls(0.0, ConstantHeight(0.0))

    @property
    def mean_height(self) -> float:
        """E[gamma], the average jump size."""
        return self.height_law.mean

    @property
    def mean_square_height(self) -> float:
        """E[gamma^2], the second moment of the jump size."""
        return self.height_law.mean_square

    @property
    def active(self) -> bool:
        """Whether jumps can move the path at all."""
        return self.intensity > 0 and (
            self.mean_height != 0.0 or self.mean_square_height != 0.0
        )


# ---------------------------------------------------------------------------
# Mean (forecast) functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantMean:
    """Flat forecast mu(t) = level."""

    level: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.level):
            raise ValueError("constant mean level must be finite")

    def at(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, float(self.level))
        return float(out) if out.ndim == 0 else out

    def weighted_integral(self, kappa: float, t0, t):
        """kappa * int_{t0}^{t} exp(-kappa (t - s)) mu(s) ds, in closed form."""
        delta = np.asarray(t, dtype=float) - np.asarray(t0, dtype=float)
        out = -self.level * np.expm1(-kappa * delta)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SinusoidMean:
    """Sinusoidal forecast mu(t) = offset + amplitude * sin(angular_freq * t)."""

    offset: float
    amplitude: float
    angular_freq: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite,
                       (self.offset, self.amplitude, self.angular_freq))):
            raise ValueError("sinusoid mean parameters must be finite")

    def at(self, t):
        t = np.asarray(t, dtype=float)
        out = self.offset + self.amplitude * np.sin(self.angular_freq * t)
        return float(out) if out.ndim == 0 else out

    def weighted_integral(self, kappa: float, t0, t):
        """kappa * int_{t0}^{t} exp(-kappa (t - s)) mu(s) ds, in closed form."""
        t0 = np.asarray(t0, dtype=float)
        t = np.asarray(t, dtype=float)
        w = self.angular_freq
        decay = np.exp(-kappa * (t - t0))
        const_part = -self.offset * np.expm1(-kappa * (t - t0))
        osc = kappa * np.sin(w * t) - w * np.cos(w * t)
        osc0 = kappa * np.sin(w * t0) - w * np.cos(w * t0)
        sin_part = self.amplitude * kappa / (kappa ** 2 + w ** 2) * (osc - decay * osc0)
        out = const_part + sin_part
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TabulatedMean:
    """Forecast given at knots, linearly interpolated in between.

    The knot range must cover every time the forecast is evaluated at;
    there is no extrapolation.  The forecast is linear on each knot segment,
    so its weighted integral is exact (see :meth:`weighted_integral`).
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("tabulated mean needs matching 1-d knot arrays (>= 2 knots)")
        # nan compares False, so the increasing test below would let it pass
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated mean knot times and values must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("tabulated mean knots must be strictly increasing")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(np.diff(values) / np.diff(times))):
                raise ValueError("tabulated mean knot segment too narrow: slope overflows")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def _check_range(self, t: np.ndarray) -> None:
        if np.any(t < self.times[0] - 1e-12) or np.any(t > self.times[-1] + 1e-12):
            raise ValueError("time outside tabulated mean range")

    def at(self, t):
        t = np.asarray(t, dtype=float)
        self._check_range(np.atleast_1d(t))
        out = np.interp(t, self.times, self.values)
        return float(out) if out.ndim == 0 else out

    def weighted_integral(self, kappa: float, t0, t):
        """kappa * int_{t0}^{t} exp(-kappa (t - s)) mu(s) ds, in closed form.

        Each knot segment, clipped to [t0, t], becomes [a, b] with length
        h >= 0.  There mu(s) = mu(b) - q (b - s) with the segment's slope q,
        and with E = 1 - e^{-kappa h} the segment contributes

            e^{-kappa (t - b)} (mu(b) E - q (E - kappa h (1 - E)) / kappa).

        Segments outside [t0, t] have h = 0 and contribute 0.
        """
        t0, t = np.broadcast_arrays(np.asarray(t0, dtype=float),
                                    np.asarray(t, dtype=float))
        self._check_range(t0)
        self._check_range(t)
        x, v = self.times, self.values
        slope = np.diff(v) / np.diff(x)
        hi = t[..., np.newaxis]
        b = np.minimum(x[1:], hi)
        h = np.maximum(b - np.maximum(x[:-1], t0[..., np.newaxis]), 0.0)
        e = -np.expm1(-kappa * h)
        mu_b = v[1:] - slope * (x[1:] - b)
        seg = np.exp(-kappa * (hi - b)) * (
            mu_b * e - slope * (e - kappa * h * (1.0 - e)) / kappa)
        out = seg.sum(axis=-1)
        return float(out) if out.ndim == 0 else out


MeanFunction = Union[ConstantMean, SinusoidMean, TabulatedMean]


# ---------------------------------------------------------------------------
# Process parameters, paths and noise records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemandParams:
    """All coefficients of the demand SDE."""

    kappa: float
    sigma: float
    mean: MeanFunction
    y0: float
    jump: JumpSpec = JumpSpec.none()

    def __post_init__(self) -> None:
        if not math.isfinite(self.kappa) or self.kappa <= 0:
            raise ValueError("kappa must be finite and > 0")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be finite and >= 0")
        if not math.isfinite(self.y0):
            raise ValueError("y0 must be finite")


@dataclass(frozen=True)
class DemandPath:
    """One sampled trajectory together with the noise that generated it.

    ``gaussians`` holds one standard-normal draw per grid step; jump events
    are stored globally in step order, with ``jump_steps`` naming the grid
    step (t_k, t_{k+1}] of each event and times increasing within a step.
    """

    times: np.ndarray
    values: np.ndarray
    gaussians: np.ndarray
    jump_times: np.ndarray
    jump_heights: np.ndarray
    jump_steps: np.ndarray


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """``n`` trajectories on one grid, held as arrays.

    ``values`` is (n, nt+1) and ``gaussians`` is (n, nt).  The jump events of
    all paths form one compressed-row record: the events of path ``i`` are
    ``jump_times[offsets[i]:offsets[i + 1]]``, and likewise for
    ``jump_heights`` and ``jump_steps``, laid out as in :class:`DemandPath`.

    The ensemble is a sequence: ``len``, integer indexing and iteration give
    :class:`DemandPath` views of its rows.
    """

    times: np.ndarray
    values: np.ndarray
    gaussians: np.ndarray
    offsets: np.ndarray
    jump_times: np.ndarray
    jump_heights: np.ndarray
    jump_steps: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i: int) -> DemandPath:
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"path index {i} out of range for {n} paths")
        i %= n
        a, b = self.offsets[i], self.offsets[i + 1]
        return DemandPath(times=self.times, values=self.values[i],
                          gaussians=self.gaussians[i],
                          jump_times=self.jump_times[a:b],
                          jump_heights=self.jump_heights[a:b],
                          jump_steps=self.jump_steps[a:b])


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for path ``index`` of ensemble ``seed``.

    Derived from the pair ``(seed, index)`` so ensemble members do not depend
    on generation order or parallel scheduling.  :func:`sample_paths` draws
    row ``i`` from exactly this stream, but for seeds and indices in
    [0, 2**32) it derives the PCG64 states of all rows at once (see
    :func:`_pcg64_states`) instead of building one generator per row.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


# Constants of numpy's SeedSequence hash (NEP 19) and of the 128-bit PCG
# multiplier (O'Neill, HMC-CS-2014-0905).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_SHIFT = np.uint32(16)


def _hasher(hash_const: int, mult: int):
    """numpy's SeedSequence hash of uint32 arrays; each call advances the
    multiplier, whatever the data, exactly as one scalar call would."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SHIFT)

    return hashmix


def _pcg64_states(seed: int, index: np.ndarray) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``substream(seed, i)`` for each ``i`` in
    the uint32 array ``index``, in order.

    Needs ``seed`` in [0, 2**32), so that the entropy ``(seed, i)`` is the
    two uint32 words [seed, i].  ``SeedSequence`` (NEP 19) hashes them and
    two zero words into a pool of four words with ``hashmix``, mixes every
    pool word into every other with ``mix``, and ``generate_state(4,
    uint64)`` hashes the pool cyclically into eight words, read pairwise as
    the little-endian uint64 words w0..w3.  The hash does not branch on the
    data, so all of ``index`` is hashed at once in uint32 arithmetic, where
    the wrap-around is the algorithm's.  PCG64 then seeds
    as ``pcg_setseq_128_srandom_r`` (O'Neill): with initstate = w0 w1 and
    initseq = w2 w3 as 128-bit integers, inc = 2 initseq + 1 and
    state = (inc + initstate) M + inc mod 2**128, in Python ints per path.
    """
    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _SHIFT)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(index.shape, dtype=np.uint32)
    entropy = (np.full(index.shape, seed, dtype=np.uint32), index, zeros, zeros)
    with np.errstate(over="ignore"):
        pool = [hashmix(word) for word in entropy]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        generate = _hasher(_INIT_B, _MULT_B)
        words = [generate(pool[k % 4]).astype(np.uint64) for k in range(8)]
    halves = [(words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist()
              for k in range(4)]
    for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        yield ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128, inc


def _substreams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """``substream(seed, i)`` for ``i`` in range(n), each valid until the next.

    Seeds and indices in [0, 2**32) reuse one generator whose state is set
    from :func:`_pcg64_states`; anything else (a negative seed raises
    ``ValueError`` there) goes through :func:`substream`.
    """
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed <= _MASK32
            and n - 1 <= _MASK32):
        yield from (substream(seed, i) for i in range(n))
        return
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for state, inc in _pcg64_states(int(seed), np.arange(n, dtype=np.uint32)):
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        yield rng


# ---------------------------------------------------------------------------
# Exact transition sampling
# ---------------------------------------------------------------------------

def _validate_grid(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("time grid must be a non-empty 1-d array")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return times


class _NoiseRecord(NamedTuple):
    """The noise of ``n`` paths, laid out as in :class:`PathEnsemble`."""

    gaussians: np.ndarray
    offsets: np.ndarray
    jump_times: np.ndarray
    jump_heights: np.ndarray
    jump_steps: np.ndarray


def _draw_noise(params: DemandParams, times: np.ndarray,
                rngs: Iterable[np.random.Generator], n: int) -> _NoiseRecord:
    """Noise for ``n`` paths on the grid, path ``i`` from the ``i``-th generator.

    Each path draws its per-step jump counts first, then one gaussian per
    step, then the uniforms and heights of each step that holds events.  A
    constant-height law draws nothing, so there the uniforms of a path are
    one run of its stream and are drawn in one call.  A uniform U becomes
    the time t_k + (t_{k+1} - t_k)(1 - U) in (t_k, t_{k+1}]; times are sorted
    within each step, heights keep their draw order.
    """
    law = params.jump.height_law
    constant = isinstance(law, ConstantHeight)
    lam = params.jump.intensity * np.diff(times)
    nsteps = lam.size
    counts = np.empty((n, nsteps), dtype=np.int64)
    gaussians = np.empty((n, nsteps))
    uniforms: list[np.ndarray] = []
    heights: list[np.ndarray] = []
    for i, rng in enumerate(rngs):
        row = counts[i]
        row[:] = rng.poisson(lam)
        rng.standard_normal(out=gaussians[i])
        # one array per path: per-step pieces would cost memory per step
        u = np.empty(int(row.sum()))
        if constant:
            rng.random(out=u)
        else:
            h = np.empty(u.size)
            a = 0
            for c in row[row > 0].tolist():
                rng.random(out=u[a:a + c])
                h[a:a + c] = law.sample(rng, c)
                a += c
            heights.append(h)
        uniforms.append(u)
    per_path = counts.sum(axis=1)
    steps = np.repeat(np.tile(np.arange(nsteps), n), counts.ravel())
    t0 = times[steps]
    raw = t0 + (times[steps + 1] - t0) * (1.0 - np.concatenate(uniforms))
    order = np.lexsort((raw, steps, np.repeat(np.arange(n), per_path)))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_path, out=offsets[1:])
    jump_heights = (np.full(raw.size, float(law.value)) if constant
                    else np.concatenate(heights))
    return _NoiseRecord(gaussians, offsets, raw[order], jump_heights, steps)


def _group_sums(weights: np.ndarray, groups: np.ndarray,
                n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and size of each group of ``weights``; groups are contiguous runs.

    Each sum adds its terms in the order ``np.sum`` uses on the group alone,
    so results are bit-identical to it: one by one from zero below eight
    terms (as ``np.bincount`` does), ``np.sum``'s pairwise scheme from eight.
    """
    counts = np.bincount(groups, minlength=n_groups)
    sums = np.bincount(groups, weights=weights, minlength=n_groups)
    big = np.flatnonzero(counts >= 8)
    if big.size:
        ends = np.cumsum(counts)
        for g in big.tolist():
            sums[g] = np.sum(weights[ends[g] - counts[g]:ends[g]])
    return sums, counts


def _grid_coeffs(params: DemandParams,
                 times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic pieces of the exact transition over each grid step:
    decay factor, mean-tracking drift, and Gaussian standard deviation.

    The decay and the deviation call the C library's ``exp`` and ``expm1``
    per step, since numpy's vectorised ``exp`` can differ from it in the
    last bit, and that would move every sampled value.
    """
    kappa = params.kappa
    t0, t1 = times[:-1], times[1:]
    deltas = (t1 - t0).tolist()
    decay = np.array([math.exp(-kappa * d) for d in deltas])
    drift = np.asarray(params.mean.weighted_integral(kappa, t0, t1),
                       dtype=float).reshape(-1)
    # -expm1 keeps 1 - e^{-2 kappa delta} accurate for tiny steps
    one_minus = np.array([-math.expm1(-2.0 * kappa * d) for d in deltas])
    sd = params.sigma * np.sqrt(one_minus / (2.0 * kappa))
    return decay, drift, sd


def _exact_values(params: DemandParams, times: np.ndarray, y0,
                  noise: _NoiseRecord) -> np.ndarray:
    """Exact transitions driven by ``noise``, one grid step at a time and
    vectorised over paths; returns the (paths, nt+1) values.

    Each step is the exact transition on every row: y maps to
    y e^{-kappa dt} + drift + sd xi, and then, if the step holds events,
    sum_i gamma_i e^{-kappa (t_{k+1} - t_i)} is added; drift and sd come
    from :func:`_grid_coeffs`.  ``y0`` broadcasts against the noise rows,
    so one noise row can drive several initial values.  One row with a
    scalar ``y0`` runs the same operations in Python floats, which round as
    numpy's do, reading the coefficients lazily through memoryviews.
    """
    decay, drift, sd = _grid_coeffs(params, times)
    nsteps = decay.size
    rows = noise.gaussians.shape[0]
    steps = noise.jump_steps
    groups = np.repeat(np.arange(rows), np.diff(noise.offsets)) * nsteps + steps
    weights = noise.jump_heights * np.exp(
        -params.kappa * (times[1:][steps] - noise.jump_times))
    sums, counts = _group_sums(weights, groups, rows * nsteps)
    sums = sums.reshape(rows, nsteps).T
    has_jumps = (counts > 0).reshape(rows, nsteps).T
    diffusion = (sd * noise.gaussians).T
    out = np.empty((nsteps + 1,) + np.broadcast_shapes(np.shape(y0), (rows,)))
    out[0] = y0
    if rows == 1 and np.ndim(y0) == 0:
        values = memoryview(out.reshape(-1))  # a view: out is (nsteps+1, 1)
        y = values[0]
        coeffs = (decay, drift, diffusion[:, 0], sums[:, 0], has_jumps[:, 0])
        for k, (d, dr, df, jump, has) in enumerate(zip(*map(memoryview, coeffs)), 1):
            y = y * d + dr + df
            if has:
                y += jump
            values[k] = y
    else:
        step_has_jumps = has_jumps.any(axis=1).tolist()
        decay, drift = decay.tolist(), drift.tolist()
        for k in range(nsteps):
            y = out[k + 1]
            np.multiply(out[k], decay[k], out=y)
            y += drift[k]
            y += diffusion[k]
            if step_has_jumps[k]:
                np.add(y, sums[k], out=y, where=has_jumps[k])
    return np.ascontiguousarray(out.T)


def _sample(params: DemandParams, times: np.ndarray,
            rngs: Iterable[np.random.Generator], n: int) -> PathEnsemble:
    noise = _draw_noise(params, times, rngs, n)
    return PathEnsemble(times, _exact_values(params, times, params.y0, noise),
                        *noise)


def sample_path(params: DemandParams, times, rng: np.random.Generator) -> DemandPath:
    """Sample one trajectory on the given grid using exact transitions.

    Deterministic for a fixed generator state; the returned path records
    all the noise that drove it.
    """
    return _sample(params, _validate_grid(times), [rng], 1)[0]


def sample_paths(params: DemandParams, times, n_paths: int, seed: int) -> PathEnsemble:
    """Sample ``n_paths`` independent trajectories as one :class:`PathEnsemble`.

    Path ``i`` draws its noise from ``substream(seed, i)``; the exact
    recursion then runs once over all paths, step by step.  Row ``i`` is
    bit-identical to ``sample_path(params, times, substream(seed, i))``, so
    the ensemble does not depend on generation order, and its first ``m``
    rows are the ensemble of ``m`` paths.

    For ``seed`` and ``n_paths - 1`` in [0, 2**32) the streams are not built
    one by one: the PCG64 states of all rows are derived at once by numpy's
    ``SeedSequence`` algorithm (NEP 19) and PCG64's seeding step (O'Neill,
    HMC-CS-2014-0905), then set in turn on one reused generator.  Other
    seeds go through :func:`substream`, so a negative seed raises its
    ``ValueError``.  Under a constant-height law each path draws its jump
    uniforms in one call.
    """
    times = _validate_grid(times)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    return _sample(params, times, _substreams(seed, n_paths), n_paths)


def _same_but_y0(a: DemandParams, b: DemandParams) -> bool:
    if (a.kappa, a.sigma) != (b.kappa, b.sigma):
        return False
    if a.jump != b.jump:
        return False
    if type(a.mean) is not type(b.mean):
        return False
    if isinstance(a.mean, TabulatedMean):
        return (np.array_equal(a.mean.times, b.mean.times)
                and np.array_equal(a.mean.values, b.mean.values))
    return a.mean == b.mean


def sample_ensemble(params_list: list[DemandParams], times,
                    rng: np.random.Generator) -> list[DemandPath]:
    """Sample one path per parameter set, all from a single shared noise record.

    The parameter sets may differ only in their initial value, so the
    resulting paths show identical Brownian increments and jump events and
    differ exactly by (y0_a - y0_b) e^{-kappa t}.
    """
    if not params_list:
        raise ValueError("params_list must not be empty")
    base = params_list[0]
    for p in params_list[1:]:
        if not _same_but_y0(base, p):
            raise ValueError("ensemble members may differ only in y0")
    times = _validate_grid(times)
    noise = _draw_noise(base, times, [rng], 1)
    values = _exact_values(base, times, np.array([p.y0 for p in params_list]),
                           noise)
    return [DemandPath(times=times, values=row, gaussians=noise.gaussians[0],
                       jump_times=noise.jump_times,
                       jump_heights=noise.jump_heights,
                       jump_steps=noise.jump_steps)
            for row in values]
