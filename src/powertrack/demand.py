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
record.  Row ``i`` is exactly the stream of ``substream(seed, i)``, but the
PCG64 states of all rows are derived at once (NEP 19's ``SeedSequence`` and
O'Neill's PCG, HMC-CS-2014-0905), and the draws of all rows are walked from
those states together in uint64 arithmetic: the per-step jump counts by the
rule numpy's ``Generator.poisson`` applies below a mean of 10, the gaussians
by numpy's ziggurat (its tables are in :mod:`powertrack._ziggurat`), and,
under a constant height law, the jump uniforms.  A reused generator is set,
once, only for the few rows the walks leave: rows left to ``rng.poisson``,
rows whose gaussians reach the ziggurat's tail, and rows with events under
a law that draws its heights.  The exact recursion runs step by step over
all paths at once, in Python floats for a single path.  Indexing an
ensemble gives :class:`DemandPath` views.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
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
        out = -self.offset * np.expm1(-kappa * (t - t0))
        # a flat sinusoid adds nothing, and at tiny kappa its factor is x/0
        if w != 0.0:
            decay = np.exp(-kappa * (t - t0))
            osc = kappa * np.sin(w * t) - w * np.cos(w * t)
            osc0 = kappa * np.sin(w * t0) - w * np.cos(w * t0)
            # x / 1.0 is exact; m = max(kappa, |w|) only where the squares overflow
            try:
                m = 1.0 if math.isfinite(kappa ** 2 + w ** 2) else max(kappa, abs(w))
            except OverflowError:  # a float's ** raises where numpy's gives inf
                m = max(kappa, abs(w))
            gain = self.amplitude * (kappa / m) / ((kappa / m) ** 2 + (w / m) ** 2) / m
            out = out + gain * (osc - decay * osc0)
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
    [0, 2**32) it derives the PCG64 state words of all rows at once and
    walks their draws in uint64 arithmetic (:func:`_draw_noise`).
    """
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


# Constants of numpy's SeedSequence hash (NEP 19), and the 64-bit words of
# the 128-bit PCG multiplier M, with the 32-bit halves of its low word
# (O'Neill, HMC-CS-2014-0905).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M_HI, _M_LO = divmod(0x2360ED051FC65DA44385DF649FCCF645, 1 << 64)
_M_LO_HI, _M_LO_LO = divmod(_M_LO, 1 << 32)
_MASK32 = (1 << 32) - 1
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


# PCG64 states and increments of a set of streams, as uint64 word arrays.
_Words = namedtuple("_Words", "state_hi state_lo inc_hi inc_lo")


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 step, s M + inc mod 2**128, on uint64 word arrays: only the
    high word of lo * M_lo needs 32-bit limbs (mulhi, Hacker's Delight)."""
    a1, a0 = lo >> 32, lo & _MASK32
    mid = a1 * _M_LO_LO + (a0 * _M_LO_LO >> 32)
    low = (mid & _MASK32) + a0 * _M_LO_HI
    hi = a1 * _M_LO_HI + (mid >> 32) + (low >> 32) + hi * _M_LO + lo * _M_HI
    lo = lo * _M_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo  # with the carry of the low word


def _next_uint64(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """numpy's ``next_uint64`` from a PCG64 state just stepped: the XSL-RR
    output rotr(hi ^ lo, hi >> 58)."""
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


def _next_double(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """numpy's ``random()`` double from a PCG64 state just stepped:
    (next_uint64 >> 11) * 2**-53."""
    return (_next_uint64(hi, lo) >> 11) * 2.0 ** -53


def _pcg64_states(seed: int, index: np.ndarray) -> _Words:
    """PCG64 state and inc words of ``substream(seed, i)`` for each ``i`` in
    the uint32 array ``index``.

    Needs ``seed`` in [0, 2**32), so that the entropy ``(seed, i)`` is the
    two uint32 words [seed, i].  ``SeedSequence`` (NEP 19) hashes them and
    two zero words into a pool of four words with ``hashmix``, mixes every
    pool word into every other with ``mix``, and ``generate_state(4,
    uint64)`` hashes the pool cyclically into eight words, read pairwise as
    the little-endian uint64 words w0..w3.  The hash does not branch on the
    data, so all of ``index`` is hashed at once in uint32 arithmetic, where
    the wrap-around is the algorithm's.  PCG64 then seeds as
    ``pcg_setseq_128_srandom_r`` (O'Neill): with initstate = w0 w1 and
    initseq = w2 w3, inc = 2 initseq + 1 and state = (inc + initstate) M +
    inc mod 2**128, one add with carry and one :func:`_lcg_step`.
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
    state_hi, state_lo, seq_hi, seq_lo = (words[2 * k] | words[2 * k + 1] << 32
                                          for k in range(4))
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    state_lo = state_lo + inc[1]
    state_hi = state_hi + inc[0] + (state_lo < inc[1])
    return _Words(*_lcg_step(state_hi, state_lo, *inc), *inc)


def _generators(words: _Words) -> Iterator[np.random.Generator]:
    """One reused generator, set at each row's words in turn; ints built lazily."""
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for s_hi, s_lo, i_hi, i_lo in zip(*map(memoryview, words)):
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                         "has_uint32": 0, "uinteger": 0}
        yield rng


Streams = Union[_Words, Iterable[np.random.Generator]]  # or a generator per path


# ---------------------------------------------------------------------------
# Exact transition sampling
# ---------------------------------------------------------------------------

def _validate_grid(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("time grid must be a non-empty 1-d array")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid times must be finite")
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


# numpy's Generator.poisson counts by multiplication below this mean and
# switches to its PTRS rejection sampler (Hormann, 1993) from it.
_POISSON_MULT_LIMIT = 10.0


def _block_width(lam: np.ndarray) -> int:
    """Most doubles :func:`_walk_counts` draws per path for its jump counts.

    A path uses one double per step with lam > 0 plus one per event, and
    its event count is Poisson(L), L = sum(lam); the cap leaves room for
    L + 6 sqrt(L) + 8 events, which a path exceeds only rarely.
    """
    total = float(lam.sum())
    room = math.floor(total + 6.0 * math.sqrt(total)) + 8
    return int(np.count_nonzero(lam)) + room


def _walk_counts(lam: np.ndarray,
                 words: _Words) -> tuple[np.ndarray, np.ndarray, _Words]:
    """The ``rng.poisson(lam)`` counts of the streams at ``words``, together.

    For 0 < lam < 10 numpy multiplies ``random()`` doubles into a product
    that starts at 1.0 until it is <= e = exp(-lam) (the C library's), and
    counts the doubles before the one that stopped it (Knuth); lam = 0 draws
    nothing.  Column k of the walk steps every row once and advances its
    rule by its double; a row that ends its last step records its words.

    Returns the (n, steps) counts, the doubles used per row, and the words
    to draw the rest from.  Used is -1 where the row must call
    ``rng.poisson`` from its stream start: every row when a step has
    lam >= 10 or n <= width (the walk would cost more than it saves), and a
    row still counting after :func:`_block_width` doubles.
    """
    n = words.state_hi.size
    counts = np.zeros((n, lam.size), dtype=np.int64)
    used = np.full(n, -1)
    # nan and inf fail this test too, and rng.poisson then rejects them
    if not np.all(lam < _POISSON_MULT_LIMIT) or n <= (width := _block_width(lam)):
        return counts, used, words
    steps = np.flatnonzero(lam)
    if not steps.size:
        return counts, np.zeros(n, dtype=np.int64), words
    hi, lo = state_hi, state_lo = words.state_hi.copy(), words.state_lo.copy()
    # exp(-lam) per step with lam > 0, then +inf: ended rows stop every product
    limits = np.array([math.exp(-x) for x in lam[steps].tolist()] + [math.inf])
    step = np.zeros(n, dtype=np.int64)  # index into steps of each row
    limit, prod = np.full(n, limits[0]), np.ones(n)
    for k in range(width):
        hi, lo = _lcg_step(hi, lo, words.inc_hi, words.inc_lo)
        prod *= _next_double(hi, lo)
        stop = prod <= limit
        go = np.flatnonzero(~stop)
        counts[go, steps[step[go]]] += 1
        prod[stop] = 1.0
        step += stop
        limit = limits.take(step, mode="clip")
        ended = np.flatnonzero(step == steps.size)
        used[ended] = k + 1
        state_hi[ended], state_lo[ended] = hi[ended], lo[ended]
        if ended.size and used.min() >= 0:
            break
    return counts, used, _Words(state_hi, state_lo, words.inc_hi, words.inc_lo)


_MASK52 = (1 << 52) - 1


def _walk_normals(nsteps: int, used: np.ndarray,
                  words: _Words) -> tuple[np.ndarray, np.ndarray, _Words]:
    """The ``rng.standard_normal(nsteps)`` draws of the streams at ``words``,
    together, for every row with ``used >= 0``.

    numpy's ziggurat (Marsaglia and Tsang, 2000; its tables are in
    :mod:`powertrack._ziggurat`) takes r = next_uint64: idx = r & 0xff, the
    sign is bit 8 and rabs = (r >> 9) & (2**52 - 1).  x = rabs wi[idx],
    negated for the sign, is accepted when rabs < ki[idx].  Otherwise, for
    idx > 0, one more double U accepts x when (fi[idx-1] - fi[idx]) U +
    fi[idx] < exp(-x^2/2) (the C library's), and a rejected x starts over
    with a fresh r.  Column k of the walk draws one r for every row still
    short of its normals; a row records its words when it has them all.  A
    row whose r falls in the idx = 0 tail leaves the walk at its words.

    Returns the (n, nsteps) normals, the mask of rows that have them, and
    the words to draw the rest from.
    """
    from . import _ziggurat  # compiled on a walk's first call, not at import

    n = used.size
    gaussians = np.empty((n, nsteps))
    walked = used >= 0
    rows = np.flatnonzero(walked)
    if not nsteps or not rows.size:
        return gaussians, walked, words
    # indexed by r & 0x1ff: the sign bit picks the negated half of wi
    ki = np.tile(_ziggurat.KI, 2)
    wi = np.concatenate((_ziggurat.WI, -_ziggurat.WI))
    fi = _ziggurat.FI
    state_hi, state_lo = words.state_hi.copy(), words.state_lo.copy()
    hi, lo, inc_hi, inc_lo = (w[rows] for w in words)
    # where each row's next normal goes in gaussians.ravel(); a rejected
    # draw is written there too, and overwritten by the next one
    flat, at, ends = gaussians.reshape(-1), rows * nsteps, (rows + 1) * nsteps
    while rows.size:
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        r = _next_uint64(hi, lo)
        idx = (r & 0x1FF).astype(np.intp)
        rabs = r >> 9 & _MASK52
        flat[at] = x = rabs * wi[idx]
        ok = rabs < ki[idx]
        miss = np.flatnonzero(~ok)
        idx = idx[miss] & 0xFF
        tail, wedge, j = miss[idx == 0], miss[idx != 0], idx[idx != 0]
        if wedge.size:
            hi[wedge], lo[wedge] = _lcg_step(hi[wedge], lo[wedge],
                                             inc_hi[wedge], inc_lo[wedge])
            bound = (fi[j - 1] - fi[j]) * _next_double(hi[wedge], lo[wedge]) + fi[j]
            density = [math.exp(-0.5 * v * v) for v in x[wedge].tolist()]
            ok[wedge] = bound < density
        at += ok
        done = at == ends
        if tail.size or done.any():
            state_hi[rows[done]], state_lo[rows[done]] = hi[done], lo[done]
            walked[rows[tail]] = False
            done[tail] = True
            rows, hi, lo, inc_hi, inc_lo, at, ends = (
                a[~done] for a in (rows, hi, lo, inc_hi, inc_lo, at, ends))
    return gaussians, walked, _Words(state_hi, state_lo, words.inc_hi, words.inc_lo)


def _walk_doubles(words: _Words, sizes: np.ndarray, starts: np.ndarray,
                  out: np.ndarray) -> None:
    """Write ``rng.random(sizes[i])`` of the stream at row ``i`` of
    ``words`` to ``out[starts[i]:starts[i] + sizes[i]]``, for all rows at
    once, column k stepping each row that draws a k-th double."""
    rows = np.flatnonzero(sizes)
    hi, lo, inc_hi, inc_lo = (w[rows] for w in words)
    for k in range(int(sizes.max(initial=0))):
        live = sizes[rows] > k
        if not live.all():
            rows, hi, lo, inc_hi, inc_lo = (
                a[live] for a in (rows, hi, lo, inc_hi, inc_lo))
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        out[starts[rows] + k] = _next_double(hi, lo)


def _draw_noise(params: DemandParams, times: np.ndarray, streams: Streams,
                n: int) -> _NoiseRecord:
    """Noise for ``n`` paths on the grid, path ``i`` from the ``i``-th
    generator or the ``i``-th row of the words in ``streams``.

    Each path draws its per-step jump counts first, then one gaussian per
    step, then the uniforms and heights of each step that holds events.
    From words, :func:`_walk_counts` walks the counts and
    :func:`_walk_normals` the gaussians of all rows at once; under a
    constant height law, which draws nothing, a row's uniforms are one run
    of its stream, walked by :func:`_walk_doubles`.  A reused generator is
    set once, where its walk stopped, only for the rows that fall back: a
    row left to ``rng.poisson``, a row that reached the ziggurat's tail,
    and a row with events under any other height law.  A uniform U becomes
    the time t_k + (t_{k+1} - t_k)(1 - U) in (t_k, t_{k+1}]; times are
    sorted within each step, heights keep their draw order.
    """
    law = params.jump.height_law
    constant = isinstance(law, ConstantHeight)
    lam = params.jump.intensity * np.diff(times)
    nsteps = lam.size
    if isinstance(streams, _Words):
        counts, used, words = _walk_counts(lam, streams)
        gaussians, walked, words = _walk_normals(nsteps, used, words)
        back = np.flatnonzero(~walked if constant
                              else ~walked | counts.any(axis=1))
        streams = _generators(_Words(*(w[back] for w in words)))
    else:
        counts, used = np.zeros((n, nsteps), dtype=np.int64), np.full(n, -1)
        gaussians, walked = np.empty((n, nsteps)), np.zeros(n, dtype=bool)
        back = np.arange(n)
    drawn = []
    for i, rng in zip(back.tolist(), streams):
        row = counts[i]
        if used[i] < 0:
            row[:] = rng.poisson(lam)
        if not walked[i]:
            rng.standard_normal(out=gaussians[i])
        # one array per path: per-step pieces would cost memory per step
        u, h = np.empty(row.sum()), None
        if constant:
            rng.random(out=u)
        else:
            h = np.empty(u.size)
            a = 0
            for c in row[row > 0].tolist():
                rng.random(out=u[a:a + c])
                h[a:a + c] = law.sample(rng, c)
                a += c
        drawn.append((i, u, h))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=1), out=offsets[1:])
    uniforms = np.empty(offsets[-1])
    if constant:
        jump_heights = np.full(uniforms.size, float(law.value))
        if walked.any():  # size 0 for the rows a generator drew
            _walk_doubles(words, np.where(walked, np.diff(offsets), 0),
                          offsets, uniforms)
    else:
        jump_heights = np.empty(uniforms.size)
    for i, u, h in drawn:
        uniforms[offsets[i]:offsets[i + 1]] = u
        if h is not None:
            jump_heights[offsets[i]:offsets[i + 1]] = h
    cells = counts.ravel()
    steps = np.repeat(np.tile(np.arange(nsteps), n), cells)
    t0 = times[steps]
    raw = t0 + (times[steps + 1] - t0) * (1.0 - uniforms)
    # events come in (row, step) order, so only steps holding two or more
    # need sorting; lexsort is stable, as over all events
    shared = cells >= 2
    pos = np.flatnonzero(np.repeat(shared, cells))
    cell = np.repeat(np.flatnonzero(shared), cells[shared])
    raw[pos] = raw[pos[np.lexsort((raw[pos], cell))]]
    return _NoiseRecord(gaussians, offsets, raw, jump_heights, steps)


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


def _sample(params: DemandParams, times: np.ndarray, streams: Streams,
            n: int) -> PathEnsemble:
    noise = _draw_noise(params, times, streams, n)
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

    For ``seed`` and ``n_paths - 1`` in [0, 2**32) no stream is built: the
    PCG64 state words of all rows are derived at once (:func:`_pcg64_states`).
    When ``n_paths`` exceeds the cap of :func:`_block_width` and every step
    has a jump mean below 10, walks of those words give the jump counts,
    the gaussians and, under a constant height law, the jump uniforms of
    all paths, exactly as the stream's generator would draw them.  Only the
    rows the walks leave set a reused generator, once (see
    :func:`_draw_noise`); otherwise each path sets it and calls
    ``rng.poisson``.  Other seeds go through :func:`substream`, so a
    negative seed raises its ``ValueError``.
    """
    times = _validate_grid(times)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if (isinstance(seed, (int, np.integer)) and 0 <= seed <= _MASK32
            and n_paths - 1 <= _MASK32):
        streams = _pcg64_states(int(seed), np.arange(n_paths, dtype=np.uint32))
    else:  # a negative seed raises substream's ValueError
        streams = (substream(seed, i) for i in range(n_paths))
    return _sample(params, times, streams, n_paths)


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
