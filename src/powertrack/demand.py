"""Mean-reverting demand processes with optional compound-Poisson jumps.

The demand Y_t follows

    dY_t = kappa * (mu(t) - Y_t) dt + sigma dW_t + gamma_t dN_t,    Y_0 = y0,

where N_t is a Poisson process of rate ``nu`` and the jump heights gamma_t
are i.i.d. draws from a configurable law.  Sampling uses the explicit
solution of the SDE, so transitions between arbitrary grid times are exact
(no discretisation bias).

A sampled path keeps its values and the times of its jump events; the
draws that drove it are released once the values are built.  The noise does
not depend on the initial value, so :func:`sample_ensemble` gives several
initial values one realisation of it by sampling each from the same
generator state.

Monte-Carlo ensembles are a :class:`PathEnsemble`: values as a (paths,
steps + 1) array and the jump times of all paths in one compressed-row
record.  Row ``i`` is exactly the stream of ``substream(seed, i)``.  One
path draws from its generator in the order of :func:`_draw_rows`, the only
implementation of it.  :mod:`powertrack._streams` walks those draws for
every seeded row at once while each step's mean is below 10; only a seeded
ensemble loads it.  The exact recursion runs step by step over all paths at
once, in Python floats for a single path.  Indexing an ensemble gives :class:`DemandPath` views.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Union

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

    ``intensity == 0`` disables jumps entirely (pure diffusion).  E[gamma]
    and E[gamma^2] are ``height_law.mean`` and ``height_law.mean_square``.
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
    def active(self) -> bool:
        """Whether jumps can move the path at all.  Both moments are read: a
        tiny constant height has a mean_square of 0.0 by underflow."""
        law = self.height_law
        return self.intensity > 0 and (law.mean != 0.0 or law.mean_square != 0.0)


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
            m = 1.0 if math.isfinite(kappa * kappa + w * w) else max(kappa, abs(w))
            gain = self.amplitude * (kappa / m) / ((kappa / m) ** 2 + (w / m) ** 2) / m
            out = out + gain * (osc - decay * osc0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class TabulatedMean:
    """Forecast given at knots, linearly interpolated in between.

    The knot range must cover every time the forecast is evaluated at;
    there is no extrapolation.  The forecast is linear on each knot segment,
    so its weighted integral is exact (see :meth:`weighted_integral`).
    Forecasts with equal knot arrays are equal, and, like arrays, unhashable.
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

    def __eq__(self, other):
        if not isinstance(other, TabulatedMean):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.values, other.values))

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
# Process parameters and paths
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
        if not math.isfinite(self.sigma * self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be >= 0 with a finite square")
        if not math.isfinite(self.y0):
            raise ValueError("y0 must be finite")


@dataclass(frozen=True, eq=False)
class DemandPath:
    """One sampled trajectory and the times of the jump events that moved
    it, sorted, each in the grid step (t_k, t_{k+1}] that holds it."""

    times: np.ndarray
    values: np.ndarray
    jump_times: np.ndarray


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """``n`` trajectories on one grid, held as arrays.

    ``values`` is (n, nt+1); a sampled ensemble holds the transpose of the
    step-major block its recursion filled, so each path is a strided row.
    The jump times of all paths form one compressed-row record: those of
    path ``i`` are ``jump_times[offsets[i]:offsets[i + 1]]``, laid out as
    in :class:`DemandPath`.

    The ensemble is a sequence: ``len``, integer indexing and iteration give
    :class:`DemandPath` views of its rows.
    """

    times: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    jump_times: np.ndarray

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
                          jump_times=self.jump_times[a:b])


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for path ``index`` of ensemble ``seed``.

    Derived from the pair ``(seed, index)`` so ensemble members do not depend
    on generation order or parallel scheduling.  :func:`sample_paths` draws
    row ``i`` from exactly this stream, walked without building it while each
    step's mean is below 10 (see :mod:`powertrack._streams`).
    """
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


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


def _grid_coeffs(params: DemandParams,
                 times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic pieces of the exact transition over each grid step:
    decay factor, mean-tracking drift, and Gaussian standard deviation.

    The decay and the deviation call the C library's ``exp`` and ``expm1``
    once per distinct step length (``np.unique`` finds them, and its
    inverse index spreads the values back over the steps), since numpy's
    vectorised ``exp`` can differ from it in the last bit, and that would
    move every sampled value.
    """
    kappa = params.kappa
    t0, t1 = times[:-1], times[1:]
    lengths, step_of = np.unique(t1 - t0, return_inverse=True)
    lengths = lengths.tolist()
    decay = np.array([math.exp(-kappa * d) for d in lengths])[step_of]
    # -expm1 keeps 1 - e^{-2 kappa delta} accurate for tiny steps
    one_minus = np.array([-math.expm1(-2.0 * kappa * d) for d in lengths])[step_of]
    drift = np.asarray(params.mean.weighted_integral(kappa, t0, t1),
                       dtype=float).reshape(-1)
    sd = params.sigma * np.sqrt(one_minus / (2.0 * kappa))
    return decay, drift, sd


def _exact_values(params: DemandParams, times: np.ndarray, block: np.ndarray,
                  offsets: np.ndarray, steps: np.ndarray, cells: np.ndarray,
                  jump_times: np.ndarray,
                  heights: Union[np.ndarray, float]) -> np.ndarray:
    """Exact transitions from ``params.y0``, written in place over the
    (nt+1, paths) ``block`` of :func:`_draw_rows`, whose row k + 1 holds
    the gaussians of step k, and driven by the jump events laid out as in
    :class:`PathEnsemble`, with the grid step, the cell (see
    :func:`_cells`) and the height of each (one float for a constant law);
    one grid step at a time and vectorised over paths.  Returns ``block``,
    whose transpose is the ensemble's values.

    Each step is the exact transition on every row: y maps to
    y e^{-kappa dt} + drift + sd xi, and then, if its cell holds events,
    sum_i gamma_i e^{-kappa (t_{k+1} - t_i)} is added; drift and sd come
    from :func:`_grid_coeffs`.  One ``np.bincount`` over the cells that hold
    events forms that sum, adding a cell's decayed jumps left to right from
    0.0 in draw order, whatever their count, and each step adds the sums of
    its own cells only.  Row k + 1 turns its gaussians into the new values
    in place, through one reused row buffer.  One row runs the same
    operations in Python floats, which round as numpy's do, reading the
    coefficients lazily through memoryviews.
    """
    decay, drift, sd = _grid_coeffs(params, times)
    nsteps, rows = decay.size, block.shape[1]
    weights = heights * np.exp(-params.kappa * (times[1:][steps] - jump_times))
    sums = np.bincount(cells, weights)
    del weights
    # the step of each cell, read at its first event
    cell_step = steps[np.flatnonzero(np.diff(cells, prepend=-1))]
    block[0] = params.y0
    if rows == 1:
        jumps, has_jumps = np.zeros(nsteps), np.zeros(nsteps, dtype=bool)
        jumps[cell_step], has_jumps[cell_step] = sums, True
        values = memoryview(block.reshape(-1))  # a view: block is (nsteps+1, 1)
        y = values[0]
        coeffs = (decay, drift, sd * block[1:, 0], jumps, has_jumps)
        for k, (d, dr, df, jump, has) in enumerate(zip(*map(memoryview, coeffs)), 1):
            y = y * d + dr + df
            if has:
                y += jump
            values[k] = y
        return block
    # the row of each cell: a row's cells follow the cell of its first event
    nonempty = np.flatnonzero(np.diff(offsets))
    cell_row = np.repeat(nonempty, np.diff(cells[offsets[nonempty]], append=sums.size))
    # the cells in step order, and the bounds of each step's cells; numpy
    # sorts 16-bit keys stably by radix, about ten times faster than wider ones
    order = np.argsort(cell_step.astype(np.uint16) if nsteps <= 2 ** 16 else cell_step,
                       kind="stable")
    cell_row, sums = cell_row[order], sums[order]
    bounds = np.zeros(nsteps + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_step, minlength=nsteps), out=bounds[1:])
    decay, drift, sd, bounds = decay.tolist(), drift.tolist(), sd.tolist(), bounds.tolist()
    carry = np.empty(rows)
    for k in range(nsteps):
        y = block[k + 1]
        np.multiply(block[k], decay[k], out=carry)
        carry += drift[k]
        y *= sd[k]
        y += carry
        a, b = bounds[k], bounds[k + 1]
        if a < b:
            at = cell_row[a:b]
            y[at] += sums[a:b]
    return block


def _cells(steps: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The cell of every event of the record, laid out as in
    :class:`PathEnsemble`: the (path, grid step) cells that hold events,
    numbered from 0 in (row, step) order."""
    first = np.ones(steps.size, dtype=bool)
    np.not_equal(steps[1:], steps[:-1], out=first[1:])
    starts = offsets[1:-1]
    first[starts[starts < steps.size]] = True
    return np.cumsum(first) - 1


def _event_times(times: np.ndarray, steps: np.ndarray, cells: np.ndarray,
                 uniforms: np.ndarray) -> np.ndarray:
    """The time of every event from its grid step k, its cell (see
    :func:`_cells`) and one uniform U, written over ``uniforms`` and
    returned: U becomes the time t_k + (t_{k+1} - t_k)(1 - U) in (t_k,
    t_{k+1}], and times are sorted within each cell."""
    raw = np.subtract(1.0, uniforms, out=uniforms)
    raw *= np.diff(times)[steps]
    raw += times[steps]
    # events come in (row, step) order, so only cells holding two or more
    # need sorting; lexsort is stable, as over all events
    pos = np.flatnonzero(np.bincount(cells)[cells] >= 2)
    raw[pos] = raw[pos[np.lexsort((raw[pos], cells[pos]))]]
    return raw


def _draw_events(rng: np.random.Generator, steps: np.ndarray,
                 heights: Optional[Callable], uniforms: np.ndarray,
                 drawn: Optional[np.ndarray]) -> None:
    """Draw the events of one path, at the grid ``steps`` in step order,
    from ``rng`` into ``uniforms`` and ``drawn``: for each step holding c
    events, ``rng.random(c)`` and then ``heights(rng, c)``.  A constant law
    (``heights`` None) draws no heights, so its uniforms are one call."""
    if heights is None:
        rng.random(out=uniforms)
        return
    a = 0
    for c in np.unique(steps, return_counts=True)[1].tolist():
        rng.random(out=uniforms[a:a + c])
        drawn[a:a + c] = heights(rng, c)
        a += c


def _draw_rows(lam: np.ndarray, n: int, heights: Optional[Callable],
               streams: Iterable[np.random.Generator]):
    """The draws of ``n`` paths, row ``i`` from the ``i``-th generator of
    ``streams``, with per-step jump means ``lam``, as one record of events:
    the grid step of every event in (row, step) order; the (steps + 1, n)
    block of gaussians, whose row 1 + k holds every path's normal of step k
    and whose row 0 is zeros; the uniforms and heights of the events (None
    for the heights of a constant law); and the n + 1 offsets of each row's
    events in them.

    A row draws the counts ``rng.poisson(lam)``, then the gaussians
    ``rng.standard_normal(steps)``, then its events by :func:`_draw_events`.
    """
    nsteps = lam.size
    grid = np.arange(nsteps)
    gaussians = np.zeros((nsteps + 1, n))
    rows, uniforms, drawn = [grid[:0]], [np.empty(0)], [np.empty(0)]
    for i, rng in zip(range(n), streams):
        row = np.repeat(grid, rng.poisson(lam))
        gaussians[1:, i] = rng.standard_normal(nsteps)
        # one array per path: per-step pieces would cost memory per step
        u = np.empty(row.size)
        h = None if heights is None else np.empty(row.size)
        _draw_events(rng, row, heights, u, h)
        rows.append(row)
        uniforms.append(u)
        drawn.append(h)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows[1:]], out=offsets[1:])
    return (np.concatenate(rows), gaussians, np.concatenate(uniforms),
            None if heights is None else np.concatenate(drawn), offsets)


def _sample(params: DemandParams, times: np.ndarray, draw: Callable) -> PathEnsemble:
    """Paths on the grid from ``draw(lam, heights)``, the record of their noise
    for the per-step jump means and the height sampler (None for a constant
    law); :func:`_event_times` places the events, whose heights keep their
    draw order.  Only the values, the transposed view of the recursion's
    block, and the event times are kept.
    """
    law = params.jump.height_law
    constant = isinstance(law, ConstantHeight)
    lam = params.jump.intensity * np.diff(times)
    steps, block, uniforms, heights, offsets = draw(lam, None if constant else law.sample)
    cells = _cells(steps, offsets)
    jump_times = _event_times(times, steps, cells, uniforms)  # in place
    _exact_values(params, times, block, offsets, steps, cells, jump_times,
                  float(law.value) if constant else heights)
    return PathEnsemble(times, block.T, offsets, jump_times)


def sample_path(params: DemandParams, times, rng: np.random.Generator) -> DemandPath:
    """Sample one trajectory on the given grid using exact transitions.

    Deterministic for a fixed generator state, from which it draws in the
    order of :func:`_draw_rows`; the returned path keeps its values and jump
    times, not the draws that drove it.
    """
    return _sample(params, _validate_grid(times),
                   lambda lam, heights: _draw_rows(lam, 1, heights, [rng]))[0]


def sample_paths(params: DemandParams, times, n_paths: int, seed: int) -> PathEnsemble:
    """Sample ``n_paths`` independent trajectories as one :class:`PathEnsemble`.

    Path ``i`` draws its noise from ``substream(seed, i)``; the exact
    recursion then runs once over all paths, step by step.  Row ``i`` is
    bit-identical to ``sample_path(params, times, substream(seed, i))``, so
    the ensemble does not depend on generation order, and its first ``m``
    rows are the ensemble of ``m`` paths.  :mod:`powertrack._streams`, given
    the seed alone, walks the draws of :func:`_draw_rows` for all rows at
    once while each step's mean is below 10, and otherwise builds each row's
    generator.  A negative seed raises :func:`substream`'s ``ValueError``.
    """
    times = _validate_grid(times)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    from ._streams import draw  # compiled by a first seeded draw, not at import

    return _sample(params, times, lambda lam, heights: draw(lam, n_paths, heights, seed))


def sample_ensemble(params_list: list[DemandParams], times,
                    rng: np.random.Generator) -> list[DemandPath]:
    """Sample one path per parameter set, all from one draw of the noise.

    The parameter sets may differ only in their initial value.  Each member
    is the path :func:`sample_path` gives for it from ``rng``'s state, which
    is set back before every member; the noise does not read y0, so the
    paths show identical ``jump_times``, and their values differ exactly by
    (y0_a - y0_b) e^{-kappa t}.  ``rng`` ends where one
    :func:`sample_path` leaves it.
    """
    if not params_list:
        raise ValueError("params_list must not be empty")
    base = params_list[0]
    if any(replace(p, y0=base.y0) != base for p in params_list[1:]):
        raise ValueError("ensemble members may differ only in y0")
    start = rng.bit_generator.state
    paths = []
    for p in params_list:
        rng.bit_generator.state = start
        paths.append(sample_path(p, times, rng))
    return paths
