"""numpy's random streams, drawn for many rows at once in uint64 arithmetic.

One path draws its noise from one generator in the order of
:func:`powertrack.demand._draw_rows`, which draws a single path and every
row this module does not walk.  :func:`draw` returns these draws for the
``n`` rows of a seeded ensemble: row ``i`` is the stream of
``SeedSequence((seed, i))`` (NEP 19).  While every step's mean is below
10, the draws of all rows are walked together from their PCG64 states
(O'Neill, HMC-CS-2014-0905): the counts by the rule of numpy's
``Generator.poisson``, the gaussians by numpy's ziggurat (Marsaglia and
Tsang, 2000), and the uniforms of a constant height law.  A walked row goes
on from a generator only at a ziggurat tail draw or for a height law that
draws, and :func:`powertrack.demand._draw_events` draws its events; at a
mean of 10 or more every row is drawn from a generator set at its PCG64
state.  NEP 19 exempts ``Generator``'s draws from stream compatibility, so
:func:`agrees` first compares crafted draws with the installed numpy; if
any differs, or a seed or row index is beyond 32 bits, row ``i`` is
drawn from ``substream(seed, i)``, which :func:`draw` builds from the seed.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Callable, Iterator, Optional

import numpy as np

from . import demand

# Constants of numpy's SeedSequence hash (NEP 19), and the 128-bit PCG
# multiplier M (O'Neill, HMC-CS-2014-0905).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_SHIFT = np.uint32(16)
# The 64-bit words of M and the 32-bit halves of its low word, as np.uint64
# scalars, which uint64 arrays take without a conversion per operation.
_M_HI, _M_LO = map(np.uint64, divmod(_MULT, 1 << 64))
_M_LO_HI, _M_LO_LO = map(np.uint64, divmod(int(_M_LO), 1 << 32))
_LOW32, _U32 = np.uint64(_MASK32), np.uint64(32)


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
    """One PCG64 step, s M + inc mod 2**128, of the uint64 word arrays ``hi``
    and ``lo`` in place, which it returns: only the high word of lo * M_lo
    needs 32-bit limbs (mulhi, Hacker's Delight).  uint64 sums wrap, so the
    terms of the high word may be added in any order."""
    a1, a0 = lo >> _U32, lo & _LOW32
    mid = a0 * _M_LO_LO
    mid >>= _U32
    mid += a1 * _M_LO_LO
    low = mid & _LOW32
    low += a0 * _M_LO_HI
    hi *= _M_LO
    hi += a1 * _M_LO_HI
    hi += mid >> _U32
    hi += low >> _U32
    hi += lo * _M_HI
    hi += inc_hi
    lo *= _M_LO
    lo += inc_lo
    hi += lo < inc_lo  # the carry of the low word
    return hi, lo


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


# numpy's Generator.poisson counts by multiplication below this mean and
# switches to its PTRS rejection sampler (Hormann, 1993) from it.
_POISSON_MULT_LIMIT = 10.0


def _walk_counts(lam: np.ndarray,
                 words: _Words) -> tuple[np.ndarray, np.ndarray, _Words]:
    """The events of the ``rng.poisson(lam)`` counts of the streams at
    ``words``, together, for every lam < 10.

    For 0 < lam < 10 numpy multiplies ``random()`` doubles into a product
    that starts at 1.0 until it is <= e = exp(-lam) (the C library's), and
    counts the doubles before the one that stopped it (Knuth); lam = 0 draws
    nothing.  Column k of the walk steps every row once and advances its
    rule by its double, recording the row and grid step of each event; a
    row that ends its last step records its words, and the walk stops when
    every row has.

    Returns the grid step of every event in (row, step) order, the n + 1
    offsets of each row's events in it, and the words to draw the rest from.
    """
    n = words.state_hi.size
    offsets = np.zeros(n + 1, dtype=np.int64)
    steps = np.flatnonzero(lam)
    if not steps.size:
        return steps, offsets, words
    hi, lo = words.state_hi.copy(), words.state_lo.copy()
    state_hi, state_lo = np.empty_like(hi), np.empty_like(lo)
    # exp(-lam) per step with lam > 0, then +inf: ended rows stop every product
    limits = np.array([math.exp(-x) for x in lam[steps].tolist()] + [math.inf])
    step = np.zeros(n, dtype=np.int64)  # index into steps of each row
    limit, prod = np.full(n, limits[0]), np.ones(n)
    # the row and the index into steps of each event, in walk order, and the
    # events of each column; in buffers sized for the expected events, which
    # double when full (arrays kept per column would pin the walk's freed
    # memory)
    size = int(n * lam.sum()) + n
    rows, at = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    sizes, used = [], 0
    counts = np.empty(n, dtype=np.int64)
    column, left = 0, n
    while left:
        _lcg_step(hi, lo, words.inc_hi, words.inc_lo)
        prod *= _next_double(hi, lo)
        stop = prod <= limit
        go = np.flatnonzero(~stop)
        if used + go.size > rows.size:
            rows, at = (np.concatenate((a[:used], np.empty_like(a))) for a in (rows, at))
        rows[used:used + go.size], at[used:used + go.size] = go, step[go]
        used += go.size
        sizes.append(go.size)
        prod[stop] = 1.0
        step += stop
        limit = limits.take(step, mode="clip")
        column += 1
        ended = np.flatnonzero(step == steps.size)
        if ended.size:
            state_hi[ended], state_lo[ended] = hi[ended], lo[ended]
            counts[ended] = column - steps.size  # its doubles, less its stops
            left -= ended.size
    np.cumsum(counts, out=offsets[1:])
    rows, at = rows[:used], at[:used]
    # before column j a row has drawn j doubles, ``at`` of them stops, so its
    # event there is its (j - at)-th
    place = np.repeat(np.arange(column), sizes)
    place -= at
    place += offsets[rows]
    events = np.empty(used, dtype=np.int64)
    events[place] = steps[at]
    return events, offsets, _Words(state_hi, state_lo, words.inc_hi, words.inc_lo)


_MASK52 = (1 << 52) - 1


def _walk_normals(nsteps: int,
                  words: _Words) -> tuple[np.ndarray, np.ndarray, _Words]:
    """The ``rng.standard_normal(nsteps)`` draws of the streams at ``words``,
    together.

    numpy's ziggurat (Marsaglia and Tsang, 2000; its tables are in
    :mod:`powertrack._ziggurat`) takes r = next_uint64: idx = r & 0xff, the
    sign is bit 8 and rabs = (r >> 9) & (2**52 - 1).  x = rabs wi[idx],
    negated for the sign, is accepted when rabs < ki[idx].  Otherwise, for
    idx > 0, one more double U accepts x when (fi[idx-1] - fi[idx]) U +
    fi[idx] < exp(-x^2/2) (the C library's), and a rejected x starts over
    with a fresh r.  Column k of the walk draws one r for every row still
    short of its normals; a row records its words when it has them all.  A
    row whose r falls in the idx = 0 tail is left at its words: it walks on
    with the others, but its draws are dropped.

    Returns the (nsteps + 1, n) block whose row 1 + k holds the k-th normal
    of every row, and whose row 0 is zeros, the mask of rows that have their
    normals, and the words to draw the rest from.
    """
    from . import _ziggurat  # compiled on a walk's first call, not at import

    n = words.state_hi.size
    block = np.empty((nsteps + 1, n))
    block[0] = 0.0
    walked = np.ones(n, dtype=bool)
    if not nsteps:
        return block, walked, words
    rows = np.arange(n)
    # indexed by r & 0x1ff: the sign bit picks the negated half of wi
    ki = np.tile(_ziggurat.KI, 2)
    wi = np.concatenate((_ziggurat.WI, -_ziggurat.WI))
    fi = _ziggurat.FI
    state_hi, state_lo = words.state_hi.copy(), words.state_lo.copy()
    hi, lo, inc_hi, inc_lo = (w[rows] for w in words)
    # where each row's next normal goes in block.ravel(); a rejected draw is
    # written there too, and overwritten by the next one
    flat, at = block.reshape(-1), rows + n
    while rows.size:
        _lcg_step(hi, lo, inc_hi, inc_lo)
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
        # a tail row walks on to the end, its draws written but not kept
        walked[rows[tail]] = False
        np.add(at, n, out=at, where=ok)
        done = at >= flat.size
        if done.any():
            kept = done & walked[rows]
            state_hi[rows[kept]], state_lo[rows[kept]] = hi[kept], lo[kept]
            rows, hi, lo, inc_hi, inc_lo, at = (
                a[~done] for a in (rows, hi, lo, inc_hi, inc_lo, at))
    return block, walked, _Words(state_hi, state_lo, words.inc_hi, words.inc_lo)


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


def _draw(lam: np.ndarray, heights: Optional[Callable], words: _Words):
    """:func:`draw` from the rows of ``words``, walked.  A walked row leaves
    the walks for a reused generator, set once where they stopped, when its
    gaussians reach the ziggurat's tail or when it has events under a law
    that draws its heights; :func:`powertrack.demand._draw_events` then
    draws its events.
    """
    nsteps = lam.size
    steps, offsets, words = _walk_counts(lam, words)
    gaussians, walked, words = _walk_normals(nsteps, words)
    uniforms = np.empty(steps.size)
    drawn = None if heights is None else np.empty(steps.size)
    if heights is None:  # size 0 for the rows a generator draws
        _walk_doubles(words, np.where(walked, np.diff(offsets), 0), offsets, uniforms)
    back = np.flatnonzero(~walked if heights is None
                          else ~walked | (np.diff(offsets) > 0))
    for i, rng in zip(back.tolist(), _generators(_Words(*(w[back] for w in words)))):
        if not walked[i]:
            gaussians[1:, i] = rng.standard_normal(nsteps)
        a, b = offsets[i], offsets[i + 1]
        demand._draw_events(rng, steps[a:b], heights, uniforms[a:b],
                            None if drawn is None else drawn[a:b])
    return steps, gaussians, uniforms, drawn, offsets


def draw(lam: np.ndarray, n: int, heights: Optional[Callable], seed: int):
    """The record of :func:`powertrack.demand._draw_rows` for ``n`` paths
    with per-step jump means ``lam``, row ``i`` the stream of
    ``substream(seed, i)``.  ``heights(rng, c)`` draws c heights; None
    stands for a constant law, which draws none.

    For ``seed`` and ``n - 1`` in [0, 2**32), on a numpy that :func:`agrees`,
    the rows are walked while every lam < 10, and otherwise each row is drawn
    from a generator set at its words; in every other case row ``i`` is
    drawn from ``demand.substream(seed, i)``, built here.
    """
    streams = (demand.substream(seed, i) for i in range(n))
    if (isinstance(seed, (int, np.integer)) and 0 <= seed <= _MASK32
            and n - 1 <= _MASK32 and agrees()):
        words = _pcg64_states(int(seed), np.arange(n, dtype=np.uint32))
        # nan and inf fail this test too, and rng.poisson then rejects them
        if np.all(lam < _POISSON_MULT_LIMIT):
            return _draw(lam, heights, words)
        streams = _generators(words)
    return demand._draw_rows(lam, n, heights, streams)


@functools.cache
def agrees() -> bool:
    """Whether the installed numpy draws what the walks compute, checked once.

    The state (r - 1) M^-1 mod 2**128 with inc = 1 steps to the state r,
    whose XSL-RR output is r itself.  Started on the words r = 2**51 + j
    2**20, a double near 2**-13, rows j = 2, 452, 500 and 15471 count one
    event at mean 9.5, then one at mean 0.5, on four doubles.  Their normals
    take the ziggurat's fast path, and then an accepted wedge, a rejected
    wedge and a tail draw; their uniforms follow.  The rows are drawn by the
    walks and by :func:`powertrack.demand._draw_rows` from generators.
    Seeding is not probed: numpy keeps the streams of its bit generators and
    their seeding stable; only ``Generator``'s methods may draw differently.
    """
    inv = pow(_MULT, -1, 1 << 128)
    states = [divmod(((1 << 51) + (j << 20) - 1) * inv % (1 << 128), 1 << 64)
              for j in (2, 452, 500, 15471)]
    words = _Words(*(np.array(w, dtype=np.uint64)
                     for w in (*zip(*states), [0] * 4, [1] * 4)))
    lam = np.array([9.5, 0.5])
    walked = _draw(lam, None, words)
    called = demand._draw_rows(lam, 4, None, _generators(words))
    return all(a.tobytes() == b.tobytes() for a, b in zip(walked, called)
               if a is not None)
