"""The agreement probe of :mod:`powertrack._streams`: the walks stand in for
the installed numpy's generators only while the two draw the same."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from powertrack import _streams, _ziggurat, sample_paths

_FIELDS = ("values", "offsets", "jump_times")


_WORD128 = st.integers(0, 2 ** 128 - 1)


@settings(max_examples=200)
@given(streams=st.lists(st.tuples(_WORD128, _WORD128), min_size=1, max_size=6),
       k=st.integers(1, 12))
@example(streams=[(2 ** 128 - 1, 2 ** 128 - 1), (0, 0), (2 ** 64 - 1, 1)], k=3)
def test_stepped_words_equal_pcg64_random_raw(streams, k):
    """``_lcg_step``, which steps uint64 word arrays in place, and
    ``_next_uint64`` against numpy's own PCG64 at any 128-bit state and
    increment."""
    hi, lo, inc_hi, inc_lo = (np.array(w, dtype=np.uint64) for w in zip(*(
        divmod(x, 2 ** 64) + divmod(inc, 2 ** 64) for x, inc in streams)))
    raws = []
    for _ in range(k):
        stepped = _streams._lcg_step(hi, lo, inc_hi, inc_lo)
        assert stepped[0] is hi and stepped[1] is lo
        raws.append(_streams._next_uint64(hi, lo))
    for i, (state, inc) in enumerate(streams):
        bit_gen = np.random.PCG64(0)
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        assert [int(r[i]) for r in raws] == bit_gen.random_raw(k).tolist()
        assert (int(hi[i]) << 64 | int(lo[i])) == bit_gen.state["state"]["state"]


def test_installed_numpy_agrees():
    assert _streams.agrees.__wrapped__()


@pytest.mark.parametrize("j, branches", [
    (2, ["fast", "fast"]), (452, ["fast", "wedge"]),
    (500, ["fast", "reject", "fast"]), (15471, ["fast", "tail"])])
def test_probe_rows_take_the_branches_it_names(j, branches):
    rng = oracles.drawing((1 << 51) + (j << 20))
    assert rng.poisson([9.5, 0.5]).tolist() == [1, 1]
    assert oracles.ziggurat_branches(rng, 2) == branches


@pytest.mark.parametrize("break_walk", [
    lambda mp: mp.setattr(_ziggurat, "WI", 2.0 * _ziggurat.WI),
    lambda mp: mp.setattr(_ziggurat, "KI", np.zeros_like(_ziggurat.KI)),
    lambda mp: mp.setattr(_streams, "_next_double", lambda hi, lo: 1.0 - (
        _streams._next_uint64(hi, lo) >> 11) * 2.0 ** -53),
], ids=["normals", "fast-path", "doubles"])
def test_probe_sees_a_walk_that_differs(monkeypatch, break_walk):
    break_walk(monkeypatch)
    assert not _streams.agrees.__wrapped__()


def test_disagreeing_numpy_draws_every_row_from_its_generator(ps3, ps_grid,
                                                               monkeypatch):
    # the mc-ps3 ensemble at seed 11: walked, then from 5000 generators
    times = ps_grid.times()
    lam = ps3.jump.intensity * np.diff(times)

    def draws():
        """The event steps, gaussians, uniforms and offsets of every row."""
        return [a.tobytes() for a in _streams.draw(lam, 5000, None, 11)
                if a is not None]

    walked, walked_draws = sample_paths(ps3, times, 5000, seed=11), draws()

    def no_walk(*args):
        raise AssertionError("words walked although numpy disagrees")

    monkeypatch.setattr(_streams, "agrees", lambda: False)
    monkeypatch.setattr(_streams, "_pcg64_states", no_walk)
    called = sample_paths(ps3, times, 5000, seed=11)
    for name in _FIELDS:
        assert getattr(called, name).tobytes() == getattr(walked, name).tobytes()
    assert draws() == walked_draws
