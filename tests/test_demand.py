import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import oracles
import strategies
from powertrack import (
    ConstantHeight,
    ConstantMean,
    DemandParams,
    JumpSpec,
    NormalHeight,
    conditional_mean,
    conditional_variance,
    first_moment,
    sample_ensemble,
    sample_path,
    sample_paths,
    substream,
)
from powertrack import _streams, _ziggurat, demand
from powertrack._streams import _pcg64_states


def _flat(level=10.0, kappa=1.0, sigma=0.0, y0=6.0, jump=None):
    return DemandParams(kappa=kappa, sigma=sigma, mean=ConstantMean(level),
                        y0=y0, jump=jump or JumpSpec.none())


class TestExactStep:
    def test_long_horizon_relaxes_to_level(self):
        params = _flat()
        end = sample_paths(params, [0.0, 800.0], 1, seed=0).values[0, -1]
        assert end == pytest.approx(10.0, abs=1e-12)

    def test_tiny_step_is_identity(self):
        params = _flat()
        end = sample_paths(params, [0.0, 1e-12], 1, seed=0).values[0, -1]
        assert end == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [0.0, -0.5])
    def test_nonpositive_step_rejected(self, delta):
        with pytest.raises(ValueError):
            sample_paths(_flat(), [0.0, delta], 1, seed=0)

    def test_ps3_one_step_mean_matches_conditional_mean(self, ps3):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        draws = sample_paths(ps3, [0.0, 0.025], 100_000, seed=42).values[:, 1]
        expected = conditional_mean(ps3, 0.0, ps3.y0, 0.025)
        assert abs(draws.mean() - expected) < 3 * oracles.se_mean(draws)


class TestSamplePath:
    def test_noise_free_path_follows_mean_curve(self):
        params = _flat(sigma=0.0)
        times = np.linspace(0.0, 4.0, 33)
        path = sample_path(params, times, substream(1, 0))
        assert np.allclose(path.values, first_moment(params, times), atol=1e-12)
        assert path.jump_times.size == 0

    def test_ps1_variance_at_t1(self, ps1):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        # closed-form oracle: (sigma^2 / 2 kappa) (1 - e^{-2 kappa})
        target = (ps1.sigma ** 2 / (2 * ps1.kappa)) * (1 - np.exp(-2 * ps1.kappa))
        assert target == pytest.approx(1.7293, abs=1e-4)
        paths = sample_paths(ps1, [0.0, 1.0], 100_000, seed=5)
        end = np.array([p.values[-1] for p in paths])
        sample_var = end.var(ddof=1)
        assert abs(sample_var - target) < 3 * oracles.se_variance(end)

    def test_identical_seed_bit_identical(self, ps3):
        times = np.linspace(0.0, 1.0, 11)
        a = sample_path(ps3, times, substream(9, 3))
        b = sample_path(ps3, times, substream(9, 3))
        assert _bytes(a, _PATH_FIELDS) == _bytes(b, _PATH_FIELDS)

    def test_sample_paths_matches_per_path_substreams(self, ps3):
        times = np.linspace(0.0, 1.0, 9)
        bulk = sample_paths(ps3, times, 4, seed=11)
        for i, path in enumerate(bulk):
            solo = sample_path(ps3, times, substream(11, i))
            assert np.array_equal(path.values, solo.values)

    def test_stream_ends_where_the_stepwise_oracle_leaves_it(self, ps3):
        params = DemandParams(kappa=ps3.kappa, sigma=ps3.sigma, mean=ps3.mean,
                              y0=ps3.y0, jump=JumpSpec(5.0, NormalHeight(1.0, 0.5)))
        times = np.linspace(0.0, 1.0, 11)
        rng, twin = substream(5, 0), substream(5, 0)
        sample_path(params, times, rng)
        oracles.stepwise_path(params, times, twin)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("bad", [[], [0.0, 0.5, 0.5], [0.0, 0.5, 0.2], [0.1, 0.5],
                                     [0.0, np.inf], [0.0, 0.5, np.nan]])
    def test_bad_grid_rejected(self, ps1, bad):
        with pytest.raises(ValueError, match="time grid"):
            sample_path(ps1, bad, substream(0, 0))

    def test_grid_refinement_invariant_in_law(self, ps1):
        """Two seeded two-sided 4-sigma gates, 0.0063% each: 0.013% (union bound)."""
        n = 40_000
        coarse = sample_paths(ps1, [0.0, 0.5, 1.0], n, seed=31)
        fine = sample_paths(ps1, np.linspace(0.0, 1.0, 21), n, seed=32)
        at_c = np.array([p.values[-1] for p in coarse])
        at_f = np.array([p.values[-1] for p in fine])
        se_m = np.hypot(oracles.se_mean(at_c), oracles.se_mean(at_f))
        se_v = np.hypot(oracles.se_variance(at_c), oracles.se_variance(at_f))
        assert abs(at_c.mean() - at_f.mean()) < 4 * se_m
        assert abs(at_c.var(ddof=1) - at_f.var(ddof=1)) < 4 * se_v

    def test_marginal_law_is_normal_without_jumps(self, ps1):
        """Two 4-sigma gates (0.0063% each) and a KS p > 1e-3 gate: 0.11% (union bound)."""
        params = DemandParams(kappa=ps1.kappa, sigma=ps1.sigma, mean=ps1.mean,
                              y0=ps1.y0, jump=JumpSpec.none())
        t = 1.0
        draws = np.array([p.values[-1]
                          for p in sample_paths(params, [0.0, t], 100_000, seed=8)])
        mean = first_moment(params, t)
        var = conditional_variance(params, t)
        assert abs(draws.mean() - mean) < 4 * oracles.se_mean(draws)
        assert abs(draws.var(ddof=1) - var) < 4 * oracles.se_variance(draws)
        stat = kstest((draws - mean) / np.sqrt(var), "norm")
        assert stat.pvalue > 1e-3

    def test_jump_counts_are_poisson(self, ps3):
        """Two seeded two-sided 4-sigma gates, 0.0063% each: 0.013% (union bound)."""
        n = 20_000
        paths = sample_paths(ps3, np.linspace(0.0, 1.0, 5), n, seed=13)
        counts = np.array([p.jump_times.size for p in paths], dtype=float)
        lam = ps3.jump.intensity  # nu * T with T = 1
        assert abs(counts.mean() - lam) < 4 * oracles.se_mean(counts)
        assert abs(counts.var(ddof=1) - lam) < 4 * oracles.se_variance(counts)


class TestSampleEnsemble:
    def test_equal_initial_values_give_identical_paths(self, ps1):
        paths = sample_ensemble([ps1, ps1], [0.0, 0.5, 1.0], substream(3, 0))
        assert np.array_equal(paths[0].values, paths[1].values)

    def test_deterministic_gaps_shrink_exponentially(self):
        times = np.linspace(0.0, 3.0, 13)
        members = [_flat(y0=y0) for y0 in (6.0, 9.0, 14.0)]
        paths = sample_ensemble(members, times, substream(4, 0))
        for params, path in zip(members, paths):
            assert np.allclose(path.values, 10.0 + (params.y0 - 10.0) * np.exp(-times),
                               atol=1e-12)

    def test_shared_noise_difference_is_exact(self, ps1):
        times = np.linspace(0.0, 1.0, 41)
        lo = DemandParams(kappa=ps1.kappa, sigma=ps1.sigma, mean=ps1.mean,
                          y0=6.0, jump=ps1.jump)
        hi = DemandParams(kappa=ps1.kappa, sigma=ps1.sigma, mean=ps1.mean,
                          y0=14.0, jump=ps1.jump)
        lo_path, hi_path = sample_ensemble([lo, hi], times, substream(6, 0))
        # linearity of the solution map in y0
        assert np.allclose(hi_path.values - lo_path.values,
                           8.0 * np.exp(-ps1.kappa * times), atol=1e-12)

    @settings(max_examples=100)
    @given(kappa=st.floats(0.05, 20.0), sigma=st.floats(0.0, 3.0),
           mean=strategies.MEANS, law=strategies.HEIGHT_LAWS,
           intensity=st.floats(0.0, 20.0),
           y0s=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=4),
           steps=st.lists(st.floats(0.01, 0.5), max_size=24),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_differ_by_the_decayed_initial_gap(self, kappa, sigma, mean,
                                                    law, intensity, y0s, steps,
                                                    seed):
        times = np.concatenate(([0.0], np.cumsum(steps)))
        members = [DemandParams(kappa=kappa, sigma=sigma, mean=mean, y0=y0,
                                jump=JumpSpec(intensity, law)) for y0 in y0s]
        paths = sample_ensemble(members, times, substream(seed, 0))
        base = paths[0].values
        for y0, path in zip(y0s[1:], paths[1:]):
            scale = max(1.0, float(np.max(np.abs(path.values))),
                        float(np.max(np.abs(base))))
            want = (y0 - y0s[0]) * np.exp(-kappa * times)
            assert np.max(np.abs(path.values - base - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["PS1", "PS3", "PS3-normal-heights"])
    def test_members_equal_their_single_paths_bitwise(self, ps1, ps3, ps_grid,
                                                      name):
        params = {"PS1": ps1, "PS3": ps3, "PS3-normal-heights": replace(
            ps3, jump=JumpSpec(3.0, NormalHeight(1.0, 0.5)))}[name]
        times = ps_grid.times()
        members = [replace(params, y0=y0) for y0 in (params.y0, -2.0, 7.5)]
        for seed in range(30):
            paths = sample_ensemble(members, times, substream(seed, 0))
            for member, path in zip(members, paths):
                solo = sample_path(member, times, substream(seed, 0))
                assert _bytes(path, _PATH_FIELDS) == _bytes(solo, _PATH_FIELDS), seed

    def test_heterogeneous_members_rejected(self, ps1, ps2):
        with pytest.raises(ValueError):
            sample_ensemble([ps1, ps2], [0.0, 1.0], substream(0, 0))

    def test_generator_ends_where_one_sample_path_leaves_it(self, ps3):
        times = np.linspace(0.0, 1.0, 11)
        members = [replace(ps3, y0=y0) for y0 in (ps3.y0, -2.0, 7.5)]
        rng, twin = substream(8, 0), substream(8, 0)
        sample_ensemble(members, times, rng)
        sample_path(ps3, times, twin)
        assert rng.bit_generator.state == twin.bit_generator.state


_PATH_FIELDS = ("values", "jump_times")
_ENSEMBLE_FIELDS = ("values", "offsets", "jump_times")


def _bytes(sampled, fields):
    """The bytes of the named arrays of a path or an ensemble."""
    return tuple(getattr(sampled, name).tobytes() for name in fields)


def _stepwise_bytes(params, times, rng):
    """The bytes of the values and jump times of the stepwise oracle path."""
    values, _, jump_times, _ = oracles.stepwise_path(params, times, rng)
    return values.tobytes(), jump_times.tobytes()


def _draw_bytes(*args):
    """The bytes of every array that ``_streams.draw(*args)`` returns."""
    return [a.tobytes() for a in _streams.draw(*args) if a is not None]


class TestPathEnsemble:
    @settings(max_examples=200)
    @given(kappa=st.floats(0.05, 20.0), sigma=st.floats(0.0, 3.0),
           y0=st.floats(-10.0, 10.0), mean=strategies.MEANS,
           law=strategies.HEIGHT_LAWS,
           events_per_step=st.floats(0.0, 10.0),
           steps=st.lists(st.floats(0.01, 0.5), max_size=24),
           n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_single_path_samples(self, kappa, sigma, y0, mean, law,
                                            events_per_step, steps, n, seed):
        # up to ~10 events per step, so some steps hold 8 or more; the
        # sampler and the oracle add their decayed jumps left to right
        times = np.concatenate(([0.0], np.cumsum(steps)))
        intensity = events_per_step / max(steps) if steps else 0.0
        params = DemandParams(kappa=kappa, sigma=sigma, mean=mean, y0=y0,
                              jump=JumpSpec(intensity, law))
        ensemble = sample_paths(params, times, n, seed)
        assert len(ensemble) == n
        assert ensemble.values.shape == (n, times.size)
        for i, row in enumerate(ensemble):
            solo = sample_path(params, times, substream(seed, i))
            assert _bytes(row, _PATH_FIELDS) == _bytes(solo, _PATH_FIELDS)
            assert _bytes(row, _PATH_FIELDS) == _stepwise_bytes(
                params, times, substream(seed, i))

    @settings(max_examples=25)
    @given(kappa=st.floats(0.05, 20.0), sigma=st.floats(0.0, 3.0),
           y0=st.floats(-10.0, 10.0), mean=strategies.MEANS,
           law=strategies.HEIGHT_LAWS,
           events_per_step=st.floats(0.0, 12.0, exclude_max=True),
           steps=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6),
           n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
    # lam 2.2 and 11: a step of numpy's PTRS branch sends every row to rng.poisson
    @example(kappa=1.0, sigma=1.0, y0=0.0, mean=ConstantMean(1.0),
             law=NormalHeight(1.0, 0.5), events_per_step=11.0,
             steps=[0.1, 0.5], n=150, seed=3)
    @example(kappa=1.0, sigma=1.0, y0=0.0, mean=ConstantMean(1.0),
             law=ConstantHeight(1.0), events_per_step=0.0,
             steps=[0.1, 0.5], n=150, seed=3)
    # one walked row, and the two rows of the CLI's ``paths: 1``
    @example(kappa=1.0, sigma=1.0, y0=0.0, mean=ConstantMean(1.0),
             law=ConstantHeight(1.0), events_per_step=2.0,
             steps=[0.1, 0.5], n=1, seed=3)
    @example(kappa=1.0, sigma=1.0, y0=0.0, mean=ConstantMean(1.0),
             law=NormalHeight(1.0, 0.5), events_per_step=2.0,
             steps=[0.1, 0.5], n=2, seed=3)
    def test_block_rows_equal_stepwise_paths(self, kappa, sigma, y0, mean, law,
                                             events_per_step, steps, n, seed):
        times = np.concatenate(([0.0], np.cumsum(steps)))
        params = DemandParams(kappa=kappa, sigma=sigma, mean=mean, y0=y0,
                              jump=JumpSpec(events_per_step / max(steps), law))
        lam = params.jump.intensity * np.diff(times)
        ensemble = sample_paths(params, times, n, seed)
        walked = _walked_normals(lam, seed, n)
        for i, row in enumerate(ensemble):
            assert _bytes(row, _PATH_FIELDS) == _stepwise_bytes(
                params, times, substream(seed, i)), i
            # below a step mean of 10 the gaussians come from the walked
            # words, up to a ziggurat tail draw
            rng = substream(seed, i)
            rng.poisson(lam)
            tail = "tail" in oracles.ziggurat_branches(rng, lam.size)
            assert walked[i] == (lam.max() < 10.0 and not tail), i

    def test_tail_rows_draw_their_own_normals(self, ps3, monkeypatch):
        times = np.linspace(0.0, 1.0, 21)
        lam = ps3.jump.intensity * np.diff(times)
        want = sample_paths(ps3, times, 200, seed=21)
        want_draws = _draw_bytes(lam, 200, None, 21)
        # no idx = 0 draw passes the fast test: every one is a tail draw
        ki = _ziggurat.KI.copy()
        ki[0] = 0
        monkeypatch.setattr(_ziggurat, "KI", ki)
        assert 0 < np.count_nonzero(~_walked_normals(lam, 21, 200)) < 200
        got = sample_paths(ps3, times, 200, seed=21)
        assert _bytes(got, _ENSEMBLE_FIELDS) == _bytes(want, _ENSEMBLE_FIELDS)
        # the event steps, gaussians, uniforms and offsets of every row
        assert _draw_bytes(lam, 200, None, 21) == want_draws

    def test_rows_with_drawn_heights_resume_after_their_normals(self, ps3):
        params = replace(ps3, jump=JumpSpec(1.5, NormalHeight(1.0, 0.5)))
        times = np.linspace(0.0, 1.0, 21)
        lam = params.jump.intensity * np.diff(times)
        ensemble = sample_paths(params, times, 200, seed=5)
        _, gaussians, _, heights, offsets = _streams.draw(
            lam, 200, params.jump.height_law.sample, 5)
        walked = _walked_normals(lam, 5, 200)
        events = np.diff(ensemble.offsets) > 0
        # walked rows with events set a generator; those without draw no more
        assert np.any(walked & events) and np.any(walked & ~events)
        for i, row in enumerate(ensemble):
            values, xi, jump_times, gamma = oracles.stepwise_path(
                params, times, substream(5, i))
            assert _bytes(row, _PATH_FIELDS) == (values.tobytes(),
                                                 jump_times.tobytes()), i
            assert gaussians[1:, i].tobytes() == xi.tobytes(), i
            assert heights[offsets[i]:offsets[i + 1]].tobytes() == gamma.tobytes(), i

    def test_wedge_and_tail_rows_equal_stepwise_paths(self, ps3, ps_grid):
        """On the PS lattice at seed 7, row 2's ziggurat rejects one wedge
        draw, row 10 rejects one and accepts one, and row 87 reaches the
        tail (every other normal of these rows takes the fast path)."""
        times = ps_grid.times()
        lam = ps3.jump.intensity * np.diff(times)
        ensemble = sample_paths(ps3, times, 100, seed=7)
        walked = _walked_normals(lam, 7, 100)
        for i, rare in ((2, ["reject"]), (10, ["reject", "wedge"]),
                        (87, ["tail"])):
            rng = substream(7, i)
            rng.poisson(lam)
            branches = oracles.ziggurat_branches(rng, lam.size)
            assert [b for b in branches if b != "fast"] == rare
            assert walked[i] == (rare != ["tail"])
            assert _bytes(ensemble[i], _PATH_FIELDS) == _stepwise_bytes(
                ps3, times, substream(7, i))

    def test_second_seed_at_full_size_equals_per_generator_route(self, ps3,
                                                                 ps_grid):
        # the mc-ps3 ensemble at seed 11, whose bytes no stored hash pins
        times = ps_grid.times()
        walked = sample_paths(ps3, times, 5000, seed=11)
        streams = (substream(11, i) for i in range(5000))
        ref = demand._sample(ps3, times, lambda lam, heights: demand._draw_rows(
            lam, 5000, heights, streams))
        assert _bytes(walked, _ENSEMBLE_FIELDS) == _bytes(ref, _ENSEMBLE_FIELDS)

    def test_many_jumps_in_one_step_add_left_to_right(self):
        # ~30 events of scale 1e16 in one step: the order of their sum shows
        # in its last bits, and np.sum would add them pairwise
        params = DemandParams(kappa=1.0, sigma=0.0, mean=ConstantMean(0.0), y0=0.0,
                              jump=JumpSpec(60.0, NormalHeight(0.0, 1e16)))
        times = [0.0, 0.5]
        for seed in range(20):
            for path, rng in (
                    (sample_path(params, times, substream(seed, 0)), substream(seed, 0)),
                    (sample_paths(params, times, 3, seed)[1], substream(seed, 1))):
                _, _, jump_times, heights = oracles.stepwise_path(params, times, rng)
                assert path.jump_times.tobytes() == jump_times.tobytes()
                total = 0.0
                for w in (heights * np.exp(-(0.5 - path.jump_times))).tolist():
                    total += w
                assert path.jump_times.size >= 8
                assert path.values[-1] == total, seed

    def test_rows_beyond_two_to_the_sixteen_steps_equal_single_paths(self, ps3):
        # the recursion orders its cells by step on 16-bit keys up to 2**16
        # steps and on the steps themselves beyond; the last step's mean of
        # 10 sends every row to its generator, so 70000 steps draw quickly
        times = np.append(np.linspace(0.0, 1.0, 70_000), 3.0)
        assert ps3.jump.intensity * (times[-1] - times[-2]) == 10.0
        ensemble = sample_paths(ps3, times, 3, seed=4)
        assert np.any(ensemble.jump_times > times[2 ** 16])
        for i, row in enumerate(ensemble):
            solo = sample_path(ps3, times, substream(4, i))
            assert _bytes(row, _PATH_FIELDS) == _bytes(solo, _PATH_FIELDS), i

    def test_infinite_step_mean_is_left_to_rng_poisson(self):
        # intensity * step overflows to inf: draw sends every row to rng.poisson
        params = _flat(jump=JumpSpec(1e300, ConstantHeight(1.0)))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="lam"):
            sample_paths(params, [0.0, 1e10], 20, seed=0)

    def test_sampling_holds_few_blocks_beyond_the_ensemble(self, ps3, ps_grid):
        """Beyond the ensemble it returns, sampling holds at most 1.25 blocks
        of (paths, steps) values at once: the recursion's block, which the
        gaussians are drawn into, and the record of the events, with no
        dense count, step or jump-sum block.  Afterwards it retains only the
        values and the event times: no gaussians, heights or steps."""
        times = ps_grid.times()
        sample_paths(ps3, times, 3, seed=1)  # compiles the draws
        tracemalloc.start()
        try:
            ensemble = sample_paths(ps3, times, 2000, seed=5)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(getattr(ensemble, name).nbytes for name in _ENSEMBLE_FIELDS)
        assert peak - kept <= 1.25 * ensemble.values.nbytes
        assert current <= 1.25 * ensemble.values.nbytes

    def test_rows_are_views_of_the_arrays(self, ps3):
        times = np.linspace(0.0, 1.0, 11)
        ensemble = sample_paths(ps3, times, 6, seed=3)
        assert len(list(ensemble)) == 6
        assert np.shares_memory(ensemble[2].values, ensemble.values)
        assert np.array_equal(ensemble[-1].values, ensemble.values[5])
        counts = [p.jump_times.size for p in ensemble]
        assert counts == np.diff(ensemble.offsets).tolist()
        with pytest.raises(IndexError):
            ensemble[6]


def _walked_normals(lam, seed, n):
    """Mask of the rows of ``sample_paths(..., n, seed)`` whose gaussians
    come from the walked words, not from a generator: none when a step's
    mean is 10 or more, as ``_streams.draw`` decides."""
    if not np.all(lam < 10.0):
        return np.zeros(n, dtype=bool)
    *_, words = _streams._walk_counts(
        lam, _pcg64_states(seed, np.arange(n, dtype=np.uint32)))
    return _streams._walk_normals(lam.size, words)[1]


_MAX_WORD = 2 ** 32 - 1


def _joined(hi, lo):
    """The 128-bit Python ints of uint64 word arrays."""
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


class TestVectorisedSeeding:
    @settings(max_examples=300)
    @given(seed=st.integers(0, _MAX_WORD),
           indices=st.lists(st.integers(0, _MAX_WORD), min_size=1, max_size=8))
    @example(seed=0, indices=[0, _MAX_WORD])
    @example(seed=_MAX_WORD, indices=[_MAX_WORD, 0])
    def test_states_equal_substream(self, seed, indices):
        words = _pcg64_states(seed, np.array(indices, dtype=np.uint32))
        states = list(zip(_joined(words.state_hi, words.state_lo),
                          _joined(words.inc_hi, words.inc_lo)))
        assert len(states) == len(indices)
        for index, (state, inc) in zip(indices, states):
            ref = substream(seed, index)
            ref_state = ref.bit_generator.state["state"]
            assert (state, inc) == (ref_state["state"], ref_state["inc"])
            bit_gen = np.random.PCG64(0)
            bit_gen.state = {"bit_generator": "PCG64",
                             "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            assert np.random.Generator(bit_gen).random() == ref.random()

    @settings(max_examples=100)
    @given(seed=st.integers(0, _MAX_WORD),
           indices=st.lists(st.integers(0, _MAX_WORD), min_size=1, max_size=8),
           k=st.integers(1, 40))
    @example(seed=0, indices=[0, _MAX_WORD], k=3)
    @example(seed=_MAX_WORD, indices=[_MAX_WORD, 0], k=3)
    def test_stepped_doubles_equal_substream(self, seed, indices, k):
        words = _pcg64_states(seed, np.array(indices, dtype=np.uint32))
        hi, lo = words.state_hi, words.state_lo
        doubles = []
        for _ in range(k):
            hi, lo = _streams._lcg_step(hi, lo, words.inc_hi, words.inc_lo)
            doubles.append(_streams._next_double(hi, lo))
        doubles = np.array(doubles).T
        for index, row, state in zip(indices, doubles, _joined(hi, lo)):
            ref = substream(seed, index)
            assert row.tobytes() == ref.random(k).tobytes()
            assert state == ref.bit_generator.state["state"]["state"]

    @settings(max_examples=25)
    @given(seed=st.integers(0, _MAX_WORD),
           indices=st.lists(st.integers(0, _MAX_WORD), min_size=1, max_size=48),
           lam=st.lists(st.sampled_from([0.0, 0.05, 0.7, 2.0]),
                        min_size=1, max_size=4))
    @example(seed=0, indices=[0] * 20 + [_MAX_WORD] * 20, lam=[0.7, 0.0, 2.0])
    @example(seed=_MAX_WORD, indices=[_MAX_WORD] * 20 + [0] * 20,
             lam=[2.0, 2.0, 0.05])
    # 16 events, more than the walk's first buffers hold (3 x 4.05 + 3)
    @example(seed=6, indices=[0, 1, 2], lam=[2.0, 2.0, 0.05])
    def test_walk_ends_where_rng_poisson_leaves_the_stream(self, seed, indices,
                                                          lam):
        lam = np.array(lam)
        steps, offsets, words = _streams._walk_counts(
            lam, _pcg64_states(seed, np.array(indices, dtype=np.uint32)))
        states = _joined(words.state_hi, words.state_lo)
        assert offsets[0] == 0 and offsets[-1] == steps.size
        for i, (index, state) in enumerate(zip(indices, states)):
            ref = substream(seed, index)
            want = np.repeat(np.arange(lam.size), ref.poisson(lam))
            assert steps[offsets[i]:offsets[i + 1]].tolist() == want.tolist()
            assert state == ref.bit_generator.state["state"]["state"]

    @pytest.mark.parametrize("seed", [2 ** 32, 2 ** 40])
    def test_seed_beyond_one_word_uses_substream(self, ps3, seed):
        times = np.linspace(0.0, 1.0, 21)
        lam = ps3.jump.intensity * np.diff(times)
        ensemble = sample_paths(ps3, times, 5, seed)
        assert ensemble.jump_times.size > 0
        _, gaussians, uniforms, _, offsets = _streams.draw(lam, 5, None, seed)
        for i, row in enumerate(ensemble):
            solo = sample_path(ps3, times, substream(seed, i))
            assert _bytes(row, _PATH_FIELDS) == _bytes(solo, _PATH_FIELDS)
            rng = substream(seed, i)
            counts = rng.poisson(lam)
            assert gaussians[1:, i].tobytes() == rng.standard_normal(lam.size).tobytes()
            want = rng.random(counts.sum())
            assert uniforms[offsets[i]:offsets[i + 1]].tobytes() == want.tobytes()

    def test_negative_seed_rejected(self, ps3):
        with pytest.raises(ValueError):
            sample_paths(ps3, [0.0, 1.0], 3, seed=-1)


class TestZigguratTables:
    """The tables of ``_ziggurat``, and the walk that reads them, against
    the installed numpy's draws."""

    def test_crafted_state_draws_the_word(self):
        r = 0xFEDCBA9876543210
        assert int(oracles.drawing(r).bit_generator.random_raw()) == r

    def test_wi_scales_rabs_one(self):
        # r = 1 << 9 | k: idx k, positive, rabs 1 (a wedge draw at k = 1)
        draws = [oracles.drawing(1 << 9 | k).standard_normal() for k in range(256)]
        assert np.array(draws).tobytes() == _ziggurat.WI.tobytes()

    def test_ki_is_the_exact_fast_threshold(self):
        # rabs = ki - 1 is accepted on one word, rabs = ki takes more;
        # ki[1] is 0, so no draw at idx 1 is fast
        probes = [(k, rabs, rabs < ki)
                  for k, ki in enumerate(_ziggurat.KI.tolist())
                  for rabs in (ki - 1, ki) if rabs >= 0]
        assert len(probes) == 511
        for k, rabs, one_word in probes:
            r = rabs << 9 | k
            rng = oracles.drawing(r)
            rng.standard_normal()
            assert (rng.bit_generator.state["state"]["state"] == r) == one_word, k

    def test_walk_at_each_threshold_equals_numpy(self):
        # first words just below and at each ki threshold, of either sign:
        # fast draws, wedge draws accepted and rejected, and tail draws
        probes = [rabs << 9 | sign | k
                  for k, ki in enumerate(_ziggurat.KI.tolist())
                  for rabs in (ki - 1, ki) if rabs >= 0 for sign in (0, 1 << 8)]
        states = [oracles.crafted_state(r) for r in probes]
        words = _streams._Words(*(np.array(w, dtype=np.uint64) for w in (
            [s >> 64 for s in states], [s & (1 << 64) - 1 for s in states],
            [0] * len(states), [1] * len(states))))
        gaussians, walked, after = _streams._walk_normals(2, words)
        assert not gaussians[0].any()
        seen = set()
        for i, (r, start, end) in enumerate(zip(
                probes, states, _joined(after.state_hi, after.state_lo))):
            branches = oracles.ziggurat_branches(oracles.drawing(r), 2)
            seen.update(branches)
            assert walked[i] == ("tail" not in branches)
            if not walked[i]:  # left at its words, for a generator
                assert end == start
                continue
            rng = oracles.drawing(r)
            assert gaussians[1:, i].tobytes() == rng.standard_normal(2).tobytes()
            assert end == rng.bit_generator.state["state"]["state"]
        assert seen == {"fast", "wedge", "reject", "tail"}

    def test_fi_is_the_density_at_each_layer_edge(self):
        fi, x = _ziggurat.FI, _ziggurat.WI * 2.0 ** 52
        assert fi[0] == 1.0 and np.all(np.diff(fi) < 0)
        density = np.array([math.exp(-0.5 * v * v) for v in x[1:].tolist()])
        # one entry, fi[38], is 1 ulp from the C library's exp
        assert np.all(np.abs(fi[1:] - density) <= np.spacing(fi[1:]))


class TestHeightLaws:
    @pytest.mark.parametrize("make", [
        lambda: ConstantHeight(1e200), lambda: ConstantHeight(-1e155),
        lambda: ConstantHeight(float("nan")), lambda: NormalHeight(0.0, 1e200),
        lambda: NormalHeight(1e200, 0.0), lambda: NormalHeight(1e154, 1e154),
        lambda: NormalHeight(float("nan"), 1.0),
    ], ids=["constant", "constant-negative", "constant-nan", "normal-scale",
            "normal-loc", "normal-sum", "normal-nan"])
    def test_second_moment_beyond_float_range_rejected(self, make):
        with pytest.raises(ValueError, match="second moment"):
            make()

    def test_largest_finite_second_moments_accepted(self):
        assert np.isfinite(ConstantHeight(1e154).mean_square)
        assert np.isfinite(NormalHeight(1e153, 1e153).mean_square)


class TestEulerPath:
    def test_scalar_linear_ode(self):
        params = _flat(level=0.0, y0=1.0)
        times = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        euler = oracles.euler_values(params, times, 1, seed=2)
        assert abs(euler[0, -1] - np.exp(-1.0)) < 1e-4

    def test_instability_rejected(self):
        params = _flat(kappa=3.0)
        with pytest.raises(ValueError):
            oracles.euler_values(params, [0.0, 0.5], 1, seed=0)

    def test_compensated_level_shifts_long_run_mean(self):
        # mu = 0 but jumps push the stationary mean to gbar * nu / kappa = 5
        params = _flat(level=0.0, y0=0.0, jump=JumpSpec(5.0, ConstantHeight(1.0)))
        dt = 0.05
        times = np.arange(0.0, 400.0 + 1e-9, dt)
        euler = oracles.euler_values(params, times, 1, seed=17)
        tail = euler[0, times > 5.0]
        assert abs(tail.mean() - 5.0) < 0.4

    def test_moments_agree_with_exact_sampler(self, ps1):
        """Two 3-sigma gates widened by an O(dt) bias allowance: at most 0.27%
        each while the Euler bias stays inside it, 0.54% (union bound)."""
        n, dt, t_end = 30_000, 0.01, 1.0
        times = np.arange(0.0, t_end + 1e-12, dt)
        exact_end = sample_paths(ps1, [0.0, t_end], n, seed=51).values[:, -1]
        euler_end = oracles.euler_values(ps1, times, n, seed=52)[:, -1]
        se1 = np.hypot(oracles.se_mean(exact_end), oracles.se_mean(euler_end))
        scale = max(1.0, abs(exact_end.mean()))
        # 3 SE plus an O(dt) discretisation allowance
        assert abs(exact_end.mean() - euler_end.mean()) < 3 * se1 + 2.0 * dt * scale
        m2_exact, m2_euler = np.mean(exact_end ** 2), np.mean(euler_end ** 2)
        se2 = np.hypot(oracles.se_mean(exact_end ** 2), oracles.se_mean(euler_end ** 2))
        assert abs(m2_exact - m2_euler) < 3 * se2 + 4.0 * dt * max(1.0, m2_exact)
