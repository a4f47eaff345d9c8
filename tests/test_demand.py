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
    draw_step_noise,
    euler_path,
    exact_step,
    first_moment,
    rebuild_values,
    sample_ensemble,
    sample_path,
    sample_paths,
    substream,
)
from powertrack.demand import _pcg64_states


def _flat(level=10.0, kappa=1.0, sigma=0.0, y0=6.0, jump=None):
    return DemandParams(kappa=kappa, sigma=sigma, mean=ConstantMean(level),
                        y0=y0, jump=jump or JumpSpec.none())


class TestExactStep:
    def test_long_horizon_relaxes_to_level(self):
        params = _flat()
        noise = draw_step_noise(params, 0.0, 800.0, substream(0, 0))
        assert exact_step(params, 0.0, 6.0, 800.0, noise) == pytest.approx(10.0, abs=1e-12)

    def test_tiny_step_is_identity(self):
        params = _flat()
        noise = draw_step_noise(params, 0.0, 1e-12, substream(0, 0))
        assert exact_step(params, 0.0, 6.0, 1e-12, noise) == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [0.0, -0.5])
    def test_nonpositive_step_rejected(self, delta):
        params = _flat()
        noise = draw_step_noise(params, 0.0, 1.0, substream(0, 0))
        with pytest.raises(ValueError):
            exact_step(params, 0.0, 6.0, delta, noise)
        with pytest.raises(ValueError):
            draw_step_noise(params, 0.0, delta, substream(0, 0))

    def test_ps3_one_step_mean_matches_conditional_mean(self, ps3):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        rng = substream(42, 0)
        draws = np.empty(100_000)
        for i in range(draws.size):
            noise = draw_step_noise(ps3, 0.0, 0.025, rng)
            draws[i] = exact_step(ps3, 0.0, 1.0, 0.025, noise)
        expected = conditional_mean(ps3, 0.0, 1.0, 0.025)
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
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.gaussians, b.gaussians)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_heights, b.jump_heights)

    def test_sample_paths_matches_per_path_substreams(self, ps3):
        times = np.linspace(0.0, 1.0, 9)
        bulk = sample_paths(ps3, times, 4, seed=11)
        for i, path in enumerate(bulk):
            solo = sample_path(ps3, times, substream(11, i))
            assert np.array_equal(path.values, solo.values)

    @pytest.mark.parametrize("bad", [[], [0.0, 0.5, 0.5], [0.0, 0.5, 0.2], [0.1, 0.5]])
    def test_bad_grid_rejected(self, ps1, bad):
        with pytest.raises(ValueError):
            sample_path(ps1, bad, substream(0, 0))

    def test_rebuild_is_bit_exact(self, ps3):
        times = np.linspace(0.0, 1.0, 41)
        path = sample_path(ps3, times, substream(21, 0))
        assert path.jump_times.size > 0
        assert np.array_equal(rebuild_values(ps3, path), path.values)

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

    def test_heterogeneous_members_rejected(self, ps1, ps2):
        with pytest.raises(ValueError):
            sample_ensemble([ps1, ps2], [0.0, 1.0], substream(0, 0))


_NOISE_FIELDS = ("values", "gaussians", "jump_times", "jump_heights")


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
        # up to ~10 events per step, so some steps hold 8 or more and their
        # jump sums take np.sum's pairwise order
        times = np.concatenate(([0.0], np.cumsum(steps)))
        intensity = events_per_step / max(steps) if steps else 0.0
        params = DemandParams(kappa=kappa, sigma=sigma, mean=mean, y0=y0,
                              jump=JumpSpec(intensity, law))
        ensemble = sample_paths(params, times, n, seed)
        assert len(ensemble) == n
        assert ensemble.values.shape == (n, times.size)
        for i, row in enumerate(ensemble):
            solo = sample_path(params, times, substream(seed, i))
            stepwise = oracles.stepwise_path(params, times, substream(seed, i))
            for name, ref in zip(_NOISE_FIELDS, stepwise):
                assert getattr(row, name).tobytes() == getattr(solo, name).tobytes()
                assert getattr(row, name).tobytes() == ref.tobytes(), name
            assert np.array_equal(row.jump_steps, solo.jump_steps)
            assert np.array_equal(rebuild_values(params, row), row.values)

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


_MAX_WORD = 2 ** 32 - 1


class TestVectorisedSeeding:
    @settings(max_examples=300)
    @given(seed=st.integers(0, _MAX_WORD),
           indices=st.lists(st.integers(0, _MAX_WORD), min_size=1, max_size=8))
    @example(seed=0, indices=[0, _MAX_WORD])
    @example(seed=_MAX_WORD, indices=[_MAX_WORD, 0])
    def test_states_equal_substream(self, seed, indices):
        states = list(_pcg64_states(seed, np.array(indices, dtype=np.uint32)))
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

    @pytest.mark.parametrize("seed", [2 ** 32, 2 ** 40])
    def test_seed_beyond_one_word_uses_substream(self, ps3, seed):
        times = np.linspace(0.0, 1.0, 21)
        ensemble = sample_paths(ps3, times, 5, seed)
        assert ensemble.jump_times.size > 0
        for i, row in enumerate(ensemble):
            solo = sample_path(ps3, times, substream(seed, i))
            for name in _NOISE_FIELDS + ("jump_steps",):
                assert getattr(row, name).tobytes() == getattr(solo, name).tobytes()

    def test_negative_seed_rejected(self, ps3):
        with pytest.raises(ValueError):
            sample_paths(ps3, [0.0, 1.0], 3, seed=-1)


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
        path = euler_path(params, times, substream(2, 0))
        assert abs(path.values[-1] - np.exp(-1.0)) < 1e-4

    def test_instability_rejected(self):
        params = _flat(kappa=3.0)
        with pytest.raises(ValueError):
            euler_path(params, [0.0, 0.5], substream(0, 0))

    def test_compensated_level_shifts_long_run_mean(self):
        # mu = 0 but jumps push the stationary mean to gbar * nu / kappa = 5
        params = _flat(level=0.0, y0=0.0, jump=JumpSpec(5.0, ConstantHeight(1.0)))
        dt = 0.05
        times = np.arange(0.0, 400.0 + 1e-9, dt)
        path = euler_path(params, times, substream(17, 0))
        tail = path.values[times > 5.0]
        assert abs(tail.mean() - 5.0) < 0.4

    def test_moments_agree_with_exact_sampler(self, ps1):
        """Two 3-sigma gates widened by an O(dt) bias allowance: at most 0.27%
        each while the Euler bias stays inside it, 0.54% (union bound)."""
        n, dt, t_end = 30_000, 0.01, 1.0
        times = np.arange(0.0, t_end + 1e-12, dt)
        exact_end = np.array([p.values[-1]
                              for p in sample_paths(ps1, [0.0, t_end], n, seed=51)])
        euler_end = np.empty(n)
        for i in range(n):
            euler_end[i] = euler_path(ps1, times, substream(52, i)).values[-1]
        se1 = np.hypot(oracles.se_mean(exact_end), oracles.se_mean(euler_end))
        scale = max(1.0, abs(exact_end.mean()))
        # 3 SE plus an O(dt) discretisation allowance
        assert abs(exact_end.mean() - euler_end.mean()) < 3 * se1 + 2.0 * dt * scale
        m2_exact, m2_euler = np.mean(exact_end ** 2), np.mean(euler_end ** 2)
        se2 = np.hypot(oracles.se_mean(exact_end ** 2), oracles.se_mean(euler_end ** 2))
        assert abs(m2_exact - m2_euler) < 3 * se2 + 4.0 * dt * max(1.0, m2_exact)

    def test_rebuild_is_bit_exact(self, ps3):
        times = np.linspace(0.0, 1.0, 101)
        path = euler_path(ps3, times, substream(23, 0))
        assert np.array_equal(rebuild_values(ps3, path, method="euler"), path.values)


class TestPathAccessors:
    def test_value_at_exact_grid_time(self, ps1):
        path = sample_path(ps1, [0.0, 0.25, 0.5], substream(1, 1))
        assert path.value_at(0.25) == path.values[1]
        with pytest.raises(ValueError):
            path.value_at(0.3)
