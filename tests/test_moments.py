import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from powertrack import (
    ConstantHeight,
    ConstantMean,
    DemandParams,
    JumpSpec,
    LognormalHeight,
    NormalHeight,
    SinusoidMean,
    TabulatedMean,
    conditional_mean,
    conditional_variance,
    first_moment,
    jump_sum_moments,
    sample_paths,
    second_moment,
    weighted_mean_integral,
)
from powertrack import moments

TWO_PI = 2.0 * np.pi

# Frozen from the adaptive-quadrature oracle below:
# quad_weighted_mean(2 + 3 sin(2 pi s), kappa=3, 0, 1)
WMI_SINUSOID_K3_T1 = 0.7920300444271913


def _restart_draws(params, t0, y, delta, n, seed):
    """Draws of Y_{t0 + delta} given Y_{t0} = y.  The last step's noise,
    Y_{t0 + delta} - e^{-kappa delta} Y_{t0}, is independent of Y_{t0}, so
    moving each path to y at t0 makes the draws exact in law."""
    values = sample_paths(params, [0.0, t0, t0 + delta], n, seed).values
    return values[:, 2] + np.exp(-params.kappa * delta) * (y - values[:, 1])


class TestWeightedMeanIntegral:
    def test_constant_closed_form(self):
        mu = ConstantMean(10.0)
        assert weighted_mean_integral(mu, 1.0, 0.0, 800.0) == pytest.approx(10.0, abs=1e-12)
        assert weighted_mean_integral(mu, 2.0, 0.3, 0.3) == 0.0
        got = weighted_mean_integral(mu, 1.5, 0.2, 1.7)
        want = oracles.quad_weighted_mean(lambda s: 10.0, 1.5, 0.2, 1.7)
        assert got == pytest.approx(want, abs=1e-10)

    def test_sinusoid_against_quadrature_oracle(self):
        mu = SinusoidMean(2.0, 3.0, TWO_PI)
        got = weighted_mean_integral(mu, 3.0, 0.0, 1.0)
        assert got == pytest.approx(WMI_SINUSOID_K3_T1, abs=1e-8)
        live = oracles.quad_weighted_mean(lambda s: 2.0 + 3.0 * np.sin(TWO_PI * s),
                                          3.0, 0.0, 1.0)
        assert got == pytest.approx(live, abs=1e-10)

    # kappa^2 overflows from about 1.34e154; on both sides of that, the
    # weighted integral over a step of 0.3 is mu(0.3) itself
    @pytest.mark.parametrize("kappa", [1e150, 1e154, 1e155, 1e300])
    def test_sinusoid_at_huge_kappa_tracks_the_mean(self, kappa):
        mu = SinusoidMean(2.0, 3.0, TWO_PI)
        got = weighted_mean_integral(mu, kappa, 0.0, 0.3)
        assert got == pytest.approx(mu.at(0.3), rel=1e-12)

    def test_tabulated_against_quadrature_oracle(self):
        knots = np.linspace(0.0, 2.0, 41)
        mu = TabulatedMean(knots, 1.0 + np.cos(knots))
        got = weighted_mean_integral(mu, 2.5, 0.1, 1.9)
        interp = lambda s: np.interp(s, mu.times, mu.values)
        inner = [k for k in knots if 0.1 < k < 1.9]
        live = oracles.quad_weighted_mean(interp, 2.5, 0.1, 1.9, breakpoints=inner)
        assert got == pytest.approx(live, abs=1e-8)

    @staticmethod
    def _random_table(rng):
        knots = np.sort(rng.uniform(-1.0, 2.0, int(rng.integers(2, 12))))
        scale = 10.0 ** rng.uniform(-2.0, 3.0)
        return TabulatedMean(knots, rng.normal(0.0, scale, knots.size))

    def test_tabulated_closed_form_against_quadrature_oracle(self):
        rng = np.random.default_rng(20181012)
        for _ in range(200):
            mu = self._random_table(rng)
            kappa = 10.0 ** rng.uniform(-3.0, 4.0)
            t0, t = np.sort(rng.uniform(mu.times[0], mu.times[-1], 2))
            inner = mu.times[(mu.times > t0) & (mu.times < t)]
            want = oracles.quad_weighted_mean(mu.at, kappa, t0, t,
                                              breakpoints=inner if inner.size else None)
            got = weighted_mean_integral(mu, kappa, t0, t)
            scale = max(1.0, float(np.max(np.abs(mu.values))))
            assert abs(got - want) <= 1e-12 * scale, (kappa, t0, t)

    def test_tabulated_empty_span_is_zero(self):
        mu = TabulatedMean([0.0, 0.3, 1.0], [2.0, -1.0, 4.0])
        t = np.array([0.0, 0.15, 0.3, 0.65, 1.0])
        for kappa in (1e-3, 1.0, 1e4):
            assert np.all(weighted_mean_integral(mu, kappa, t, t) == 0.0)
            assert weighted_mean_integral(mu, kappa, 0.3, 0.3) == 0.0

    def test_tabulated_vectorised_equals_elementwise(self):
        rng = np.random.default_rng(7)
        mu = TabulatedMean(np.linspace(0.0, 1.0, 41), rng.normal(2.0, 3.0, 41))
        t0 = np.sort(rng.uniform(0.0, 1.0, (6, 5)), axis=1)
        t = np.minimum(t0 + rng.uniform(0.0, 0.5, t0.shape), 1.0)
        for kappa in (1e-3, 3.0, 5e3):
            block = weighted_mean_integral(mu, kappa, t0, t)
            assert block.shape == t0.shape
            for idx in np.ndindex(t0.shape):
                one = weighted_mean_integral(mu, kappa, t0[idx], t[idx])
                assert block[idx] == one

    def test_tabulated_sharp_kernel(self):
        # mu(s) = 1 + s: kappa int_0^1 e^{-kappa (1-s)} (1 + s) ds
        # = 2 - (1 - e^{-kappa}) / kappa, which is 2 - 1/kappa in doubles
        mu = TabulatedMean([0.0, 1.0], [1.0, 2.0])
        got = weighted_mean_integral(mu, 5000.0, 0.0, 1.0)
        assert got == pytest.approx(2.0 - 1.0 / 5000.0, rel=1e-14)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean_integral(ConstantMean(1.0), 1.0, 1.0, 0.5)

    def test_tabulated_out_of_range_rejected(self):
        mu = TabulatedMean([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_mean_integral(mu, 1.0, 0.0, 2.0)


class TestJumpSumMoments:
    def test_zero_span(self):
        jm = jump_sum_moments(JumpSpec(5.0, ConstantHeight(1.0)), 1.0, 0.0)
        assert jm.mean == 0.0 and jm.second_moment == 0.0

    def test_long_span_limit(self):
        # nu / kappa * gbar = 5 and nu E[g^2]/(2 kappa) + (nu gbar / kappa)^2 = 27.5
        jm = jump_sum_moments(JumpSpec(5.0, ConstantHeight(1.0)), 1.0, 800.0)
        assert jm.mean == pytest.approx(5.0, abs=1e-12)
        assert jm.second_moment == pytest.approx(27.5, abs=1e-12)

    @pytest.mark.parametrize("nu,kappa,gamma", [(5.0, 1.0, 1.0), (5.0, 3.0, 1.0),
                                                (2.0, 1.0, 2.0)])
    def test_against_brute_force_simulation(self, nu, kappa, gamma):
        """Two 3-sigma gates, 0.27% each: 0.54% per case, 1.6% over three (union bound)."""
        spec = JumpSpec(nu, ConstantHeight(gamma))
        law = spec.height_law
        sums = oracles.decayed_jump_sums(nu, kappa, 1.0, law.sample, 1_000_000,
                                         seed=int(10 * nu + kappa))
        jm = jump_sum_moments(spec, kappa, 1.0)
        series = oracles.jump_sum_second_moment_series(nu, kappa, 1.0, gamma, gamma ** 2)
        assert jm.second_moment == pytest.approx(series, rel=1e-12, abs=0.0)
        assert abs(sums.mean() - jm.mean) < 3 * oracles.se_mean(sums)
        assert abs(np.mean(sums ** 2) - jm.second_moment) < 3 * oracles.se_mean(sums ** 2)

    @pytest.mark.parametrize("law", [NormalHeight(0.5, 0.8), LognormalHeight(-0.2, 0.4)])
    def test_random_height_laws_against_simulation(self, law):
        """Two 3-sigma gates, 0.27% each: 0.54% per case, 1.1% over two (union bound)."""
        spec = JumpSpec(3.0, law)
        sums = oracles.decayed_jump_sums(3.0, 2.0, 0.7, law.sample, 400_000, seed=77)
        jm = jump_sum_moments(spec, 2.0, 0.7)
        assert abs(sums.mean() - jm.mean) < 3 * oracles.se_mean(sums)
        assert abs(np.mean(sums ** 2) - jm.second_moment) < 3 * oracles.se_mean(sums ** 2)


class TestFirstMoment:
    def test_at_time_zero(self, ps3):
        assert first_moment(ps3, 0.0) == ps3.y0

    def test_flat_mean_formula(self):
        params = DemandParams(kappa=1.0, sigma=0.0, mean=ConstantMean(10.0), y0=6.0)
        assert first_moment(params, 1.0) == pytest.approx(10.0 - 4.0 * np.exp(-1.0),
                                                          abs=1e-12)

    def test_ps3_against_monte_carlo(self, ps3):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        draws = np.array([p.values[-1]
                          for p in sample_paths(ps3, [0.0, 1.0], 60_000, seed=14)])
        assert abs(draws.mean() - first_moment(ps3, 1.0)) < 3 * oracles.se_mean(draws)

    def test_negative_time_rejected(self, ps1):
        with pytest.raises(ValueError):
            first_moment(ps1, -0.1)


class TestConditionalMean:
    def test_conditioning_at_same_time(self, ps3):
        assert conditional_mean(ps3, 0.5, 2.0, 0.5) == 2.0

    def test_tower_consistency_with_first_moment(self, ps1, ps2, ps3):
        t = np.linspace(0.0, 1.0, 9)
        for params in (ps1, ps2, ps3):
            assert np.allclose(conditional_mean(params, 0.0, params.y0, t),
                               first_moment(params, t), atol=1e-12)

    def test_ps3_restart_against_monte_carlo(self, ps3):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        draws = _restart_draws(ps3, 0.5, 2.0, 0.25, 30_000, seed=15)
        expected = conditional_mean(ps3, 0.5, 2.0, 0.75)
        assert abs(draws.mean() - expected) < 3 * oracles.se_mean(draws)

    def test_backwards_conditioning_rejected(self, ps3):
        with pytest.raises(ValueError):
            conditional_mean(ps3, 0.5, 2.0, 0.25)


class TestSecondMoment:
    def test_at_time_zero(self, ps3):
        assert second_moment(ps3, 0.0) == ps3.y0 ** 2

    def test_oup_variance(self, ps1):
        t = 1.0
        var = second_moment(ps1, t) - first_moment(ps1, t) ** 2
        want = ps1.sigma ** 2 * (1 - np.exp(-2 * ps1.kappa * t)) / (2 * ps1.kappa)
        assert var == pytest.approx(want, abs=1e-12)
        assert var == pytest.approx(1.7293, abs=1e-4)

    def test_ps3_against_monte_carlo(self, ps3):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        draws = np.array([p.values[-1]
                          for p in sample_paths(ps3, [0.0, 1.0], 60_000, seed=16)])
        sq = draws ** 2
        assert abs(sq.mean() - second_moment(ps3, 1.0)) < 3 * oracles.se_mean(sq)

    def test_equals_the_variance_where_the_mean_vanishes(self):
        # the jump-sum mean 1e6 cancels the deterministic part -1e6 at t = 1;
        # a cross term 2 D(t) E[jump sum] of -2e12 would cancel to rounding
        height = 1e6 / (1e8 * -math.expm1(-1.0))
        p = DemandParams(kappa=1.0, sigma=1.0, mean=ConstantMean(-1e6), y0=-1e6,
                         jump=JumpSpec(1e8, ConstantHeight(height)))
        assert first_moment(p, 1.0) == 0.0
        assert second_moment(p, 1.0) == pytest.approx(
            conditional_variance(p, 1.0), rel=1e-12, abs=0.0)


class TestConditionalVariance:
    def test_zero_span(self, ps3):
        assert conditional_variance(ps3, 0.0) == 0.0

    def test_stationary_limit(self, ps1):
        assert conditional_variance(ps1, 800.0) == pytest.approx(2.0, abs=1e-12)

    def test_ps3_restart_against_monte_carlo(self, ps3):
        """One seeded two-sided 3-sigma gate: a false-failure rate of 0.27%."""
        draws = _restart_draws(ps3, 0.3, 1.7, 0.25, 30_000, seed=18)
        want = conditional_variance(ps3, 0.25)
        assert abs(draws.var(ddof=1) - want) < 3 * oracles.se_variance(draws)

    def test_monotone_in_span(self, ps1, ps2, ps3):
        spans = np.linspace(0.0, 3.0, 61)
        for params in (ps1, ps2, ps3):
            v = conditional_variance(params, spans)
            assert np.all(np.diff(v) >= -1e-15)

    def test_negative_span_rejected(self, ps1):
        with pytest.raises(ValueError):
            conditional_variance(ps1, -0.1)


class TestInvariants:
    def test_variance_never_negative(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            params = DemandParams(
                kappa=float(rng.uniform(0.2, 5.0)),
                sigma=float(rng.uniform(0.0, 3.0)),
                mean=SinusoidMean(float(rng.uniform(-2, 4)),
                                  float(rng.uniform(0, 3)),
                                  float(rng.uniform(0.5, 8.0))),
                y0=float(rng.uniform(-3, 6)),
                jump=JumpSpec(float(rng.uniform(0, 6)),
                              ConstantHeight(float(rng.uniform(-1, 2)))),
            )
            t = rng.uniform(0.0, 2.0, 8)
            assert np.all(second_moment(params, t) - first_moment(params, t) ** 2
                          >= -1e-10)

    def test_zero_height_jumps_reduce_to_pure_diffusion(self, ps1):
        no_jump = DemandParams(kappa=ps1.kappa, sigma=ps1.sigma, mean=ps1.mean,
                               y0=ps1.y0, jump=JumpSpec.none())
        t = np.linspace(0.0, 1.5, 13)
        assert np.allclose(first_moment(ps1, t), first_moment(no_jump, t), atol=1e-12)
        assert np.allclose(second_moment(ps1, t), second_moment(no_jump, t), atol=1e-12)
        assert np.allclose(conditional_variance(ps1, t),
                           conditional_variance(no_jump, t), atol=1e-12)


# tabulated forecasts cover [0, 4], every time these tests evaluate
_MEANS = st.one_of(
    strategies.MEANS,
    st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=12).map(
        lambda v: TabulatedMean(np.linspace(0.0, 4.0, len(v)), v)),
)
_PARAMS = st.builds(DemandParams, kappa=st.floats(0.05, 20.0),
                    sigma=st.floats(0.0, 3.0), mean=_MEANS,
                    y0=st.floats(-10.0, 10.0),
                    jump=st.builds(JumpSpec, st.floats(0.0, 20.0),
                                   strategies.HEIGHT_LAWS))


class TestMomentProperties:
    @settings(max_examples=100)
    @given(params=_PARAMS, t0=st.floats(0.0, 2.0), y=st.floats(-10.0, 10.0))
    def test_conditional_mean_at_the_observation_time(self, params, t0, y):
        assert conditional_mean(params, t0, y, t0) == y

    @settings(max_examples=100)
    @given(params=_PARAMS, k=st.integers(1, 8), n=st.integers(2, 5),
           per_time_t0=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_conditional_mean_equals_summed_terms(self, params, k, n,
                                                  per_time_t0, seed):
        """The three terms added in place into the first are bitwise their
        sum as one expression, for scalar, (k,) and (n, k) observations, and
        the jump term is bitwise the mean of :func:`jump_sum_moments`."""
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 3.0, k))
        t0 = rng.uniform(0.0, 1.0) * t if per_time_t0 else float(t[0] * rng.uniform())

        def summed(y):
            span = t - np.asarray(t0)
            return (np.exp(-params.kappa * span) * np.asarray(y, dtype=float)
                    + weighted_mean_integral(params.mean, params.kappa, t0, t)
                    + jump_sum_moments(params.jump, params.kappa, span).mean)

        jump_term = moments._jump_mean
        added = []

        def recorded(*args):
            added.append(jump_term(*args))
            return added[-1]

        def mean_and_jump_term(y):
            """conditional_mean(params, t0, y, t), and the jump term it added."""
            added.clear()
            with mock.patch.object(moments, "_jump_mean", recorded):
                got = conditional_mean(params, t0, y, t)
            assert len(added) == 1
            want = jump_sum_moments(params.jump, params.kappa,
                                    t - np.asarray(t0)).mean
            assert np.shape(added[0]) == np.shape(want)
            assert np.asarray(added[0]).tobytes() == np.asarray(want).tobytes()
            return got

        for y in (float(rng.normal()), rng.normal(size=k), rng.normal(size=(n, k))):
            got = mean_and_jump_term(y)
            want = summed(y)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # all scalar: a float
        t0, t = float(np.asarray(t0).flat[0]), float(t[0])
        got = mean_and_jump_term(0.5)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(summed(0.5)).tobytes()

    @settings(max_examples=100)
    @given(params=_PARAMS,
           spans=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=20))
    def test_conditional_variance_nonnegative_and_nondecreasing(self, params,
                                                                 spans):
        v = conditional_variance(params, np.sort(spans))
        assert np.all(v >= 0.0)
        # the jump part is a difference of terms; allow its rounding
        assert np.all(np.diff(v) >= -1e-12 * v[1:])

    @settings(max_examples=100)
    @given(params=_PARAMS, t0=st.floats(0.0, 2.0), span=st.floats(0.0, 2.0),
           y=st.floats(-10.0, 10.0))
    def test_no_jumps_gives_pure_diffusion(self, params, t0, span, y):
        p = DemandParams(kappa=params.kappa, sigma=params.sigma,
                         mean=params.mean, y0=params.y0, jump=JumpSpec.none())
        k, t = p.kappa, t0 + span
        diffusion_var = lambda d: p.sigma ** 2 * -math.expm1(-2.0 * k * d) / (2.0 * k)
        mean_t = math.exp(-k * t) * p.y0 + weighted_mean_integral(p.mean, k, 0.0, t)
        restart = math.exp(-k * span) * y + weighted_mean_integral(p.mean, k, t0, t)
        close = dict(rel=1e-12, abs=1e-12)
        assert first_moment(p, t) == pytest.approx(mean_t, **close)
        assert second_moment(p, t) == pytest.approx(
            mean_t ** 2 + diffusion_var(t), **close)
        assert conditional_mean(p, t0, y, t) == pytest.approx(restart, **close)
        assert conditional_variance(p, span) == pytest.approx(
            diffusion_var(span), **close)
