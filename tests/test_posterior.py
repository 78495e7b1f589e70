"""Bivariate-t posterior: density, radial tail, sampler, optimality belief."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from spreadbandits import (
    PosteriorParams,
    estimate_rho,
    posterior_density,
    posterior_radial_tail,
    sample_posterior,
)
from spreadbandits.errors import InvalidParams, TooFewArms
from spreadbandits.posterior import _rho_counts, _uniform_bits


def rho_counts(z, S, t, xbar, M, rng):
    """The float32 kernel on one round of ``rng``'s words."""
    return _rho_counts(z, S, t, xbar, M,
                       _uniform_bits(rng, xbar.shape[0], M, 1)[0])


def params(z=1.0, xbar=(0.0, 0.0), S=1.0, t=4):
    return PosteriorParams(z, np.asarray(xbar, dtype=float), S, t)


class TestParams:
    def test_valid(self):
        q = params(2.0, (1.0, -1.0), 0.5, 7)
        assert (q.z, q.S, q.t) == (2.0, 0.5, 7)

    @pytest.mark.parametrize("kw", [
        dict(z=0.0), dict(z=-1.0), dict(S=0.0), dict(S=-0.5), dict(t=3),
        dict(xbar=(np.nan, 0.0)), dict(xbar=(1.0, 2.0, 3.0)),
        dict(t=4.9), dict(t=np.nan), dict(t=np.inf),
    ])
    def test_invalid(self, kw):
        with pytest.raises(InvalidParams):
            params(**kw)


class TestDensity:
    def test_value_at_center(self):
        # z(t-3)/(pi S) * 1 at the center for z=S=1, t=4
        assert posterior_density(params(), (0.0, 0.0)) == pytest.approx(
            1.0 / math.pi)

    def test_value_at_unit_distance(self):
        assert posterior_density(params(), (1.0, 0.0)) == pytest.approx(
            1.0 / (4.0 * math.pi))

    def test_radially_symmetric(self):
        q = params(3.0, (0.5, -0.5), 2.0, 9)
        a = posterior_density(q, q.xbar + [0.7, 0.0])
        b = posterior_density(q, q.xbar + [0.0, 0.7])
        c = posterior_density(q, q.xbar + [0.7 / math.sqrt(2)] * 2)
        assert a == pytest.approx(b)
        assert a == pytest.approx(c)

    def test_batch_evaluation(self):
        q = params(2.0, (1.0, 0.0), 1.5, 6)
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        vals = posterior_density(q, pts)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(posterior_density(q, pts[0]))

    def test_normalizes_against_quadrature(self):
        # independent oracle: adaptive radial quadrature of 2 pi r f(r)
        q = params(4.0, (0.3, 0.8), 2.5, 8)
        tail_at = 30.0

        def integrand(r):
            return 2.0 * math.pi * r * float(
                posterior_density(q, q.xbar + [r, 0.0]))

        mass, err = scipy.integrate.quad(integrand, 0.0, tail_at, limit=200)
        target = 1.0 - float(posterior_radial_tail(q, tail_at))
        assert mass == pytest.approx(target, abs=1e-8)


class TestRadialTail:
    def test_zero_delta_full_mass(self):
        assert posterior_radial_tail(params(), 0.0) == 1.0

    def test_frozen_values(self):
        assert posterior_radial_tail(params(1.0, S=1.0, t=4), 1.0) \
            == pytest.approx(0.5)
        assert posterior_radial_tail(params(4.0, S=1.0, t=5), 1.0) \
            == pytest.approx(0.04)

    def test_negative_delta_rejected(self):
        with pytest.raises(InvalidParams):
            posterior_radial_tail(params(), -0.1)


class _HalfRng:
    """Stub stream whose uniforms are all 1/2."""

    def random(self, n, dtype=np.float64):
        return np.full(n, 0.5, dtype=dtype)


class TestSampler:
    def test_inverse_cdf_at_half(self):
        # u = 1/2 gives delta = 1 for (z, S, t) = (1, 1, 4); theta = pi
        draw = sample_posterior(params(xbar=(2.0, 3.0)), _HalfRng())
        assert draw == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_shapes(self):
        rng = np.random.default_rng(3)
        assert sample_posterior(params(), rng).shape == (2,)
        assert sample_posterior(params(), rng, size=5).shape == (5, 2)
        for bad in (0, 2.5, "3"):
            with pytest.raises(InvalidParams, match="size"):
                sample_posterior(params(), rng, size=bad)

    def test_radius_distribution_ks(self):
        # independent oracle: KS test against the closed-form radial CDF
        q = params(3.0, (0.4, -0.9), 2.0, 12)
        rng = np.random.default_rng(5)
        draws = sample_posterior(q, rng, size=20000)
        radii = np.hypot(*(draws - q.xbar).T)

        def cdf(r):
            return 1.0 - posterior_radial_tail(q, np.maximum(r, 0.0))

        stat = scipy.stats.kstest(radii, cdf).statistic
        assert stat < 1.63 / math.sqrt(radii.shape[0])

    def test_angle_uniform(self):
        q = params(2.0, (0.0, 0.0), 1.0, 8)
        rng = np.random.default_rng(6)
        draws = sample_posterior(q, rng, size=20000)
        angles = np.arctan2(draws[:, 1], draws[:, 0])
        stat = scipy.stats.kstest(
            angles, scipy.stats.uniform(-math.pi, 2 * math.pi).cdf).statistic
        assert stat < 1.63 / math.sqrt(angles.shape[0])


class TestEstimateRho:
    def test_concentrated_wins_outright(self):
        far = params(1e6, (100.0, 0.0), 1e-6, 100)
        near = params(1e6, (1.0, 0.0), 1e-6, 100)
        rho = estimate_rho([far, near], 1000, np.random.default_rng(7))
        assert rho.tolist() == [1.0, 0.0]

    def test_sums_to_one_exactly(self):
        q = [params(1.0 + k, (0.5 * k, 0.1), 1.0, 6) for k in range(4)]
        rho = estimate_rho(q, 999, np.random.default_rng(9))
        assert rho.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(rho >= 0.0)

    def test_zero_samples_rejected(self):
        # a count that is not an integer >= 1 is rejected, not truncated;
        # an integral float is that integer
        q = [params(), params()]
        for bad in (0, 2.5, "3", True):
            with pytest.raises(InvalidParams,
                               match="mc_samples must be an integer >= 1"):
                estimate_rho(q, bad, np.random.default_rng(0))
        np.testing.assert_array_equal(
            estimate_rho(q, 2.0, np.random.default_rng(0)),
            estimate_rho(q, 2, np.random.default_rng(0)))

    def test_single_arm_rejected(self):
        with pytest.raises(TooFewArms):
            estimate_rho([params()], 16, np.random.default_rng(0))


class TestRhoKernelScale:
    """The float32 kernel gives the same counts at any scale."""

    @staticmethod
    def stats(c=1.0):
        # arm 1 is the clear winner: norms 1 and 3, posterior radius ~0.05
        z = np.array([50.0, 50.0])
        S = np.array([5.0, 5.0]) * c * c
        xbar = np.array([[1.0, 0.0], [3.0, 0.0]]) * c
        return z, S, xbar

    def test_power_of_two_scaling_draw_for_draw(self):
        rng = np.random.default_rng(31)
        z = rng.random(4) * 20.0 + 5.0
        S = z * (rng.random(4) + 0.3)
        xbar = rng.normal(size=(4, 2))
        t = np.array([9.0, 12.0, 30.0, 7.0])
        ref = rho_counts(z, S, t, xbar, 256, np.random.default_rng(5))
        for k in range(-100, 101):
            got = rho_counts(z, S * 4.0 ** k, t, xbar * 2.0 ** k, 256,
                              np.random.default_rng(5))
            np.testing.assert_array_equal(got, ref, err_msg=f"k={k}")

    @pytest.mark.parametrize("c", [1.0, 1e20, 1e-25])
    def test_clear_winner_at_any_scale(self, c):
        z, S, xbar = self.stats(c)
        M = 1000
        counts = rho_counts(z, S, 51.0, xbar, M, np.random.default_rng(7))
        assert counts.tolist() == [0, M]


    def test_clear_winner_where_the_square_overflows(self):
        # |xbar|^2 ~ 1e400 is beyond float64; the rescale comes first
        z, S, xbar = self.stats()
        M = 1000
        counts = rho_counts(z, S, 51.0, xbar * 1e200, M,
                             np.random.default_rng(7))
        assert counts.tolist() == [0, M]

    @pytest.mark.parametrize("xbar,want", [
        ([[1.0, 0.0], [0.0, 1.0]], [1, 0]),
        ([[0.5, 0.0], [0.0, 1.0], [-1.0, 0.0]], [0, 1, 0]),
    ])
    def test_every_draw_tied_goes_to_lowest_index(self, xbar, want):
        # S/z is so small against |xbar|^2 that its float32 cast is 0, so
        # d2 = 0 and the tied arms have equal norms in every draw
        xbar = np.array(xbar)
        K = xbar.shape[0]
        z = np.ones(K)
        S = np.full(K, 1e-60)
        M = 500
        counts = rho_counts(z, S, 51.0, xbar, M, np.random.default_rng(3))
        assert counts.tolist() == [M * w for w in want]


class TestRhoLaw:
    """The law of the belief is unchanged under ``means -> c means``,
    ``S -> c^2 S`` and a rotation of every mean, at any scale."""

    # four overlapping posteriors, so every arm wins a fair share
    Z = np.array([20.0, 25.0, 30.0, 15.0])
    S = Z * np.array([0.05, 0.08, 0.06, 0.04])
    XBAR = np.array([[1.0, 0.2], [0.95, -0.4], [-0.7, 0.75], [0.3, 1.0]])
    T = 40.0
    M = 4096
    SEEDS = range(20)

    @staticmethod
    def rotated(xbar, angle):
        c, s = math.cos(angle), math.sin(angle)
        return xbar @ np.array([[c, s], [-s, c]])

    def cases(self):
        for c in (1e-30, 1e-10, 3.7, 1e10, 1e30):
            yield f"c={c:g}", self.S * c * c, self.XBAR * c
        for angle in (0.3, 1.1, 2.9):
            yield f"angle={angle}", self.S, self.rotated(self.XBAR, angle)

    def counts(self, S, xbar, seed):
        return rho_counts(self.Z, S, self.T, xbar, self.M,
                           np.random.default_rng(seed))

    def test_same_draws_flip_only_near_ties(self):
        # at a fixed seed only float32 rounding differs, which can flip a
        # draw only where two norms agree to about 1e-7
        for name, S, xbar in self.cases():
            for seed in self.SEEDS:
                ref = self.counts(self.S, self.XBAR, seed)
                got = self.counts(S, xbar, seed)
                moved = int(np.abs(got - ref).sum())
                assert moved <= 0.005 * self.M, f"{name} seed={seed}"

    def test_homogeneous_with_unit_scale(self):
        # disjoint seeds: independent samples of the two laws
        ref = sum(self.counts(self.S, self.XBAR, s) for s in self.SEEDS)
        assert ref.min() > 0.05 * ref.sum()
        for name, S, xbar in self.cases():
            got = sum(self.counts(S, xbar, 1000 + s) for s in self.SEEDS)
            p = scipy.stats.chi2_contingency(np.array([ref, got])).pvalue
            assert p > 1e-3, f"{name}: p={p:.2e}, {ref} vs {got}"

