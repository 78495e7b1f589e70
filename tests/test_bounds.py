"""Concentration bounds, chi-square helper, regret accounting, constants."""

import math

import numpy as np
import pytest
import scipy.stats

from spreadbandits import (
    PowerProfile,
    chi2_cdf_even,
    h,
    lower_bound_constants,
    mean_exceedance,
    new_instance,
    power_lower_constants,
    regret_step,
    variance_tail_bound,
)
from spreadbandits.errors import DimensionMismatch, InvalidParams


class TestH:
    def test_at_one(self):
        assert h(1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-15)

    def test_small_argument_quadratic(self):
        # h(x) ~ x^2/2 near zero; at 1e-4 that is 5e-9 to within 0.01%
        assert h(1e-4) == pytest.approx(5e-9, rel=1e-2)

    def test_strictly_increasing(self):
        xs = np.linspace(0.01, 6.0, 300)
        vals = np.array([h(x) for x in xs])
        assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("x", [0.0, -0.5, -2.0, math.nan, math.inf])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(InvalidParams, match="h needs x > 0"):
            h(x)


class TestMeanExceedance:
    def test_frozen_value(self):
        assert mean_exceedance(5.0, 1.0, math.sqrt(0.5)) == pytest.approx(
            math.exp(-2.5), rel=1e-12)

    def test_tiny_radius_is_certain(self):
        assert mean_exceedance(3.0, 2.0, 1e-30) == pytest.approx(1.0)

    def test_doubling_power_squares_the_bound(self):
        b1 = mean_exceedance(2.0, 1.0, 0.7)
        b2 = mean_exceedance(4.0, 1.0, 0.7)
        assert b2 == pytest.approx(b1 * b1, rel=1e-12)

    def test_variance_scaling_identity(self):
        # (z, c sigma^2, sqrt(c) eps) leaves the bound unchanged
        for c in (0.5, 2.0, 9.0):
            assert mean_exceedance(3.0, c * 1.3, math.sqrt(c) * 0.4) \
                == pytest.approx(mean_exceedance(3.0, 1.3, 0.4), rel=1e-12)

    @pytest.mark.parametrize("kw", [
        dict(z=0.0, sigma2=1.0, eps=1.0),
        dict(z=1.0, sigma2=0.0, eps=1.0),
        dict(z=1.0, sigma2=1.0, eps=0.0),
        dict(z=math.nan, sigma2=1.0, eps=1.0),
    ])
    def test_domain(self, kw):
        with pytest.raises(InvalidParams, match="z, sigma2, eps must be"):
            mean_exceedance(**kw)


class TestVarianceTailBound:
    def test_frozen_value(self):
        # exp(-10 h(1)) = exp(-10 (1 - log 2))
        want = math.exp(-10.0 * (1.0 - math.log(2.0)))
        assert variance_tail_bound(10, 1.0, 1.0) == pytest.approx(
            want, rel=1e-12)

    def test_decreasing_in_rounds(self):
        vals = [variance_tail_bound(t, 1.0, 0.5) for t in range(4, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_eps_must_be_positive(self):
        for sigma2, eps in ((1.0, 0.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(InvalidParams, match="t, sigma2, eps must be"):
                variance_tail_bound(10, sigma2, eps)
        # an infinite eps / sigma^2 has no finite rate
        with pytest.raises(InvalidParams, match="h needs x > 0"):
            variance_tail_bound(10, 1.0, math.inf)
        for bad in (2.5, True):  # t is a count, never truncated
            with pytest.raises(InvalidParams, match="t must be an integer"):
                variance_tail_bound(bad, 1.0, 1.0)


class TestChi2CdfEven:
    def test_median_dof2(self):
        assert chi2_cdf_even(2, 2.0 * math.log(2.0)) == pytest.approx(0.5)

    def test_frozen_dof4(self):
        assert chi2_cdf_even(4, 9.48772903678115) == pytest.approx(
            0.95, abs=1e-6)

    def test_against_scipy(self):
        xs = np.append(np.linspace(0.0, 100.0, 401), math.inf)
        for dof in range(2, 42, 2):
            want = scipy.stats.chi2.cdf(xs, dof)
            got = np.array([chi2_cdf_even(dof, x) for x in xs])
            np.testing.assert_allclose(got, want, atol=1e-8)
            np.testing.assert_allclose(chi2_cdf_even(dof, xs), want,
                                       atol=1e-8)

    def test_nondecreasing(self):
        xs = np.linspace(0.0, 60.0, 600)
        vals = np.array([chi2_cdf_even(14, x) for x in xs])
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0

    def test_odd_dof_rejected(self):
        with pytest.raises(InvalidParams, match="positive even dof"):
            chi2_cdf_even(3, 1.0)
        with pytest.raises(InvalidParams, match="positive even dof"):
            chi2_cdf_even(0, 1.0)
        for bad in (4.9, True):
            with pytest.raises(InvalidParams, match="dof must be an integer"):
                chi2_cdf_even(bad, 1.0)

    def test_negative_x_rejected(self):
        for x in (-0.001, math.nan, [1.0, math.nan]):
            with pytest.raises(InvalidParams, match="at x < 0"):
                chi2_cdf_even(2, x)


class TestRegretStep:
    def test_oracle_profile_zero(self):
        inst = new_instance([[2.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        prof = PowerProfile.one_hot(2, inst.k_star)
        assert regret_step(inst, prof) == 0.0

    def test_uniform_half_gap(self):
        inst = new_instance([[2.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        assert regret_step(inst, PowerProfile.uniform(2)) \
            == pytest.approx(0.5)

    def test_bounded_by_max_gap(self):
        rng = np.random.default_rng(11)
        inst = new_instance(rng.normal(size=(5, 2)), np.full(5, 0.3))
        for _ in range(50):
            w = rng.dirichlet(np.ones(5))
            r = regret_step(inst, PowerProfile(w))
            assert 0.0 <= r <= inst.gaps.max() + 1e-12

    def test_scaling_means_scales_regret(self):
        inst1 = new_instance([[2.0, 0.0], [0.5, 1.0]], [1.0, 1.0])
        inst3 = new_instance([[6.0, 0.0], [1.5, 3.0]], [1.0, 1.0])
        prof = PowerProfile(np.array([0.3, 0.7]))
        assert regret_step(inst3, prof) == pytest.approx(
            3.0 * regret_step(inst1, prof), rel=1e-12)

    def test_profile_length_checked(self):
        inst = new_instance([[2.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            regret_step(inst, PowerProfile.uniform(3))


class TestLowerBoundConstants:
    def test_frozen_two_arm_case(self):
        # norms (2, 1), unit variances: gap 1, so the spreading constants
        # are 1 and the non-spreading unknown-variance constant is 1/log 2
        inst = new_instance([[2.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        c = lower_bound_constants(inst)
        assert abs(c.spreading_unknown - 1.0) <= 1e-12
        assert abs(c.ns_unknown - 1.0 / math.log(2.0)) <= 1e-12
        assert c.spreading_known == c.spreading_unknown == c.ns_known

    def test_variance_scaling(self):
        # scaling every sigma^2 by c scales the known-variance constant by c
        means = [[2.0, 0.0], [0.3, 0.4], [0.0, 1.0]]
        base = lower_bound_constants(new_instance(means, [0.2, 0.5, 1.1]))
        scaled = lower_bound_constants(
            new_instance(means, [0.6, 1.5, 3.3]))
        assert scaled.spreading_known == pytest.approx(
            3.0 * base.spreading_known, rel=1e-12)

    def test_power_constants_nan_at_best(self):
        inst = new_instance([[2.0, 0.0], [1.0, 0.0], [0.0, 0.5]],
                        [1.0, 0.25, 0.5])
        w = power_lower_constants(inst)
        assert math.isnan(w[inst.k_star])
        # sigma_k^2 / gap_k^2 elsewhere
        assert w[1] == pytest.approx(0.25 / 1.0 ** 2, rel=1e-12)
        assert w[2] == pytest.approx(0.5 / 1.5 ** 2, rel=1e-12)
