"""Instance construction, power profiles, weighted statistics, sampling."""

import numpy as np
import pytest

from spreadbandits import (
    PowerProfile,
    batch_stats,
    new_instance,
    sample_outcome,
)
from spreadbandits.errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidProfile,
    NonPositiveVariance,
    TiedOptimum,
    TooFewArms,
)


class TestBanditInstance:
    def test_norms_gaps_kstar(self):
        inst = new_instance([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]],
                            [1.0, 2.0, 0.5])
        assert np.allclose(inst.norms, [5.0, 1.0, 2.0])
        assert inst.k_star == 0
        assert np.allclose(inst.gaps, [0.0, 4.0, 3.0])
        assert inst.n_arms == 3

    def test_largest_norm_wins_not_smallest(self):
        # the optimum is the arm of largest mean norm
        inst = new_instance([[0.1, 0.0], [5.0, 0.0]], [1.0, 1.0])
        assert inst.k_star == 1

    def test_single_arm_rejected(self):
        with pytest.raises(TooFewArms):
            new_instance([[1.0, 0.0]], [1.0])

    def test_tied_optimum_rejected(self):
        with pytest.raises(TiedOptimum):
            new_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])

    def test_near_tie_within_tolerance_rejected(self):
        with pytest.raises(TiedOptimum):
            new_instance([[1.0, 0.0], [1.0 + 1e-13, 0.0]], [1.0, 1.0])

    def test_sub_optimal_ties_allowed(self):
        inst = new_instance([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                            [1.0, 1.0, 1.0])
        assert inst.k_star == 0

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(NonPositiveVariance):
            new_instance([[1.0, 0.0], [2.0, 0.0]], [1.0, 0.0])
        with pytest.raises(NonPositiveVariance):
            new_instance([[1.0, 0.0], [2.0, 0.0]], [1.0, -1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            new_instance([[1.0], [2.0]], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            new_instance([[1.0, 0.0], [2.0, 0.0]], [1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            new_instance([[np.nan, 0.0], [2.0, 0.0]], [1.0, 1.0])

    def test_overflowing_norm_rejected(self):
        # |mu|^2 overflows float64: the norm would be inf and the gaps nan
        with pytest.raises(DimensionMismatch):
            new_instance([[1e200, 0.0], [1.0, 0.0], [2.0, 0.0]],
                         [1.0, 1.0, 1.0])

    def test_overflowing_tie_rejected(self):
        # two inf norms differ by nan, which must not slip past the tie guard
        with pytest.raises(DimensionMismatch):
            new_instance([[1e200, 0.0], [0.0, 1e200], [2.0, 0.0]],
                         [1.0, 1.0, 1.0])

    def test_large_finite_means_kept(self):
        inst = new_instance([[3e150, 4e150], [1e150, 0.0]], [1.0, 1.0])
        assert inst.k_star == 0
        assert inst.norms[0] == pytest.approx(5e150)
        assert np.all(np.isfinite(inst.gaps))


class TestPowerProfile:
    def test_uniform(self):
        p = PowerProfile.uniform(4)
        assert np.allclose(p.p, 0.25)
        assert len(p) == 4

    def test_one_hot(self):
        p = PowerProfile.one_hot(3, 1)
        assert p.p.tolist() == [0.0, 1.0, 0.0]

    def test_sum_violation_rejected(self):
        with pytest.raises(InvalidProfile):
            PowerProfile(np.array([0.5, 0.4]))

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidProfile, match="powers must be nonnegative"):
            PowerProfile(np.array([1.5, -0.5]))

    @pytest.mark.parametrize("p,message", [
        (np.full((2, 2), 0.25), "1-d"),
        ([np.nan, 1.0], "finite"),
        ([1.5, 0.0], "must not exceed 1"),
    ])
    def test_malformed_powers_rejected(self, p, message):
        with pytest.raises(InvalidProfile, match=message):
            PowerProfile(p)

    def test_profile_array_is_frozen(self):
        p = PowerProfile.uniform(2)
        with pytest.raises(ValueError):
            p.p[0] = 0.9

    def test_caller_array_not_frozen(self):
        raw = np.array([0.5, 0.5])
        PowerProfile(raw)
        raw[0] = 0.3  # the profile took a copy


class TestBatchStats:
    def test_constant_data_zero_scatter(self):
        _, xbar, S = batch_stats([1.0, 1.0, 1.0],
                                 [(1.0, 0.0), (1.0, 0.0), (1.0, 0.0)])
        assert xbar == pytest.approx((1.0, 0.0))
        assert S == pytest.approx(0.0, abs=1e-15)

    def test_weighted_pair(self):
        # hand evaluation: xbar=(1,0), S = 0.25*9 + 0.75*1 = 3
        z, xbar, S = batch_stats([0.25, 0.75], [(4.0, 0.0), (0.0, 0.0)])
        assert z == pytest.approx(1.0)
        assert xbar == pytest.approx((1.0, 0.0))
        assert S == pytest.approx(3.0)

    def test_zero_power_point_ignored(self):
        z, xbar, S = batch_stats([2.0, 0.0], [(1.0, 1.0), (9.0, 9.0)])
        assert z == 2.0
        assert xbar == pytest.approx((1.0, 1.0))
        assert S == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("powers,xs,error,message", [
        ([[1.0, 1.0]], [(1.0, 1.0), (2.0, 2.0)], DimensionMismatch, "1-d"),
        ([1.0, 1.0], [(1.0, 1.0)], DimensionMismatch, r"\(2, 2\)"),
        ([1.0, -1.0], [(1.0, 1.0), (2.0, 2.0)], InvalidProfile,
         "nonnegative"),
    ])
    def test_malformed_history_rejected(self, powers, xs, error, message):
        with pytest.raises(error, match=message):
            batch_stats(powers, xs)

    def test_all_zero_rejected(self):
        with pytest.raises(InsufficientData,
                           match="no positive-power observation"):
            batch_stats([0.0, 0.0], [(1.0, 1.0), (2.0, 2.0)])


class TestSampleOutcome:
    def test_zero_power_gives_no_observation(self):
        inst = new_instance([[1.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        out = sample_outcome(inst, PowerProfile.one_hot(2, 1), rng)
        assert out.shape == (2, 2) and np.isnan(out[0]).all()
        # one normal pair, for the powered arm, and no draw for arm 0
        np.testing.assert_array_equal(
            out[1], inst.means[1] + np.sqrt(0.5) * twin.normal(size=2))
        assert rng.random() == twin.random()

    def test_deterministic_given_stream(self):
        inst = new_instance([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
        prof = PowerProfile.uniform(2)
        a = sample_outcome(inst, prof, np.random.default_rng(7))
        b = sample_outcome(inst, prof, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_profile_length_checked(self):
        inst = new_instance([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            sample_outcome(inst, PowerProfile.uniform(3),
                           np.random.default_rng(0))
