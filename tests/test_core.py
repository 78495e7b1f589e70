"""Instance construction, power profiles, weighted statistics, sampling."""

import numpy as np
import pytest

from spreadbandits import (
    ArmStats,
    BanditInstance,
    Outcome,
    PowerProfile,
    batch_stats,
    new_instance,
    sample_outcome,
)
from spreadbandits.errors import (
    AllZeroPower,
    DimensionMismatch,
    InvalidProfile,
    MissingObservation,
    NegativePower,
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

    def test_rotation_leaves_gaps_and_kstar(self):
        means = np.array([[2.0, 1.0], [-1.0, 0.5], [0.3, -1.7]])
        var = [1.0, 0.5, 2.0]
        phi = 0.77
        rot = np.array([[np.cos(phi), -np.sin(phi)],
                        [np.sin(phi), np.cos(phi)]])
        a = new_instance(means, var)
        b = new_instance(means @ rot.T, var)
        assert a.k_star == b.k_star
        assert np.allclose(a.gaps, b.gaps, atol=1e-12)


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
        with pytest.raises(NegativePower):
            PowerProfile(np.array([1.5, -0.5]))

    def test_profile_array_is_frozen(self):
        p = PowerProfile.uniform(2)
        with pytest.raises(ValueError):
            p.p[0] = 0.9

    def test_caller_array_not_frozen(self):
        raw = np.array([0.5, 0.5])
        PowerProfile(raw)
        raw[0] = 0.3  # the profile took a copy


class TestArmStats:
    def test_two_unit_updates(self):
        # z=2, xbar=(1,0), S = 1*|(-1,0)|^2 + 1*|(1,0)|^2 = 2
        st = ArmStats()
        st.update(1.0, np.array([0.0, 0.0]))
        st.update(1.0, np.array([2.0, 0.0]))
        assert st.z == pytest.approx(2.0)
        assert st.xbar == pytest.approx((1.0, 0.0))
        assert st.S == pytest.approx(2.0)
        assert st.rounds == 2

    def test_single_update_zero_scatter(self):
        st = ArmStats()
        st.update(0.3, np.array([5.0, -5.0]))
        assert st.z == pytest.approx(0.3)
        assert st.xbar == pytest.approx((5.0, -5.0))
        assert st.S == 0.0

    def test_weighted_pair(self):
        # hand evaluation: xbar=(1,0), S = 0.25*9 + 0.75*1 = 3
        st = ArmStats()
        st.update(0.25, np.array([4.0, 0.0]))
        st.update(0.75, np.array([0.0, 0.0]))
        assert st.z == pytest.approx(1.0)
        assert st.xbar == pytest.approx((1.0, 0.0))
        assert st.S == pytest.approx(3.0)

    def test_zero_power_only_counts_round(self):
        st = ArmStats()
        st.update(1.0, np.array([1.0, 2.0]))
        st2 = st.copy()
        st2.update(0.0)
        assert (st2.z, st2.S) == (st.z, st.S)
        assert np.array_equal(st2.xbar, st.xbar)
        assert st2.rounds == st.rounds + 1

    def test_negative_power_rejected(self):
        with pytest.raises(NegativePower):
            ArmStats().update(-0.1, np.array([0.0, 0.0]))

    def test_positive_power_needs_observation(self):
        with pytest.raises(MissingObservation):
            ArmStats().update(0.5, None)

    def test_inplace_update_mutates(self):
        st = ArmStats()
        st.update(1.0, np.array([1.0, 1.0]))
        assert st.z == 1.0 and st.rounds == 1


class TestBatchStats:
    def test_constant_data_zero_scatter(self):
        st = batch_stats([1.0, 1.0, 1.0],
                         [(1.0, 0.0), (1.0, 0.0), (1.0, 0.0)])
        assert st.xbar == pytest.approx((1.0, 0.0))
        assert st.S == pytest.approx(0.0, abs=1e-15)

    def test_weighted_pair(self):
        st = batch_stats([0.25, 0.75], [(4.0, 0.0), (0.0, 0.0)])
        assert st.z == pytest.approx(1.0)
        assert st.xbar == pytest.approx((1.0, 0.0))
        assert st.S == pytest.approx(3.0)

    def test_zero_power_point_ignored(self):
        st = batch_stats([2.0, 0.0], [(1.0, 1.0), (9.0, 9.0)])
        assert st.xbar == pytest.approx((1.0, 1.0))
        assert st.S == pytest.approx(0.0, abs=1e-15)
        assert st.rounds == 2

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroPower):
            batch_stats([0.0, 0.0], [(1.0, 1.0), (2.0, 2.0)])

    def test_incremental_equals_batch(self):
        # property pinned tighter by the acceptance run; spot check here
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 400))
            powers = rng.random(n) * rng.choice([0.0, 1.0], size=n, p=[0.3, 0.7])
            if not np.any(powers > 0.0):
                powers[0] = 0.5
            xs = rng.normal(size=(n, 2)) * 2.0
            inc = ArmStats()
            for p, x in zip(powers, xs):
                inc.update(p, x if p > 0.0 else None)
            ref = batch_stats(powers, xs)
            assert inc.z == pytest.approx(ref.z, rel=1e-12)
            assert inc.xbar == pytest.approx(tuple(ref.xbar), rel=1e-9)
            assert inc.S == pytest.approx(ref.S, rel=1e-9, abs=1e-12)


class TestSampleOutcome:
    def test_zero_power_gives_no_observation(self):
        inst = new_instance([[1.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
        rng = np.random.default_rng(0)
        out = sample_outcome(inst, PowerProfile.one_hot(2, 1), rng)
        assert out.values[0] is None
        assert out.values[1] is not None
        assert len(out) == 2

    def test_full_power_variance(self):
        # sigma^2 = 2 at p = 1 gives unit variance per coordinate
        inst = new_instance([[0.0, 0.0], [5.0, 0.0]], [2.0, 1.0])
        rng = np.random.default_rng(1)
        draws = np.array([sample_outcome(inst, PowerProfile.one_hot(2, 0),
                                         rng).values[0]
                          for _ in range(40000)])
        assert np.allclose(draws.mean(axis=0), 0.0, atol=0.03)
        assert np.allclose(draws.var(axis=0), 1.0, atol=0.03)

    def test_split_power_variance(self):
        # p = (0.5, 0.5), sigma^2 = 1 gives variance 1 per coordinate
        inst = new_instance([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
        rng = np.random.default_rng(2)
        n = 100000
        vals = np.empty((n, 2))
        prof = PowerProfile.uniform(2)
        for i in range(n):
            vals[i] = sample_outcome(inst, prof, rng).values[0]
        assert abs(vals.var(axis=0, ddof=1)[0] - 1.0) < 0.02
        assert abs(vals.var(axis=0, ddof=1)[1] - 1.0) < 0.02

    def test_deterministic_given_stream(self):
        inst = new_instance([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
        prof = PowerProfile.uniform(2)
        a = sample_outcome(inst, prof, np.random.default_rng(7)).values
        b = sample_outcome(inst, prof, np.random.default_rng(7)).values
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_profile_length_checked(self):
        inst = new_instance([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            sample_outcome(inst, PowerProfile.uniform(3),
                           np.random.default_rng(0))


def test_outcome_len():
    assert len(Outcome([None, np.zeros(2)])) == 2
