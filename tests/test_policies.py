"""Policy behaviour: warm-ups, belief profiles, baselines, dispatch, observe,
and the README's quickstart loop over the per-call API."""

import pathlib

import numpy as np
import pytest

from spreadbandits import (
    BanditInstance,
    Outcome,
    PolicyState,
    PowerProfile,
    make_policy,
    observe,
    policy_step,
    sample_outcome,
)
from spreadbandits.errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidParams,
    MissingObservation,
    ValidationError,
)
from spreadbandits.policies import (
    KINDS,
    TS_KNOWN_WARMUP_PASSES,
    TS_UNKNOWN_WARMUP_PASSES,
)


def instance(K=4):
    means = np.zeros((K, 2))
    means[:, 0] = np.linspace(2.0, 0.5, K)
    return BanditInstance(means, np.full(K, 0.5))


def play_rounds(state, inst, rng, n):
    """Advance a policy n rounds against inst, returning the last profile."""
    prof = None
    for _ in range(n):
        prof = policy_step(state, rng)
        observe(state, prof, sample_outcome(inst, prof, rng))
    return prof


class TestMakePolicy:
    def test_round_starts_at_one(self):
        st = make_policy("wts", instance())
        assert st.round == 1
        assert st.n_arms == 4
        assert st.z.shape == st.S.shape == (4,)
        assert st.mean.shape == (4, 2)
        assert not st.z.any() and not st.S.any() and not st.mean.any()

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown policy kind"):
            make_policy("greedy", instance())
        with pytest.raises(ValidationError, match="unknown policy kind"):
            PolicyState("greedy", 2)

    def test_information_boundaries(self):
        # ts_known sees variances, oracle sees the best arm, others neither
        inst = instance()
        assert np.array_equal(
            make_policy("ts_known", inst).sigma2, inst.variances)
        assert make_policy("oracle", inst).k_star == inst.k_star
        for kind in ("wts", "ts_unknown", "uniform"):
            st = make_policy(kind, inst)
            assert st.sigma2 is None and st.k_star is None

    def test_mc_samples_recorded(self):
        assert make_policy("wts", instance(), 256).mc_samples == 256
        m = make_policy("wts", instance(), 2.0).mc_samples
        assert m == 2 and type(m) is int
        assert make_policy("uniform", instance()).mc_samples is None

    @pytest.mark.parametrize("mc_samples", [0, -3, 2.5, None, True])
    def test_bad_mc_samples_rejected_when_built(self, mc_samples):
        # a wts state sizes its kernel buffer and its stream blocks from M
        with pytest.raises(InvalidParams, match="mc_samples"):
            make_policy("wts", instance(), mc_samples)


class TestWts:
    def test_degenerate_stats_guard(self):
        # S = 0 (a hand-built state here; in a run, variances far below
        # the means' scale) must fail loudly rather than emit NaN power
        st = PolicyState("wts", 3, round=4, mc_samples=16)
        with pytest.raises(InsufficientData):
            policy_step(st, np.random.default_rng(0))


class TestTsBaselines:
    @pytest.mark.parametrize("kind,passes", [
        ("ts_known", TS_KNOWN_WARMUP_PASSES),
        ("ts_unknown", TS_UNKNOWN_WARMUP_PASSES),
    ])
    def test_warmup_round_robin(self, kind, passes):
        inst = instance()
        st = make_policy(kind, inst)
        rng = np.random.default_rng(3)
        for t in range(1, passes * 4 + 1):
            prof = policy_step(st, rng)
            expect = np.zeros(4)
            expect[(t - 1) % 4] = 1.0
            np.testing.assert_array_equal(prof.p, expect)
            observe(st, prof, sample_outcome(inst, prof, rng))

    @pytest.mark.parametrize("kind", ["ts_known", "ts_unknown"])
    def test_finds_best_arm(self, kind):
        inst = instance()
        st = make_policy(kind, inst)
        rng = np.random.default_rng(5)
        play_rounds(st, inst, rng, 200)
        picks = [int(np.argmax(policy_step(st, rng).p)) for _ in range(20)]
        assert picks.count(inst.k_star) >= 15

    def test_underfed_state_rejected(self):
        # stats with too few one-hot observations cannot be sampled from
        st = PolicyState("ts_unknown", 2, round=7)
        with pytest.raises(InsufficientData):
            policy_step(st, np.random.default_rng(0))


class TestFixedBaselines:
    def test_uniform_is_flat_always(self):
        inst = instance()
        st = make_policy("uniform", inst)
        rng = np.random.default_rng(7)
        prof = play_rounds(st, inst, rng, 5)
        np.testing.assert_array_equal(prof.p, np.full(4, 0.25))


class TestObserve:
    def test_round_increments(self):
        inst = instance()
        st = make_policy("uniform", inst)
        rng = np.random.default_rng(8)
        prof = policy_step(st, rng)
        observe(st, prof, sample_outcome(inst, prof, rng))
        assert st.round == 2
        np.testing.assert_array_equal(st.z, np.full(4, 0.25))

    def test_profile_length_checked(self):
        st = make_policy("uniform", instance())
        bad = PowerProfile.uniform(3)
        with pytest.raises(DimensionMismatch):
            observe(st, bad, Outcome([None] * 4))

    def test_missing_observation_rejected(self):
        st = make_policy("uniform", instance())
        values = [np.zeros(2), None, np.zeros(2), np.zeros(2)]
        with pytest.raises(MissingObservation):
            observe(st, PowerProfile.uniform(4), Outcome(values))

    def test_outcome_length_checked(self):
        st = make_policy("uniform", instance())
        with pytest.raises(DimensionMismatch):
            observe(st, PowerProfile.uniform(4), Outcome([None] * 3))


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_same_trajectory(self, kind):
        inst = instance()
        profs = []
        for _ in range(2):
            st = make_policy(kind, inst, 128)
            rng = np.random.default_rng(42)
            profs.append(play_rounds(st, inst, rng, 20).p)
        np.testing.assert_array_equal(profs[0], profs[1])


def test_readme_quickstart_runs():
    # the README's "Library quickstart" Python blocks, in one namespace
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart")[1].split("\n## ")[0]
    ns = {}
    for block in section.split("```python\n")[1:]:
        exec(block.split("```")[0], ns)
    assert ns["state"].z.sum() == pytest.approx(1000.0)
    assert np.all(ns["state"].z > 0.0)
