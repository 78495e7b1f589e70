"""Policy behaviour: warm-ups, belief profiles, baselines, dispatch, observe,
and the README's quickstart loop over the per-call API."""

import pathlib

import numpy as np
import pytest

from spreadbandits import (
    BanditInstance,
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
    NonPositiveVariance,
    ValidationError,
)
from spreadbandits.policies import (
    KINDS,
    TS_KNOWN_WARMUP_PASSES,
    TS_UNKNOWN_WARMUP_PASSES,
    _choose,
    _PolicyDraws,
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
        # nor one missing its kind's fact, or given another kind's
        for kind, kw in (("ts_known", {}), ("oracle", {}),
                         ("uniform", {"mc_samples": 16})):
            with pytest.raises(ValidationError, match="(required|unused) by"):
                PolicyState(kind, 3, **kw)
        # wts's count rule runs first, so a missing mc_samples is a bad count
        with pytest.raises(InvalidParams, match="mc_samples must be an "
                           "integer >= 1, got None"):
            PolicyState("wts", 3)
        with pytest.raises(InvalidParams, match="n_arms must be an integer"):
            PolicyState("uniform", 2.5)

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

    @pytest.mark.parametrize("sigma2,error", [
        (np.ones(2), DimensionMismatch),
        (np.ones((3, 1)), DimensionMismatch),
        (np.array([1.0, 0.0, 1.0]), NonPositiveVariance),
        (np.array([1.0, -2.0, 1.0]), NonPositiveVariance),
        (np.array([1.0, np.nan, 1.0]), NonPositiveVariance),
        (np.array([1.0, np.inf, 1.0]), NonPositiveVariance),
    ])
    def test_bad_sigma2_rejected_when_built(self, sigma2, error):
        # the arm loop of ts_known would zip a short vector down silently
        with pytest.raises(error, match="sigma2"):
            PolicyState("ts_known", 3, sigma2=sigma2)

    @pytest.mark.parametrize("k_star", [3, -1, True, 1.5])
    def test_bad_k_star_rejected_when_built(self, k_star):
        with pytest.raises(InvalidParams, match="k_star"):
            PolicyState("oracle", 3, k_star=k_star)

    def test_facts_kept_as_given(self):
        sigma2 = [0.5, 1.0, 2.0]
        st = PolicyState("ts_known", 3, sigma2=sigma2)
        assert st.sigma2.dtype == np.float64 and not st.sigma2.flags.writeable
        np.testing.assert_array_equal(st.sigma2, sigma2)
        assert PolicyState("oracle", 3, k_star=2.0).k_star == 2


class TestWts:
    def test_degenerate_stats_guard(self):
        # S = 0 (a hand-built state here; in a run, variances far below
        # the means' scale) must fail loudly rather than emit NaN power
        st = PolicyState("wts", 3, mc_samples=16)
        st.round = 4
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

    @pytest.mark.parametrize("kind", ["ts_known", "ts_unknown"])
    def test_exact_tie_goes_to_lowest_index(self, kind):
        # arms 1 and 2 hold the same statistics and get the same draws, so
        # their sampled norms are equal; arm 0 is behind both
        st = PolicyState(kind, 3, sigma2=np.ones(3) if kind == "ts_known"
                         else None)
        st.z[:] = 3.0
        st.S[:] = 0.5
        st.mean[1:] = [1.0, 0.5]
        st.round = 100
        for _ in range(3):
            assert np.argmax(policy_step(st, SameDraws()).p) == 1

    @pytest.mark.parametrize("kind", ["ts_known", "ts_unknown"])
    def test_public_calls_see_current_statistics(self, kind):
        # statistics written between two calls reach the second one: no
        # posterior constant outlives a policy_step
        inst = instance()
        st = make_policy(kind, inst)
        rng = np.random.default_rng(9)
        play_rounds(st, inst, rng, 40)
        for k in (2, 1, 3, 0):
            st.mean[:] = 0.0
            st.mean[k] = [1e6, 0.0]
            assert np.argmax(policy_step(st, rng).p) == k

    @pytest.mark.parametrize("kind", ["ts_known", "ts_unknown"])
    def test_underfed_state_rejected(self, kind):
        # stats with too few one-hot observations cannot be sampled from
        st = PolicyState(kind, 2, sigma2=np.ones(2) if kind == "ts_known"
                         else None)
        st.round = 7
        with pytest.raises(InsufficientData, match="observed"):
            policy_step(st, np.random.default_rng(0))


class SameDraws:
    """A generator stand-in whose every draw is the same number, so every
    arm of a round gets the same posterior draw."""

    def normal(self, size):
        return np.full(size, 0.25)

    def random(self, size):
        return np.full(size, 0.5)


@pytest.mark.parametrize("values", [
    [1.0], [2.0, -2.0], [0.0, 3.0, -3.0, 1.0], [np.nan, 2.0, 5.0],
    [1.0, np.nan, 5.0, np.nan], [np.nan, np.nan], [np.inf, 1.0, -np.inf],
    [0.0, 0.0, 0.0],
])
def test_first_max_is_argmax(values):
    # the ts_known chooser keeps the first largest norm, or the first NaN,
    # as np.argmax does: constants (0, 0, 1) per arm and draws (v, 0) make
    # arm k's norm values[k]^2, covering a tie, a NaN first and later, and
    # +inf twice
    K = len(values)
    st = PolicyState("ts_known", K, sigma2=np.full(K, 2.0))
    st.z[:] = 1.0
    st.round = TS_KNOWN_WARMUP_PASSES * K + 1
    draws = tuple(x for v in values for x in (v, 0.0))
    post = _PolicyDraws(st, lambda: draws)
    assert _choose(st, post) == int(np.argmax(np.square(values)))
    assert post.consts == [(0.0, 0.0, 1.0)] * K


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
            observe(st, bad, np.zeros((4, 2)))

    def test_missing_observation_rejected(self):
        st = make_policy("uniform", instance())
        for bad in (np.nan, np.inf):
            x = np.zeros((4, 2))
            x[1, 0] = bad
            with pytest.raises(MissingObservation):
                observe(st, PowerProfile.uniform(4), x)

    def test_outcome_length_checked(self):
        st = make_policy("uniform", instance())
        for shape in ((3, 2), (4, 3)):
            with pytest.raises(DimensionMismatch):
                observe(st, PowerProfile.uniform(4), np.zeros(shape))

    def test_ragged_observation_rejected(self):
        # the list layout of one array per powered arm and None elsewhere
        st = make_policy("uniform", instance(2))
        with pytest.raises(DimensionMismatch, match=r"\(2, 2\)"):
            observe(st, PowerProfile.one_hot(2, 0), [[0.0, 0.0], None])


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
