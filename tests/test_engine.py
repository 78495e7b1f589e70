"""The array round engine against the scalar loop it replaced.

The engine must reproduce ``engine_reference.reference_replication``'s
recorded columns, power snapshots and final regret exactly, for every
policy kind, in both run modes; its folds must equal the scalar fold bit
for bit, and the WTS kernel the reference kernel draw for draw.  The
block-read streams are checked in ``tests/test_blocks.py``.  Scaled to
``(2^j means, 4^j variances)``, an instance must play the same rounds with
every regret step ``2^j`` times larger.
"""

import functools
import pathlib

import numpy as np
import pytest

from spreadbandits import (
    KINDS,
    PowerProfile,
    RunConfig,
    load_config,
    make_policy,
    new_instance,
    observe,
    run_replication,
    sample_outcome,
)
from spreadbandits.core import batch_stats
from spreadbandits.policies import PolicyState, _fold_arm, _fold_powers
from spreadbandits.posterior import _kernel_uniforms, _rho_counts
from engine_reference import (
    ScalarArm,
    assert_matches_reference,
    assert_same_state,
    gain_config,
    make_generator,
    reference_replication,
    reference_rho_counts,
    simulate_config,
)

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make_cfg", [simulate_config, gain_config],
                         ids=["simulate", "gain"])
@pytest.mark.parametrize("kind", KINDS)
def test_engine_matches_scalar_loop(kind, make_cfg, seed):
    cfg = make_cfg(seed)
    assert_matches_reference(run_replication(cfg, kind, 1), cfg,
                             *reference_replication(cfg, kind, 1))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make_cfg", [simulate_config, gain_config],
                         ids=["simulate", "gain"])
@pytest.mark.parametrize("kind", KINDS)
def test_regret_is_gaps_at_cumulative_power(kind, make_cfg, seed):
    # a round adds gaps @ p to the regret and p to z, so the regret at T is
    # the gaps weighted by the power each arm got in all
    cfg = make_cfg(seed)
    out = run_replication(cfg, kind, 0)
    gaps = cfg.instance.gaps
    assert out.final_cum == pytest.approx(gaps @ out.z_snapshots[cfg.T],
                                          rel=1e-9)


@pytest.mark.parametrize("K,M", [(5, 512), (16, 1024)])
def test_kernel_matches_reference_draw_for_draw(K, M):
    # one (2, K, M) round of the fill consumes the float32 stream exactly
    # as the two (K, M) draws of the reference did
    _check_kernel(K, M, range(50), 1000, np.random.default_rng)


@pytest.mark.parametrize("case", ["MT19937", "Philox", "SFC64",
                                  "PCG64_half_word"])
@pytest.mark.parametrize("K,M", [(5, 512), (3, 7)])
def test_kernel_keeps_float32_stream_on_any_generator(case, K, M):
    # the kernel's uniforms are rng.random(dtype=float32) on every bit
    # generator, and it leaves the generator where that draw leaves it
    _check_kernel(K, M, range(10), 2000,
                  lambda seed: make_generator(case, seed), per_arm_t=True)


def _check_kernel(K, M, seeds, stats_seed, make_rng, per_arm_t=False):
    for seed in seeds:
        gen = np.random.default_rng(stats_seed + seed)
        z = gen.random(K) * 50.0 + 1.0
        S = z * (gen.random(K) + 0.1)
        xbar = gen.normal(size=(K, 2))
        if per_arm_t and seed % 2:
            t = gen.integers(4, 60, size=K).astype(np.float64)
        else:
            t = float(gen.integers(4, 5000))
        ref_rng = make_rng(seed)
        rng = make_rng(seed)
        want = reference_rho_counts(z, S, t, xbar, M, ref_rng)
        got = _rho_counts(z, S, t, xbar, M,
                          _kernel_uniforms(rng, K, M, 1)[0])
        np.testing.assert_array_equal(got, want, err_msg=f"seed={seed}")
        assert_same_state(rng, ref_rng)


def _assert_batch_equal(state, powers, xs):
    for k in range(state.n_arms):
        z, xbar, S = batch_stats(powers[:, k], xs[:, k])
        assert np.isclose(state.z[k], z, rtol=1e-9, atol=1e-12)
        assert np.allclose(state.mean[k], xbar, rtol=1e-9, atol=1e-9)
        assert np.isclose(state.S[k], S, rtol=1e-9, atol=1e-9)


def _assert_same_bits(state, ref):
    # the array update is ScalarArm.update's arithmetic, bit for bit
    assert state.z.tolist() == [st.z for st in ref]
    assert state.S.tolist() == [st.S for st in ref]
    assert state.mean.tolist() == [[st.mx, st.my] for st in ref]


def test_dense_fold_matches_batch_and_arm_stats():
    rng = np.random.default_rng(105)
    for _ in range(50):
        K, n = int(rng.integers(2, 9)), int(rng.integers(2, 300))
        powers = rng.dirichlet(np.ones(K), size=n)
        xs = rng.normal(size=(n, K, 2)) * 3.0
        state = PolicyState("uniform", K)
        ref = [ScalarArm() for _ in range(K)]
        for i in range(n):
            _fold_powers(state, powers[i], xs[i])
            for k, st in enumerate(ref):
                st.update(powers[i, k], xs[i, k])
        _assert_batch_equal(state, powers, xs)
        _assert_same_bits(state, ref)


def test_one_hot_fold_matches_batch_and_arm_stats():
    rng = np.random.default_rng(106)
    for _ in range(50):
        K, n = int(rng.integers(2, 9)), int(rng.integers(2 * 9, 300))
        arms = np.concatenate([np.arange(K), rng.integers(0, K, size=n - K)])
        powers = np.zeros((n, K))
        powers[np.arange(n), arms] = 1.0
        xs = rng.normal(size=(n, K, 2)) * 3.0
        state = PolicyState("ts_unknown", K)
        ref = [ScalarArm() for _ in range(K)]
        for i, k in enumerate(arms.tolist()):
            _fold_arm(state, k, 1.0, xs[i, k, 0], xs[i, k, 1])
            ref[k].update(1.0, xs[i, k])
        _assert_batch_equal(state, powers, xs)
        _assert_same_bits(state, ref)


@pytest.mark.parametrize("p", [[0.5, 0.0, 0.3, 0.2],
                               [0.1, 0.2, 0.3, 0.4],
                               [0.0, 1.0, 0.0, 0.0]])
def test_observe_matches_scalar_reference(p):
    # the validated observe, on a sparse, a dense and a one-hot profile
    inst = new_instance([[2.0, 0.0], [1.5, 0.0], [1.0, 0.0], [0.5, 0.0]],
                        [0.5] * 4)
    st = make_policy("uniform", inst)
    ref = [ScalarArm() for _ in range(4)]
    prof = PowerProfile(np.array(p))
    rng = np.random.default_rng(9)
    for _ in range(6):
        out = sample_outcome(inst, prof, rng)
        # NaN rows exactly where p_k = 0; observe does not read them
        assert np.isnan(out).all(axis=1).tolist() == (prof.p == 0).tolist()
        observe(st, prof, np.where(np.isnan(out), np.inf, out))
        for k, a in enumerate(ref):
            a.update(prof.p[k], out[k])
    _assert_same_bits(st, ref)


# the acceptance regret study's instance, whose top gap is 0.65
STUDY = RunConfig(
    mode="simulate", T=500, policies=KINDS, mc_samples=256,
    means=np.array([[0.8, 0.0], [0.15, 0.0], [0.0, 0.10], [-0.05, 0.0],
                    [0.0, 0.0]]),
    variances=np.array([0.25, 0.4225, 0.49, 0.5625, 0.64]))
# configs/gain.cfg's problem, whose top gap is 0.073
GAIN = load_config(pathlib.Path(__file__).parents[1] / "configs"
                   / "gain.cfg").replaced(T=500, mc_samples=256, thin=1)


def scaled(cfg, j):
    """``cfg`` with its means scaled by 2^j and its variances by 4^j."""
    if cfg.mode == "simulate":
        return cfg.replaced(means=np.ldexp(cfg.means, j),
                            variances=np.ldexp(cfg.variances, 2 * j))
    return cfg.replaced(g_coeffs=np.ldexp(cfg.g_coeffs, j),
                        h_coeffs=np.ldexp(cfg.h_coeffs, j))


@functools.cache
def unscaled(mode, kind):
    return run_replication(STUDY if mode == "simulate" else GAIN, kind, 0)


def scale_cases(mode, js):
    return [pytest.param(mode, j, kind) for j in js for kind in KINDS]


def known_failure(j, kind, raises, reason):
    return pytest.param("simulate", j, kind, marks=pytest.mark.xfail(
        strict=True, raises=raises, reason=reason))


# from j = -40 (simulate) and -37 (gain) on, the top gap falls below
# NORM_TIE_TOL, and the instance is refused as tied
@pytest.mark.parametrize("mode,j,kind", [
    *scale_cases("simulate", (-39, -1, 1, 64, 256, 258, 480)),
    *scale_cases("gain", (-35, -1, 1, 64, 256, 258, 480)),
    known_failure(500, "wts", RuntimeWarning,
                  "the scatter update of _fold_powers overflows"),
    known_failure(510, "ts_unknown", AssertionError,
                  "the scatter S of arm 0 overflows to inf by round 98"),
])
def test_play_is_exact_under_scale(mode, j, kind):
    # every observation is exactly 2^j times the unscaled one, so every
    # fold is exact and each kind chooses the same plays
    want = unscaled(mode, kind)
    cfg = scaled(STUDY if mode == "simulate" else GAIN, j)
    got = run_replication(cfg, kind, 0)
    assert np.ldexp(got.regret_step, -j).tobytes() == \
        want.regret_step.tobytes()
    assert got.z_snapshots.keys() == want.z_snapshots.keys()
    for t, z in want.z_snapshots.items():
        assert got.z_snapshots[t].tobytes() == z.tobytes(), t
    if mode == "gain":
        assert np.ldexp(got.beta_hat, -j).tobytes() == \
            want.beta_hat.tobytes()
        assert got.k_hat.tolist() == want.k_hat.tolist()
