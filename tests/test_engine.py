"""The array round engine against the scalar loop it replaced.

``reference_replication`` is the per-round loop of the runner before the
policies kept their statistics in arrays: a list of :class:`ArmStats`, a
validated :class:`PowerProfile` and :class:`Outcome` every round, and
:func:`regret_step`.  The engine must reproduce its recorded columns,
power snapshots and final regret exactly, for every policy kind, in both
run modes.
"""

import numpy as np
import pytest

from spreadbandits import (
    KINDS,
    Outcome,
    PowerProfile,
    RunConfig,
    regret_step,
    run_replication,
)
from spreadbandits import rng as rng_streams
from spreadbandits.core import ArmStats, batch_stats
from spreadbandits.policies import (
    KIND_IDS,
    RHO_FLOOR,
    TS_KNOWN_WARMUP_PASSES,
    TS_UNKNOWN_WARMUP_PASSES,
    WTS_WARMUP_ROUNDS,
    PolicyState,
    _fold_arm,
    _fold_powers,
)
from spreadbandits.config import build_instance
from spreadbandits.posterior import _rho_counts, _uniform_bits

SEEDS = (0, 1, 2)


def reference_rho_counts(z, S, t, xbar, M, rng):
    """The float32 kernel as first written: two draws, no rescaling."""
    K = xbar.shape[0]
    scale = np.asarray(S / z, dtype=np.float32).reshape(-1, 1)
    expo = np.asarray(-1.0 / (np.asarray(t, dtype=np.float64) - 3.0),
                      dtype=np.float32).reshape(-1, 1)
    b2 = (xbar * xbar).sum(axis=1).astype(np.float32)[:, None]
    b = np.sqrt(b2)
    u = np.float32(1.0) - rng.random((K, M), dtype=np.float32)
    v = rng.random((K, M), dtype=np.float32)
    d2 = scale * np.expm1(expo * np.log(u))
    d = np.sqrt(d2)
    c = np.cos(np.float32(2.0 * np.pi) * v)
    n2 = (2.0 * b) * d * c
    n2 += b2
    n2 += d2
    return np.bincount(np.argmax(n2, axis=0), minlength=K)


def reference_profile(kind, per_arm, t, instance, M, rng):
    """The profile each policy played, computed from a list of ArmStats."""
    K = len(per_arm)
    z = np.array([st.z for st in per_arm])
    S = np.array([st.S for st in per_arm])
    xbar = np.array([(st.mean_x, st.mean_y) for st in per_arm])
    if kind == "uniform" or (kind == "wts" and t <= WTS_WARMUP_ROUNDS):
        return PowerProfile.uniform(K)
    if kind == "oracle":
        return PowerProfile.one_hot(K, instance.k_star)
    if kind == "wts":
        counts = reference_rho_counts(z, S, float(t), xbar, M, rng)
        q = np.maximum(counts / M, RHO_FLOOR / K)
        return PowerProfile(q / q.sum())
    passes = (TS_KNOWN_WARMUP_PASSES if kind == "ts_known"
              else TS_UNKNOWN_WARMUP_PASSES)
    if t <= passes * K:
        return PowerProfile.one_hot(K, (t - 1) % K)
    n_obs = np.array([round(st.z) for st in per_arm], dtype=np.int64)
    if kind == "ts_known":
        scale = np.sqrt(instance.variances / (2.0 * n_obs))
        draws = xbar + scale[:, None] * rng.normal(size=(K, 2))
        norms2 = (draws * draws).sum(axis=1)
    else:
        u = 1.0 - rng.random(K)
        v = rng.random(K)
        d2 = (S / n_obs) * np.expm1(-np.log(u) / (n_obs - 2.0))
        b2 = (xbar * xbar).sum(axis=1)
        norms2 = b2 + 2.0 * np.sqrt(b2 * d2) * np.cos((2.0 * np.pi) * v)
        norms2 += d2
    return PowerProfile.one_hot(K, int(np.argmax(norms2)))


def reference_outcome(instance, profile, rng):
    p = profile.p
    active = np.flatnonzero(p > 0.0)
    noise = rng.normal(size=(active.shape[0], 2))
    scale = np.sqrt(instance.variances[active] / (2.0 * p[active]))
    obs = instance.means[active] + scale[:, None] * noise
    values = [None] * instance.n_arms
    for i, k in enumerate(active):
        values[k] = obs[i]
    return Outcome(values)


def reference_replication(cfg, kind, replication):
    instance = build_instance(cfg)
    rng_env = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.ENV)
    rng_pol = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.POLICY)
    per_arm = [ArmStats() for _ in range(instance.n_arms)]
    T = cfg.T
    snap_at = {max(1, T // 10), T}
    rows, snaps, cum = [], {}, 0.0
    for t in range(1, T + 1):
        profile = reference_profile(kind, per_arm, t, instance,
                                    cfg.mc_samples, rng_pol)
        step = regret_step(instance, profile)
        cum += step
        outcome = reference_outcome(instance, profile, rng_env)
        for k, st in enumerate(per_arm):
            st.update(float(profile.p[k]), outcome.values[k])
        if t % cfg.thin == 0 or t == T:
            row = (t, step, cum)
            if cfg.mode == "gain":
                z = np.array([st.z for st in per_arm])
                best = per_arm[int(np.argmax(z))]
                row += (float(np.hypot(best.mean_x, best.mean_y)),
                        int(np.argmax(z)))
            rows.append(row)
        if t in snap_at:
            snaps[t] = np.array([st.z for st in per_arm])
    return rows, snaps, cum


def simulate_config(seed):
    return RunConfig(
        mode="simulate", T=150, replications=1, seed=seed, policies=KINDS,
        mc_samples=64, thin=3,
        means=np.array([[2.0, 0.0], [0.9, 1.2], [-1.2, 0.0], [0.6, -0.8],
                        [0.0, 0.8]]),
        variances=np.array([0.25, 0.25, 0.49, 0.64, 1.0]))


def gain_config(seed):
    return RunConfig(
        mode="gain", T=100, replications=1, seed=seed, policies=KINDS,
        mc_samples=64, thin=1, g_coeffs=np.array([0.30, 0.48, 0.30, 0.12]),
        h_coeffs=np.array([0.5]), K=6)


def assert_matches_reference(out, cfg, rows, snaps, cum):
    """``out`` of :func:`run_replication` equals what
    :func:`reference_replication` returned for the same task."""
    names = ("t", "regret_step", "regret_cum", "beta_hat", "k_hat")
    for name, want in zip(names, zip(*rows)):
        assert getattr(out, name).tolist() == list(want), name
    if cfg.mode == "simulate":
        assert out.beta_hat is None and out.k_hat is None
    assert out.final_cum == cum
    assert set(out.z_snapshots) == set(snaps)
    for t, z in snaps.items():
        np.testing.assert_array_equal(out.z_snapshots[t], z)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make_cfg", [simulate_config, gain_config],
                         ids=["simulate", "gain"])
@pytest.mark.parametrize("kind", KINDS)
def test_engine_matches_scalar_loop(kind, make_cfg, seed):
    cfg = make_cfg(seed)
    assert_matches_reference(run_replication(cfg, kind, 1), cfg,
                             *reference_replication(cfg, kind, 1))


@pytest.mark.parametrize("K,M", [(5, 512), (16, 1024)])
def test_kernel_matches_reference_draw_for_draw(K, M):
    # one (2, K, M) draw into a reused buffer consumes the float32 stream
    # exactly as the two (K, M) draws of the reference did
    _check_kernel(K, M, range(50), 1000, np.random.default_rng)


def _generator(case, seed):
    if case == "PCG64_half_word":
        # an odd float32 draw leaves half of a 64-bit word buffered
        gen = np.random.default_rng(seed)
        gen.random(1, dtype=np.float32)
        return gen
    return np.random.Generator(getattr(np.random, case)(seed))


def assert_same_state(rng, ref):
    # the float32 draw also reads a buffered half-word, float64 does not
    np.testing.assert_array_equal(rng.random(3, dtype=np.float32),
                                  ref.random(3, dtype=np.float32))
    np.testing.assert_array_equal(rng.random(9), ref.random(9))


@pytest.mark.parametrize("case", ["MT19937", "Philox", "SFC64",
                                  "PCG64_half_word"])
@pytest.mark.parametrize("K,M", [(5, 512), (3, 7)])
def test_kernel_keeps_float32_stream_on_any_generator(case, K, M):
    # the kernel's uniforms are rng.random(dtype=float32) on every bit
    # generator, and it leaves the generator where that draw leaves it
    _check_kernel(K, M, range(10), 2000, lambda seed: _generator(case, seed),
                  per_arm_t=True)


def _check_kernel(K, M, seeds, stats_seed, make_rng, per_arm_t=False):
    draws = np.empty((2, K, M), dtype=np.float32)
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
        got = _rho_counts(z, S, t, xbar, M, _uniform_bits(rng, K, M, 1)[0],
                          draws)
        np.testing.assert_array_equal(got, want, err_msg=f"seed={seed}")
        assert_same_state(rng, ref_rng)


def _assert_batch_equal(state, powers, xs):
    for k in range(state.n_arms):
        bat = batch_stats(powers[:, k], xs[:, k])
        assert np.isclose(state.z[k], bat.z, rtol=1e-9, atol=1e-12)
        assert np.allclose(state.mean[k], bat.xbar, rtol=1e-9, atol=1e-9)
        assert np.isclose(state.S[k], bat.S, rtol=1e-9, atol=1e-9)


def _assert_same_bits(state, ref):
    # the array update is ArmStats.update's arithmetic, bit for bit
    assert state.z.tolist() == [st.z for st in ref]
    assert state.S.tolist() == [st.S for st in ref]
    assert state.mean.tolist() == [[st.mean_x, st.mean_y] for st in ref]


def test_dense_fold_matches_batch_and_arm_stats():
    rng = np.random.default_rng(105)
    for _ in range(50):
        K, n = int(rng.integers(2, 9)), int(rng.integers(2, 300))
        powers = rng.dirichlet(np.ones(K), size=n)
        xs = rng.normal(size=(n, K, 2)) * 3.0
        state = PolicyState("uniform", K)
        ref = [ArmStats() for _ in range(K)]
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
        ref = [ArmStats() for _ in range(K)]
        for i, k in enumerate(arms.tolist()):
            _fold_arm(state, k, 1.0, xs[i, k, 0], xs[i, k, 1])
            ref[k].update(1.0, xs[i, k])
        _assert_batch_equal(state, powers, xs)
        _assert_same_bits(state, ref)
