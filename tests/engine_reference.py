"""The scalar loop the array round engine replaced, and the helpers that
hold the engine to it.

``reference_replication`` is the runner's per-round loop before the
policies kept their statistics in arrays: per arm a :class:`ScalarArm`, the
fold written out apart from the engine's, a validated :class:`PowerProfile`
and (K, 2) observations every round, and :func:`regret_step`.  The engine
must reproduce its recorded columns, power snapshots and final regret
exactly (``tests/test_engine.py``), at any stream block size
(``tests/test_blocks.py``).  This is a helper module, not a test module:
the test suite puts ``tests/`` on ``sys.path`` (``pythonpath`` in
``pyproject.toml``), so both modules import it in every pytest import mode.
"""

import numpy as np

from spreadbandits import KINDS, PowerProfile, RunConfig, regret_step
from spreadbandits import rng as rng_streams
from spreadbandits.policies import (
    KIND_IDS,
    RHO_FLOOR,
    TS_KNOWN_WARMUP_PASSES,
    TS_UNKNOWN_WARMUP_PASSES,
    WTS_WARMUP_ROUNDS,
)


class ScalarArm:
    """One arm's ``(z, xbar, S)``, folded in Python floats by the weighted
    single-pass recurrence; a round at zero power folds nothing."""

    def __init__(self):
        self.z = self.mx = self.my = self.S = 0.0

    def update(self, p, x):
        if p > 0.0:
            x0, x1 = float(x[0]), float(x[1])
            z1 = self.z + p
            dx, dy = x0 - self.mx, x1 - self.my
            f = p / z1
            self.mx += f * dx
            self.my += f * dy
            self.S += p * (dx * (x0 - self.mx) + dy * (x1 - self.my))
            self.z = z1


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
    """The profile each policy played, from a list of :class:`ScalarArm`."""
    K = len(per_arm)
    z = np.array([st.z for st in per_arm])
    S = np.array([st.S for st in per_arm])
    xbar = np.array([(st.mx, st.my) for st in per_arm])
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
    x = np.full((instance.n_arms, 2), np.nan)
    x[active] = instance.means[active] + scale[:, None] * noise
    return x


def reference_replication(cfg, kind, replication):
    instance = cfg.instance
    rng_env = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.ENV)
    rng_pol = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.POLICY)
    per_arm = [ScalarArm() for _ in range(instance.n_arms)]
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
            st.update(float(profile.p[k]), outcome[k])
        if t % cfg.thin == 0 or t == T:
            row = (t, step, cum)
            if cfg.mode == "gain":
                z = np.array([st.z for st in per_arm])
                best = per_arm[int(np.argmax(z))]
                row += (float(np.hypot(best.mx, best.my)),
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


def make_generator(case, seed):
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
