"""Block-read streams against the per-round draws they replace.

Each stream fill draws many rounds at once; read back a round at a time
through :class:`BlockReader`, it must give, for any block size, the same
values as one draw per round, and leave the generator where those draws
leave it.  ``run_replication`` must therefore write the same trace at
every block size.
"""

import numpy as np
import pytest

from spreadbandits import KINDS, RunConfig, run_replication
from spreadbandits import rng as rng_streams
from spreadbandits.policies import _env_fill, _policy_fill

BLOCKS = (1, 2, 3, 7, 64)
ARMS = (2, 5, 16, 17)
GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64", "PCG64_half_word")


def generator(case, seed):
    if case == "PCG64_half_word":
        # an odd float32 draw leaves half of a 64-bit word buffered
        gen = np.random.default_rng(seed)
        gen.random(1, dtype=np.float32)
        return gen
    return np.random.Generator(getattr(np.random, case)(seed))


def read(monkeypatch, rng, fill, round_bytes, block, rounds):
    """``rounds`` rounds of ``fill`` read in blocks of ``block`` rounds."""
    monkeypatch.setattr(rng_streams, "BLOCK_BYTES", block * round_bytes)
    reader = rng_streams.BlockReader(rng, fill, round_bytes)
    return [reader.next() for _ in range(rounds)]


def assert_same_state(rng, ref):
    # the float32 draw also reads a buffered half-word, float64 does not
    np.testing.assert_array_equal(rng.random(3, dtype=np.float32),
                                  ref.random(3, dtype=np.float32))
    np.testing.assert_array_equal(rng.random(5), ref.random(5))


@pytest.mark.parametrize("case", GENERATORS)
@pytest.mark.parametrize("block", BLOCKS)
def test_wts_words_match_float32_uniforms(monkeypatch, case, block):
    # the words' 24-bit mantissas are rng.random((2, K, M), float32)
    for K in ARMS:
        for M in (1, 63, 512):
            fill, nbytes = _policy_fill("wts", K, M)
            rng, ref = generator(case, K * M), generator(case, K * M)
            rounds = 2 * block
            got = read(monkeypatch, rng, fill, nbytes, block, rounds)
            for i, words in enumerate(got):
                assert words.shape == (2, K, M) and words.dtype == np.uint32
                u = (words >> 8).astype(np.float32) * np.float32(2.0 ** -24)
                np.testing.assert_array_equal(
                    u, ref.random((2, K, M), dtype=np.float32),
                    err_msg=f"K={K} M={M} round {i}")
            assert_same_state(rng, ref)


@pytest.mark.parametrize("block", BLOCKS)
def test_ts_known_normals(monkeypatch, block):
    for K in ARMS:
        fill, nbytes = _policy_fill("ts_known", K, None)
        rng, ref = np.random.default_rng(K), np.random.default_rng(K)
        for noise in read(monkeypatch, rng, fill, nbytes, block, 3 * block):
            np.testing.assert_array_equal(noise, ref.normal(size=(K, 2)))
        assert_same_state(rng, ref)


@pytest.mark.parametrize("block", BLOCKS)
def test_ts_unknown_radial_halves(monkeypatch, block):
    # e = -log(1 - u) and cos(2 pi v) as one (2, K) draw per round gave
    # them; the float64 log and cos must not depend on the array's length
    for K in ARMS:
        fill, nbytes = _policy_fill("ts_unknown", K, None)
        rng, ref = np.random.default_rng(K), np.random.default_rng(K)
        for e, c in read(monkeypatch, rng, fill, nbytes, block, 3 * block):
            u, v = ref.random((2, K))
            np.testing.assert_array_equal(e, -np.log(1.0 - u))
            np.testing.assert_array_equal(c, np.cos((2.0 * np.pi) * v))
        assert_same_state(rng, ref)


@pytest.mark.parametrize("kind", ["uniform", "oracle"])
@pytest.mark.parametrize("block", BLOCKS)
def test_env_noise(monkeypatch, kind, block):
    # dense kinds draw a (K, 2) normal per round, one-hot kinds a (1, 2)
    for K in ARMS:
        fill, nbytes = _env_fill(kind, K)
        rows = K if kind == "uniform" else 1
        rng, ref = np.random.default_rng(K), np.random.default_rng(K)
        for g in read(monkeypatch, rng, fill, nbytes, block, 3 * block):
            want = ref.normal(size=(rows, 2))
            if kind == "oracle":
                assert g == want[0].tolist()
            else:
                np.testing.assert_array_equal(g, want)
        assert_same_state(rng, ref)


def test_block_size_follows_the_byte_budget(monkeypatch):
    def fill(rng, rounds):
        calls.append(rounds)
        return rng.random((rounds, 4))

    for budget, per_block in ((1, 1), (32, 1), (95, 2), (96, 3)):
        calls = []
        monkeypatch.setattr(rng_streams, "BLOCK_BYTES", budget)
        reader = rng_streams.BlockReader(np.random.default_rng(0), fill, 32)
        for _ in range(7):
            reader.next()
        assert calls == [per_block] * -(-7 // per_block)


def config(mode):
    if mode == "simulate":
        return RunConfig(
            mode="simulate", T=150, replications=1, seed=4, policies=KINDS,
            mc_samples=64, thin=3,
            means=np.array([[2.0, 0.0], [0.9, 1.2], [-1.2, 0.0],
                            [0.6, -0.8], [0.0, 0.8]]),
            variances=np.array([0.25, 0.25, 0.49, 0.64, 1.0]))
    return RunConfig(
        mode="gain", T=100, replications=1, seed=4, policies=KINDS,
        mc_samples=64, thin=1, g_coeffs=np.array([0.30, 0.48, 0.30, 0.12]),
        h_coeffs=np.array([0.5]), K=6)


@pytest.mark.parametrize("mode", ["simulate", "gain"])
@pytest.mark.parametrize("kind", KINDS)
def test_trace_does_not_depend_on_block_size(monkeypatch, kind, mode):
    # budgets that give one round per block, three rounds of the policy
    # stream, three rounds of the outcome stream, and the default
    cfg = config(mode)
    K = cfg.K if mode == "gain" else cfg.means.shape[0]
    pol = _policy_fill(kind, K, cfg.mc_samples)
    budgets = [1, 3 * _env_fill(kind, K)[1], rng_streams.BLOCK_BYTES]
    if pol is not None:
        budgets.append(3 * pol[1])
    outs = []
    for budget in budgets:
        monkeypatch.setattr(rng_streams, "BLOCK_BYTES", budget)
        outs.append(run_replication(cfg, kind, 2))
    ref = outs[0]
    for out in outs[1:]:
        for want, got in zip(ref.columns(), out.columns(), strict=True):
            np.testing.assert_array_equal(got, want)
        assert out.final_cum == ref.final_cum
        assert out.z_snapshots.keys() == ref.z_snapshots.keys()
        for t, z in ref.z_snapshots.items():
            np.testing.assert_array_equal(out.z_snapshots[t], z)
