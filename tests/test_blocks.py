"""Block-read streams against the per-round draws they replace.

Each stream fill draws many rounds at once; read back a round at a time
through :class:`BlockReader`, it must give, for any block size, the rounds
that one single-round fill per round gives, and leave the generator where
those fills leave it.  What a single-round fill draws is tied to numpy's
own per-round draws by ``tests/test_engine.py``: ``_check_kernel`` for the
WTS words, the per-round reference loop of ``engine_reference`` for every
other fill.
"""

import numpy as np
import pytest

from spreadbandits import KINDS, run_replication
from spreadbandits import rng as rng_streams
from spreadbandits.policies import _env_fill, _policy_fill
from engine_reference import (
    assert_matches_reference,
    assert_same_state,
    gain_config,
    make_generator,
    reference_replication,
    simulate_config,
)

BLOCKS = (1, 2, 3, 7, 64)
# 16 and 17 arms put the float64 log and cos of ts_unknown's fill past a
# SIMD width and into its tail
ARMS = (2, 5, 16, 17)
GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64", "PCG64_half_word")


def check_fill(monkeypatch, make_fill, block, case="PCG64"):
    """For every K in ARMS, ``3 * block`` rounds of ``make_fill(K)`` read in
    blocks of ``block`` rounds equal single-round fills of a twin
    generator, which ends in the same state."""
    for K in ARMS:
        fill, nbytes = make_fill(K)
        rng, ref = make_generator(case, K), make_generator(case, K)
        monkeypatch.setattr(rng_streams, "BLOCK_BYTES", block * nbytes)
        reader = rng_streams.BlockReader(rng, fill, nbytes)
        for i in range(3 * block):
            np.testing.assert_array_equal(reader.next(), fill(ref, 1)[0],
                                          err_msg=f"K={K} round {i}")
        assert_same_state(rng, ref)


@pytest.mark.parametrize("case", GENERATORS)
@pytest.mark.parametrize("block", BLOCKS)
def test_wts_words_match_float32_uniforms(monkeypatch, case, block):
    for M in (1, 63, 512):
        check_fill(monkeypatch, lambda K: _policy_fill("wts", K, M), block,
                   case)


@pytest.mark.parametrize("block", BLOCKS)
def test_ts_known_normals(monkeypatch, block):
    check_fill(monkeypatch, lambda K: _policy_fill("ts_known", K, None),
               block)


@pytest.mark.parametrize("block", BLOCKS)
def test_ts_unknown_radial_halves(monkeypatch, block):
    check_fill(monkeypatch, lambda K: _policy_fill("ts_unknown", K, None),
               block)


@pytest.mark.parametrize("kind", ["uniform", "oracle"])
@pytest.mark.parametrize("block", BLOCKS)
def test_env_noise(monkeypatch, kind, block):
    # dense kinds draw a (K, 2) normal per round, one-hot kinds a (1, 2)
    check_fill(monkeypatch, lambda K: _env_fill(kind, K), block)


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


@pytest.mark.parametrize("mode", ["simulate", "gain"])
@pytest.mark.parametrize("kind", KINDS)
def test_trace_does_not_depend_on_block_size(monkeypatch, kind, mode):
    # budgets that give one round per block, three rounds of the outcome
    # stream, three rounds of the policy stream, and the default: each run
    # equals the per-round reference loop
    cfg = (simulate_config if mode == "simulate" else gain_config)(4)
    K = cfg.K if mode == "gain" else cfg.means.shape[0]
    budgets = [1, 3 * _env_fill(kind, K)[1], rng_streams.BLOCK_BYTES]
    pol = _policy_fill(kind, K, cfg.mc_samples)
    if pol is not None:
        budgets.append(3 * pol[1])
    want = reference_replication(cfg, kind, 2)
    for budget in budgets:
        monkeypatch.setattr(rng_streams, "BLOCK_BYTES", budget)
        assert_matches_reference(run_replication(cfg, kind, 2), cfg, *want)
