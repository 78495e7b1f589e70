"""Block-read streams against the per-round draws they replace.

Each stream fill draws many rounds at once; read back a round at a time
through :func:`in_blocks`, it must give, for any block size, the rounds
that one single-round fill per round gives, and leave the generator where
those fills leave it.  What a single-round fill draws is tied to numpy's
own per-round draws by ``tests/test_engine.py``: ``_check_kernel`` for the
WTS kernel's float32 uniforms, the per-round reference loop of
``engine_reference`` for every other fill.
"""

import numpy as np
import pytest

from spreadbandits import KINDS, run_replication
from spreadbandits import policies
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
        reader = rng_streams.in_blocks(rng, fill, nbytes, 3 * block)
        for i in range(3 * block):
            np.testing.assert_array_equal(next(reader), fill(ref, 1)[0],
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


def counted_fill(calls):
    """A fill of 32-byte rounds that records how many rounds each call
    draws in ``calls``."""
    def fill(rng, rounds):
        calls.append(rounds)
        return rng.random((rounds, 4))
    return fill


def test_block_size_follows_the_byte_budget(monkeypatch):
    # a bound past the last full block, so only the budget sets the sizes
    for budget, per_block in ((1, 1), (32, 1), (95, 2), (96, 3)):
        calls = []
        monkeypatch.setattr(rng_streams, "BLOCK_BYTES", budget)
        reader = rng_streams.in_blocks(np.random.default_rng(0),
                                       counted_fill(calls), 32, 64)
        for _ in range(7):
            next(reader)
        assert calls == [per_block] * -(-7 // per_block)


def test_last_block_is_cut_to_the_bound(monkeypatch):
    # 3 rounds a block, 7 rounds in all: the third fill draws only the
    # seventh round, and the reader then ends
    calls = []
    monkeypatch.setattr(rng_streams, "BLOCK_BYTES", 96)
    reader = rng_streams.in_blocks(np.random.default_rng(0),
                                   counted_fill(calls), 32, 7)
    assert len(list(reader)) == 7
    assert calls == [3, 3, 1]


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


def asked_rounds(monkeypatch, cfg, kind) -> dict:
    """The rounds one :func:`run_replication` of ``kind`` asks each stream
    for, counted through a spy on each fill; a stream it never builds is
    absent."""
    asked = {}

    def spy(stream, make_fill):
        def made(*args):
            pair = make_fill(*args)
            if pair is None:
                return None
            fill, nbytes = pair

            def counted(rng, rounds):
                asked[stream] = asked.get(stream, 0) + rounds
                return fill(rng, rounds)
            return counted, nbytes
        return made

    monkeypatch.setattr(policies, "_env_fill", spy("env", _env_fill))
    monkeypatch.setattr(policies, "_policy_fill", spy("policy", _policy_fill))
    run_replication(cfg, kind, 0)
    return asked


@pytest.mark.parametrize("kind", ["ts_known", "wts"])
def test_streams_stop_at_the_horizon(monkeypatch, kind):
    # at most T rounds from each stream, so no block is drawn past the
    # last round
    cfg = simulate_config(0).replaced(T=40)
    asked = asked_rounds(monkeypatch, cfg, kind)
    assert set(asked) == {"env", "policy"}
    assert max(asked.values()) <= cfg.T


@pytest.mark.parametrize("kind", ["oracle", "uniform"])
def test_fixed_plays_draw_outcomes_only_in_gain_mode(monkeypatch, kind):
    # in simulate mode nothing reads a fixed play's outcomes, so it asks no
    # stream for a round; gain mode estimates from them at every round
    assert asked_rounds(monkeypatch, simulate_config(0).replaced(T=40),
                        kind) == {}
    cfg = gain_config(0).replaced(T=40)
    assert asked_rounds(monkeypatch, cfg, kind) == {"env": cfg.T}
