"""Keyed random streams for reproducible, order-independent simulation.

Every replication draws from generators derived purely from a key tuple
``(base_seed, policy_id, replication, purpose)``, so running replications
serially, in any order, or across worker processes produces bit-identical
traces.  Raising the replication count leaves earlier replications
untouched.

A simulation round takes a fixed amount from each stream, so the round
engine reads a stream through :func:`in_blocks`: one call fills many
rounds of draws, and the generator yields them a round at a time.  numpy
fills an array element by element from the bit generator, so the block
holds the values that one draw per round would give, in the same order,
whatever the block size.
"""

import numpy as np

# purposes of the per-replication streams
ENV = 0     # environment: outcome noise
POLICY = 1  # policy-internal randomness (posterior draws)

# bytes of draws a reader fills at a time (at least one round)
BLOCK_BYTES = 1 << 18


def stream(base_seed: int, *key: int) -> np.random.Generator:
    """Return a generator keyed by ``base_seed`` and an integer path.

    Distinct keys give statistically independent streams; equal keys give
    identical streams regardless of process or call order.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def in_blocks(rng: np.random.Generator, fill, round_bytes: int, rounds: int):
    """Yield the first ``rounds`` rounds of a stream's draws one at a time,
    filled in blocks.

    ``fill(rng, n)`` draws ``n`` rounds from ``rng`` and returns them
    indexed by round; a round takes ``round_bytes`` bytes, so a block holds
    ``max(1, BLOCK_BYTES // round_bytes)`` rounds.  The last block is cut
    to ``rounds``, so no round past it is drawn, and the generator ends
    there.  The first block is drawn by the first ``next``, and each later
    one when the last is used up.  A used block stays alive until the next
    fill returns: a block is larger than malloc's mmap threshold, and
    freeing it before the fill costs the fill fresh pages.
    """
    per_block = max(1, BLOCK_BYTES // int(round_bytes))
    while rounds > 0:
        n = min(per_block, rounds)
        rounds -= n
        block = fill(rng, n)
        yield from block
