"""Keyed random streams for reproducible, order-independent simulation.

Every replication draws from generators derived purely from a key tuple
``(base_seed, policy_id, replication, purpose)``, so running replications
serially, in any order, or across worker processes produces bit-identical
traces.  Raising the replication count leaves earlier replications
untouched.

A simulation round takes a fixed amount from each stream, so the round
engine reads a stream through a :class:`BlockReader`: one call fills many
rounds of draws, and the reader hands them out a round at a time.  numpy
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


class BlockReader:
    """Hands out a stream's draws a round at a time, filled in blocks.

    ``fill(rng, rounds)`` draws ``rounds`` rounds from ``rng`` and returns
    them indexed by round; a round takes ``round_bytes`` bytes, so a block
    holds ``max(1, BLOCK_BYTES // round_bytes)`` rounds.  :meth:`next`
    returns the next round and draws the next block when the last one is
    used up; draws left in the block when reading stops are never used.
    """

    __slots__ = ("_rng", "_fill", "_rounds", "_block", "_i")

    def __init__(self, rng: np.random.Generator, fill, round_bytes: int):
        self._rng = rng
        self._fill = fill
        self._rounds = max(1, BLOCK_BYTES // int(round_bytes))
        self._block = None
        self._i = self._rounds

    def next(self):
        i = self._i
        if i == self._rounds:
            self._block = self._fill(self._rng, self._rounds)
            i = 0
        self._i = i + 1
        return self._block[i]
