"""Allocation policies over a power-weighted bandit instance.

Five policy kinds share one state layout, :class:`PolicyState`, which keeps
the weighted statistics of all arms in arrays (``z`` and ``S`` of shape
(K,), the weighted mean of shape (K, 2)) next to the policy's fixed facts:

* ``wts`` - weighted Thompson sampling.  Rounds 1-3 spread power uniformly;
  from round 4 on the policy plays the Monte Carlo optimality belief of
  :func:`spreadbandits.posterior.estimate_rho`, floored away from zero and
  renormalised, so every arm keeps a strictly positive trickle of power and
  its statistics never freeze.
* ``ts_known`` / ``ts_unknown`` - classical one-hot Thompson sampling
  baselines.  After a round-robin warm-up (one pass for known variance,
  three passes for unknown), each round draws one mean per arm from its
  posterior (Gaussian when sigma^2 is known, the bivariate-t otherwise) and
  commits all power to the draw of largest norm.
* ``oracle`` - all power on the true best arm every round.
* ``uniform`` - the flat profile every round.

A round of the engine is :func:`_choose` (a power vector for ``wts`` and
``uniform``, an arm index for the one-hot kinds) followed by
:func:`_fold_powers` or :func:`_fold_arm`; the simulation runner drives
these directly.  The public :func:`policy_step` / :func:`observe` pair wraps
the same functions in validated :class:`PowerProfile` / :class:`Outcome`
values.  A state is owned by exactly one simulation run.

Every round of a kind takes the same draws from its streams, once past any
warm-up.  :func:`_policy_fill` and :func:`_env_fill` draw ``rounds`` such
rounds in one call, with the part of each draw that does not depend on the
state already applied (the radial ``-log(1 - u)`` and ``cos(2 pi v)`` of
``ts_unknown``).  :func:`_choose` takes the round's draws from a callable,
which it calls only in a round that draws: the runner passes a block
reader of :mod:`spreadbandits.rng`, and :func:`policy_step` a call of the
fill for one round, so the public API takes from its generator exactly
what one round takes.
"""

import numpy as np

from .core import (
    BanditInstance,
    Outcome,
    PowerProfile,
    _normals,
)
from .errors import (
    DimensionMismatch,
    InsufficientData,
    MissingObservation,
    ValidationError,
)
from .posterior import (
    _count,
    _radial_t_d2,
    _radial_t_fill,
    _rho_counts,
    _uniform_bits,
)

WTS = "wts"
TS_KNOWN = "ts_known"
TS_UNKNOWN = "ts_unknown"
ORACLE = "oracle"
UNIFORM = "uniform"
KINDS = (WTS, TS_KNOWN, TS_UNKNOWN, ORACLE, UNIFORM)

# stable ids keying the per-policy random streams (do not reorder)
KIND_IDS = {WTS: 0, TS_KNOWN: 1, TS_UNKNOWN: 2, ORACLE: 3, UNIFORM: 4}

# uniform rounds before WTS starts playing its belief
WTS_WARMUP_ROUNDS = 3
# round-robin passes before the TS baselines start sampling
TS_KNOWN_WARMUP_PASSES = 1
TS_UNKNOWN_WARMUP_PASSES = 3
# the played profile is max(rho, RHO_FLOOR / K), renormalised
RHO_FLOOR = 1e-6


class PolicyState:
    """Mutable per-run state: per-arm statistics in arrays plus the
    policy's fixed facts.

    ``z`` and ``S`` (shape (K,)) and ``mean`` (shape (K, 2)) are the
    power-weighted statistics ``(z, xbar, S)`` of :mod:`spreadbandits.core`,
    one entry per arm.  ``round`` is the 1-based index of the round about to be
    played.  ``mc_samples`` is set for ``wts``, ``sigma2`` for ``ts_known``
    and ``k_star`` for ``oracle``; each is None otherwise.
    """

    __slots__ = ("kind", "round", "z", "S", "mean", "mc_samples", "sigma2",
                 "k_star", "_draws", "_fill")

    def __init__(self, kind: str, n_arms: int, round: int = 1,
                 mc_samples: int | None = None, sigma2=None,
                 k_star: int | None = None):
        if kind not in KINDS:
            raise ValidationError(f"unknown policy kind {kind!r}")
        K = int(n_arms)
        if kind == WTS or mc_samples is not None:
            mc_samples = _count(mc_samples, "mc_samples")
        self.kind = kind
        self.round = int(round)
        self.z = np.zeros(K)
        self.S = np.zeros(K)
        self.mean = np.zeros((K, 2))
        self.mc_samples = mc_samples
        self.sigma2 = sigma2
        self.k_star = k_star
        # the Monte Carlo kernel's uniforms, reused every round
        self._draws = (None if self.mc_samples is None else
                       np.empty((2, K, self.mc_samples), dtype=np.float32))
        # what a round draws from the policy's stream
        self._fill = _policy_fill(kind, K, self.mc_samples)

    @property
    def n_arms(self) -> int:
        return self.z.shape[0]

    def __repr__(self) -> str:
        return (f"PolicyState(kind={self.kind!r}, K={self.n_arms}, "
                f"round={self.round})")


def make_policy(kind: str, instance: BanditInstance,
                mc_samples: int = 1024) -> PolicyState:
    """Fresh state for ``kind`` against ``instance``.

    Baselines receive only what they are entitled to know: ``ts_known``
    keeps the variance vector, ``oracle`` the best-arm index, and ``wts`` /
    ``ts_unknown`` nothing beyond the arm count.
    """
    return PolicyState(
        kind, instance.n_arms,
        mc_samples=mc_samples if kind == WTS else None,
        sigma2=instance.variances.copy() if kind == TS_KNOWN else None,
        k_star=instance.k_star if kind == ORACLE else None)


# ---------------------------------------------------------------------------
# the round engine: trusted internal path, no per-round validation objects

def _policy_fill(kind: str, K: int, M: int | None):
    """``(fill, round_bytes)`` of the kind's own draws, or None for a kind
    that draws nothing.

    ``fill(rng, rounds)`` draws ``rounds`` rounds of what one round of the
    kind takes from its stream, indexed by round, and a round takes
    ``round_bytes`` bytes: ``wts`` the kernel's words, ``ts_known`` a
    standard normal 2-vector per arm, ``ts_unknown`` per arm the ``e`` of
    :func:`_radial_t_fill` and the cosine of its angle.
    """
    if kind == WTS:
        return ((lambda rng, rounds: _uniform_bits(rng, K, M, rounds)),
                8 * K * M)
    if kind == TS_KNOWN:
        return (lambda rng, rounds: _normals(rng, K, rounds)), 16 * K
    if kind == TS_UNKNOWN:
        return (lambda rng, rounds: _ts_unknown_fill(rng, K, rounds)), 16 * K
    return None


def _env_fill(kind: str, K: int):
    """``(fill, round_bytes)`` of the outcome noise of a kind's rounds.

    ``wts`` and ``uniform`` power every arm, so a round draws a (K, 2)
    array of :func:`_normals`; the one-hot kinds power one arm, whose
    noise pair the fill gives as a list of two Python floats.
    """
    if kind in (WTS, UNIFORM):
        return (lambda rng, rounds: _normals(rng, K, rounds)), 16 * K
    return (lambda rng, rounds: _normals(rng, 1, rounds)[:, 0].tolist()), 16


def _ts_unknown_fill(rng: np.random.Generator, K: int,
                     rounds: int) -> np.ndarray:
    """(rounds, 2, K): each round's ``e`` and ``cos(theta)`` of K radial-t
    draws (:func:`_radial_t_fill`)."""
    e, theta = _radial_t_fill(rng, K, rounds)
    out = np.empty((rounds, 2, K))
    out[:, 0] = e
    out[:, 1] = np.cos(theta)
    return out


def _wts_powers(state: PolicyState, noise) -> np.ndarray:
    """The WTS power vector of the current round; ``noise()`` gives the
    round's kernel words."""
    z, S = state.z, state.S
    K = z.shape[0]
    t = state.round
    if t <= WTS_WARMUP_ROUNDS:
        return np.full(K, 1.0 / K)
    if not (z.min() > 0.0 and S.min() > 0.0):
        # reachable: S rounds to 0 when the noise is below the means'
        # float64 resolution (variances 1e-40 next to means of order 1)
        k = int(np.argmin(np.minimum(z, S)))
        raise InsufficientData(
            f"arm {k} statistics degenerate at round {t} "
            f"(z={z[k]}, S={S[k]})")
    M = state.mc_samples
    counts = _rho_counts(z, S, float(t), state.mean, M, noise(), state._draws)
    q = np.maximum(counts / M, RHO_FLOOR / K)
    return q / q.sum()


def _ts_arm(state: PolicyState, noise) -> int:
    """The arm the one-hot Thompson baseline plays this round; ``noise()``
    gives the round's posterior draws once the warm-up is over."""
    K = state.n_arms
    t = state.round
    passes = (TS_KNOWN_WARMUP_PASSES if state.kind == TS_KNOWN
              else TS_UNKNOWN_WARMUP_PASSES)
    if t <= passes * K:
        return (t - 1) % K

    n_obs = np.rint(state.z)
    xbar = state.mean
    if state.kind == TS_KNOWN:
        if n_obs.min() < 1:
            raise InsufficientData("ts_known needs every arm observed once")
        scale = np.sqrt(state.sigma2 / (2.0 * n_obs))
        draws = xbar + scale[:, None] * noise()
        norms2 = (draws * draws).sum(axis=1)
    else:
        if n_obs.min() < 3:
            raise InsufficientData(
                "ts_unknown needs every arm observed three times")
        # bivariate-t posterior of an arm with n one-hot observations is the
        # weighted posterior at z = n, round index n + 1
        w = noise()
        d2 = _radial_t_d2(w[0], state.S / n_obs, n_obs - 2.0)
        b2 = (xbar * xbar).sum(axis=1)
        norms2 = b2 + 2.0 * np.sqrt(b2 * d2) * w[1]
        norms2 += d2
    return int(norms2.argmax())


def _choose(state: PolicyState, noise):
    """The current round's play: a power vector (``wts``, ``uniform``) or
    the index of the arm that gets all the power (the one-hot kinds).

    ``noise()`` returns the round's draws of :func:`_policy_fill`; it is
    called once in a round that draws and not at all in one that does not.
    """
    kind = state.kind
    if kind == WTS:
        return _wts_powers(state, noise)
    if kind == ORACLE:
        return state.k_star
    if kind == UNIFORM:
        return np.full(state.n_arms, 1.0 / state.n_arms)
    return _ts_arm(state, noise)


def _fold_powers(state: PolicyState, p: np.ndarray, x: np.ndarray) -> None:
    """Fold observations ``x`` (K, 2) made at powers ``p`` (every p_k > 0)
    into all arms by the weighted single-pass recurrence ``z' = z + p``,
    ``xbar' = xbar + (p / z') (x - xbar)``, ``S' = S + p (x - xbar) . (x -
    xbar')``: :func:`spreadbandits.core.batch_stats` up to roundoff."""
    d = x - state.mean
    state.z += p
    f = p / state.z
    state.mean += f[:, None] * d
    # the sum of a length-2 row is d_x e_x + d_y e_y, in that order
    state.S += p * (d * (x - state.mean)).sum(axis=1)


def _fold_arm(state: PolicyState, k: int, p: float, x0: float,
              x1: float) -> None:
    """Fold one observation (x0, x1) at power ``p > 0`` into arm ``k``
    alone: :func:`_fold_powers`'s recurrence, in its order, in floats."""
    mean = state.mean
    mx = mean.item(k, 0)
    my = mean.item(k, 1)
    z1 = state.z.item(k) + p
    dx = x0 - mx
    dy = x1 - my
    f = p / z1
    mx += f * dx
    my += f * dy
    state.S[k] += p * (dx * (x0 - mx) + dy * (x1 - my))
    mean[k, 0] = mx
    mean[k, 1] = my
    state.z[k] = z1


# ---------------------------------------------------------------------------
# the public, validated API over the same engine

def policy_step(state: PolicyState, rng: np.random.Generator) -> PowerProfile:
    """The profile ``state.kind`` plays this round, drawing one round from
    ``rng`` if the round draws at all."""
    fill = state._fill
    play = _choose(state, None if fill is None else
                   lambda: fill[0](rng, 1)[0])
    if isinstance(play, np.ndarray):
        return PowerProfile(play)
    return PowerProfile.one_hot(state.n_arms, play)


def observe(state: PolicyState, profile: PowerProfile,
            outcome: Outcome) -> PolicyState:
    """Fold one round of outcomes into ``state`` (mutates and returns it)."""
    K = state.n_arms
    if len(profile) != K:
        raise DimensionMismatch(
            f"profile has {len(profile)} entries, state {K}")
    if len(outcome) != K:
        raise DimensionMismatch(
            f"outcome has {len(outcome)} entries, state {K}")
    p = profile.p
    values = outcome.values
    active = np.flatnonzero(p > 0.0).tolist()
    if any(values[k] is None for k in active):
        raise MissingObservation("positive power requires an observed value")
    if len(active) == K:
        _fold_powers(state, p, np.array(values, dtype=np.float64))
    else:
        for k in active:
            x = values[k]
            _fold_arm(state, k, p.item(k), float(x[0]), float(x[1]))
    state.round += 1
    return state
