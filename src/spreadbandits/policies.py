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
"""

import numpy as np

from .core import SIMPLEX_TOL, BanditInstance, Outcome, PowerProfile
from .errors import (
    InsufficientData,
    InvalidProfile,
    MissingObservation,
    ProfileMismatch,
    WrongKind,
)
from .posterior import _radial_t, _rho_counts

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
    power-weighted statistics of :class:`spreadbandits.core.ArmStats`, one
    entry per arm.  ``round`` is the 1-based index of the round about to be
    played.  ``mc_samples`` is set for ``wts``, ``sigma2`` for ``ts_known``
    and ``k_star`` for ``oracle``; each is None otherwise.
    """

    __slots__ = ("kind", "round", "z", "S", "mean", "mc_samples", "sigma2",
                 "k_star", "_draws")

    def __init__(self, kind: str, n_arms: int, round: int = 1,
                 mc_samples: int | None = None, sigma2=None,
                 k_star: int | None = None):
        if kind not in KINDS:
            raise WrongKind(f"unknown policy kind {kind!r}")
        K = int(n_arms)
        self.kind = kind
        self.round = int(round)
        self.z = np.zeros(K)
        self.S = np.zeros(K)
        self.mean = np.zeros((K, 2))
        self.mc_samples = None if mc_samples is None else int(mc_samples)
        self.sigma2 = sigma2
        self.k_star = k_star
        # the Monte Carlo kernel's uniforms, reused every round
        self._draws = (None if self.mc_samples is None else
                       np.empty((2, K, self.mc_samples), dtype=np.float32))

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
    if kind not in KINDS:
        raise WrongKind(f"unknown policy kind {kind!r}")
    return PolicyState(
        kind, instance.n_arms,
        mc_samples=mc_samples if kind == WTS else None,
        sigma2=instance.variances.copy() if kind == TS_KNOWN else None,
        k_star=instance.k_star if kind == ORACLE else None)


# ---------------------------------------------------------------------------
# the round engine: trusted internal path, no per-round validation objects

def _wts_powers(state: PolicyState, rng: np.random.Generator) -> np.ndarray:
    """The WTS power vector of the current round."""
    z, S = state.z, state.S
    K = z.shape[0]
    t = state.round
    if t <= WTS_WARMUP_ROUNDS:
        return np.full(K, 1.0 / K)
    if not (z.min() > 0.0 and S.min() > 0.0):
        # guarded although unreachable after the uniform warm-up
        k = int(np.argmin(np.minimum(z, S)))
        raise InsufficientData(
            f"arm {k} statistics degenerate at round {t} "
            f"(z={z[k]}, S={S[k]})")
    M = state.mc_samples
    counts = _rho_counts(z, S, float(t), state.mean, M, rng, state._draws)
    q = np.maximum(counts / M, RHO_FLOOR / K)
    p = q / q.sum()
    s = p.sum()
    if not abs(s - 1.0) <= SIMPLEX_TOL:
        raise InvalidProfile(f"powers must sum to 1, got {s!r}")
    return p


def _ts_arm(state: PolicyState, rng: np.random.Generator) -> int:
    """The arm the one-hot Thompson baseline plays this round."""
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
        draws = xbar + scale[:, None] * rng.normal(size=(K, 2))
        norms2 = (draws * draws).sum(axis=1)
    else:
        if n_obs.min() < 3:
            raise InsufficientData(
                "ts_unknown needs every arm observed three times")
        # bivariate-t posterior of an arm with n one-hot observations is the
        # weighted posterior at z = n, round index n + 1
        d2, theta = _radial_t(rng, state.S / n_obs, n_obs - 2.0, K)
        b2 = (xbar * xbar).sum(axis=1)
        norms2 = b2 + 2.0 * np.sqrt(b2 * d2) * np.cos(theta)
        norms2 += d2
    return int(np.argmax(norms2))


def _choose(state: PolicyState, rng: np.random.Generator):
    """The current round's play: a power vector (``wts``, ``uniform``) or
    the index of the arm that gets all the power (the one-hot kinds)."""
    kind = state.kind
    if kind == WTS:
        return _wts_powers(state, rng)
    if kind == ORACLE:
        return state.k_star
    if kind == UNIFORM:
        return np.full(state.n_arms, 1.0 / state.n_arms)
    return _ts_arm(state, rng)


def _fold_powers(state: PolicyState, p: np.ndarray, x: np.ndarray) -> None:
    """Fold observations ``x`` (K, 2) made at powers ``p`` (every p_k > 0)
    into all arms: :meth:`ArmStats.update`, elementwise, in its order."""
    d = x - state.mean
    state.z += p
    f = p / state.z
    state.mean += f[:, None] * d
    # the sum of a length-2 row is d_x e_x + d_y e_y, in that order
    state.S += p * (d * (x - state.mean)).sum(axis=1)


def _fold_arm(state: PolicyState, k: int, p: float, x0: float,
              x1: float) -> None:
    """Fold one observation (x0, x1) at power ``p > 0`` into arm ``k``
    alone: :meth:`ArmStats.update` in Python floats."""
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

def wts_step(state: PolicyState, rng: np.random.Generator) -> PowerProfile:
    """Emit the WTS profile for the current round."""
    if state.kind != WTS:
        raise WrongKind(f"wts_step on a {state.kind!r} state")
    return PowerProfile(_wts_powers(state, rng))


def ts_step(state: PolicyState, rng: np.random.Generator) -> PowerProfile:
    """Emit the one-hot Thompson profile for the current round."""
    if state.kind not in (TS_KNOWN, TS_UNKNOWN):
        raise WrongKind(f"ts_step on a {state.kind!r} state")
    return PowerProfile.one_hot(state.n_arms, _ts_arm(state, rng))


def oracle_step(state: PolicyState) -> PowerProfile:
    """All power on the known best arm."""
    if state.kind != ORACLE:
        raise WrongKind(f"oracle_step on a {state.kind!r} state")
    return PowerProfile.one_hot(state.n_arms, state.k_star)


def uniform_step(state: PolicyState) -> PowerProfile:
    """The flat profile, every round."""
    if state.kind != UNIFORM:
        raise WrongKind(f"uniform_step on a {state.kind!r} state")
    return PowerProfile.uniform(state.n_arms)


def policy_step(state: PolicyState, rng: np.random.Generator) -> PowerProfile:
    """The profile ``state.kind`` plays this round."""
    play = _choose(state, rng)
    if isinstance(play, np.ndarray):
        return PowerProfile(play)
    return PowerProfile.one_hot(state.n_arms, play)


def observe(state: PolicyState, profile: PowerProfile,
            outcome: Outcome) -> PolicyState:
    """Fold one round of outcomes into ``state`` (mutates and returns it)."""
    K = state.n_arms
    if len(profile) != K:
        raise ProfileMismatch(f"profile has {len(profile)} entries, state {K}")
    if len(outcome) != K:
        raise ProfileMismatch(f"outcome has {len(outcome)} entries, state {K}")
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
