"""The round engine: allocation policies, the observations they draw, and
the loop that plays one replication.

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

A round is :func:`_choose` (a power vector for ``wts`` and ``uniform``, an
arm index for the one-hot kinds), the draw of its observations
(:func:`_draw`), the fold (:func:`_fold_powers` or :func:`_fold_arm`) and
its regret ``gaps @ p``; :func:`run_replication` plays the rounds of one
replication of a :class:`spreadbandits.RunConfig` on the instance the
config built, and returns the :class:`ReplicationOut` it fills.  On
K-vectors numpy's fixed cost per call, about a microsecond, outweighs the
arithmetic, so the loop keeps such calls out of the rounds where it can:
a Thompson baseline takes its arms from one generator per replication
(:func:`_ts_arms`), which samples in Python floats from per-arm posterior
constants that each fold refreshes for the one arm it changes
(:class:`_PolicyDraws`), a one-hot play draws and folds its one arm in
floats, through the state's float views (:func:`_fold_arm`), and
``uniform`` and the warm-up of ``wts`` play one read-only flat profile
per K (:func:`_flat`).  In simulate mode nothing reads the statistics of
a :data:`FIXED_PLAYS` kind, whose play only adds to ``z``: it draws and
folds nothing.  The public :func:`policy_step`, :func:`sample_outcome` and
:func:`observe` run the same functions one round at a time, validated: the
play as a :class:`PowerProfile`, and the observations as one (K, 2) array
whose row for an arm with zero power is NaN, checked once on the way in.
A state is owned by exactly one simulation run.

Every round of a kind takes the same draws from its streams, once past any
warm-up.  :func:`_policy_fill` and :func:`_env_fill` draw ``rounds`` such
rounds in one call, with the part of each draw that does not depend on the
state already applied (the float32 ``1 - u`` and ``2 pi v`` of ``wts``, the
radial ``-log(1 - u)`` and ``cos(2 pi v)`` of ``ts_unknown``); a one-hot
fill holds a round's floats in one tuple, and no list per round.
:func:`_choose` takes a kind's draws from one :class:`_PolicyDraws`, which
it calls only in a round that draws: :func:`run_replication` makes one per
replication over the ``__next__`` of a
:func:`spreadbandits.rng.in_blocks` generator, and :func:`policy_step` a
fresh one on every call over a fill of one round, so the public API takes
from its generator exactly what one round takes and sees the statistics as
they are.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_streams
from .core import DIM, BanditInstance, PowerProfile, _count
from .errors import (
    BanditError,
    DimensionMismatch,
    InsufficientData,
    InvalidParams,
    MissingObservation,
    NonPositiveVariance,
    TooFewArms,
    ValidationError,
)
from .posterior import (
    _kernel_uniforms,
    _radial_t_d2,
    _radial_t_fill,
    _rho_counts,
)
from .sysid import gain_estimate

WTS = "wts"
TS_KNOWN = "ts_known"
TS_UNKNOWN = "ts_unknown"
ORACLE = "oracle"
UNIFORM = "uniform"
KINDS = (WTS, TS_KNOWN, TS_UNKNOWN, ORACLE, UNIFORM)
# kinds whose play never reads their statistics
FIXED_PLAYS = (ORACLE, UNIFORM)

# stable ids keying the per-policy random streams (do not reorder)
KIND_IDS = {WTS: 0, TS_KNOWN: 1, TS_UNKNOWN: 2, ORACLE: 3, UNIFORM: 4}

# uniform rounds before WTS starts playing its belief
WTS_WARMUP_ROUNDS = 3
# round-robin passes before the TS baselines start sampling
TS_KNOWN_WARMUP_PASSES = 1
TS_UNKNOWN_WARMUP_PASSES = 3
# the played profile is max(rho, RHO_FLOOR / K), renormalised
RHO_FLOOR = 1e-6
# joint posterior draws per WTS round, unless a run asks for another count
MC_SAMPLES = 1024


class PolicyState:
    """Mutable per-run state: per-arm statistics in arrays plus the
    policy's fixed facts.

    ``z`` and ``S`` (shape (K,)) and ``mean`` (shape (K, 2)) are the
    power-weighted statistics ``(z, xbar, S)`` of :mod:`spreadbandits.core`,
    one entry per arm.  ``round`` is the 1-based index of the round about to
    be played.  ``mc_samples`` is given for ``wts``, ``sigma2`` for
    ``ts_known`` and ``k_star`` for ``oracle``, and each is None otherwise.
    The facts are checked here, once: ``mc_samples`` is a count (so a
    ``wts`` state without one raises :class:`InvalidParams`), ``sigma2`` a
    finite, positive vector of length K (kept as a read-only float64 copy),
    and ``k_star`` a count below K; a missing ``sigma2`` or ``k_star``, or
    another kind's fact, raises :class:`ValidationError`.  A state holds
    nothing else: the draws a round takes come from :func:`_policy_fill`,
    outside it.  ``z_f``, ``S_f`` and ``mean_f`` are float memoryviews of
    ``z``, ``S`` and the flat ``mean``: one more access path to the same
    memory, through which the one-arm fold reads and writes floats.
    """

    __slots__ = ("kind", "round", "z", "S", "mean", "z_f", "S_f", "mean_f",
                 "mc_samples", "sigma2", "k_star")

    def __init__(self, kind: str, n_arms: int,
                 mc_samples: int | None = None, sigma2=None,
                 k_star: int | None = None):
        if kind not in KINDS:
            raise ValidationError(f"unknown policy kind {kind!r}")
        K = _count(n_arms, "n_arms", 1, TooFewArms)
        if kind == WTS:
            mc_samples = _count(mc_samples, "mc_samples")
        for name, value, owner in (("mc_samples", mc_samples, WTS),
                                   ("sigma2", sigma2, TS_KNOWN),
                                   ("k_star", k_star, ORACLE)):
            if (value is None) == (kind == owner):
                raise ValidationError(
                    f"{name} is {'required' if kind == owner else 'unused'}"
                    f" by a {kind} policy")
        if kind == TS_KNOWN:
            sigma2 = np.array(sigma2, dtype=np.float64)
            if sigma2.shape != (K,):
                raise DimensionMismatch(
                    f"sigma2 must have length {K}, got shape {sigma2.shape}")
            if not (np.isfinite(sigma2).all() and (sigma2 > 0.0).all()):
                raise NonPositiveVariance("sigma2 must be finite and > 0")
            sigma2.setflags(write=False)
        if kind == ORACLE:
            k_star = _count(k_star, "k_star", 0)
            if k_star >= K:
                raise InvalidParams(
                    f"k_star must be below n_arms = {K}, got {k_star}")
        self.kind = kind
        self.round = 1
        self.z, self.S, self.mean = np.zeros(K), np.zeros(K), np.zeros((K, 2))
        self.z_f, self.S_f, self.mean_f = map(
            memoryview, (self.z, self.S, self.mean.reshape(-1)))
        self.mc_samples = mc_samples
        self.sigma2 = sigma2
        self.k_star = k_star

    @property
    def n_arms(self) -> int:
        return self.z.shape[0]

    def __repr__(self) -> str:
        return (f"PolicyState(kind={self.kind!r}, K={self.n_arms}, "
                f"round={self.round})")


def make_policy(kind: str, instance: BanditInstance,
                mc_samples: int = MC_SAMPLES) -> PolicyState:
    """Fresh state for ``kind`` against ``instance``.

    Baselines receive only what they are entitled to know: ``ts_known``
    keeps the variance vector, ``oracle`` the best-arm index, and ``wts`` /
    ``ts_unknown`` nothing beyond the arm count.
    """
    return PolicyState(
        kind, instance.n_arms,
        mc_samples=mc_samples if kind == WTS else None,
        sigma2=instance.variances if kind == TS_KNOWN else None,
        k_star=instance.k_star if kind == ORACLE else None)


# ---------------------------------------------------------------------------
# the observation model: draws of the arms' outcomes

def _draw(means, variances, p, noise: np.ndarray) -> np.ndarray:
    """Observations of arms with powers ``p > 0``, one row per arm.

    Row k is ``means[k] + sqrt(variances[k] / (2 p[k])) * noise[k]``, with
    ``noise`` a standard normal (rows, 2) array.  Unvalidated: the core of
    :func:`sample_outcome` and of the round engine's dense play.
    """
    return means + np.sqrt(variances / (2.0 * p))[:, None] * noise


# ---------------------------------------------------------------------------
# the round engine: trusted internal path, no per-round validation objects

def _policy_fill(kind: str, K: int, M: int | None):
    """``(fill, round_bytes)`` of the kind's own draws, or None for a kind
    that draws nothing.

    ``fill(rng, rounds)`` draws ``rounds`` rounds of what one round of the
    kind takes from its stream, indexed by round, and a round takes
    ``round_bytes`` bytes: ``wts`` the kernel's float32 uniforms
    (:func:`_kernel_uniforms`), which its round overwrites, ``ts_known`` a
    standard normal 2-vector per arm, ``ts_unknown`` per arm the ``e`` of
    :func:`_radial_t_fill` and the cosine of its angle.  The Thompson
    fills hand out a round's floats as one tuple (:func:`_float_rows`):
    ``ts_known``'s 2K normals in arm order, and ``ts_unknown``'s K cosines,
    paired with its ``e`` as a numpy K-vector for :func:`_radial_t_d2`.
    """
    if kind == WTS:
        return ((lambda rng, rounds: _kernel_uniforms(rng, K, M, rounds)),
                8 * K * M)
    if kind == TS_KNOWN:
        return ((lambda rng, rounds:
                 _float_rows(rng.normal(size=(rounds, K * DIM)))), 16 * K)
    if kind == TS_UNKNOWN:
        def fill(rng, rounds):
            e, theta = _radial_t_fill(rng, K, rounds)
            return list(zip(e, _float_rows(np.cos(theta))))
        return fill, 16 * K
    return None


def _env_fill(kind: str, K: int):
    """``(fill, round_bytes)`` of the outcome noise of a kind's rounds.

    ``wts`` and ``uniform`` power every arm, so a round draws a (K, 2)
    standard normal array; the one-hot kinds power one arm, whose noise
    pair the fill gives as a tuple of two Python floats.
    """
    if kind in (WTS, UNIFORM):
        return (lambda rng, rounds: rng.normal(size=(rounds, K, DIM))), 16 * K
    return (lambda rng, n: _float_rows(rng.normal(size=(n, DIM)))), 16


def _float_rows(a: np.ndarray) -> list:
    """Rows of the 2-D ``a`` as tuples of floats, from one ``.tolist()``."""
    return list(zip(*[iter(a.ravel().tolist())] * a.shape[1]))


@functools.cache
def _flat(K: int) -> np.ndarray:
    """The read-only powers of :meth:`PowerProfile.uniform`, one array per
    K, so the round engine sees a repeated play as the same object."""
    return PowerProfile.uniform(K).p


def _wts_powers(state: PolicyState, post) -> np.ndarray:
    """The WTS power vector of the current round; ``post.draws()`` gives
    the round's kernel uniforms."""
    z, S = state.z, state.S
    K = z.shape[0]
    t = state.round
    if t <= WTS_WARMUP_ROUNDS:
        return _flat(K)
    # the ufunc reductions skip the Python wrappers of ndarray.min and .sum
    if not (np.minimum.reduce(z) > 0.0 and np.minimum.reduce(S) > 0.0):
        # reachable: S rounds to 0 when the noise is below the means'
        # float64 resolution (variances 1e-40 next to means of order 1)
        k = int(np.argmin(np.minimum(z, S)))
        raise InsufficientData(
            f"arm {k} statistics degenerate at round {t} "
            f"(z={z[k]}, S={S[k]})")
    M = state.mc_samples
    counts = _rho_counts(z, S, float(t), state.mean, M, post.draws())
    q = np.maximum(counts / M, RHO_FLOOR / K)
    return q / np.add.reduce(q)


class _PolicyDraws:
    """A policy's draw source for :func:`_choose`: ``draws()`` gives a
    round's draws of :func:`_policy_fill`, and ``draws`` is None for a kind
    that draws nothing.  For the one-hot Thompson baselines ``arms`` is the
    :func:`_ts_arms` generator of the arms they play, and None for any
    other kind; ``consts`` holds per arm what changes only when the arm is
    folded (``(xbar_x, xbar_y, sqrt(sigma2 / (2 n)))`` for ``ts_known``;
    ``|xbar|^2`` for ``ts_unknown``, with ``S / n`` and ``n - 2`` in the
    K-vectors ``scale`` and ``dof`` that :func:`_radial_t_d2` takes).
    :func:`_ts_arms` makes them after the warm-up and :meth:`refresh`
    remakes an arm's from what :func:`_fold_arm` returns, so a state
    changed any other way needs a fresh instance."""

    __slots__ = ("draws", "arms", "sigma2", "consts", "scale", "dof")

    def __init__(self, state: PolicyState, draws):
        self.draws = draws
        self.consts = None
        self.arms = (_ts_arms(state, self)
                     if state.kind in (TS_KNOWN, TS_UNKNOWN) else None)

    def refresh(self, k: int, n: float, mx: float, my: float,
                S: float) -> None:
        """Remake arm k's constants, once built, from its mean, scatter and
        ``n`` one-hot observations (the whole ``z`` of folds at power 1)."""
        if self.consts is None:
            return
        if self.sigma2 is not None:
            self.consts[k] = mx, my, math.sqrt(self.sigma2[k] / (2.0 * n))
        else:
            # bivariate-t posterior of an arm with n one-hot observations
            # is the weighted posterior at z = n, round index n + 1
            self.consts[k] = mx * mx + my * my
            self.scale[k] = S / n
            self.dof[k] = n - 2.0


def _ts_arms(state: PolicyState, post: _PolicyDraws):
    """Yield the one-hot Thompson baseline's arm of each round: round-robin
    through the warm-up, then the first largest (the first NaN, if any, as
    in ``np.argmax``) of one sampled norm per arm from the constants of
    ``post``, built once.  A norm is numpy's to the bit: Python floats in
    the order of the array expression it stands for (``xbar + scale * g``,
    then ``dx * dx + dy * dy``; ``b2 + 2 sqrt(b2 d2) cos``, then ``+ d2``)."""
    K = state.n_arms
    known = state.kind == TS_KNOWN
    passes = TS_KNOWN_WARMUP_PASSES if known else TS_UNKNOWN_WARMUP_PASSES
    while state.round <= passes * K:
        yield (state.round - 1) % K
    n_obs = np.rint(state.z)
    if np.minimum.reduce(n_obs) < passes:
        raise InsufficientData(f"{state.kind} needs every arm observed "
                               f"{'once' if known else 'three times'}")
    post.sigma2 = state.sigma2.tolist() if known else None
    consts = post.consts = [None] * K
    scale, dof = post.scale, post.dof = np.empty(K), np.empty(K)
    for k, (n, (mx, my), S) in enumerate(zip(
            n_obs.tolist(), state.mean.tolist(), state.S.tolist())):
        post.refresh(k, n, mx, my, S)
    draws, sqrt, inf = post.draws, math.sqrt, math.inf
    while True:
        best_k, best = 0, -inf
        if known:
            g = draws()
            i = 0  # arm i // 2's normals are g[i] and g[i + 1]
            for mx, my, s in consts:
                dx = mx + s * g[i]
                dy = my + s * g[i + 1]
                v = dx * dx + dy * dy
                if not v <= best:  # larger, or NaN
                    best_k, best = i >> 1, v
                    if v != v:
                        break
                i += 2
        else:
            e, cos = draws()
            k = 0
            for b2, c, d in zip(consts, cos,
                                _radial_t_d2(e, scale, dof).tolist()):
                v = b2 + 2.0 * sqrt(b2 * d) * c + d
                if not v <= best:
                    best_k, best = k, v
                    if v != v:
                        break
                k += 1
        yield best_k


def _choose(state: PolicyState, post: _PolicyDraws):
    """The current round's play: a power vector (``wts``, ``uniform``) or
    the index of the arm that gets all the power (the one-hot kinds).

    A round that draws takes one round of ``post.draws()``, and a round
    that does not takes none.
    """
    kind = state.kind
    if kind == WTS:
        return _wts_powers(state, post)
    if kind == ORACLE:
        return state.k_star
    if kind == UNIFORM:
        return _flat(state.n_arms)
    return next(post.arms)


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
    state.S += p * np.add.reduce(d * (x - state.mean), axis=1)


def _fold_arm(state: PolicyState, k: int, p: float, x0: float,
              x1: float) -> tuple:
    """Fold one observation (x0, x1) at power ``p > 0`` into arm ``k``
    alone by :func:`_fold_powers`'s recurrence, in its order, in floats
    through the state's views; returns its ``(z, xbar_x, xbar_y, S)``."""
    z, S, mean = state.z_f, state.S_f, state.mean_f
    i = 2 * k
    mx = mean[i]
    my = mean[i + 1]
    z1 = z[k] + p
    dx = x0 - mx
    dy = x1 - my
    f = p / z1
    mx += f * dx
    my += f * dy
    S1 = S[k] + p * (dx * (x0 - mx) + dy * (x1 - my))
    S[k] = S1
    mean[i] = mx
    mean[i + 1] = my
    z[k] = z1
    return z1, mx, my, S1


@dataclass(frozen=True, eq=False)
class ReplicationOut:
    """Everything one replication reports back.

    The recorded rounds are columns with one entry per recorded round:
    ``t`` and ``k_hat`` are int64, ``regret_step``, ``regret_cum`` and
    ``beta_hat`` float64.  ``beta_hat`` and ``k_hat`` are ``None`` in
    simulate mode.
    """

    policy: str
    replication: int
    t: np.ndarray
    regret_step: np.ndarray
    regret_cum: np.ndarray
    final_cum: float
    z_snapshots: dict  # round -> per-arm cumulative power
    beta_hat: np.ndarray | None = None
    k_hat: np.ndarray | None = None

    def columns(self) -> dict:
        """The recorded columns by name, in CSV order after policy and
        replication: the gain columns follow in gain mode only."""
        names = ["t", "regret_step", "regret_cum"]
        if self.beta_hat is not None:
            names += ["beta_hat", "k_hat"]
        return {name: getattr(self, name) for name in names}


def run_replication(cfg, kind: str, replication: int) -> ReplicationOut:
    """Play ``kind`` for one replication of ``cfg.T`` rounds on
    ``cfg.instance``, the instance that the :class:`spreadbandits.RunConfig`
    ``cfg`` built.

    Records every ``thin``-th round and round T, the regret at T, per-arm
    cumulative power at rounds T//10 and T and, in gain mode, the
    ``beta_hat`` and ``k_hat`` of each recorded round.  No profile or
    outcome object is built per round.  Each stream is read in blocks of
    rounds, none past round T; in simulate mode a :data:`FIXED_PLAYS` kind
    builds no outcome stream, and adds its play to ``state.z`` by the
    fold's own float additions.  A :class:`BanditError` of a round is raised
    again with its policy, replication and round in the message.
    """
    instance = cfg.instance
    rng_pol = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.POLICY)
    K = instance.n_arms
    state = make_policy(kind, instance, cfg.mc_samples)
    T = cfg.T
    gain_mode = cfg.mode == "gain"
    env_noise = None  # nothing reads a fixed play's outcomes in simulate mode
    if gain_mode or kind not in FIXED_PLAYS:
        rng_env = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                     rng_streams.ENV)
        env_noise = rng_streams.in_blocks(rng_env, *_env_fill(kind, K),
                                          T).__next__
    fill = _policy_fill(kind, K, state.mc_samples)
    post = _PolicyDraws(state, None if fill is None else
                        rng_streams.in_blocks(rng_pol, *fill, T).__next__)
    # a Thompson baseline's constants follow each fold
    refresh = post.refresh
    thin = cfg.thin
    snap_at = {max(1, T // 10), T}
    means, variances, gaps = instance.means, instance.variances, instance.gaps
    # a one-hot play reads its arm's constants as Python floats: gaps[k] is
    # bit-equal to gaps @ one_hot(k), and sd[k] is _draw's scale at p = 1
    mean_x, mean_y = means[:, 0].tolist(), means[:, 1].tolist()
    gap = gaps.tolist()
    sd = [math.sqrt(v / 2.0) for v in variances.tolist()]
    # the one dense play that repeats: uniform, and the warm-up of wts
    flat = _flat(K)
    flat_step = float(gaps @ flat)

    ts, steps, cums, betas, k_hats = [], [], [], [], []
    snaps = {}
    cum = 0.0
    for t in range(1, T + 1):
        try:
            play = _choose(state, post)
            if type(play) is int:
                step = gap[play]
                if env_noise is None:
                    state.z_f[play] += 1.0
                else:
                    g0, g1 = env_noise()
                    refresh(play, *_fold_arm(
                        state, play, 1.0, mean_x[play] + sd[play] * g0,
                        mean_y[play] + sd[play] * g1))
            else:
                step = flat_step if play is flat else float(gaps @ play)
                if env_noise is None:
                    state.z += play
                else:
                    _fold_powers(state, play,
                                 _draw(means, variances, play, env_noise()))
            state.round += 1
            cum += step
            if t % thin == 0 or t == T:
                ts.append(t)
                steps.append(step)
                cums.append(cum)
                if gain_mode:
                    est = gain_estimate(state.z, state.mean)
                    betas.append(est.beta_hat)
                    k_hats.append(est.k_hat)
        except BanditError as exc:
            raise type(exc)(f"policy={kind} replication={replication} "
                            f"round={t}: {exc}") from exc
        if t in snap_at:
            snaps[t] = state.z.copy()
    return ReplicationOut(
        kind, replication, np.array(ts, dtype=np.int64),
        np.array(steps, dtype=np.float64), np.array(cums, dtype=np.float64),
        cum, snaps,
        np.array(betas, dtype=np.float64) if gain_mode else None,
        np.array(k_hats, dtype=np.int64) if gain_mode else None)


# ---------------------------------------------------------------------------
# the public, validated API over the same engine

def policy_step(state: PolicyState, rng: np.random.Generator) -> PowerProfile:
    """The profile ``state.kind`` plays this round, drawing one round from
    ``rng`` if the round draws at all."""
    fill = _policy_fill(state.kind, state.n_arms, state.mc_samples)
    play = _choose(state, _PolicyDraws(
        state, None if fill is None else lambda: fill[0](rng, 1)[0]))
    if isinstance(play, np.ndarray):
        return PowerProfile(play)
    return PowerProfile.one_hot(state.n_arms, play)


def observe(state: PolicyState, profile: PowerProfile, x) -> PolicyState:
    """Fold one round of observations into ``state`` (mutates and returns it).

    ``x`` is the round's (K, 2) observation array, as :func:`sample_outcome`
    returns it: row k is read when ``p_k > 0``, and must then be finite,
    and is ignored otherwise.  Each powered arm is folded by
    :func:`_fold_arm`, bit-equal to the round engine's :func:`_fold_powers`.
    """
    K = state.n_arms
    p = profile.p
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged, or not numbers
        raise DimensionMismatch(
            f"a state of {K} arms needs a ({K}, {DIM}) float array of "
            f"observations: {exc}") from exc
    if p.shape[0] != K or x.shape != (K, DIM):
        raise DimensionMismatch(
            f"a state of {K} arms needs {K} powers and ({K}, {DIM}) "
            f"observations, got {p.shape[0]} and {x.shape}")
    active = p > 0.0
    if not np.isfinite(x[active]).all():
        raise MissingObservation(
            "an arm with positive power needs a finite observation")
    for k in np.flatnonzero(active).tolist():
        _fold_arm(state, k, p.item(k), x.item(k, 0), x.item(k, 1))
    state.round += 1
    return state


def sample_outcome(instance: BanditInstance, profile: PowerProfile,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw one round of observations under ``profile``, shape (K, 2).

    Row k of an arm with power ``p_k > 0`` is
    ``mu_k + sqrt(sigma_k^2/(2 p_k)) * g`` with ``g`` standard 2-d normal;
    the row of an arm with zero power is NaN.  Takes one standard normal
    2-vector per powered arm, in arm order, from ``rng``.
    """
    p = profile.p
    K = instance.n_arms
    if p.shape[0] != K:
        raise DimensionMismatch(
            f"profile has {p.shape[0]} entries for {K} arms")
    active = p > 0.0
    x = np.full((K, DIM), np.nan)
    x[active] = _draw(instance.means[active], instance.variances[active],
                      p[active], rng.normal(size=(int(active.sum()), DIM)))
    return x
