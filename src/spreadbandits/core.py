"""Two-dimensional Gaussian bandits observed through a power budget.

An instance has K >= 2 arms with unknown mean vectors ``mu_k`` in R^2 and
noise variances ``sigma_k^2``.  Each round the learner spreads one unit of
power over the arms; an arm allocated power ``p_k > 0`` returns

    X_k ~ N(mu_k, sigma_k^2 / (2 p_k) * I_2),

i.e. measurement quality scales with committed power, and an arm with
``p_k = 0`` returns nothing.  The best arm is the one of largest mean norm.

Per-arm evidence is summarised by power-weighted statistics

    z = sum_l p_l,   xbar = sum_l p_l X_l / z,   S = sum_l p_l |X_l - xbar|^2,

which are sufficient for (mu_k, sigma_k^2): conditioned on the powers,
``xbar ~ N(mu, sigma^2/(2 z) I_2)`` and ``2 S / sigma^2`` is chi-square with
``2 (t - 1)`` degrees of freedom, independent of ``xbar`` (t = number of
positive-power observations).  The policies keep them for all arms in
arrays (:class:`spreadbandits.policies.PolicyState`) and fold each round in
with a weighted incremental update; :func:`batch_stats` recomputes them
from the raw history and is kept as a cross-check oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidProfile,
    NonPositiveVariance,
    TiedOptimum,
    TooFewArms,
)

# two arms tie when their mean norms differ by no more than this
NORM_TIE_TOL = 1e-12
# tolerance on sum(p) == 1 for a power profile
SIMPLEX_TOL = 1e-12

DIM = 2


@dataclass(frozen=True, eq=False)
class BanditInstance:
    """A K-armed instance: mean vectors, variances, and derived gaps.

    Attributes
    ----------
    means : ndarray, shape (K, 2)
        Arm mean vectors.
    variances : ndarray, shape (K,)
        Per-arm noise variances, strictly positive.
    norms : ndarray, shape (K,)
        Euclidean norms of the means.
    k_star : int
        Index of the unique arm with largest norm.
    gaps : ndarray, shape (K,)
        ``norms[k_star] - norms[k]``; zero at ``k_star``.
    """

    means: np.ndarray
    variances: np.ndarray
    norms: np.ndarray = field(init=False)
    k_star: int = field(init=False)
    gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if means.ndim != 2 or means.shape[1] != DIM:
            raise DimensionMismatch(
                f"means must be a K x {DIM} array, got shape {means.shape}")
        if not np.all(np.isfinite(means)):
            raise DimensionMismatch("means must be finite")
        K = means.shape[0]
        if K < 2:
            raise TooFewArms(f"need at least 2 arms, got {K}")
        if variances.ndim != 1 or variances.shape[0] != K:
            raise DimensionMismatch(
                f"variances must have length {K}, got shape {variances.shape}")
        if not np.all(np.isfinite(variances)) or np.any(variances <= 0.0):
            raise NonPositiveVariance("variances must be finite and > 0")
        with np.errstate(over="ignore"):  # caught just below
            norms = np.sqrt((means * means).sum(axis=1))
        if not np.all(np.isfinite(norms)):
            raise DimensionMismatch("mean norms must be finite (overflow)")
        order = np.argsort(norms)
        if not norms[order[-1]] - norms[order[-2]] > NORM_TIE_TOL:
            raise TiedOptimum(
                f"largest mean norms tie within {NORM_TIE_TOL}: "
                f"arms {order[-1]} and {order[-2]}")
        k_star = int(np.argmax(norms))
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "k_star", k_star)
        object.__setattr__(self, "gaps", norms[k_star] - norms)

    @property
    def n_arms(self) -> int:
        return self.means.shape[0]


def new_instance(means, variances) -> BanditInstance:
    """Validate raw mean/variance arrays and build a :class:`BanditInstance`."""
    return BanditInstance(np.asarray(means, dtype=np.float64),
                          np.asarray(variances, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class PowerProfile:
    """A point on the simplex: nonnegative powers summing to one."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] < 1:
            raise InvalidProfile(f"profile must be a 1-d array, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvalidProfile("powers must be finite")
        if np.any(p < 0.0):
            raise InvalidProfile("powers must be nonnegative")
        if np.any(p > 1.0):
            raise InvalidProfile("powers must not exceed 1")
        s = p.sum()
        if abs(s - 1.0) > SIMPLEX_TOL:
            raise InvalidProfile(f"powers must sum to 1, got {s!r}")
        if p is self.p or not p.flags.owndata:
            p = p.copy()  # never freeze an array the caller still holds
        p.setflags(write=False)  # profiles are shared and reused; keep frozen
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return self.p.shape[0]

    @classmethod
    def uniform(cls, K: int) -> "PowerProfile":
        return cls(np.full(K, 1.0 / K))

    @classmethod
    def one_hot(cls, K: int, k: int) -> "PowerProfile":
        p = np.zeros(K)
        p[k] = 1.0
        return cls(p)


@dataclass
class Outcome:
    """Observations of one round: ``values[k]`` is a 2-vector, or None when
    the generating profile put no power on arm k."""

    values: list

    def __len__(self) -> int:
        return len(self.values)


def _normals(rng: np.random.Generator, rows: int,
             rounds: int) -> np.ndarray:
    """``rounds`` rounds of ``rng.normal(size=(rows, 2))``, shape
    (rounds, rows, 2): the outcome noise of ``rows`` powered arms, and the
    known-variance Thompson baseline's posterior draws."""
    return rng.normal(size=(rounds, rows, DIM))


def _draw(means, variances, p, noise: np.ndarray) -> np.ndarray:
    """Observations of arms with powers ``p > 0``, one row per arm.

    Row k is ``means[k] + sqrt(variances[k] / (2 p[k])) * noise[k]``, with
    ``noise`` one round of :func:`_normals`.  Unvalidated: the round
    engine's dense path and the core of :func:`sample_outcome`.
    """
    return means + np.sqrt(variances / (2.0 * p))[:, None] * noise


def _draw_arm(mx: float, my: float, var: float, g) -> tuple:
    """:func:`_draw` for one arm at full power, in Python floats: the round
    engine's one-hot path (same arithmetic as a one-row :func:`_draw` with
    ``p = 1``, on the pair ``g`` of its noise)."""
    g0, g1 = g
    sd = math.sqrt(var / 2.0)
    return mx + sd * g0, my + sd * g1


def sample_outcome(instance: BanditInstance, profile: PowerProfile,
                   rng: np.random.Generator) -> Outcome:
    """Draw one round of observations under ``profile``.

    Arm k with power ``p_k > 0`` yields ``mu_k + sqrt(sigma_k^2/(2 p_k)) * g``
    with ``g`` standard 2-d normal; arms with zero power yield ``None``.
    """
    p = profile.p
    K = instance.n_arms
    if p.shape[0] != K:
        raise DimensionMismatch(
            f"profile has {p.shape[0]} entries for {K} arms")
    active = np.flatnonzero(p > 0.0)
    obs = _draw(instance.means[active], instance.variances[active], p[active],
                _normals(rng, active.shape[0], 1)[0])
    values = [None] * K
    for i, k in enumerate(active):
        values[k] = obs[i]
    return Outcome(values)


def batch_stats(powers, xs) -> tuple:
    """``(z, xbar, S)`` of a full history, recomputed in one pass.

    Zero-power entries are skipped (their ``xs`` rows are ignored and may
    hold anything).  Kept as the reference against which the incremental
    update is checked.
    """
    powers = np.asarray(powers, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if powers.ndim != 1:
        raise DimensionMismatch("powers must be 1-d")
    n = powers.shape[0]
    if xs.shape != (n, DIM):
        raise DimensionMismatch(
            f"xs must have shape ({n}, {DIM}), got {xs.shape}")
    if np.any(powers < 0.0):
        raise InvalidProfile("powers must be nonnegative")
    active = powers > 0.0
    if not np.any(active):
        raise InsufficientData("no positive-power observation in the batch")
    w = powers[active]
    x = xs[active]
    z = w.sum()
    xbar = (w[:, None] * x).sum(axis=0) / z
    dev = x - xbar
    S = (w * (dev * dev).sum(axis=1)).sum()
    return float(z), xbar, float(S)
