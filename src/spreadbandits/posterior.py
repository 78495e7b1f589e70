"""Posterior over an arm mean from power-weighted statistics.

With an improper uniform prior on (mu, log sigma), an arm whose weighted
statistics after ``t - 1`` observed rounds are ``(z, xbar, S)`` has the
bivariate-t posterior density (valid once t >= 4)

    f(mu) = (z (t - 3) / (pi S)) * (1 + z |mu - xbar|^2 / S)^(-(t - 2)),

radially symmetric about ``xbar`` with the closed-form radial tail

    P(|mu - xbar| >= delta) = (1 + z delta^2 / S)^(-(t - 3)).

Inverting the tail gives an exact two-uniform sampler: with U, V iid
uniform(0,1),

    delta = sqrt((S / z) (U^(-1/(t-3)) - 1)),   angle = 2 pi V.

:func:`estimate_rho` turns a set of per-arm posteriors into the belief that
each arm has the largest mean norm, by Monte Carlo over joint draws.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, TooFewArms, ZeroSamples

# belief coordinates must sum to one within this tolerance
BELIEF_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PosteriorParams:
    """Sufficient statistics feeding one arm's posterior.

    ``t`` is the round index: the statistics cover rounds 1..t-1, so the
    density above is proper only for ``t >= 4``.
    """

    z: float
    xbar: np.ndarray
    S: float
    t: int

    def __post_init__(self):
        z = float(self.z)
        S = float(self.S)
        t = int(self.t)
        xbar = np.asarray(self.xbar, dtype=np.float64)
        if not np.isfinite(z) or z <= 0.0:
            raise InvalidParams(f"z must be finite and > 0, got {z}")
        if not np.isfinite(S) or S <= 0.0:
            raise InvalidParams(f"S must be finite and > 0, got {S}")
        if t < 4:
            raise InvalidParams(f"posterior needs t >= 4, got t={t}")
        if xbar.shape != (2,) or not np.all(np.isfinite(xbar)):
            raise InvalidParams("xbar must be a finite 2-vector")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "xbar", xbar)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True, eq=False)
class OptimalityBelief:
    """Monte Carlo estimate of P(arm k has the largest mean norm)."""

    rho: np.ndarray
    samples_used: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.ndim != 1 or rho.shape[0] < 2:
            raise InvalidParams("rho must be 1-d with at least 2 entries")
        if np.any(rho < 0.0) or abs(rho.sum() - 1.0) > BELIEF_SUM_TOL:
            raise InvalidParams("rho must be a probability vector")
        object.__setattr__(self, "rho", rho)


def posterior_density(params: PosteriorParams, mu) -> np.ndarray:
    """Evaluate the posterior density at ``mu`` ((2,) or (n, 2))."""
    mu = np.asarray(mu, dtype=np.float64)
    dev = mu - params.xbar
    q2 = (dev * dev).sum(axis=-1)
    norm = params.z * (params.t - 3) / (np.pi * params.S)
    return norm * (1.0 + params.z * q2 / params.S) ** (-(params.t - 2))


def posterior_radial_tail(params: PosteriorParams, delta) -> np.ndarray:
    """P(|snapshot of mu - xbar| >= delta), exact and monotone in delta."""
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta < 0.0):
        raise InvalidParams("delta must be nonnegative")
    q = 1.0 + params.z * delta * delta / params.S
    return q ** (-(params.t - 3.0))


def sample_posterior(params: PosteriorParams, rng: np.random.Generator,
                     size: int | None = None) -> np.ndarray:
    """Draw from the posterior by inverse-CDF radius and uniform angle.

    Returns shape (2,) for ``size=None`` and (size, 2) otherwise.
    """
    n = 1 if size is None else int(size)
    if n < 1:
        raise InvalidParams(f"size must be >= 1, got {size}")
    # U in (0, 1]: guards the u -> 0 heavy-tail endpoint
    u = 1.0 - rng.random(n)
    theta = (2.0 * np.pi) * rng.random(n)
    # expm1 keeps precision when 1/(t-3) is tiny
    delta = np.sqrt((params.S / params.z)
                    * np.expm1(-np.log(u) / (params.t - 3.0)))
    out = np.empty((n, 2))
    out[:, 0] = params.xbar[0] + delta * np.cos(theta)
    out[:, 1] = params.xbar[1] + delta * np.sin(theta)
    return out[0] if size is None else out


def _rho_counts(z, S, t, xbar, M: int, rng: np.random.Generator,
                draws: np.ndarray | None = None) -> np.ndarray:
    """Count argmax-norm wins over M joint posterior draws (array kernel).

    ``z`` and ``S`` are length-K vectors, ``t`` a scalar or a length-K
    vector, ``xbar`` is (K, 2).  Runs in single precision: the Monte Carlo
    error of order 1/sqrt(M) dominates float32 roundoff by many orders of
    magnitude, and the narrower dtype roughly halves the cost of the
    per-round sampling that dominates long simulations.

    Before any square or float32 cast, ``xbar`` is multiplied by one power
    of two ``f`` that brings the largest of ``|xbar_k|`` and ``sqrt(S_k /
    z_k)`` into [1/2, 1), and ``S / z`` by ``f^2``.  A power of two is exact
    and the argmax does not change under a common scale, so the counts are
    the same at every scale where ``S / z`` is finite, and float32 neither
    overflows nor underflows.

    ``draws``, a float32 (2, K, M) array, is scratch space a caller may
    reuse across calls; it is overwritten.
    """
    K = xbar.shape[0]
    ratio = S / z
    r = ratio.max()
    big = max(np.abs(xbar).max(), math.sqrt(r) if r > 0.0 else 0.0)
    e = math.frexp(big)[1]
    if e:
        f = math.ldexp(1.0, -e)
        xbar = xbar * f
        ratio = ratio * f * f
    scale = ratio.astype(np.float32)[:, None]
    # scalar t broadcasts over arms as (1, 1) against (K, M) below
    expo = np.asarray(-1.0 / (np.asarray(t, dtype=np.float64) - 3.0),
                      dtype=np.float32).reshape(-1, 1)
    b2 = (xbar * xbar).sum(axis=1).astype(np.float32)[:, None]
    b = np.sqrt(b2)

    if draws is None:
        draws = np.empty((2, K, M), dtype=np.float32)
    # one call fills u, then v: the same stream as two (K, M) draws
    rng.random(out=draws, dtype=np.float32)
    u, c = draws
    np.subtract(np.float32(1.0), u, out=u)
    np.log(u, out=u)
    u *= expo
    np.expm1(u, out=u)
    u *= scale
    d2 = u
    np.multiply(c, np.float32(2.0 * np.pi), out=c)
    np.cos(c, out=c)
    # |xbar + d e|^2 = |xbar|^2 + 2 d (xbar . e) + d^2 with e a unit vector:
    # only the cosine of the angle between e and xbar enters the norm.
    n2 = np.sqrt(d2)
    n2 *= 2.0 * b
    n2 *= c
    n2 += b2
    n2 += d2
    winners = np.argmax(n2, axis=0)
    return np.bincount(winners, minlength=K)


def estimate_rho(all_params, mc_samples: int,
                 rng: np.random.Generator) -> OptimalityBelief:
    """Estimate the optimality belief over K >= 2 arms.

    Draws ``mc_samples`` joint posterior samples (independent across arms)
    and counts, per arm, how often its sample attains the strict maximum
    norm; ties go to the lowest index.  The counts divided by ``mc_samples``
    form the belief, so the result sums to one by construction.
    """
    K = len(all_params)
    if K < 2:
        raise TooFewArms(f"need at least 2 arms, got {K}")
    M = int(mc_samples)
    if M < 1:
        raise ZeroSamples(f"mc_samples must be >= 1, got {mc_samples}")

    z = np.array([q.z for q in all_params])
    S = np.array([q.S for q in all_params])
    t = np.array([q.t for q in all_params], dtype=np.float64)
    xbar = np.array([q.xbar for q in all_params])
    counts = _rho_counts(z, S, t, xbar, M, rng)
    return OptimalityBelief(counts / M, M)
