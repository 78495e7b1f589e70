"""Regret accounting, concentration closed forms, and lower-bound constants.

The weighted mean and scatter statistics admit exact or exponential-family
tail expressions that double as test oracles:

* mean exceedance, exact:  P(|xbar - mu| >= eps) = exp(-z eps^2 / sigma^2);
* scatter upper tail:      P(S(t) >= t (sigma^2 + eps))
                             <= exp(-t h(eps / sigma^2)),
  with the Cramer rate h(x) = x - log(1 + x);
* chi-square CDF at even degrees of freedom 2m, closed form:
                           1 - exp(-x/2) sum_{i<m} (x/2)^i / i!.

Asymptotic regret benchmarks (coefficients of log T) for an instance with
gaps ``Delta_k`` and variances ``sigma_k^2``:

* power-spreading play, known or unknown variance, and one-shot play with
  known variance all share  sum_{k != k*} sigma_k^2 / Delta_k;
* one-shot play with unknown variance pays
  sum_{k != k*} Delta_k / log(1 + Delta_k^2 / sigma_k^2),
  never below the spreading constant;
* the per-arm cumulative power behind the spreading constants grows like
  (sigma_k^2 / Delta_k^2) log T (see :func:`power_lower_constants`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeX,
    NonPositiveArgument,
    OddDof,
)
from .core import BanditInstance, PowerProfile

def h(x: float) -> float:
    """Cramer rate ``x - log(1 + x)`` of the scatter tail, for x > 0."""
    if x <= 0.0:
        raise NonPositiveArgument(f"h needs x > 0, got {x}")
    # log1p keeps the x -> 0 limit (x^2/2) accurate
    return x - math.log1p(x)


def mean_exceedance(z: float, sigma2: float, eps: float) -> float:
    """Exact P(|xbar - mu| >= eps) given cumulative power z: exp(-z eps^2/sigma^2)."""
    if z <= 0.0 or sigma2 <= 0.0 or eps <= 0.0:
        raise NonPositiveArgument(
            f"z, sigma2, eps must be > 0, got ({z}, {sigma2}, {eps})")
    return math.exp(-z * eps * eps / sigma2)


def variance_tail_bound(t: int, sigma2: float, eps: float) -> float:
    """Upper bound exp(-t h(eps/sigma^2)) on P(S(t) >= t (sigma^2 + eps))."""
    t = int(t)
    if t < 1 or sigma2 <= 0.0 or eps <= 0.0:
        raise NonPositiveArgument(
            f"t, sigma2, eps must be > 0, got ({t}, {sigma2}, {eps})")
    return math.exp(-t * h(eps / sigma2))


def chi2_cdf_even(dof: int, x):
    """Chi-square CDF at even ``dof`` via the finite Poisson sum.

    For dof = 2m:  F(x) = 1 - exp(-x/2) * sum_{i=0}^{m-1} (x/2)^i / i!.
    Accepts scalar or array ``x``; the running-product evaluation keeps all
    intermediate terms scaled by exp(-x/2).
    """
    dof = int(dof)
    if dof < 2 or dof % 2 != 0:
        raise OddDof(f"need a positive even dof, got {dof}")
    xa = np.asarray(x, dtype=np.float64)
    if np.any(xa < 0.0):
        raise NegativeX("chi-square CDF evaluated at x < 0")
    half = xa / 2.0
    term = np.exp(-half)
    acc = term.copy() if term.ndim else np.asarray(term)
    for i in range(1, dof // 2):
        term = term * half / i
        acc = acc + term
    cdf = 1.0 - np.minimum(acc, 1.0)  # guard roundoff at the left edge
    return float(cdf) if np.isscalar(x) else cdf


def regret_step(instance: BanditInstance, profile: PowerProfile) -> float:
    """Expected one-round regret of ``profile``: sum_k Delta_k p_k.

    Algebraically identical to sum_k |mu_k| (p*_k - p_k) with p* the
    one-hot optimal profile.
    """
    p = profile.p
    if p.shape[0] != instance.n_arms:
        raise DimensionMismatch(
            f"profile has {p.shape[0]} entries for {instance.n_arms} arms")
    return float(instance.gaps @ p)


@dataclass(frozen=True)
class BoundConstants:
    """log T coefficients of the four asymptotic regret benchmarks."""

    spreading_known: float
    spreading_unknown: float
    ns_known: float
    ns_unknown: float


def lower_bound_constants(instance: BanditInstance) -> BoundConstants:
    """Evaluate the four benchmark constants on ``instance``."""
    sub = np.arange(instance.n_arms) != instance.k_star
    gaps = instance.gaps[sub]
    var = instance.variances[sub]
    spreading = float(np.sum(var / gaps))
    ns_unknown = float(np.sum(gaps / np.log1p(gaps * gaps / var)))
    return BoundConstants(spreading_known=spreading,
                          spreading_unknown=spreading,
                          ns_known=spreading,
                          ns_unknown=ns_unknown)


def power_lower_constants(instance: BanditInstance) -> np.ndarray:
    """Per-arm coefficients sigma_k^2 / Delta_k^2 of the cumulative-power
    growth behind the spreading benchmarks; NaN at the optimal arm (its
    power grows linearly, not logarithmically)."""
    out = np.full(instance.n_arms, np.nan)
    sub = np.arange(instance.n_arms) != instance.k_star
    out[sub] = instance.variances[sub] / instance.gaps[sub] ** 2
    return out
