"""Empirical check of the two observation-law identities.

Allocating power p to an arm with noise level sigma^2 yields a 2-d Gaussian
sample of per-coordinate variance sigma^2 / (2p).  After t rounds of full
power the weighted mean and scatter obey two exact laws:

    P(|xbar - mu| >= eps)  =  exp(-z eps^2 / sigma^2)
    2 S / sigma^2          ~  chi-square with 2(t - 1) dof

This script simulates both and prints the empirical numbers next to the
closed forms, then shows the large-deviation bound on the scatter.
"""

import numpy as np

from spreadbandits import (
    PowerProfile,
    batch_stats,
    chi2_cdf_even,
    mean_exceedance,
    new_instance,
    sample_outcome,
    variance_tail_bound,
)

REPS = 50000
ROUNDS = 10
SIGMA2 = 1.0
EPS = 0.5

rng = np.random.default_rng(0)
instance = new_instance([[1.0, 0.0], [0.0, 0.0]], [SIGMA2, SIGMA2])
profile = PowerProfile.one_hot(2, 0)

print(f"arm mean {instance.means[0]}, sigma^2 = {SIGMA2}, "
      f"{ROUNDS} full-power rounds, {REPS} replications")

exceed = 0
scatters = np.empty(REPS)
for r in range(REPS):
    xs = [sample_outcome(instance, profile, rng)[0]
          for _ in range(ROUNDS)]
    _, xbar, scatters[r] = batch_stats(np.ones(ROUNDS), xs)
    if np.hypot(*(xbar - instance.means[0])) >= EPS:
        exceed += 1

freq = exceed / REPS
exact = mean_exceedance(float(ROUNDS), SIGMA2, EPS)
print(f"\nmean law        P(|xbar - mu| >= {EPS}):")
print(f"  empirical {freq:.5f}   exact {exact:.5f}")

# the scatter law, read off at a few quantile points
print("\nscatter law     P(2S/sigma^2 <= x) vs chi2_cdf_even(18, x):")
for x in (8.0, 14.0, 18.0, 26.0):
    emp = float((2.0 * scatters / SIGMA2 <= x).mean())
    print(f"  x = {x:5.1f}:  empirical {emp:.4f}   exact "
          f"{chi2_cdf_even(2 * (ROUNDS - 1), x):.4f}")

# the Cramer bound is loose but always above the truth
print("\nscatter tail    P(S >= t(sigma^2 + eps)) vs exp(-t h(eps/sigma^2)):")
for eps in (0.5, 1.0, 2.0):
    thresh = ROUNDS * (SIGMA2 + eps)
    emp = float((scatters >= thresh).mean())
    bound = variance_tail_bound(ROUNDS, SIGMA2, eps)
    print(f"  eps = {eps:3.1f}:  empirical {emp:.5f}   bound {bound:.5f}")
