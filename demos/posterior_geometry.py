"""Walk through the bivariate-t posterior of one arm.

Starting from an improper uniform prior, the posterior of an arm mean given
weighted statistics (z, xbar, S) after t >= 4 rounds is a radially
symmetric heavy-tailed density around xbar.  Its radial exceedance has the
closed form (1 + z d^2/S)^{-(t-3)}, which is also exactly how the sampler
draws radii.  More data tightens it; the belief over which arm is best
follows.
"""

import numpy as np

from spreadbandits import (
    PosteriorParams,
    estimate_rho,
    posterior_density,
    posterior_radial_tail,
    sample_posterior,
)

rng = np.random.default_rng(1)

params = PosteriorParams(z=4.0, xbar=np.array([1.0, 0.5]), S=2.0, t=8)
print(f"posterior for z={params.z}, xbar={params.xbar}, "
      f"S={params.S}, t={params.t}")
print(f"  density at the center: {posterior_density(params, params.xbar):.4f}")

print("\nradial tail, closed form vs 200k sampled radii:")
draws = sample_posterior(params, rng, size=200000)
radii = np.hypot(*(draws - params.xbar).T)
for d in (0.25, 0.5, 1.0, 2.0):
    exact = float(posterior_radial_tail(params, d))
    emp = float((radii >= d).mean())
    print(f"  P(|mu - xbar| >= {d:4.2f}):  exact {exact:.4f}   "
          f"empirical {emp:.4f}")

# tails thin as power accumulates: same scatter, growing z and t
print("\nconcentration with data (tail at d = 0.5):")
for z, t in ((2.0, 4), (8.0, 10), (32.0, 34), (128.0, 130)):
    p = PosteriorParams(z, params.xbar, S=2.0 * z / 4.0, t=t)
    print(f"  z = {z:6.1f}, t = {t:3d}:  "
          f"{float(posterior_radial_tail(p, 0.5)):.5f}")

# the optimality belief: two close arms, one slightly ahead
print("\nbelief that each arm is best (20k joint posterior draws):")
a = PosteriorParams(z=10.0, xbar=np.array([1.10, 0.0]), S=5.0, t=12)
b = PosteriorParams(z=10.0, xbar=np.array([1.00, 0.0]), S=5.0, t=12)
rho = estimate_rho([a, b], 20000, rng)
print(f"  arms at norms 1.10 vs 1.00, equal power: rho = {rho}")

a = PosteriorParams(z=80.0, xbar=np.array([1.10, 0.0]), S=40.0, t=82)
b = PosteriorParams(z=80.0, xbar=np.array([1.00, 0.0]), S=40.0, t=82)
rho = estimate_rho([a, b], 20000, rng)
print(f"  same means, 8x the power:           rho = {rho}")
