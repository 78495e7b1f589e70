"""Compare all five allocation policies on one instance.

Runs a short regret study (T = 2000, 5 replications per policy) and prints
mean cumulative regret at a few checkpoints, the final per-arm power of the
spreading policy, and the benchmark constants that set the asymptotic
slopes.  Policies:

    wts         spread power according to the posterior belief
    ts_known    one-hot Thompson sampling, variances known
    ts_unknown  one-hot Thompson sampling, variances estimated
    oracle      always the true best arm (zero regret by construction)
    uniform     flat profile (linear regret)
"""

import numpy as np

from spreadbandits import (
    RunConfig,
    lower_bound_constants,
    run_replication,
)

MEANS = [[2.0, 0.0], [0.9, 1.2], [-1.2, 0.0], [0.6, -0.8], [0.0, 0.8]]
VARIANCES = [0.25, 0.25, 0.49, 0.64, 1.0]
T = 2000
REPS = 5
CHECKPOINTS = (200, 1000, 2000)

cfg = RunConfig(mode="simulate", T=T, replications=REPS, seed=0,
                policies=("wts", "ts_known", "ts_unknown", "oracle",
                          "uniform"),
                mc_samples=512, thin=1,
                means=np.asarray(MEANS, dtype=float),
                variances=np.asarray(VARIANCES, dtype=float))
instance = cfg.instance
consts = lower_bound_constants(instance)
print(f"instance: K = {instance.n_arms}, best arm {instance.k_star} "
      f"(norm {instance.norms[instance.k_star]:.2f}), "
      f"gaps {np.round(instance.gaps, 2)}")
print(f"benchmark constants: spreading {consts.spreading_unknown:.3f}, "
      f"non-spreading unknown-variance {consts.ns_unknown:.3f}\n")

header = "policy        " + "".join(f"  regret({t:>4d})" for t in CHECKPOINTS)
print(header)
final_z = None
for kind in cfg.policies:
    at = []  # per replication, cumulative regret at the checkpoints
    for rep in range(REPS):
        out = run_replication(cfg, kind, rep)
        at.append(out.regret_cum[np.isin(out.t, CHECKPOINTS)])
        if kind == "wts" and rep == 0:
            final_z = out.z_snapshots[T]
    cells = "".join(f"  {m:12.2f}" for m in np.mean(at, axis=0))
    print(f"{kind:<12}{cells}")

print(f"\nwts per-arm cumulative power after {T} rounds "
      f"(replication 0): {np.round(final_z, 1)}")
print("every suboptimal arm keeps receiving power; the one-hot policies "
      "starve theirs.")
