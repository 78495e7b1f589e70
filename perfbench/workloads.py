"""The benchmark's workloads, each a shape the repository already runs.

``study`` is the regret study of ``tests/test_acceptance.py`` at fewer
replications; ``gain`` and ``onehot_trace`` start from the files in
``configs/``.  BENCHMARK.json records why each was chosen.
"""

import os

import numpy as np

from spreadbandits import RunConfig, grid_from_fir, load_config, new_instance

WORKLOADS = ("study", "gain", "onehot_trace")

# the five-arm instance of the acceptance regret study (REGRET_MEANS and
# REGRET_VARIANCES in tests/test_acceptance.py)
REGRET_MEANS = [[0.8, 0.0], [0.15, 0.0], [0.0, 0.10], [-0.05, 0.0],
                [0.0, 0.0]]
REGRET_VARIANCES = [0.25, 0.4225, 0.49, 0.5625, 0.64]

# replications per entry call: enough tasks to keep two workers busy, few
# enough that several calls fit in one measured run
STUDY_REPS = 2
GAIN_REPS = 2
ONEHOT_REPS = 2


def make_config(name: str, root: str, seed: int, out: str) -> RunConfig:
    """The run configuration of workload ``name``."""
    configs = os.path.join(root, "configs")
    if name == "study":
        return RunConfig(
            mode="simulate", T=20000, replications=STUDY_REPS, seed=seed,
            policies=("wts", "ts_unknown"), mc_samples=512, thin=10000,
            out=out, means=np.array(REGRET_MEANS),
            variances=np.array(REGRET_VARIANCES))
    if name == "gain":
        cfg = load_config(os.path.join(configs, "gain.cfg"))
        return cfg.replaced(seed=seed, out=out, replications=GAIN_REPS)
    if name == "onehot_trace":
        cfg = load_config(os.path.join(configs, "simulate.cfg"))
        return cfg.replaced(
            seed=seed, out=out, replications=ONEHOT_REPS, thin=1,
            policies=("ts_known", "ts_unknown", "oracle", "uniform"))
    raise ValueError(f"unknown workload {name!r}")


def build_problem(cfg: RunConfig):
    """The instance of a config, and its gain problem in gain mode."""
    if cfg.mode == "gain":
        problem = grid_from_fir(cfg.g_coeffs, cfg.h_coeffs, cfg.K)
        return problem.instance, problem
    return new_instance(cfg.means, cfg.variances), None
