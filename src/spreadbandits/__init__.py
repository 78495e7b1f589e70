"""Resource-spreading Gaussian bandits.

A small library for bandit problems where the learner divides one unit of
measurement power across arms each round and observation noise shrinks with
committed power.  Ships weighted sufficient statistics, the closed-form
bivariate-t posterior they induce, a power-spreading Thompson sampling
policy with one-hot and oracle baselines, regret benchmarks, and a
frequency-domain peak-gain estimation front end, plus a deterministic
simulation runner and CLI.
"""

from .core import (
    BanditInstance,
    Outcome,
    PowerProfile,
    batch_stats,
    new_instance,
    sample_outcome,
)
from .posterior import (
    PosteriorParams,
    estimate_rho,
    posterior_density,
    posterior_radial_tail,
    sample_posterior,
)
from .policies import (
    KINDS,
    ORACLE,
    TS_KNOWN,
    TS_UNKNOWN,
    UNIFORM,
    WTS,
    PolicyState,
    make_policy,
    observe,
    policy_step,
)
from .bounds import (
    BoundConstants,
    chi2_cdf_even,
    h,
    lower_bound_constants,
    mean_exceedance,
    power_lower_constants,
    regret_step,
    variance_tail_bound,
)
from .sysid import (
    FrequencyGrid,
    GainEstimate,
    GainProblem,
    freq_response,
    gain_estimate,
    grid_from_fir,
    synth_multisine,
)
from .config import RunConfig, load_config, parse_config
from .runner import RunReport, run, run_replication
from .verify import CheckResult, all_passed, run_verification
from .rng import stream
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BanditInstance", "Outcome", "PowerProfile",
    "batch_stats", "new_instance", "sample_outcome",
    "PosteriorParams", "estimate_rho",
    "posterior_density", "posterior_radial_tail", "sample_posterior",
    "KINDS", "ORACLE", "TS_KNOWN", "TS_UNKNOWN", "UNIFORM", "WTS",
    "PolicyState", "make_policy", "observe", "policy_step",
    "BoundConstants", "chi2_cdf_even", "h",
    "lower_bound_constants", "mean_exceedance", "power_lower_constants",
    "regret_step", "variance_tail_bound",
    "FrequencyGrid", "GainEstimate", "GainProblem", "freq_response",
    "gain_estimate", "grid_from_fir", "synth_multisine",
    "RunConfig", "load_config", "parse_config",
    "RunReport", "run", "run_replication",
    "CheckResult", "all_passed", "run_verification",
    "stream", "errors",
]
