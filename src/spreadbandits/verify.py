"""Statistical self-checks runnable from the command line.

Each check exercises one distributional identity, bound, or policy contract
at a moderate Monte Carlo size and reports pass/fail with the observed
statistic.  The whole suite is deterministic given its seed.  These checks
are the one implementation of the properties they test: the acceptance
tests in ``tests/test_acceptance.py`` call them on their own fixed seeds
rather than re-deriving the same identities.  The
``sigma2_scale`` knob deliberately corrupts the simulated variance in the
chi-square law check (and only there); anything but 1.0 must make that
check fail, which is itself exercised by the test suite as a sensitivity
control.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_streams
from .bounds import (
    chi2_cdf_even,
    h,
    lower_bound_constants,
    mean_exceedance,
    variance_tail_bound,
)
from .config import RunConfig
from .core import (
    ArmStats,
    PowerProfile,
    batch_stats,
    new_instance,
    sample_outcome,
)
from .errors import TiedOptimum
from .policies import (
    TS_KNOWN,
    TS_UNKNOWN,
    ORACLE,
    WTS,
    make_policy,
    observe,
    oracle_step,
    policy_step,
    ts_step,
    wts_step,
)
from .posterior import (
    PosteriorParams,
    estimate_rho,
    posterior_density,
    posterior_radial_tail,
    sample_posterior,
)
from .runner import run_replication
from .sysid import FrequencyGrid, gain_estimate, grid_from_fir, synth_multisine


# rotation-invariance slack, in units of eps * max_norm for the gaps and of
# eps * max_norm / min_gap (relative) for the bound constants
ROTATION_ULPS = 16.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: str
    requirement: str


def _result(name, passed, observed, requirement) -> CheckResult:
    return CheckResult(name, bool(passed), observed, requirement)


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule over uniformly spaced samples (odd count)."""
    n = y.shape[0]
    if n % 2 == 0:
        raise ValueError("need an odd number of samples")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((w @ y) * dx / 3.0)


# ---------------------------------------------------------------------------
# weighted statistics

def check_batch_equivalence(rng) -> CheckResult:
    """Incremental update folded over a trajectory equals the batch formula
    (1000 trajectories of 2 to 1000 rounds, a fifth of them at zero power)."""
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 1001))
        powers = rng.uniform(0.0, 1.0, size=n)
        powers[rng.random(n) < 0.2] = 0.0
        if not np.any(powers > 0.0):
            powers[0] = 0.5
        xs = rng.normal(size=(n, 2))
        st = ArmStats()
        for p, x in zip(powers, xs):
            st.update(p, x if p > 0.0 else None)
        ref = batch_stats(powers, xs)
        scale = max(abs(ref.S), abs(ref.z), 1e-12)
        err = max(abs(st.z - ref.z) / max(ref.z, 1e-12),
                  float(np.max(np.abs(st.xbar - ref.xbar)))
                  / max(float(np.max(np.abs(ref.xbar))), 1e-12),
                  abs(st.S - ref.S) / scale)
        worst = max(worst, err)
    return _result("stats-batch-equivalence", worst < 1e-9,
                   f"max rel err {worst:.3g}", "< 1e-9")


def _simulate_stats(rng, n, powers, mu, sigma2):
    """Vectorised n-fold draw of (xbar, S) under a fixed power trajectory."""
    powers = np.asarray(powers, dtype=np.float64)
    t = powers.shape[0]
    z = powers.sum()
    scale = np.sqrt(sigma2 / (2.0 * powers))
    x = mu + scale[:, None] * rng.normal(size=(n, t, 2))
    xbar = (powers[:, None] * x).sum(axis=1) / z
    dev = x - xbar[:, None, :]
    S = (powers[None, :] * (dev * dev).sum(axis=2)).sum(axis=1)
    return xbar, S, z


def check_mean_law(rng) -> CheckResult:
    """xbar is Gaussian around mu with per-coordinate variance sigma^2/(2z)."""
    mu = np.array([0.7, -1.1])
    sigma2 = 1.3
    powers = [1.0, 0.5, 0.25, 0.8, 0.3, 0.15]
    n = 20000
    xbar, _, z = _simulate_stats(rng, n, powers, mu, sigma2)
    var_target = sigma2 / (2.0 * z)
    se_mean = math.sqrt(var_target / n)
    mean_err = float(np.max(np.abs(xbar.mean(axis=0) - mu)))
    var_ratio = float(np.max(np.abs(xbar.var(axis=0) / var_target - 1.0)))
    ok = mean_err < 3 * se_mean and var_ratio < 0.05
    return _result("mean-gaussian-law", ok,
                   f"mean err {mean_err:.2e}, var ratio dev {var_ratio:.3f}",
                   f"mean < {3*se_mean:.2e}, var dev < 0.05")


def check_chi2_law(rng, sigma2_scale: float = 1.0) -> CheckResult:
    """2 S / sigma^2 follows a chi-square with 2(t-1) degrees of freedom."""
    mu = np.array([0.3, 0.9])
    sigma2 = 0.8
    powers = [1.0, 0.4, 0.9, 0.2, 0.65, 1.0, 0.5, 0.35]  # t = 8 -> dof 14
    n = 10000
    _, S, _ = _simulate_stats(rng, n, powers, mu, sigma2 * sigma2_scale)
    samples = np.sort(2.0 * S / sigma2)
    cdf = chi2_cdf_even(14, samples)
    i = np.arange(1, n + 1)
    ks = float(np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n)))
    thr = 1.63 / math.sqrt(n)
    return _result("scatter-chi2-law", ks < thr, f"KS {ks:.4f}",
                   f"< {thr:.4f}")


def check_independence(rng) -> CheckResult:
    """xbar and S are uncorrelated (they are independent in law)."""
    mu = np.array([0.3, 0.9])
    powers = [1.0, 0.4, 0.9, 0.2, 0.65, 1.0, 0.5, 0.35]
    n = 10000
    xbar, S, _ = _simulate_stats(rng, n, powers, mu, 0.8)
    c = float(np.corrcoef(xbar[:, 0], S)[0, 1])
    return _result("mean-scatter-independence", abs(c) < 0.03,
                   f"|corr| {abs(c):.4f}", "< 0.03")


def check_exceedance(rng) -> CheckResult:
    """Empirical P(|xbar - mu| >= eps) matches exp(-z eps^2 / sigma^2)."""
    mu = np.array([-0.2, 0.5])
    sigma2 = 1.3
    powers = [0.9, 0.55, 0.8, 0.3, 0.45]
    eps = 0.55
    n = 200000
    xbar, _, z = _simulate_stats(rng, n, powers, mu, sigma2)
    dev = xbar - mu
    emp = float(((dev * dev).sum(axis=1) >= eps * eps).mean())
    target = mean_exceedance(z, sigma2, eps)
    se = math.sqrt(target * (1 - target) / n)
    return _result("mean-exceedance-equality", abs(emp - target) <= 3 * se,
                   f"emp {emp:.5f} vs exact {target:.5f}",
                   f"within {3*se:.5f}")


def check_scatter_tail_bound(rng) -> CheckResult:
    """Empirical scatter tail stays below exp(-t h(eps/sigma^2))."""
    mu = np.array([1.0, 0.2])
    sigma2 = 0.7
    t, eps, n = 10, 0.7, 100000
    powers = np.full(t, 0.6)
    _, S, _ = _simulate_stats(rng, n, powers, mu, sigma2)
    emp = float((S >= t * (sigma2 + eps)).mean())
    bound = variance_tail_bound(t, sigma2, eps)
    se = math.sqrt(max(emp, 1e-12) * (1 - emp) / n)
    rate_exact = abs(h(1.0) - (1.0 - math.log(2.0))) < 1e-15
    ok = emp <= bound + 3 * se and rate_exact
    return _result("scatter-tail-bound", ok,
                   f"emp {emp:.5f} vs bound {bound:.5f}", "emp <= bound")


def check_rotation_invariance(rng, perturb: float = 0.0) -> CheckResult:
    """Rotating every mean leaves k_star, the gaps and the bound constants
    unchanged up to float64 rounding.

    A rotation moves each computed norm by a few ulps of ``max_norm``, so
    the gaps move by O(eps max_norm), and a constant of the form
    sum_k f(Delta_k), with |f'| <= f / Delta, by a relative
    O(eps max_norm / min_gap).  Each instance is held to
    ``ROTATION_ULPS`` times those two scales.  ``perturb`` scales the best
    arm's rotated mean by ``1 + perturb``; any change above rounding must
    fail the check, which the test suite exercises as a sensitivity control.
    Draws with a tied best arm are skipped; the check fails when more than
    half of them are.
    """
    eps = np.finfo(np.float64).eps
    worst = 0.0
    tries, checked = 50, 0
    for _ in range(tries):
        K = int(rng.integers(2, 7))
        means = rng.normal(size=(K, 2)) * 2.0
        var = rng.random(K) + 0.1
        try:
            a = new_instance(means, var)
        except TiedOptimum:
            continue
        checked += 1
        phi = rng.random() * 2 * np.pi
        R = np.array([[np.cos(phi), -np.sin(phi)],
                      [np.sin(phi), np.cos(phi)]])
        rotated = means @ R.T
        rotated[a.k_star] *= 1.0 + perturb
        b = new_instance(rotated, var)
        ca, cb = lower_bound_constants(a), lower_bound_constants(b)
        max_norm = float(a.norms.max())
        cond = max_norm / float(np.sort(a.gaps)[1])
        dev = max(float(np.max(np.abs(a.gaps - b.gaps))) / (eps * max_norm),
                  abs(ca.spreading_unknown - cb.spreading_unknown)
                  / (eps * cond * ca.spreading_unknown),
                  abs(ca.ns_unknown - cb.ns_unknown)
                  / (eps * cond * ca.ns_unknown))
        worst = max(worst, dev if a.k_star == b.k_star else np.inf)
    ok = worst <= ROTATION_ULPS and 2 * checked >= tries
    return _result("rotation-invariance", ok,
                   f"max dev {worst:.3g} eps-scaled over {checked}/{tries}",
                   f"<= {ROTATION_ULPS:g} over >= half")


# ---------------------------------------------------------------------------
# posterior

def check_posterior_normalization() -> CheckResult:
    """Radial quadrature of the density integrates to 1 - tail."""
    worst = 0.0
    for z, S, t in [(1.0, 1.0, 6), (4.0, 2.5, 9), (10.0, 3.0, 20)]:
        params = PosteriorParams(z, np.array([0.4, -0.2]), S, t)
        R = math.sqrt(S / z * (1e6 ** (1.0 / (t - 3)) - 1.0))
        n = 20001
        r = np.linspace(0.0, R, n)
        pts = params.xbar + np.column_stack([r, np.zeros(n)])
        y = posterior_density(params, pts) * 2.0 * np.pi * r
        mass = _simpson(y, r[1] - r[0])
        target = 1.0 - float(posterior_radial_tail(params, R))
        worst = max(worst, abs(mass - target))
    return _result("posterior-normalization", worst < 1e-4,
                   f"max dev {worst:.2e}", "< 1e-4")


def check_sampler_tail_identity(rng) -> CheckResult:
    """Empirical radial exceedance of the sampler matches the closed form."""
    worst_sigma = 0.0
    for z, S, t in [(1.0, 1.0, 4), (4.0, 1.0, 5), (10.0, 3.0, 20)]:
        params = PosteriorParams(z, np.array([0.5, 1.0]), S, t)
        n = 100000
        draws = sample_posterior(params, rng, size=n)
        dev = draws - params.xbar
        r2 = (dev * dev).sum(axis=1)
        for delta in (0.25, 0.5, 1.0, 2.0):
            emp = float((r2 >= delta * delta).mean())
            tail = float(posterior_radial_tail(params, delta))
            se = math.sqrt(max(tail * (1 - tail), 1e-12) / n)
            worst_sigma = max(worst_sigma, abs(emp - tail) / se)
    return _result("posterior-sampler-tail-identity", worst_sigma <= 3.0,
                   f"worst |emp-tail| {worst_sigma:.2f} se", "<= 3 se")


def check_tail_monotonicity() -> CheckResult:
    """The radial tail is strictly decreasing in delta, z, and t, and
    strictly increasing in S (each varied with the others fixed)."""
    params = PosteriorParams(2.0, np.zeros(2), 1.5, 8)
    deltas = np.linspace(0.0, 4.0, 200)
    tails = posterior_radial_tail(params, deltas)
    mono_delta = bool(np.all(np.diff(tails) < 0.0)) and tails[0] == 1.0
    at = 0.8
    by_t = [float(posterior_radial_tail(
        PosteriorParams(2.0, np.zeros(2), 1.5, t), at)) for t in range(4, 30)]
    mono_t = bool(np.all(np.diff(by_t) < 0.0))
    by_z = [float(posterior_radial_tail(
        PosteriorParams(z, np.zeros(2), 1.5, 8), at))
        for z in np.linspace(0.5, 12.0, 40)]
    mono_z = bool(np.all(np.diff(by_z) < 0.0))
    by_s = [float(posterior_radial_tail(
        PosteriorParams(2.0, np.zeros(2), S, 8), at))
        for S in np.linspace(0.2, 9.0, 40)]
    mono_s = bool(np.all(np.diff(by_s) > 0.0))
    ok = mono_delta and mono_t and mono_z and mono_s
    return _result("posterior-tail-monotonicity", ok,
                   f"delta {mono_delta}, z {mono_z}, t {mono_t}, S {mono_s}",
                   "decreasing in delta/z/t, increasing in S")


def check_rho_symmetry(rng) -> CheckResult:
    """Identical arms receive equal belief up to Monte Carlo error."""
    M = 4096
    params = [PosteriorParams(2.0, np.array([1.0, 0.5]), 1.2, 7)
              for _ in range(4)]
    belief = estimate_rho(params, M, rng)
    dev = float(np.max(np.abs(belief.rho - 0.25)))
    thr = 3.0 / math.sqrt(M)
    return _result("rho-uniform-symmetry", dev <= thr,
                   f"max |rho - 1/4| {dev:.4f}", f"<= {thr:.4f}")


def check_rho_consistency(rng) -> CheckResult:
    """Beliefs at M and 10M Monte Carlo samples agree in sup norm.

    The gap between independent estimates is O(1/sqrt(M)); 5/sqrt(M) is a
    many-sigma envelope, checked over repeated trials.
    """
    params = [PosteriorParams(3.0, np.array([1.2, 0.0]), 1.0, 9),
              PosteriorParams(2.0, np.array([0.8, 0.6]), 1.5, 9),
              PosteriorParams(4.0, np.array([-0.9, 0.1]), 0.7, 9)]
    M = 2048
    dev = 0.0
    for _ in range(8):
        a = estimate_rho(params, M, rng)
        b = estimate_rho(params, 10 * M, rng)
        dev = max(dev, float(np.max(np.abs(a.rho - b.rho))))
    thr = 5.0 / math.sqrt(M)
    return _result("rho-consistency", dev < thr, f"sup dev {dev:.4f}",
                   f"< {thr:.4f}")


# ---------------------------------------------------------------------------
# policies

_INSTANCE3 = (np.array([[1.5, 0.0], [0.6, 0.8], [0.0, 0.6]]),
              np.array([0.64, 0.81, 1.0]))


def _play(instance, kind, T, seed, mc_samples=1024):
    """Tiny serial run returning the state and the last emitted profile."""
    rng_env = rng_streams.stream(seed, 90, 0, rng_streams.ENV)
    rng_pol = rng_streams.stream(seed, 90, 0, rng_streams.POLICY)
    state = make_policy(kind, instance, mc_samples)
    profile = None
    for _ in range(T):
        profile = policy_step(state, rng_pol)
        outcome = sample_outcome(instance, profile, rng_env)
        observe(state, profile, outcome)
    return state, profile


def check_warmup_and_floor() -> CheckResult:
    """WTS warm-up is exactly uniform; after it, every power stays > 0."""
    instance = new_instance(*_INSTANCE3)
    rng_pol = rng_streams.stream(123, 91, 0, rng_streams.POLICY)
    rng_env = rng_streams.stream(123, 91, 0, rng_streams.ENV)
    state = make_policy(WTS, instance, 512)
    uniform_ok = True
    min_power = 1.0
    for t in range(1, 51):
        profile = wts_step(state, rng_pol)
        if t <= 3:
            uniform_ok &= bool(np.all(profile.p == 1.0 / 3.0))
        min_power = min(min_power, float(profile.p.min()))
        observe(state, profile, sample_outcome(instance, profile, rng_env))
    ok = uniform_ok and min_power > 0.0
    return _result("wts-warmup-and-floor", ok,
                   f"warmup uniform {uniform_ok}, min power {min_power:.2e}",
                   "uniform and > 0")


def check_one_hot_baselines() -> CheckResult:
    """TS baselines and the oracle only ever emit one-hot profiles."""
    instance = new_instance(*_INSTANCE3)
    ok = True
    for kind in (TS_KNOWN, TS_UNKNOWN, ORACLE):
        state, _ = _play(instance, kind, 60, seed=7)
        rng_pol = rng_streams.stream(8, 92, 0, rng_streams.POLICY)
        for _ in range(5):
            p = (oracle_step(state) if kind == ORACLE
                 else ts_step(state, rng_pol)).p
            ok &= p.max() == 1.0 and p.sum() == 1.0
    state, _ = _play(instance, ORACLE, 30, seed=9)
    ok &= oracle_step(state).p[instance.k_star] == 1.0
    return _result("one-hot-baselines", ok, "profiles one-hot", "one-hot")


def check_policy_determinism() -> CheckResult:
    """Equal seeds reproduce the exact profile sequence."""
    instance = new_instance(*_INSTANCE3)
    _, p1 = _play(instance, WTS, 150, seed=42)
    _, p2 = _play(instance, WTS, 150, seed=42)
    _, p3 = _play(instance, WTS, 150, seed=43)
    same = bool(np.all(p1.p == p2.p))
    differs = bool(np.any(p1.p != p3.p))
    return _result("policy-determinism", same and differs,
                   f"same seed equal {same}, new seed differs {differs}",
                   "equal and differing")


def check_power_divergence() -> CheckResult:
    """Cumulative power of every arm keeps growing under WTS."""
    means, var = _INSTANCE3
    cfg = RunConfig(mode="simulate", T=10000, means=means, variances=var,
                    policies=(WTS,), thin=10000)
    ok = True
    worst_z = np.inf
    for seed in range(20):
        out = run_replication(cfg.replaced(seed=seed), WTS, 0)
        z_early = out.z_snapshots[1000]
        z_final = out.z_snapshots[10000]
        ok &= bool(np.all(z_final > z_early))
        worst_z = min(worst_z, float(z_final.min()))
    ok &= worst_z >= 3.0
    return _result("wts-power-divergence", ok,
                   f"min z(T) {worst_z:.2f}", ">= 3 and > z(T/10)")


def check_belief_concentration() -> CheckResult:
    """With a wide gap the WTS belief locks onto the best arm."""
    instance = new_instance([[1.5, 0.0], [0.6, 0.8]], [0.01, 0.01])
    hits = 0
    runs = 50
    for seed in range(runs):
        _, profile = _play(instance, WTS, 2000, seed=seed, mc_samples=1024)
        hits += profile.p[instance.k_star] > 0.99
    return _result("wts-belief-concentration", hits >= 0.95 * runs,
                   f"{hits}/{runs} runs locked on", ">= 95%")


# ---------------------------------------------------------------------------
# bounds and gain estimation

def check_chi2_quadrature() -> CheckResult:
    """Closed-form even-dof chi-square CDF matches density quadrature."""
    worst = 0.0
    for dof in (2, 6, 14, 40):
        m = dof // 2
        lgamma = math.lgamma(m)
        for x in (0.5, 2.0, 7.5, 20.0, 60.0):
            n = 40001
            xs = np.linspace(0.0, x, n)
            with np.errstate(divide="ignore"):
                logpdf = ((m - 1) * np.log(np.maximum(xs, 1e-300))
                          - xs / 2.0 - m * math.log(2.0) - lgamma)
            pdf = np.exp(logpdf)
            if m == 1:
                pdf[0] = 0.5  # x^0 e^0 / 2
            quad = _simpson(pdf, xs[1] - xs[0])
            worst = max(worst, abs(quad - chi2_cdf_even(dof, x)))
    return _result("chi2-closed-form-quadrature", worst < 1e-8,
                   f"max dev {worst:.2e}", "< 1e-8")


def check_bound_ordering(rng) -> CheckResult:
    """Non-spreading unknown-variance constant dominates the spreading one,
    on an exact two-arm case and on 1000 random instances (tied draws are
    skipped; the check fails when more than half of them are)."""
    exact = lower_bound_constants(new_instance([[2.0, 0.0], [1.0, 0.0]],
                                               [1.0, 1.0]))
    ok = (abs(exact.spreading_unknown - 1.0) < 1e-12
          and abs(exact.ns_unknown - 1.0 / math.log(2.0)) < 1e-12)
    margin = np.inf
    tries, checked = 1000, 0
    for _ in range(tries):
        K = int(rng.integers(2, 8))
        means = rng.normal(size=(K, 2)) * rng.uniform(0.5, 3.0)
        var = rng.uniform(0.05, 4.0, size=K)
        try:
            inst = new_instance(means, var)
        except TiedOptimum:
            continue
        checked += 1
        c = lower_bound_constants(inst)
        margin = min(margin, c.ns_unknown - c.spreading_unknown)
    ok &= margin >= -1e-12 and 2 * checked >= tries
    return _result("lower-bound-ordering", ok,
                   f"min(ns - spreading) {margin:.3g} over {checked}/{tries}",
                   ">= 0 over >= half")


def check_multisine_dft(rng) -> CheckResult:
    """Parseval and the (N/2) sqrt(p_k) bin magnitudes of the multisine for
    a random profile on each of the grids K = 2, 5, 6, 16."""
    worst = 0.0
    for K in (2, 5, 6, 16):
        grid = FrequencyGrid(K)
        p = rng.dirichlet(np.ones(K))
        u = synth_multisine(PowerProfile(p), grid)
        U = np.fft.fft(u)
        parseval = abs(float((np.abs(U) ** 2).sum() - grid.N * (u * u).sum()))
        mags = np.abs(U[1:K + 1])
        target = (grid.N / 2.0) * np.sqrt(p)
        worst = max(worst, parseval, float(np.max(np.abs(mags - target))))
    return _result("multisine-dft-identities", worst < 1e-9,
                   f"max dev {worst:.2e}", "< 1e-9")


def check_gain_mse_slope(rng) -> CheckResult:
    """Under the oracle, the peak-gain MSE decays like 1/t (log-log slope)."""
    beta = 1.3
    sigma2 = 0.49
    mu = np.array([beta, 0.0])
    ts = np.array([100.0, 1000.0, 10000.0])
    mses = []
    for t in ts:
        # oracle puts all power on the peak: xbar ~ N(mu, sigma^2/(2t) I)
        draws = mu + math.sqrt(sigma2 / (2.0 * t)) * rng.normal(size=(200, 2))
        err = np.hypot(draws[:, 0], draws[:, 1]) - beta
        mses.append(float((err * err).mean()))
    slope = float(np.polyfit(np.log(ts), np.log(mses), 1)[0])
    return _result("gain-oracle-mse-slope", -1.2 <= slope <= -0.8,
                   f"slope {slope:.3f}", "in [-1.2, -0.8]")


def check_gain_noiseless() -> CheckResult:
    """With vanishing noise the peak gain is recovered almost exactly."""
    problem = grid_from_fir([0.35, 0.45, 0.1], [1e-6], 8)
    rng_env = rng_streams.stream(5, 93, 0, rng_streams.ENV)
    rng_pol = rng_streams.stream(5, 93, 0, rng_streams.POLICY)
    state = make_policy(WTS, problem.instance, 256)
    for _ in range(10):
        profile = policy_step(state, rng_pol)
        observe(state, profile, sample_outcome(problem.instance, profile,
                                               rng_env))
    est = gain_estimate(state.z, state.mean, 10)
    err = abs(est.beta_hat - problem.peak_gain)
    ok = err < 1e-4 and est.k_hat == problem.peak_bin
    return _result("gain-noiseless-recovery", ok, f"|err| {err:.2e}",
                   "< 1e-4 at the peak bin")


# ---------------------------------------------------------------------------

def run_verification(seed: int = 0, sigma2_scale: float = 1.0) -> list:
    """Run every check; returns the list of :class:`CheckResult`."""
    def fresh(i):
        return rng_streams.stream(seed, 1000 + i)

    checks = [
        check_batch_equivalence(fresh(0)),
        check_mean_law(fresh(1)),
        check_chi2_law(fresh(2), sigma2_scale),
        check_independence(fresh(3)),
        check_exceedance(fresh(4)),
        check_scatter_tail_bound(fresh(5)),
        check_rotation_invariance(fresh(6)),
        check_posterior_normalization(),
        check_sampler_tail_identity(fresh(7)),
        check_tail_monotonicity(),
        check_rho_symmetry(fresh(8)),
        check_rho_consistency(fresh(9)),
        check_warmup_and_floor(),
        check_one_hot_baselines(),
        check_policy_determinism(),
        check_power_divergence(),
        check_belief_concentration(),
        check_chi2_quadrature(),
        check_bound_ordering(fresh(10)),
        check_multisine_dft(fresh(11)),
        check_gain_mse_slope(fresh(12)),
        check_gain_noiseless(),
    ]
    return checks


def all_passed(results) -> bool:
    return all(r.passed for r in results)
