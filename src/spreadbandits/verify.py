"""Statistical self-checks runnable from the command line.

Each check exercises one distributional identity, bound, or policy contract
at a moderate Monte Carlo size and returns ``(passed, observed,
requirement)``; :func:`run_verification` reports each as a
:class:`CheckResult` under its name in ``_CHECKS``, and a check that raises
as failed.  The suite is deterministic given its seed; the acceptance tests
call the checks on their own seeds.  The checks run the engine that every
run executes: an observation-law check holds one replication per arm of a
:class:`PolicyState`, draws with :func:`spreadbandits.core._draw` and folds
with ``_fold_powers`` (the batch check with ``_fold_arm``), and a policy
check loops over :func:`run_replication`.  On the two-arm ``_PAIR`` a trace
holds the whole profile: a round's power on arm 1 is its ``regret_step``
over the gap 0.5.  The test suite's sensitivity controls corrupt a check
from outside, by patching what it draws, builds and runs with.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_streams
from .bounds import (
    chi2_cdf_even,
    lower_bound_constants,
    mean_exceedance,
    variance_tail_bound,
)
from .config import RunConfig
from .core import (
    PowerProfile,
    _draw,
    batch_stats,
    new_instance,
)
from .errors import TiedOptimum
from .policies import (
    RHO_FLOOR,
    TS_KNOWN,
    TS_UNKNOWN,
    ORACLE,
    UNIFORM,
    WTS,
    PolicyState,
    _fold_arm,
    _fold_powers,
)
from .posterior import (
    PosteriorParams,
    estimate_rho,
    posterior_density,
    posterior_radial_tail,
    sample_posterior,
)
from .runner import run_replication
from .sysid import FrequencyGrid, grid_from_fir, synth_multisine


# rotation-invariance slack, in units of eps * max_norm for the gaps and of
# eps * max_norm / min_gap (relative) for the bound constants
ROTATION_ULPS = 16.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: str
    requirement: str


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

def check_batch_equivalence(rng):
    """The engine's one-arm fold over a trajectory equals the batch formula
    (1000 trajectories of 2 to 1000 rounds, a fifth of them at zero power,
    which the engine never folds)."""
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 1001))
        powers = rng.uniform(0.0, 1.0, size=n)
        powers[rng.random(n) < 0.2] = 0.0
        if not np.any(powers > 0.0):
            powers[0] = 0.5
        xs = rng.normal(size=(n, 2))
        st = PolicyState(UNIFORM, 1)
        for p, (x0, x1) in zip(powers.tolist(), xs.tolist()):
            if p > 0.0:
                _fold_arm(st, 0, p, x0, x1)
        z, xbar, S = batch_stats(powers, xs)
        scale = max(abs(S), abs(z), 1e-12)
        err = max(abs(st.z[0] - z) / max(z, 1e-12),
                  float(np.max(np.abs(st.mean[0] - xbar)))
                  / max(float(np.max(np.abs(xbar))), 1e-12),
                  abs(st.S[0] - S) / scale)
        worst = max(worst, err)
    return (worst < 1e-9,
            f"max rel err {worst:.3g}", "< 1e-9")


def _simulate_stats(rng, n, powers, mu, sigma2):
    """n replications of (xbar, S, z) under a fixed power trajectory, run on
    the round engine: replication i is arm i of one n-arm state, and each
    round is :func:`_draw` then :func:`_fold_powers`."""
    g = rng.normal(size=(n, len(powers), 2))
    variances = np.full(n, sigma2)
    st = PolicyState(UNIFORM, n)
    for i, p in enumerate(powers):
        p = np.full(n, p)
        _fold_powers(st, p, _draw(mu, variances, p, g[:, i]))
    return st.mean, st.S, st.z[0]


def check_mean_law(rng):
    """xbar is Gaussian around mu with covariance sigma^2/(2z) I."""
    mu = np.array([0.7, -1.1])
    sigma2 = 1.3
    powers = [1.0, 0.5, 0.25, 0.8, 0.3, 0.15]
    n = 20000
    xbar, _, z = _simulate_stats(rng, n, powers, mu, sigma2)
    var_target = sigma2 / (2.0 * z)
    se_mean = math.sqrt(var_target / n)
    mean_err = float(np.max(np.abs(xbar.mean(axis=0) - mu)))
    cov = np.cov(xbar, rowvar=False, bias=True) / var_target
    cov_dev = float(np.max(np.abs(cov - np.eye(2))))
    ok = mean_err < 3 * se_mean and cov_dev < 0.05
    return (ok,
            f"mean err {mean_err:.2e}, cov dev {cov_dev:.3f}",
            f"mean < {3*se_mean:.2e}, |cov/target - I| < 0.05")


def check_chi2_law(rng):
    """2 S / sigma^2 follows a chi-square with 2(t-1) degrees of freedom."""
    mu = np.array([0.3, 0.9])
    sigma2 = 0.8
    powers = [1.0, 0.4, 0.9, 0.2, 0.65, 1.0, 0.5, 0.35]  # t = 8 -> dof 14
    n = 10000
    _, S, _ = _simulate_stats(rng, n, powers, mu, sigma2)
    samples = np.sort(2.0 * S / sigma2)
    cdf = chi2_cdf_even(14, samples)
    i = np.arange(1, n + 1)
    ks = float(np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n)))
    thr = 1.63 / math.sqrt(n)
    return (ks < thr, f"KS {ks:.4f}",
            f"< {thr:.4f}")


def check_independence(rng):
    """xbar and S are uncorrelated (they are independent in law)."""
    mu = np.array([0.3, 0.9])
    powers = [1.0, 0.4, 0.9, 0.2, 0.65, 1.0, 0.5, 0.35]
    n = 10000
    xbar, S, _ = _simulate_stats(rng, n, powers, mu, 0.8)
    c = float(np.corrcoef(xbar[:, 0], S)[0, 1])
    return (abs(c) < 0.03,
            f"|corr| {abs(c):.4f}", "< 0.03")


def check_exceedance(rng):
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
    return (abs(emp - target) <= 3 * se,
            f"emp {emp:.5f} vs exact {target:.5f}",
            f"within {3*se:.5f}")


def check_scatter_tail_bound(rng):
    """Empirical scatter tail stays below exp(-t h(eps/sigma^2))."""
    mu = np.array([1.0, 0.2])
    sigma2 = 0.7
    t, eps, n = 10, 0.7, 100000
    powers = np.full(t, 0.6)
    _, S, _ = _simulate_stats(rng, n, powers, mu, sigma2)
    emp = float((S >= t * (sigma2 + eps)).mean())
    bound = variance_tail_bound(t, sigma2, eps)
    se = math.sqrt(max(emp, 1e-12) * (1 - emp) / n)
    ok = emp <= bound + 3 * se
    return (ok,
            f"emp {emp:.5f} vs bound {bound:.5f}", "emp <= bound")


def check_rotation_invariance(rng):
    """Rotating every mean leaves k_star, the gaps and the bound constants
    unchanged up to float64 rounding.

    A rotation moves each computed norm by a few ulps of ``max_norm``, so
    the gaps move by O(eps max_norm), and a constant of the form
    sum_k f(Delta_k), with |f'| <= f / Delta, by a relative
    O(eps max_norm / min_gap).  Each instance is held to
    ``ROTATION_ULPS`` times those two scales, so any change above rounding
    fails the check.  Draws with a tied best arm are skipped; the check
    fails when more than half of them are.
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
        b = new_instance(means @ R.T, var)
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
    return (ok,
            f"max dev {worst:.3g} eps-scaled over {checked}/{tries}",
            f"<= {ROTATION_ULPS:g} over >= half")


# ---------------------------------------------------------------------------
# posterior

def check_posterior_normalization():
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
    return (worst < 1e-4,
            f"max dev {worst:.2e}", "< 1e-4")


def check_sampler_tail_identity(rng):
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
    return (worst_sigma <= 3.0,
            f"worst |emp-tail| {worst_sigma:.2f} se", "<= 3 se")


def check_tail_monotonicity():
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
    return (ok,
            f"delta {mono_delta}, z {mono_z}, t {mono_t}, S {mono_s}",
            "decreasing in delta/z/t, increasing in S")


def check_rho_symmetry(rng):
    """Identical arms receive equal belief up to Monte Carlo error."""
    M = 4096
    params = [PosteriorParams(2.0, np.array([1.0, 0.5]), 1.2, 7)
              for _ in range(4)]
    rho = estimate_rho(params, M, rng)
    dev = float(np.max(np.abs(rho - 0.25)))
    thr = 3.0 / math.sqrt(M)
    return (dev <= thr,
            f"max |rho - 1/4| {dev:.4f}", f"<= {thr:.4f}")


def check_rho_consistency(rng):
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
        dev = max(dev, float(np.max(np.abs(a - b))))
    thr = 5.0 / math.sqrt(M)
    return (dev < thr, f"sup dev {dev:.4f}",
            f"< {thr:.4f}")


# ---------------------------------------------------------------------------
# policies

_INSTANCE3 = (np.array([[1.5, 0.0], [0.6, 0.8], [0.0, 0.6]]),
              np.array([0.64, 0.81, 1.0]))
# arm 1's gap is exactly 1.5 - hypot(0.6, 0.8) = 0.5, and arm 0's is 0
_PAIR = {"means": np.array([[1.5, 0.0], [0.6, 0.8]]),
         "variances": np.array([0.01, 0.01])}


def _pair_run(kind, T, seed=0, replication=0, thin=1):
    """One :func:`run_replication` of ``kind`` on ``_PAIR``; returns it and
    the power on arm 1 in each of its recorded rounds."""
    cfg = RunConfig(mode="simulate", T=T, seed=seed, policies=(kind,),
                    thin=thin, **_PAIR)
    out = run_replication(cfg, kind, replication)
    return out, out.regret_step / 0.5


def check_warmup_and_floor():
    """WTS warm-up plays exactly 1/2 per arm; after it, no round plays an
    arm below (F/2) / (1 + F/2), F = RHO_FLOOR, which is what renormalising
    a floored belief of 1 and F/2 leaves, and some round plays exactly
    that, so the floor binds.  Arm 0's power is read as 1 - p_1."""
    _, p = _pair_run(WTS, 2000, seed=123)
    uniform_ok = bool(np.all(p[:3] == 0.5))
    min_power = float(np.minimum(p, 1.0 - p).min())
    floor = (RHO_FLOOR / 2.0) / (1.0 + RHO_FLOOR / 2.0)
    return (uniform_ok and min_power == floor,
            f"warmup uniform {uniform_ok}, min power {min_power!r}",
            f"uniform and min = {floor!r}")


def check_one_hot_baselines():
    """TS baselines and the oracle only ever put all the power on one arm,
    and the oracle's is on the best arm in every round."""
    powers = {kind: _pair_run(kind, 60, seed=7)[1]
              for kind in (TS_KNOWN, TS_UNKNOWN, ORACLE)}
    ok = all(np.all((p == 0.0) | (p == 1.0)) for p in powers.values())
    ok = ok and not powers[ORACLE].any()
    return ok, "profiles one-hot", "one-hot"


def check_policy_determinism():
    """Equal seeds reproduce the exact recorded trace of a WTS run."""
    a, b, c = (_pair_run(WTS, 150, seed)[0].columns() for seed in (42, 42, 43))
    same = all(map(np.array_equal, a, b))
    differs = not all(map(np.array_equal, a, c))
    return (same and differs,
            f"same seed equal {same}, new seed differs {differs}",
            "equal and differing")


def check_power_divergence():
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
    return (ok,
            f"min z(T) {worst_z:.2f}", ">= 3 and > z(T/10)")


def check_belief_concentration():
    """With a wide gap the WTS belief locks onto the best arm: at round T
    the power on arm 1 is below 0.01."""
    runs = 50
    hits = sum(int(_pair_run(WTS, 2000, replication=rep, thin=2000)[1][-1]
                   < 0.01) for rep in range(runs))
    return (hits >= 0.95 * runs,
            f"{hits}/{runs} runs locked on", ">= 95%")


# ---------------------------------------------------------------------------
# bounds and gain estimation

def check_chi2_quadrature():
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
    return (worst < 1e-8,
            f"max dev {worst:.2e}", "< 1e-8")


def check_bound_ordering(rng):
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
    return (ok,
            f"min(ns - spreading) {margin:.3g} over {checked}/{tries}",
            ">= 0 over >= half")


def check_multisine_dft(rng):
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
    return (worst < 1e-9,
            f"max dev {worst:.2e}", "< 1e-9")


def check_gain_mse_slope(rng):
    """Under the oracle, the peak-gain MSE decays like 1/t (log-log slope).

    The oracle runs through :func:`run_replication` in gain mode on a fixed
    FIR problem; the MSE at each of t = 100, 1000, 10000 is the mean of
    ``(beta_hat - peak_gain)^2`` over 100 replications.
    """
    g, h, K = np.array([0.30, 0.48, 0.30, 0.12]), np.array([0.5]), 6
    peak = grid_from_fir(g, h, K).peak_gain
    ts = [100, 1000, 10000]
    cfg = RunConfig(mode="gain", T=ts[-1], replications=100,
                    seed=int(rng.integers(1 << 31)), policies=(ORACLE,),
                    thin=ts[0], g_coeffs=g, h_coeffs=h, K=K)
    errs = []
    for rep in range(cfg.replications):
        out = run_replication(cfg, ORACLE, rep)
        errs.append(out.beta_hat[np.searchsorted(out.t, ts)] - peak)
    mses = (np.array(errs) ** 2).mean(axis=0)
    slope = float(np.polyfit(np.log(ts), np.log(mses), 1)[0])
    return (-1.2 <= slope <= -0.8,
            f"slope {slope:.3f}", "in [-1.2, -0.8]")


def check_gain_noiseless():
    """With vanishing noise a 10-round WTS gain run recovers the peak gain
    almost exactly."""
    g, h, K = [0.35, 0.45, 0.1], [1e-6], 8
    problem = grid_from_fir(g, h, K)
    cfg = RunConfig(mode="gain", T=10, seed=5, mc_samples=256, thin=10,
                    g_coeffs=g, h_coeffs=h, K=K)
    out = run_replication(cfg, WTS, 0)
    err = abs(out.beta_hat[-1] - problem.peak_gain)
    ok = err < 1e-4 and out.k_hat[-1] == problem.peak_bin
    return ok, f"|err| {err:.2e}", "< 1e-4 at the peak bin"


# ---------------------------------------------------------------------------

# every check: its name, the function, and the index of its stream if it
# draws one
_CHECKS = (
    ("stats-batch-equivalence", check_batch_equivalence, 0),
    ("mean-gaussian-law", check_mean_law, 1),
    ("scatter-chi2-law", check_chi2_law, 2),
    ("mean-scatter-independence", check_independence, 3),
    ("mean-exceedance-equality", check_exceedance, 4),
    ("scatter-tail-bound", check_scatter_tail_bound, 5),
    ("rotation-invariance", check_rotation_invariance, 6),
    ("posterior-normalization", check_posterior_normalization),
    ("posterior-sampler-tail-identity", check_sampler_tail_identity, 7),
    ("posterior-tail-monotonicity", check_tail_monotonicity),
    ("rho-uniform-symmetry", check_rho_symmetry, 8),
    ("rho-consistency", check_rho_consistency, 9),
    ("wts-warmup-and-floor", check_warmup_and_floor),
    ("one-hot-baselines", check_one_hot_baselines),
    ("policy-determinism", check_policy_determinism),
    ("wts-power-divergence", check_power_divergence),
    ("wts-belief-concentration", check_belief_concentration),
    ("chi2-closed-form-quadrature", check_chi2_quadrature),
    ("lower-bound-ordering", check_bound_ordering, 10),
    ("multisine-dft-identities", check_multisine_dft, 11),
    ("gain-oracle-mse-slope", check_gain_mse_slope, 12),
    ("gain-noiseless-recovery", check_gain_noiseless),
)


def run_verification(seed: int = 0) -> list:
    """Run every check in ``_CHECKS``; returns the list of
    :class:`CheckResult`, where a check that raises gives a failed one.
    ``seed`` must be an integer >= 0, as in any :class:`RunConfig`."""
    RunConfig(mode="verify", seed=seed)

    def attempt(name, check, *key):  # key: the index of the check's stream
        try:
            passed, observed, requirement = check(
                *(rng_streams.stream(seed, 1000 + i) for i in key))
        except Exception as e:  # report it; the other checks still run
            passed, observed, requirement = (
                False, f"raised {type(e).__name__}: {e}", "no exception")
        return CheckResult(name, bool(passed), observed, requirement)

    return [attempt(*entry) for entry in _CHECKS]


def all_passed(results) -> bool:
    return all(r.passed for r in results)
