"""End-to-end acceptance gate.

Each test holds one headline property of the library at a stated
tolerance: the closed-form observation laws, the posterior sampler, the
policy-level regret ordering, power divergence, peak-gain recovery, the
signal-processing identities and the benchmark constants.  The
distributional and algebraic properties are the checks of
:mod:`spreadbandits.verify`, called here on fixed seeds; trace determinism
(reruns, replication prefixes, seeds, workers, policy order) is held by
``tests/test_runner.py``.  Runtime budgets are part of the assertions.
"""

import math
import time

import numpy as np
import pytest

from spreadbandits import (
    BanditInstance,
    FrequencyGrid,
    RunConfig,
    freq_response,
    grid_from_fir,
    lower_bound_constants,
    run,
)
from spreadbandits import verify

# five arms, norms 0.8 / 0.15 / 0.10 / 0.05 / 0.0: every suboptimal arm has
# gap-to-sigma ratio exactly 1, the hardest corner of the required range,
# and the small sub-arm norms keep early-round beliefs from collapsing
REGRET_MEANS = [[0.8, 0.0], [0.15, 0.0], [0.0, 0.10], [-0.05, 0.0],
                [0.0, 0.0]]
REGRET_VARIANCES = [0.25, 0.4225, 0.49, 0.5625, 0.64]
REGRET_T = 20000
REGRET_REPS = 100


@pytest.fixture(scope="module")
def regret_study(tmp_path_factory):
    """One shared WTS-vs-TS study; the ordering and divergence tests read it."""
    out = tmp_path_factory.mktemp("regret") / "study"
    cfg = RunConfig(
        mode="simulate",
        T=REGRET_T,
        replications=REGRET_REPS,
        seed=0,
        policies=("wts", "ts_unknown"),
        mc_samples=512,
        thin=10000,
        out=str(out),
        means=np.array(REGRET_MEANS),
        variances=np.array(REGRET_VARIANCES),
    )
    return cfg, run(cfg, workers=8, quiet=True)


def run_checks(seed, *checks, budget):
    """Run ``checks`` in turn on one generator seeded ``seed``; each must
    pass, and together within ``budget`` seconds."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    results = [check(rng) for check in checks]
    elapsed = time.perf_counter() - t0
    for r in results:
        print(f"{r.name}: {r.observed} ({r.requirement})")
        assert r.passed, f"{r.name}: {r.observed}, needs {r.requirement}"
    print(f"{elapsed:.2f}s")
    assert elapsed < budget


def test_mean_concentration_equality():
    # P(|xbar - mu| >= eps) = exp(-z eps^2 / sigma^2) exactly
    run_checks(101, verify.check_exceedance, budget=10.0)


def test_scatter_chi2_law_and_independence():
    # 2 S / sigma^2 follows chi-square with 14 dof, independent of xbar
    run_checks(102, verify.check_chi2_law, verify.check_independence,
               budget=10.0)


def test_posterior_tail_identity():
    # sampler exceedance matches (1 + z d^2/S)^{-(t-3)} on a parameter grid
    run_checks(11, verify.check_sampler_tail_identity, budget=30.0)


def test_incremental_batch_equivalence():
    # folding rounds one at a time agrees with the closed-form batch stats
    run_checks(104, verify.check_batch_equivalence, budget=5.0)


def test_regret_ordering_and_growth(regret_study):
    cfg, report = regret_study
    inst = BanditInstance(np.array(REGRET_MEANS), np.array(REGRET_VARIANCES))
    ratios = np.delete(inst.gaps / np.sqrt(inst.variances), inst.k_star)
    assert np.all((ratios >= 1.0) & (ratios <= 3.0))

    finals = {kind: np.array([o.final_cum for o in report.outputs
                              if o.policy == kind])
              for kind in ("wts", "ts_unknown")}
    mean_wts = finals["wts"].mean()
    mean_ts = finals["ts_unknown"].mean()
    pooled_se = math.sqrt(finals["wts"].var(ddof=1) / REGRET_REPS
                          + finals["ts_unknown"].var(ddof=1) / REGRET_REPS)

    # (a) WTS beats the non-spreading baseline by a clear margin
    assert mean_ts - mean_wts >= 2.0 * pooled_se

    # (b) WTS sits under the benchmark-constant reference line
    cap = 5.0 * lower_bound_constants(inst).spreading_unknown \
        * math.log(REGRET_T)
    assert mean_wts <= cap

    # (c) doubling the horizon grows regret sublinearly
    half = np.concatenate([o.regret_cum[o.t == REGRET_T // 2]
                           for o in report.outputs if o.policy == "wts"])
    assert half.shape[0] == REGRET_REPS
    ratio = mean_wts / half.mean()
    print(f"wts {mean_wts:.2f} vs ts_unknown {mean_ts:.2f} "
          f"(2 SE {2 * pooled_se:.2f}), cap {cap:.1f}, "
          f"growth ratio {ratio:.3f}, {report.elapsed_s:.0f}s")
    assert ratio < 1.4
    assert report.elapsed_s < 300.0


def test_power_divergence(regret_study):
    # every arm's cumulative power keeps growing and clears 3 by the horizon
    _, report = regret_study
    wts = [o for o in report.outputs if o.policy == "wts"]
    assert len(wts) == REGRET_REPS
    z_final = np.array([o.z_snapshots[REGRET_T] for o in wts])
    z_tenth = np.array([o.z_snapshots[REGRET_T // 10] for o in wts])
    print(f"min z(T) {z_final.min():.2f} (tol 3), "
          f"min growth {(z_final - z_tenth).min():.2f}")
    assert z_final.min() >= 3.0
    assert np.all(z_final > z_tenth)


def test_peak_gain_recovery(tmp_path):
    # resonant 16-tap filter, peak gain 1 at an interior grid bin, flat
    # noise |H| = 0.5; WTS-driven measurement recovers the peak gain
    t0 = time.perf_counter()
    K = 16
    grid = FrequencyGrid(K)
    w0 = grid.omegas[7]
    taps = np.array([0.9 ** n * math.sin(w0 * (n + 1)) for n in range(K)])
    taps /= np.max(np.abs(freq_response(taps, grid.omegas)))

    prob = grid_from_fir(taps, [0.5], K)
    assert prob.peak_gain == pytest.approx(1.0, rel=1e-12)
    assert 0 < prob.peak_bin < K - 1
    np.testing.assert_allclose(np.abs(prob.h_resp), 0.5, atol=1e-12)

    reps = 20
    cfg = RunConfig(
        mode="gain", T=5000, replications=reps, seed=0, policies=("wts",),
        mc_samples=1024, thin=5000, out=str(tmp_path / "gain"),
        g_coeffs=taps, h_coeffs=np.array([0.5]), K=K,
    )
    report = run(cfg, workers=8, quiet=True)
    errors = np.array([abs(o.beta_hat[-1] - prob.peak_gain)
                       for o in report.outputs])
    hits = int((errors <= 0.05).sum())
    elapsed = time.perf_counter() - t0
    print(f"{hits}/{reps} within 0.05 (tol >= {math.ceil(0.9 * reps)}), "
          f"max err {errors.max():.4f}, {elapsed:.0f}s")
    assert hits >= math.ceil(0.9 * reps)
    assert elapsed < 120.0


def test_transform_identities():
    # the multisine puts (N/2) sqrt(p_k) in bin k; Parseval holds
    run_checks(105, verify.check_multisine_dft, budget=5.0)


def test_bound_constants():
    # exact two-arm constants; the non-spreading constant dominates
    run_checks(106, verify.check_bound_ordering, budget=5.0)
