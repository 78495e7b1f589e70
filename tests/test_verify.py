"""Self-verification suite: everything passes, and the harness can fail."""

import dataclasses
import inspect

import numpy as np
import pytest

from spreadbandits import policies, posterior, verify
from spreadbandits import rng as rng_streams
from spreadbandits.cli import main
from spreadbandits.errors import InsufficientData, TiedOptimum, ValidationError
from spreadbandits.posterior import PosteriorParams
from spreadbandits.verify import (
    CheckResult,
    all_passed,
    check_bound_ordering,
    check_rotation_invariance,
    run_verification,
)


@pytest.fixture(scope="module")
def results():
    return run_verification(seed=0)


def test_all_checks_pass(results):
    failing = [r.name for r in results if not r.passed]
    assert failing == []
    assert all_passed(results)


def test_check_count_and_fields(results):
    assert len(results) == 22
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.name and r.observed and r.requirement
        assert isinstance(r.passed, bool)


def double_variance(draw):
    return lambda means, variances, p, noise: draw(means, 2.0 * variances,
                                                   p, noise)


def shift_mean(draw):
    return lambda means, variances, p, noise: draw(means + 0.02, variances,
                                                   p, noise)


def variance_by_noise_sign(draw):
    # the noise's sign picks the variance, so xbar and S are dependent
    return lambda means, variances, p, noise: draw(
        means, np.where(noise[:, 0] > 0.0, 4.0 * variances, variances), p,
        noise)


def inflate_low_power_folds(fold):
    def corrupted(state, k, p, x0, x1):
        fold(state, k, p, x0, x1)
        if p <= 0.5:
            state.z[k] += 1e-6
    return corrupted


def scaled(factor):
    return lambda f: lambda *args, **kw: factor * f(*args, **kw)


def tail_ignoring_scatter(tail):
    return lambda params, delta: tail(
        PosteriorParams(params.z, params.xbar, 1.0, params.t), delta)


def wider_radius(sample):
    def corrupted(params, rng, size=None):
        xbar = params.xbar
        return xbar + 1.05 * (sample(params, rng, size=size) - xbar)
    return corrupted


def belief_moved_to_arm_0(estimate):
    def corrupted(*args):
        rho = estimate(*args).copy()
        rho[0] += 0.1
        rho[1] -= 0.1
        return rho
    return corrupted


def dc_offset(synth):
    return lambda *args: synth(*args) + 1.0


# each check, the function its control patches in verify, and how; the
# first is the control of the scatter law
CORRUPTIONS = (
    (verify.check_chi2_law, "_draw", double_variance),
    (verify.check_mean_law, "_draw", shift_mean),
    (verify.check_exceedance, "_draw", double_variance),
    (verify.check_scatter_tail_bound, "_draw", double_variance),
    (verify.check_independence, "_draw", variance_by_noise_sign),
    (verify.check_batch_equivalence, "_fold_arm", inflate_low_power_folds),
    (verify.check_posterior_normalization, "posterior_density",
     scaled(1.001)),
    (verify.check_tail_monotonicity, "posterior_radial_tail",
     tail_ignoring_scatter),
    (verify.check_chi2_quadrature, "chi2_cdf_even", scaled(1.0 + 1e-6)),
    (verify.check_sampler_tail_identity, "sample_posterior", wider_radius),
    (verify.check_rho_symmetry, "estimate_rho", belief_moved_to_arm_0),
    (verify.check_multisine_dft, "synth_multisine", scaled(1.001)),
    (verify.check_multisine_dft, "synth_multisine", dc_offset),
)


def outcome(check) -> tuple:
    """``(passed, observed)`` of ``check``, on a fresh generator if it
    draws one."""
    n_streams = len(inspect.signature(check).parameters)
    return check(*[np.random.default_rng(0)] * n_streams)[:2]


def test_suite_detects_corrupted_variance_law(monkeypatch):
    # sanity check of the harness itself: each check passes on the clean
    # code and fails once the function its control names is corrupted,
    # and says so in what it observes
    for check, name, corrupt in CORRUPTIONS:
        passed, clean = outcome(check)
        assert passed, check.__name__
        with monkeypatch.context() as m:
            m.setattr(verify, name, corrupt(getattr(verify, name)))
            passed, observed = outcome(check)
        assert not passed, (check.__name__, corrupt.__name__)
        assert observed != clean, (check.__name__, corrupt.__name__)


@pytest.mark.parametrize("seed", [8, 10, 11, 12])
def test_rotation_invariance_at_rounding_level(seed):
    # seeds whose deviations exceeded the former absolute 1e-12 tolerance
    # while sitting at a few eps relative to the instance's conditioning;
    # the stream is the one run_verification(seed) hands this check
    rng = rng_streams.stream(seed, 1006)
    assert check_rotation_invariance(rng)[0]


@pytest.mark.parametrize("seed", [0, 8])
def test_rotation_invariance_detects_perturbed_mean(seed, monkeypatch):
    # a 1e-9 relative change of the best arm's mean is far above rounding:
    # the second instance a try builds, the rotated one, gets it
    real, built = verify.new_instance, []

    def perturbed(means, variances):
        if not built:
            built.append(real(means, variances))
            return built[-1]
        means = means.copy()
        means[built.pop().k_star] *= 1.0 + 1e-9
        return real(means, variances)

    monkeypatch.setattr(verify, "new_instance", perturbed)
    rng = rng_streams.stream(seed, 1006)
    assert not check_rotation_invariance(rng)[0]


@pytest.mark.parametrize("check", [check_rotation_invariance,
                                   check_bound_ordering])
def test_fails_when_random_instances_are_skipped(check, monkeypatch):
    # every random instance reads as tied: a check that skips them all has
    # checked nothing and must not pass
    real = verify.new_instance

    def tied(means, variances):
        if isinstance(means, np.ndarray):  # the checks' random draws
            raise TiedOptimum("every random instance tied")
        return real(means, variances)

    monkeypatch.setattr(verify, "new_instance", tied)
    passed, observed, _ = check(np.random.default_rng(0))
    assert not passed
    assert "0/" in observed


def test_raising_check_reported_as_failed(monkeypatch):
    # stubs stand in for the 22 checks; the one that raises becomes a
    # failed result under its check name, and the others still run
    def stub(*rng):
        return True, "ok", "ok"

    def diverge():
        raise InsufficientData("S=nan")

    monkeypatch.setattr(verify, "_CHECKS", [
        (name, diverge if name == "wts-power-divergence" else stub, *key)
        for name, _, *key in verify._CHECKS])
    results = run_verification(seed=0)
    assert len(results) == 22
    assert [(r.name, r.observed) for r in results if not r.passed] == [
        ("wts-power-divergence", "raised InsufficientData: S=nan")]
    assert main(["verify"]) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seed_refused_before_any_check(monkeypatch, seed):
    ran = []
    monkeypatch.setattr(verify, "_CHECKS", [
        ("stub", lambda: ran.append(1) or (True, "ok", "ok"))])
    with pytest.raises(ValidationError,
                       match=rf"^seed must be an integer >= 0, got {seed}$"):
        run_verification(seed)
    assert ran == []


def failing_among(monkeypatch, *names):
    """The results of the checks among ``names`` that fail at seed 0."""
    monkeypatch.setattr(verify, "_CHECKS",
                        [c for c in verify._CHECKS if c[0] in names])
    return tuple(r for r in run_verification(0) if not r.passed)


def failing_names(monkeypatch, *names):
    """The checks among ``names`` that fail at seed 0, by name."""
    return tuple(r.name for r in failing_among(monkeypatch, *names))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wts_checks_detect_missing_floor(monkeypatch):
    # with no floor WTS plays zero power on an arm, which the round
    # engine's dense draw cannot fold
    monkeypatch.setattr(policies, "RHO_FLOOR", 0.0)
    names = ("wts-warmup-and-floor", "policy-determinism",
             "wts-belief-concentration")
    assert failing_names(monkeypatch, *names) == names


def test_one_hot_check_detects_spread_baselines(monkeypatch):
    # the round loop plays the uniform vector for both TS baselines
    real = policies._choose
    monkeypatch.setattr(policies, "_choose", lambda state, noise: (
        np.full(2, 0.5) if state.kind in ("ts_known", "ts_unknown")
        else real(state, noise)))
    assert failing_names(monkeypatch, "one-hot-baselines") == (
        "one-hot-baselines",)
    assert one_hot_report() == (
        "spread: ts_known, ts_unknown; oracle off the best arm in 0 of 60 "
        "rounds")


def test_one_hot_check_detects_oracle_off_the_best_arm(monkeypatch):
    # the oracle's play comes from _choose, not from the instance's k_star
    real = policies._choose
    monkeypatch.setattr(policies, "_choose", lambda state, noise: (
        1 if state.kind == "oracle" else real(state, noise)))
    assert failing_names(monkeypatch, "one-hot-baselines") == (
        "one-hot-baselines",)
    assert one_hot_report() == (
        "spread: none; oracle off the best arm in 60 of 60 rounds")


def one_hot_report() -> str:
    """What ``one-hot-baselines`` observes."""
    return verify.check_one_hot_baselines()[1]


def uniforms_shared_by_all_samples(uniforms):
    # one draw per arm stands for all M Monte Carlo samples
    return lambda rng, K, M, rounds: np.repeat(uniforms(rng, K, 1, rounds),
                                               M, axis=-1)


def beta_hat_scaled(estimate):
    def corrupted(z, xbar):
        est = estimate(z, xbar)
        return dataclasses.replace(est, beta_hat=1.001 * est.beta_hat)
    return corrupted


def latest_observation_only(fold):
    def corrupted(state, k, p, x0, x1):
        z1, _, _, S1 = fold(state, k, p, x0, x1)
        state.mean[k] = x0, x1
        return z1, x0, x1, S1
    return corrupted


def last_arm_wins_moved_to_arm_0(counts):
    # a belief that starves the last arm: only the floor still powers it
    def corrupted(*args):
        c = counts(*args).copy()
        c[0] += c[-1]
        c[-1] = 0
        return c
    return corrupted


# each check without another control, and the function its control
# patches, by module
CONTROLS = {
    "rho-consistency": (posterior, "_kernel_uniforms",
                        uniforms_shared_by_all_samples),
    "gain-noiseless-recovery": (policies, "gain_estimate", beta_hat_scaled),
    # the gain-mode oracle still folds every observation
    "gain-oracle-mse-slope": (policies, "_fold_arm", latest_observation_only),
    "wts-power-divergence": (policies, "_rho_counts",
                             last_arm_wins_moved_to_arm_0),
}


@pytest.mark.parametrize("name", CONTROLS)
def test_check_detects_its_defect(monkeypatch, results, name):
    module, attr, corrupt = CONTROLS[name]
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    failing = failing_among(monkeypatch, name)
    assert [r.name for r in failing] == [name]
    # a check run alone at seed 0 draws the streams of the whole suite's run
    clean = next(r.observed for r in results if r.name == name)
    assert failing[0].observed != clean
    # the check measured the defect rather than crashing on it
    assert not failing[0].observed.startswith("raised")
