"""Self-verification suite: everything passes, and the harness can fail."""

import numpy as np
import pytest

from spreadbandits import rng as rng_streams
from spreadbandits import verify
from spreadbandits.cli import main
from spreadbandits.errors import InsufficientData, TiedOptimum
from spreadbandits.verify import (
    CheckResult,
    all_passed,
    check_bound_ordering,
    check_chi2_law,
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


def test_suite_detects_corrupted_variance_law(monkeypatch):
    # sanity check of the harness itself: doubling the simulated variance
    # must break exactly the scatter distribution law
    assert check_chi2_law(np.random.default_rng(0)).passed
    real = verify._draw
    monkeypatch.setattr(verify, "_draw", lambda means, variances, p, noise:
                        real(means, 2.0 * variances, p, noise))
    assert not check_chi2_law(np.random.default_rng(0)).passed


@pytest.mark.parametrize("seed", [8, 10, 11, 12])
def test_rotation_invariance_at_rounding_level(seed):
    # seeds whose deviations exceeded the former absolute 1e-12 tolerance
    # while sitting at a few eps relative to the instance's conditioning;
    # the stream is the one run_verification(seed) hands this check
    rng = rng_streams.stream(seed, 1006)
    assert check_rotation_invariance(rng).passed


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
    assert not check_rotation_invariance(rng).passed


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
    result = check(np.random.default_rng(0))
    assert not result.passed
    assert "0/" in result.observed


def test_raising_check_reported_as_failed(monkeypatch):
    # stubs stand in for the 22 checks; the one that raises becomes a
    # failed result naming the exception, and the others still run
    def check_power_divergence():
        raise InsufficientData("S=nan")

    names = [n for n in dir(verify) if n.startswith("check_")]
    for n in names:
        monkeypatch.setattr(verify, n, lambda *rng: CheckResult(
            "stub", True, "ok", "ok"))
    monkeypatch.setattr(verify, "check_power_divergence",
                        check_power_divergence)
    results = run_verification(seed=0)
    assert len(names) == len(results) == 22
    assert [(r.name, r.observed) for r in results if not r.passed] == [
        ("check_power_divergence", "raised InsufficientData: S=nan")]
    assert main(["verify"]) == 1
