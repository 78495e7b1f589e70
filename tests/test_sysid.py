"""Frequency-grid gain estimation: grid, FIR responses, multisine, readout."""

import numpy as np
import pytest

from spreadbandits import (
    FrequencyGrid,
    GainEstimate,
    PowerProfile,
    freq_response,
    gain_estimate,
    grid_from_fir,
    sample_outcome,
    synth_multisine,
)
from spreadbandits.core import ArmStats
from spreadbandits.errors import (
    DimensionMismatch,
    NoData,
    TiedPeak,
    TooFewArms,
    ZeroNoiseBin,
)
from spreadbandits.verify import check_gain_mse_slope


class TestFrequencyGrid:
    def test_frequencies(self):
        g = FrequencyGrid(3)
        assert g.N == 7
        np.testing.assert_allclose(
            g.omegas, 2.0 * np.pi * np.array([1, 2, 3]) / 7.0)

    def test_open_interval(self):
        g = FrequencyGrid(50)
        assert g.omegas[0] > 0.0
        assert g.omegas[-1] < np.pi
        assert np.all(np.diff(g.omegas) > 0.0)

    def test_k_zero_rejected(self):
        with pytest.raises(TooFewArms):
            FrequencyGrid(0)


class TestFreqResponse:
    def test_unit_impulse_is_flat(self):
        om = FrequencyGrid(4).omegas
        np.testing.assert_allclose(freq_response([1.0], om), np.ones(4))

    def test_two_tap_average(self):
        # (1 + e^{-j w})/2 has magnitude cos(w/2)
        om = FrequencyGrid(5).omegas
        resp = freq_response([0.5, 0.5], om)
        np.testing.assert_allclose(np.abs(resp), np.cos(om / 2.0),
                                   atol=1e-14)

    def test_matches_fft_oracle(self):
        rng = np.random.default_rng(13)
        coeffs = rng.normal(size=9)
        N = 32
        om = 2.0 * np.pi * np.arange(N) / N
        want = np.fft.fft(coeffs, N)
        np.testing.assert_allclose(freq_response(coeffs, om), want,
                                   atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            freq_response([], FrequencyGrid(2).omegas)


class TestGridFromFir:
    def test_flat_gain_ties(self):
        with pytest.raises(TiedPeak):
            grid_from_fir([1.0], [1.0], 4)

    def test_zero_noise_rejected(self):
        with pytest.raises(ZeroNoiseBin):
            grid_from_fir([0.5, 0.5], [0.0], 4)

    def test_needs_two_bins(self):
        with pytest.raises(TooFewArms):
            grid_from_fir([0.5, 0.5], [1.0], 1)

    def test_lowpass_peaks_at_lowest_bin(self):
        prob = grid_from_fir([0.5, 0.5], [1.0], 6)
        assert prob.peak_bin == 0
        assert prob.peak_gain == pytest.approx(
            np.cos(prob.grid.omegas[0] / 2.0))

    def test_induced_instance_matches_responses(self):
        prob = grid_from_fir([0.3, -0.2, 0.5], [1.0, 0.4], 5)
        np.testing.assert_allclose(prob.instance.norms,
                                   np.abs(prob.g_resp), atol=1e-14)
        np.testing.assert_allclose(prob.instance.variances,
                                   np.abs(prob.h_resp) ** 2, atol=1e-14)
        assert prob.instance.k_star == prob.peak_bin

    def test_means_are_real_imag_parts(self):
        prob = grid_from_fir([0.1, 0.7, -0.3], [0.8], 3)
        np.testing.assert_allclose(prob.instance.means[:, 0],
                                   prob.g_resp.real)
        np.testing.assert_allclose(prob.instance.means[:, 1],
                                   prob.g_resp.imag)


class TestRunExperiment:
    def test_variance_law(self):
        # |H| = 2, full power on one bin: per-coordinate variance
        # |H|^2 / (2 p) = 2
        prob = grid_from_fir([0.5, 0.5], [2.0], 2)
        prof = PowerProfile.one_hot(2, 0)
        rng = np.random.default_rng(14)
        draws = np.array([sample_outcome(prob.instance, prof, rng).values[0]
                          for _ in range(100000)])
        np.testing.assert_allclose(draws.var(axis=0, ddof=1), [2.0, 2.0],
                                   rtol=0.02)
        np.testing.assert_allclose(draws.mean(axis=0),
                                   [prob.g_resp[0].real, prob.g_resp[0].imag],
                                   atol=0.02)

    def test_isotropic_components(self):
        prob = grid_from_fir([0.5, 0.5], [1.0], 2)
        prof = PowerProfile.uniform(2)
        rng = np.random.default_rng(15)
        draws = np.array([sample_outcome(prob.instance, prof, rng).values[1]
                          for _ in range(100000)])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.02

    def test_zero_power_bin_unexcited(self):
        prob = grid_from_fir([0.5, 0.5], [1.0], 3)
        prof = PowerProfile(np.array([0.5, 0.0, 0.5]))
        out = sample_outcome(prob.instance, prof, np.random.default_rng(16))
        assert out.values[1] is None
        assert out.values[0] is not None


class TestMultisine:
    def test_one_hot_is_plain_sine(self):
        grid = FrequencyGrid(2)
        u = synth_multisine(PowerProfile.one_hot(2, 0), grid)
        taus = np.arange(5)
        np.testing.assert_allclose(u, np.sin(2.0 * np.pi * taus / 5.0),
                                   atol=1e-15)

    def test_one_hot_bin_magnitude(self):
        # the excited bin carries (N/2) sqrt(p) = 5/2
        grid = FrequencyGrid(2)
        u = synth_multisine(PowerProfile.one_hot(2, 0), grid)
        X = np.fft.fft(u)
        assert abs(X[1]) == pytest.approx(2.5, abs=1e-9)
        assert abs(X[2]) == pytest.approx(0.0, abs=1e-9)

    def test_general_profile_bin_magnitudes(self):
        grid = FrequencyGrid(4)
        prof = PowerProfile(np.array([0.4, 0.1, 0.25, 0.25]))
        X = np.fft.fft(synth_multisine(prof, grid))
        got = np.abs(X[1:grid.K + 1])
        want = (grid.N / 2.0) * np.sqrt(prof.p)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_parseval(self):
        grid = FrequencyGrid(5)
        prof = PowerProfile(np.array([0.3, 0.05, 0.15, 0.2, 0.3]))
        u = synth_multisine(prof, grid)
        X = np.fft.fft(u)
        assert np.sum(np.abs(X) ** 2) == pytest.approx(
            grid.N * np.sum(u * u), rel=1e-12)

    def test_profile_grid_mismatch(self):
        with pytest.raises(DimensionMismatch):
            synth_multisine(PowerProfile.uniform(3), FrequencyGrid(2))


class TestGainEstimate:
    def test_norm_of_heaviest_bin(self):
        z = np.array([1.0, 3.0])
        xbar = np.array([[0.0, 0.1], [3.0, 4.0]])
        est = gain_estimate(z, xbar, 17)
        assert est.k_hat == 1
        assert est.beta_hat == pytest.approx(5.0)
        assert est.t == 17

    def test_lowest_index_wins_ties(self):
        xbar = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert gain_estimate(np.array([2.0, 2.0]), xbar, 4).k_hat == 0

    def test_no_data(self):
        with pytest.raises(NoData):
            gain_estimate(np.zeros(2), np.zeros((2, 2)), 1)
        with pytest.raises(NoData):
            gain_estimate(np.zeros(0), np.zeros((0, 2)), 0)

    def test_noiseless_recovery(self):
        # nearly noiseless measurements pin beta_hat to the true peak gain
        prob = grid_from_fir([0.5, 0.5], [1e-6], 4)
        prof = PowerProfile.one_hot(4, prob.peak_bin)
        rng = np.random.default_rng(19)
        per = [ArmStats() for _ in range(4)]
        for t in range(10):
            out = sample_outcome(prob.instance, prof, rng)
            for k in range(4):
                per[k].update(prof.p[k], out.values[k])
        z = np.array([st.z for st in per])
        xbar = np.array([st.xbar for st in per])
        est = gain_estimate(z, xbar, 10)
        assert est.k_hat == prob.peak_bin
        assert abs(est.beta_hat - prob.peak_gain) < 1e-4

    def test_mse_decays_linearly(self):
        # averaging the peak bin for t rounds gives MSE ~ |H|^2 / t:
        # slope of log MSE vs log t in [-1.2, -0.8]
        assert check_gain_mse_slope(np.random.default_rng(20)).passed

    def test_estimate_fields(self):
        est = GainEstimate(beta_hat=1.5, k_hat=2, t=9)
        assert (est.beta_hat, est.k_hat, est.t) == (1.5, 2, 9)
