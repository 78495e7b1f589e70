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
from spreadbandits.errors import (
    DimensionMismatch,
    InsufficientData,
    NonPositiveVariance,
    TiedOptimum,
    TooFewArms,
)


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
        with pytest.raises(TiedOptimum):
            grid_from_fir([1.0], [1.0], 4)

    def test_zero_noise_rejected(self):
        with pytest.raises(NonPositiveVariance):
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

    def test_profile_grid_mismatch(self):
        with pytest.raises(DimensionMismatch):
            synth_multisine(PowerProfile.uniform(3), FrequencyGrid(2))


class TestGainEstimate:
    def test_norm_of_heaviest_bin(self):
        z = np.array([1.0, 3.0])
        xbar = np.array([[0.0, 0.1], [3.0, 4.0]])
        est = gain_estimate(z, xbar)
        assert est.k_hat == 1
        assert est.beta_hat == pytest.approx(5.0)

    def test_lowest_index_wins_ties(self):
        xbar = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert gain_estimate(np.array([2.0, 2.0]), xbar).k_hat == 0

    def test_no_data(self):
        with pytest.raises(InsufficientData, match="no bin has received"):
            gain_estimate(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(InsufficientData, match="no bin has received"):
            gain_estimate(np.zeros(0), np.zeros((0, 2)))

    def test_estimate_fields(self):
        est = GainEstimate(beta_hat=1.5, k_hat=2)
        assert (est.beta_hat, est.k_hat) == (1.5, 2)
