"""Peak-gain estimation of a sampled filter as a bandit problem.

A stable discrete-time system G is probed on the odd frequency grid

    omega_k = 2 pi k / (2K + 1),   k = 1..K,   N = 2K + 1,

one arm per grid frequency.  Measuring with a power-p_k multisine

    u_tau = sum_k sqrt(p_k) sin(omega_k tau),   tau = 0..N-1,

puts energy |U(omega_k)| = (N/2) sqrt(p_k) in bin k and nothing elsewhere
(the grid is leakage-free because 2k is never divisible by N).  A frequency-
domain measurement of bin k then behaves exactly like a power-weighted
bandit observation: mean [Re G, Im G](omega_k), per-coordinate variance
|H(omega_k)|^2 / (2 p_k) with H the noise shaping filter.  The peak gain
estimate reads off the arm with the most accumulated power:

    k_hat = argmax_k z_k,   beta_hat = |xbar_{k_hat}|.

:func:`grid_from_fir` builds the induced bandit instance from FIR
coefficient lists; measurements of a grid are observations of that
instance (:func:`spreadbandits.core.sample_outcome`).
"""

from dataclasses import dataclass, field

import numpy as np

from .core import BanditInstance, PowerProfile, new_instance
from .errors import DimensionMismatch, InsufficientData, TooFewArms


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """The K odd-DFT bin frequencies 2 pi k / (2K + 1), k = 1..K."""

    K: int
    N: int = field(init=False)
    omegas: np.ndarray = field(init=False)

    def __post_init__(self):
        K = int(self.K)
        if K < 1:
            raise TooFewArms(f"grid needs K >= 1, got {K}")
        N = 2 * K + 1
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "omegas",
                           2.0 * np.pi * np.arange(1, K + 1) / N)


@dataclass(frozen=True, eq=False)
class GainProblem:
    """A system/noise response pair on a grid plus the induced instance."""

    grid: FrequencyGrid
    g_resp: np.ndarray  # complex G(e^{j omega_k})
    h_resp: np.ndarray  # complex H(e^{j omega_k})
    instance: BanditInstance

    @property
    def peak_gain(self) -> float:
        return float(np.max(np.abs(self.g_resp)))

    @property
    def peak_bin(self) -> int:
        return int(np.argmax(np.abs(self.g_resp)))


@dataclass(frozen=True)
class GainEstimate:
    """Peak-gain readout: the estimate and the bin it was read at."""

    beta_hat: float
    k_hat: int


def freq_response(coeffs, omegas) -> np.ndarray:
    """Evaluate an FIR transfer sum_tau c_tau e^{-j omega tau} on ``omegas``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.shape[0] == 0:
        raise DimensionMismatch("coefficients must be a nonempty 1-d array")
    omegas = np.asarray(omegas, dtype=np.float64)
    taus = np.arange(coeffs.shape[0])
    return np.exp(-1j * np.outer(omegas, taus)) @ coeffs


def grid_from_fir(g_coeffs, h_coeffs, K: int) -> GainProblem:
    """Build the bandit view of FIR system ``g`` under FIR noise shaping ``h``.

    Arm means are [Re G, Im G] at each bin, variances |H|^2.  The failures
    are those of :func:`spreadbandits.core.new_instance`: fewer than two
    bins, a noise response that vanishes at a bin, or a top-two gain tie.
    """
    grid = FrequencyGrid(int(K))
    g_resp = freq_response(g_coeffs, grid.omegas)
    h_resp = freq_response(h_coeffs, grid.omegas)
    noise = np.abs(h_resp)
    means = np.column_stack([g_resp.real, g_resp.imag])
    instance = new_instance(means, noise * noise)
    return GainProblem(grid, g_resp, h_resp, instance)


def synth_multisine(profile: PowerProfile, grid: FrequencyGrid) -> np.ndarray:
    """The length-N input signal realising ``profile``:
    u_tau = sum_k sqrt(p_k) sin(omega_k tau)."""
    if len(profile) != grid.K:
        raise DimensionMismatch(
            f"profile has {len(profile)} entries for {grid.K} bins")
    taus = np.arange(grid.N)
    return np.sin(np.outer(taus, grid.omegas)) @ np.sqrt(profile.p)


def gain_estimate(z, xbar) -> GainEstimate:
    """Read the peak-gain estimate off per-arm statistics.

    ``z`` is the (K,) cumulative power and ``xbar`` the (K, 2) weighted
    mean, as in :class:`spreadbandits.policies.PolicyState`.  The reported
    bin is the one with the most accumulated power (lowest index on ties);
    the estimate is the norm of its weighted mean.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] == 0 or not z.max() > 0.0:
        raise InsufficientData("no bin has received any power yet")
    k_hat = int(np.argmax(z))
    beta = float(np.hypot(xbar[k_hat, 0], xbar[k_hat, 1]))
    return GainEstimate(beta_hat=beta, k_hat=k_hat)
