"""Peak-gain estimation of a resonant filter, posed as a bandit.

The filter's frequency response is probed on a K-bin grid with multisine
inputs; each bin behaves like a bandit arm whose observation precision is
proportional to allocated power.  The spreading policy concentrates power
on the resonance while keeping every bin measurable, and the peak-gain
readout is the mean norm at the most-probed bin.
"""

import numpy as np

from spreadbandits import (
    FrequencyGrid,
    PowerProfile,
    RunConfig,
    freq_response,
    run_replication,
    synth_multisine,
)

K = 16
T = 2000
REPS = 5

# a damped resonator, scaled so the peak gain on the grid is exactly 1
grid = FrequencyGrid(K)
w0 = grid.omegas[7]
taps = np.array([0.9 ** n * np.sin(w0 * (n + 1)) for n in range(K)])
taps /= np.max(np.abs(freq_response(taps, grid.omegas)))

cfg = RunConfig(mode="gain", T=T, replications=REPS, seed=0,
                policies=("wts",), mc_samples=512, thin=T,
                g_coeffs=taps, h_coeffs=np.array([0.5]), K=K)
problem = cfg.problem
print(f"{K}-bin grid, N = {grid.N} samples per input period")
print(f"peak gain {problem.peak_gain:.6f} at bin {problem.peak_bin} "
      f"(omega = {grid.omegas[problem.peak_bin]:.3f} rad)")
print(f"gain profile: {np.round(np.abs(problem.g_resp), 3)}")

# the input signal realising a profile, and where its energy lands in the
# analysis bins 1..K (the upper half mirrors them; the signal is real)
prof = PowerProfile.one_hot(K, problem.peak_bin)
u = synth_multisine(prof, grid)
X = np.abs(np.fft.fft(u))[1:K + 1]
others = np.delete(X, problem.peak_bin)
print(f"\none-hot multisine: energy {X[problem.peak_bin]:.2f} at the "
      f"target bin, {others.max():.2e} in every other bin")

print(f"\nwts measurement runs, T = {T}:")
print("rep   bin   estimate    error")
for rep in range(REPS):
    out = run_replication(cfg, "wts", rep)
    beta_hat, k_hat = out.beta_hat[-1], out.k_hat[-1]
    err = abs(beta_hat - problem.peak_gain)
    print(f"{rep:>3}   {k_hat:>3}   {beta_hat:.4f}    {err:.4f}")
