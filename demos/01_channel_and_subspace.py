"""Why a handful of components carry the channel.

Simulates a correlated channel with the low-rank latent generator, then shows
the two structural facts the trackers exploit: the eigenvalue spectrum of
the tap covariance collapses after the designed rank, and the taps are
strongly coherent while the components projected onto the dominant
eigenvectors are nearly uncorrelated.

Run:  python demos/01_channel_and_subspace.py
"""

import numpy as np

from subtrack import (SimConfig, cross_path_coherence, eigenvalue_spectrum,
                      evd_hermitian, project_components, synth_latent_channel,
                      truncate_subspace)

cfg = SimConfig(preset="calm", n_taps=64, n_steps=6000, n_train=1000,
                r_true=12, seed=11, phi_lo=0.99, phi_hi=0.998)
traj, _ = synth_latent_channel(cfg)
cov = traj.h.T @ traj.h.conj() / cfg.n_steps
spectrum = eigenvalue_spectrum(0.5 * (cov + cov.conj().T))
print("Latent channel (r_true = 12): eigenvalue 12 =", f"{spectrum[11]:.4f},",
      "eigenvalue 13 =", f"{spectrum[12]:.2e}")

# Basis learned on the first half, coherence measured on the second half:
# the decorrelation is good but not perfect once the basis ages, which is
# exactly the residual correlation the full tracker's noise model absorbs.
half = cfg.n_steps // 2
train_cov = traj.h[:half].T @ traj.h[:half].conj() / half
basis = truncate_subspace(evd_hermitian(0.5 * (train_cov + train_cov.conj().T)), 12)
components = project_components(traj.h[half:], basis)
rho_z = cross_path_coherence(components)
off = np.abs(rho_z.rho[~np.eye(12, dtype=bool)])
rho_h = cross_path_coherence(traj.h[half:])
off_h = np.abs(rho_h.rho[~np.eye(64, dtype=bool)])
print("  tap coherence (held-out half):        max off-diagonal "
      f"{off_h.max():.3f}, median {np.median(off_h):.3f}")
print("  component coherence (aged basis):     max off-diagonal "
      f"{off.max():.3f}, median {np.median(off):.3f}")
print("  -> projection onto the dominant eigenvectors cuts the typical")
print("     cross-correlation roughly in half even after the basis has aged;")
print("     the residue is what the correlated process-noise model absorbs.")
