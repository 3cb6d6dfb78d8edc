"""Error of a tracked channel against the simulator's true channel."""

import dataclasses

import numpy as np


def truth_nmse_db(h_est, h_true, n_train, conjugate=False):
    """NMSE of ``h_est`` against ``h_true`` over steps ``n_train:``, in dB.

    ``conjugate`` compares ``conj(h_est)``: the LMS resolves the channel in
    conjugated form (see the README's LMS convention).
    """
    est = np.asarray(h_est)[n_train:]
    true = np.asarray(h_true)[n_train:]
    if est.shape != true.shape or est.shape[0] == 0:
        raise ValueError(f"truth_nmse_db: shapes {est.shape} and {true.shape}")
    if conjugate:
        est = est.conj()
    ref = float(np.sum(np.abs(true) ** 2))
    if ref <= 0:
        raise ValueError("truth_nmse_db: the true channel has no power")
    return 10.0 * np.log10(float(np.sum(np.abs(est - true) ** 2)) / ref)


def rebuild_truth(cfg, seed):
    """The true channel and received sequence the CLI simulates for ``seed``.

    Uses the same public generators and seed offsets as ``subtrack.cli``, so
    the returned ``r`` must equal what the trackers were given.
    """
    from subtrack.channel_sim import (gen_symbols, generate_observations,
                                      noise_variance_for_snr,
                                      synth_latent_channel)
    from subtrack.cli import NOISE_SEED_OFFSET, SYMBOL_SEED_OFFSET

    traj, _ = synth_latent_channel(dataclasses.replace(cfg.sim, seed=seed))
    symbols = gen_symbols(traj.n_steps, seed=seed + SYMBOL_SEED_OFFSET)
    sigma_v2 = noise_variance_for_snr(traj, cfg.sim.snr_db)
    obs = generate_observations(traj, symbols, sigma_v2, seed=seed + NOISE_SEED_OFFSET)
    return traj.h, obs.r
