"""How the tracked subspace rank trades off against prediction error.

Sweeps the tracker rank over a channel whose true latent rank is 12, using
the dynamic tracker in its forward-only configuration (its causal prediction
error is the honest capacity metric; the smoothed fit residual keeps
rewarding extra rank).  Too few components truncate real channel energy;
past the true rank every extra component is an unexcited direction whose
stale state leaks noise into the predictions.  The curve knees at the true
rank.

Run:  python demos/03_rank_sweep.py  (about 16 s; trimmed-down version of
the harness `subtrack sweep-rank` command)
"""

import numpy as np

from subtrack import (SimConfig, TrackerConfig, gen_symbols,
                      generate_observations, noise_variance_for_snr,
                      run_dfb_asrmae, synth_latent_channel)

RANKS = range(2, 21, 2)
SEEDS = (1, 2)


def observe(seed):
    sim = SimConfig(n_taps=20, n_steps=8000, n_train=4000, r_true=12,
                    seed=seed, phi_lo=0.998, phi_hi=0.998, omega_q=0.0,
                    power_decay=0.85)
    traj, _ = synth_latent_channel(sim)
    symbols = gen_symbols(sim.n_steps, seed=seed + 1000)
    sigma = noise_variance_for_snr(traj, sim.snr_db)
    return generate_observations(traj, symbols, sigma, seed=seed + 2000)


# One record per seed, ranks widest first: every rank reuses the record's LMS
# pass, and the widest rank's PAST-d pass serves each narrower one.
records = [observe(seed) for seed in SEEDS]
errs = {rank: [run_dfb_asrmae(obs, TrackerConfig(rank=rank, n_train=4000,
                                                 beta=0.9995,
                                                 fb_smoothing=False)).mean_err_db
               for obs in records]
        for rank in sorted(RANKS, reverse=True)}

curve = []
for rank in RANKS:
    curve.append(np.mean(errs[rank]))
    bar = "#" * max(1, int(2 * (0 - curve[-1])))
    print(f"rank {rank:2d}: {curve[-1]:7.2f} dB  {bar}")

gains = -np.diff(curve)
knee = list(RANKS)[int(np.argmax(gains < 0.3))]
print(f"\ndiminishing returns beyond rank {knee} (true latent rank: 12);")
print("adding components past the true rank buys nothing and slowly hurts.")
