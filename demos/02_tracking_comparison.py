"""LMS vs forward-only tracker vs forward-backward tracker, calm and rough.

Runs the three algorithms on paired seeds under both variation presets and
prints the mean normalized prediction error of each, plus the improvement
the dynamic forward-backward tracker gains over the forward-only baseline.
The improvement should be at least as large under the rough preset, where
the model drifts while being tracked.

Run:  python demos/02_tracking_comparison.py  (about 20 s on a 2-core host)
"""

import numpy as np

from subtrack import (SimConfig, TrackerConfig, gen_symbols,
                      generate_observations, noise_variance_for_snr,
                      run_asrmae, run_dfb_asrmae, run_lms,
                      synth_latent_channel)

SEEDS = (1, 2, 3, 4, 5)
tracker = TrackerConfig(rank=12, order=1, n_train=1000)

print(f"{'preset':>6} {'seed':>4} {'lms':>8} {'forward':>8} {'fwd-bwd':>8} {'gain':>6}")
gains = {}
for preset in ("calm", "rough"):
    gains[preset] = []
    for seed in SEEDS:
        sim = SimConfig(preset=preset, n_taps=64, n_steps=5000,
                        n_train=1000, r_true=12, seed=seed)
        traj, _ = synth_latent_channel(sim)
        symbols = gen_symbols(sim.n_steps, seed=seed + 1000)
        sigma = noise_variance_for_snr(traj, sim.snr_db)
        obs = generate_observations(traj, symbols, sigma, seed=seed + 2000)

        lms = run_lms(obs, tracker)
        fwd = run_asrmae(obs, tracker)
        fb = run_dfb_asrmae(obs, tracker)
        gain = fwd.mean_err_db - fb.mean_err_db
        gains[preset].append(gain)
        print(f"{preset:>6} {seed:>4} {lms.mean_err_db:8.2f} "
              f"{fwd.mean_err_db:8.2f} {fb.mean_err_db:8.2f} {gain:6.2f}")

print("\nmean improvement of the forward-backward tracker over the baseline:")
for preset in ("calm", "rough"):
    print(f"  {preset:>6}: {np.mean(gains[preset]):5.2f} dB")
print("rough >= calm is the expected ordering: dynamic model updates and")
print("two-sided smoothing pay off most when the channel drifts fastest.")
