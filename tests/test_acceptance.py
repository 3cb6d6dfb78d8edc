"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned in the assertions below;
stated runtime budgets are asserted too.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.signal

from subtrack.channel_sim import (SimConfig, gen_symbols, generate_observations,
                                  noise_variance_for_snr, synth_latent_channel)
from subtrack.cli import sweep_rank
from subtrack.coarse_est import autocorrelation_table
from subtrack.config import load_config
from subtrack.csvio import read_csv
from subtrack.kalman_core import (ArTransitionModel, RecursiveAutocorr,
                                  fb_combine)
from subtrack.linalg_spectral import (evd_hermitian, solve_yule_walker,
                                      truncate_subspace)
from subtrack.pipeline import TrackerConfig, run_asrmae, run_dfb_asrmae
from subtrack.subspace_tracking import PastdTracker

from test_kalman_core import batch_lmmse, run_backward, run_forward


def report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def simulate(preset, seed, **sim_kw):
    cfg = SimConfig(preset=preset, seed=seed, **sim_kw)
    traj, truth = synth_latent_channel(cfg)
    symbols = gen_symbols(cfg.n_steps, seed=seed + 1_000_000)
    sigma = noise_variance_for_snr(traj, cfg.snr_db)
    obs = generate_observations(traj, symbols, sigma, seed=seed + 2_000_000)
    return traj, truth, obs, cfg


def test_criterion_1_forward_filter_matches_batch_lmmse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for rank, order in ((2, 2), (4, 1), (1, 4), (3, 1)):
        phi = (rng.uniform(0.2, 0.9, size=(rank, order)) / order).astype(complex)
        model = ArTransitionModel(phi=phi, noise_cov=0.1 * np.eye(rank))
        dim = rank * order
        n = 20
        rows = [np.concatenate([
            rng.standard_normal(rank) + 1j * rng.standard_normal(rank),
            np.zeros(dim - rank)]) for _ in range(n)]
        observations = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        last_mean, last_cov = run_forward(model, 0.7 * np.eye(dim), rows, 0.4,
                                          observations)[-1]
        mean, cov = batch_lmmse(model, 0.7 * np.eye(dim), rows, 0.4, observations)
        block = cov[(n - 1) * dim:, (n - 1) * dim:]
        worst = max(worst,
                    np.linalg.norm(last_mean - mean[-1])
                    / max(np.linalg.norm(mean[-1]), 1e-30),
                    np.linalg.norm(last_cov - block) / np.linalg.norm(block))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-8,
           f"forward filter vs dense joint LMMSE, worst relative error {worst:.2e}",
           elapsed, 1.0)


def test_criterion_2_two_filter_fusion_matches_combined_lmmse():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(20 + seed)
        phi_val, q, sigma, p0, n = 0.9, 0.19, 0.05, 1.0, 3
        model = ArTransitionModel(phi=np.array([[phi_val]]),
                                  noise_cov=np.array([[q]]))
        rows = [np.array([rng.standard_normal() + 1j * rng.standard_normal()])
                for _ in range(n)]
        observations = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        filtered_f = run_forward(model, [[p0]], rows, sigma, observations)
        filtered_b = run_backward(model, [[1e3]], rows, sigma, observations)

        back_chain = ArTransitionModel(phi=np.array([[1.0 / phi_val]]),
                                       noise_cov=np.array([[q / phi_val**2]]))
        for t in range(n):
            # Dense posteriors for each side, then the combined-system LMMSE.
            mean_f, cov_f = batch_lmmse(model, [[p0]], rows[:t + 1], sigma,
                                        observations[:t + 1], information=True)
            mean_b, cov_b = batch_lmmse(back_chain, [[1e3]], rows[t:][::-1],
                                        sigma, observations[t:][::-1],
                                        information=True)
            info_f = 1.0 / cov_f[t, t]
            info_b = 1.0 / cov_b[-1, -1]
            want_cov = 1.0 / (info_f + info_b)
            want_mean = want_cov * (info_f * mean_f[t, 0] + info_b * mean_b[-1, 0])
            got_mean, got_cov = fb_combine(*filtered_f[t], *filtered_b[t])
            scale = max(abs(want_mean), np.sqrt(abs(want_cov)))
            worst = max(worst, abs(got_mean[0] - want_mean) / scale,
                        abs(got_cov[0, 0] - want_cov) / abs(want_cov))
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-8,
           f"two-filter fusion vs combined-system LMMSE, worst relative error {worst:.2e}",
           elapsed, 1.0)


def test_criterion_3_yule_walker_recovery():
    t0 = time.perf_counter()
    # Exact autocorrelations, p in {1, 2}.
    exact_ok = True
    fit, _ = solve_yule_walker([[1.0, 0.9]])
    exact_ok &= abs(fit[0, 0] - 0.9) < 1e-10
    phi1, phi2 = 0.5, 0.3
    r1 = phi1 / (1 - phi2)
    r2 = phi1 * r1 + phi2
    fit, _ = solve_yule_walker([[1.0, r1, r2]])
    exact_ok &= np.max(np.abs(fit[0] - [phi1, phi2])) < 1e-10

    # Sampled AR(1): phi in {0.9, 0.99}, 10^4 samples, 100 seeds each.
    n = 10_000
    hit_rates = {}
    for phi in (0.9, 0.99):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            innov = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            innov *= np.sqrt((1 - phi**2) / 2)
            z = scipy.signal.lfilter([1.0], [1.0, -phi], innov)
            est = solve_yule_walker(autocorrelation_table(z[:, None], 1))[0][0, 0]
            hits += abs(est - phi) < 0.02
        hit_rates[phi] = hits
    elapsed = time.perf_counter() - t0
    ok = exact_ok and all(h >= 95 for h in hit_rates.values())
    report(3, ok,
           f"exact recovery to 1e-10 ({exact_ok}), sampled hits/100: {hit_rates}",
           elapsed, 10.0)


def test_criterion_4_evd_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_recon = worst_orth = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 129))
        b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        a = b @ b.conj().T / k
        dec = evd_hermitian(a)
        recon = (dec.q * dec.eigenvalues) @ dec.q.conj().T
        worst_recon = max(worst_recon,
                          np.linalg.norm(recon - a) / np.linalg.norm(a))
        worst_orth = max(worst_orth,
                         np.max(np.abs(dec.q.conj().T @ dec.q - np.eye(k))))
    elapsed = time.perf_counter() - t0
    ok = worst_recon < 1e-10 and worst_orth < 1e-10
    report(4, ok,
           f"100 PSD matrices up to K=128: reconstruction {worst_recon:.2e}, "
           f"orthonormality {worst_orth:.2e}", elapsed, 10.0)


def test_criterion_5_pastd_convergence():
    t0 = time.perf_counter()
    beta = 0.998
    n = round(10 / (1 - beta))
    warm = 300
    sigmas = np.array([8.0, 6.0, 4.5, 3.4, 2.6, 2.0])
    noise = 0.8
    gap = (sigmas[-1] ** 2 + noise ** 2) / noise ** 2
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        basis = np.linalg.qr(rng.standard_normal((16, 6)))[0].astype(complex)
        z = (rng.standard_normal((warm + n, 6))
             + 1j * rng.standard_normal((warm + n, 6))) / np.sqrt(2)
        x = z * sigmas @ basis.T
        x += noise * (rng.standard_normal((warm + n, 16))
                      + 1j * rng.standard_normal((warm + n, 16))) / np.sqrt(2)
        cov0 = x[:warm].T @ x[:warm].conj() / warm
        dec = evd_hermitian(0.5 * (cov0 + cov0.conj().T))
        tracker = PastdTracker(truncate_subspace(dec, 6),
                               np.maximum(dec.eigenvalues[:6], 1e-6), beta=beta)
        for row in x[warm:]:
            tracker.step(row)
        cov = x[warm:].T @ x[warm:].conj() / n
        evecs = np.linalg.eigh(cov)[1][:, ::-1][:, :6]
        qw = np.linalg.qr(tracker.w)[0]
        s = np.linalg.svd(qw.conj().T @ evecs, compute_uv=False)
        angle = np.degrees(np.arccos(np.clip(s.min(), 0.0, 1.0)))
        hits += angle < 5.0
    elapsed = time.perf_counter() - t0
    report(5, hits >= 9,
           f"stationary stream (r=6, gap {gap:.1f} >= 5): {hits}/10 seeds under 5 deg "
           f"after {n} steps", elapsed, 30.0)


def test_criterion_6_recursive_autocorrelation_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    rank, order, n = 4, 3, 400
    z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    acc = RecursiveAutocorr(rank, order)
    for row in z:
        acc.update(row)
    padded = np.concatenate([np.zeros((order, rank), complex), z])
    worst = 0.0
    for m in range(order + 1):
        batch = np.sum(padded[order:] * padded[order - m:n + order - m].conj(),
                       axis=0) / n
        worst = max(worst, np.max(np.abs(acc.table[:, m] / acc.count - batch)))
    elapsed = time.perf_counter() - t0
    report(6, worst < 1e-10,
           f"recursive autocorrelation vs batch average, worst gap {worst:.2e}",
           elapsed, 1.0)


@pytest.mark.slow
def test_criterion_7_preset_trend_reproduction():
    t0 = time.perf_counter()
    n_seeds = 20
    scale = dict(n_taps=64, n_steps=5000, n_train=1000, r_true=12, snr_db=20.0)
    tracker = TrackerConfig(rank=12, order=1, n_train=1000)
    improvements = {"calm": [], "rough": []}
    for preset in ("calm", "rough"):
        for seed in range(1, n_seeds + 1):
            _, _, obs, _ = simulate(preset, seed, **scale)
            base = run_asrmae(obs, tracker)
            full = run_dfb_asrmae(obs, tracker)
            improvements[preset].append(base.mean_err_db - full.mean_err_db)
    rough_gain = float(np.mean(improvements["rough"]))
    calm_gain = float(np.mean(improvements["calm"]))
    elapsed = time.perf_counter() - t0
    ok = rough_gain >= 2.0 and calm_gain <= rough_gain
    report(7, ok,
           f"{n_seeds} paired seeds: rough improvement {rough_gain:.2f} dB "
           f"(needs >= 2), calm improvement {calm_gain:.2f} dB (must not exceed rough)",
           elapsed, 300.0)


@pytest.mark.slow
def test_criterion_8_rank_sweep_argmin(tmp_path):
    t0 = time.perf_counter()
    # Forward-pass configuration of the full tracker (dynamic model re-fit,
    # correlated noise, no smoothing): its causal prediction error carries a
    # genuine capacity penalty past the true rank, whereas the smoothed fit
    # residual keeps rewarding extra rank at desk scale.
    cfg = load_config(None, [
        "sim.n_taps=20", "sim.n_steps=14000", "sim.n_train=8000",
        "sim.r_true=12", "sim.phi_lo=0.998", "sim.phi_hi=0.998",
        "sim.omega_q=0", "sim.power_decay=0.85",
        "tracker.rank=12", "tracker.beta=0.9995", "tracker.fb_smoothing=false",
        "run.seeds=1,2,3,4,5", "run.algos=dfb_asrmae",
    ])
    sweep_rank(cfg, list(range(1, 21)), "dfb_asrmae", tmp_path)
    _, rows = read_csv(tmp_path / "rank_sweep.csv")
    aggregate = {r[0]: r[2] for r in rows if r[1] == "all"}
    curve = [aggregate[r] for r in range(1, 21)]
    argmin = int(np.argmin(curve)) + 1
    elapsed = time.perf_counter() - t0
    report(8, 10 <= argmin <= 14,
           f"aggregate error argmin over r=1..20 at r={argmin} "
           f"(min {min(curve):.2f} dB)", elapsed, 600.0)


def test_criterion_9_flag_degeneracy_bit_identical():
    t0 = time.perf_counter()
    identical = True
    for seed in (1, 2, 3):
        _, _, obs, _ = simulate("rough", seed, n_taps=24, n_steps=1500,
                                n_train=500, r_true=6)
        cfg = TrackerConfig(rank=6, n_train=500, dynamic_phi=False,
                            correlated_noise=False, fb_smoothing=False)
        base = run_asrmae(obs, cfg)
        flagged = run_dfb_asrmae(obs, cfg)
        identical &= (np.array_equal(base.h_tracked, flagged.h_tracked)
                      and np.array_equal(base.xi, flagged.xi)
                      and np.array_equal(base.err_db, flagged.err_db)
                      and base.mean_err_db == flagged.mean_err_db)
    elapsed = time.perf_counter() - t0
    report(9, identical,
           "flag-disabled pipeline bit-identical to the baseline on 3 seeds",
           elapsed, 30.0)


def test_criterion_10_cost_scaling():
    t0 = time.perf_counter()

    def tracker_seconds_per_step(n_taps, rank, lengths=(1200, 2400), n_train=400):
        _, _, obs, _ = simulate("calm", 5, n_taps=n_taps, n_steps=max(lengths),
                                n_train=n_train, r_true=min(rank, 8),
                                phi_lo=0.99, phi_hi=0.995)
        # Step size scaled with the tap count to keep the LMS stable; only
        # the timing matters here.
        cfg = TrackerConfig(rank=rank, n_train=n_train, mu=0.25 / n_taps)
        best = []
        for n_steps in lengths:
            # Best of three, as timeit reports: host noise only ever adds
            # time.  Each call gets a fresh record, so each runs the whole
            # front end.
            seconds = float("inf")
            for _ in range(3):
                record = dataclasses.replace(obs, r=obs.r[:n_steps], d=obs.d[:n_steps])
                start = time.perf_counter()
                run_dfb_asrmae(record, cfg)
                seconds = min(seconds, time.perf_counter() - start)
            best.append(seconds)
        # Both lengths share their first n_train steps, so the one-off
        # training work (the coarse fit's K x K eigendecomposition, cubic in
        # K) cancels in the difference, which leaves the per-step loop.
        return (best[1] - best[0]) / (lengths[1] - lengths[0])

    # K-dominant regime: 6Kr >> 10(rp)^3; doubling K predicts <= 2x.
    k_ratio = tracker_seconds_per_step(512, 4) / tracker_seconds_per_step(256, 4)
    # (rp)^3-dominant regime: doubling r predicts 8x; stay within 2.5x of it.
    rp_ratio = tracker_seconds_per_step(48, 32) / tracker_seconds_per_step(48, 16)

    elapsed = time.perf_counter() - t0
    ok = k_ratio <= 2.5 and rp_ratio <= 2.5 * 8
    report(10, ok,
           f"per-step time ratios: K-doubling {k_ratio:.2f}x (<= 2.5), "
           f"rank-doubling {rp_ratio:.2f}x (<= 20 for cubic term)", elapsed, 120.0)
