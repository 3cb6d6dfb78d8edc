import dataclasses
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from subtrack.channel_sim import (SimConfig, gen_symbols, generate_observations,
                                  latent_trajectory, noise_variance_for_snr,
                                  synth_latent_channel)
from subtrack.errors import InvalidInputError, NumericError
from subtrack.pipeline import (ALGORITHMS, TrackerConfig, run_asrmae,
                               run_dfb_asrmae, run_lms)


def make_observations(preset="calm", seed=1, snr_db=20.0, **sim_kw):
    params = dict(n_taps=24, n_steps=1500, n_train=500, r_true=6, seed=seed,
                  phi_lo=0.99, phi_hi=0.998, power_decay=0.8)
    params.update(sim_kw)
    cfg = SimConfig(preset=preset, **params)
    traj, truth = synth_latent_channel(cfg)
    symbols = gen_symbols(cfg.n_steps, seed=seed + 1000)
    sigma = noise_variance_for_snr(traj, snr_db)
    obs = generate_observations(traj, symbols, sigma, seed=seed + 2000)
    return traj, truth, obs, cfg


def test_flag_degeneracy_bit_identical():
    _, _, obs, _ = make_observations()
    cfg = TrackerConfig(rank=6, n_train=500, dynamic_phi=False,
                        correlated_noise=False, fb_smoothing=False)
    base = run_asrmae(obs, cfg)
    flagged = run_dfb_asrmae(obs, cfg)
    assert np.array_equal(base.h_tracked, flagged.h_tracked)
    assert np.array_equal(base.xi, flagged.xi)
    assert np.array_equal(base.err_db, flagged.err_db)
    assert base.mean_err_db == flagged.mean_err_db


@pytest.mark.parametrize("order", [2, 3])
def test_higher_order_forward_tracking(order):
    # Smoothing stays off: the p >= 2 backward pass still overflows.
    _, _, obs, _ = make_observations(seed=3)
    cfg = TrackerConfig(order=order, rank=6, n_train=500, fb_smoothing=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = run_asrmae(obs, cfg)
        refit = run_dfb_asrmae(obs, cfg)
        flags_off = run_dfb_asrmae(obs, dataclasses.replace(
            cfg, dynamic_phi=False, correlated_noise=False))
    for res in (base, refit):
        assert res.order == order
        assert np.isfinite(res.h_tracked).all() and np.isfinite(res.xi).all()
        assert np.isfinite(res.err_db).all() and np.isfinite(res.mean_err_db)
    assert np.array_equal(base.h_tracked, flags_off.h_tracked)
    assert np.array_equal(base.xi, flags_off.xi)
    assert np.array_equal(base.err_db, flags_off.err_db)
    assert base.mean_err_db == flags_off.mean_err_db


@pytest.mark.parametrize("order", [2, 3])
def test_higher_order_smoothing_overflow_is_a_numeric_error(order):
    # The p >= 2 backward pass overflows here (the inverted companion matrix
    # has eigenvalues far above one); it must stop with a typed error, not
    # with overflow warnings and non-finite values.
    _, _, obs, _ = make_observations(seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="backward pass.*fb_smoothing=false"):
            run_dfb_asrmae(obs, TrackerConfig(order=order, rank=6, n_train=500))


def test_noiseless_static_channel_in_model_class():
    # phi = 1, zero innovation, frozen basis: the tracker should lock on.
    # Real-valued truth (the coarse estimator resolves the channel in
    # conjugated form, so a static complex channel spans a different line
    # than its estimate); the biased lag-1 fit puts the coefficient at
    # 1 - 1/N, so the innovation floor scales as 1/N^2 with the window.
    from subtrack.channel_sim import ChannelTrajectory

    rng = np.random.default_rng(3)
    q0, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    h0 = q0 @ rng.standard_normal(3)
    traj = ChannelTrajectory(h=np.tile(h0, (8000, 1)).astype(complex))
    obs = generate_observations(traj, gen_symbols(8000, seed=4), 0.0, seed=5)
    res = run_asrmae(obs, TrackerConfig(rank=3, n_train=3000))
    assert res.mean_err_db < -60.0


def test_zero_db_snr_cannot_beat_noise_floor():
    _, _, obs, _ = make_observations(seed=2, snr_db=0.0)
    res = run_asrmae(obs, TrackerConfig(rank=6, n_train=500))
    assert res.mean_err_db >= -3.2  # |v|^2 / E|r|^2 = 0.5 at 0 dB SNR


def test_dfb_not_worse_than_baseline_on_matched_static_model():
    # Time-invariant coefficients, static basis: the dynamic updates must not
    # cost more than 1 dB against the matched baseline.
    _, _, obs, _ = make_observations(omega_q=0.0)
    cfg = TrackerConfig(rank=6, n_train=500)
    base = run_asrmae(obs, cfg)
    full = run_dfb_asrmae(obs, cfg)
    assert full.mean_err_db <= base.mean_err_db + 1.0


def test_algorithm_ordering_on_rough_preset():
    improvements = []
    for seed in (1, 2, 3):
        _, _, obs, _ = make_observations(preset="rough", seed=seed)
        cfg = TrackerConfig(rank=6, n_train=500)
        lms = run_lms(obs, cfg)
        base = run_asrmae(obs, cfg)
        full = run_dfb_asrmae(obs, cfg)
        assert full.mean_err_db < base.mean_err_db
        assert base.mean_err_db < lms.mean_err_db
        improvements.append(base.mean_err_db - full.mean_err_db)
    assert min(improvements) > 0


def test_track_result_shapes_and_diagnostics():
    traj, _, obs, sim = make_observations()
    cfg = TrackerConfig(rank=6, n_train=500)
    res = run_dfb_asrmae(obs, cfg)
    n, k = traj.h.shape
    assert res.h_tracked.shape == (n, k)
    assert res.xi.shape == (n,)
    assert res.err_db.shape == (n,)
    assert res.phi_traj.shape == (n, 6)
    assert res.noise_cov.shape == (6, 6)
    assert res.eigen_spectrum.shape == (k,)
    assert res.components.shape == (n, 6)
    assert np.isfinite(res.mean_err_db)


def test_correlated_noise_flag_changes_model():
    _, _, obs, _ = make_observations(preset="rough")
    diag_res = run_dfb_asrmae(obs, TrackerConfig(
        rank=6, n_train=500, correlated_noise=False))
    full_res = run_dfb_asrmae(obs, TrackerConfig(
        rank=6, n_train=500, correlated_noise=True))
    off_diag = full_res.noise_cov - np.diag(np.diag(full_res.noise_cov))
    assert np.max(np.abs(off_diag)) > 0
    assert np.max(np.abs(np.diag(np.diag(diag_res.noise_cov))
                         - diag_res.noise_cov)) == 0


def test_tracked_channel_follows_truth():
    traj, _, obs, _ = make_observations()
    res = run_dfb_asrmae(obs, TrackerConfig(rank=6, n_train=500))
    err = res.h_tracked[500:] - traj.h[500:]
    nmse = np.mean(np.abs(err) ** 2) / np.mean(np.abs(traj.h[500:]) ** 2)
    assert 10 * np.log10(nmse) < -3.0


def test_validates_rank_and_training_window():
    _, _, obs, _ = make_observations()
    with pytest.raises(InvalidInputError):
        run_asrmae(obs, TrackerConfig(rank=25, n_train=500))
    with pytest.raises(InvalidInputError):
        run_asrmae(obs, TrackerConfig(rank=6, n_train=1500))


def test_algorithm_registry():
    assert set(ALGORITHMS) == {"lms", "asrmae", "dfb_asrmae"}


def fresh(obs):
    """A new record with the same arrays, so with no front end of its own yet."""
    return dataclasses.replace(obs)


def assert_same_result(a, b):
    assert np.array_equal(a.h_tracked, b.h_tracked)
    assert np.array_equal(a.xi, b.xi)
    assert a.mean_err_db == b.mean_err_db


def test_runs_on_one_record_bit_identical_to_fresh_records():
    _, _, obs, _ = make_observations(preset="rough")
    cfgs = [TrackerConfig(rank=6, n_train=500),
            TrackerConfig(rank=4, n_train=500, beta=0.995)]
    runs = [(algo, cfg) for cfg in cfgs for algo in ALGORITHMS]
    alone = [ALGORITHMS[algo](fresh(obs), cfg) for algo, cfg in runs]
    shared = [ALGORITHMS[algo](obs, cfg) for algo, cfg in runs]
    for a, b in zip(alone, shared):
        assert_same_result(a, b)


def test_set_sigma_v2_is_the_filter_noise_variance():
    _, _, obs, _ = make_observations()
    cfg = TrackerConfig(rank=6, n_train=500)
    default = run_asrmae(obs, cfg)
    same = run_asrmae(obs, dataclasses.replace(cfg, sigma_v2=obs.sigma_v2))
    assert_same_result(default, same)
    louder = run_asrmae(obs, dataclasses.replace(cfg, sigma_v2=10 * obs.sigma_v2))
    assert not np.array_equal(default.xi, louder.xi)


def test_lms_built_once_per_record_and_mu(monkeypatch):
    import subtrack.pipeline as pipeline

    calls = []
    real = pipeline.lms_track
    monkeypatch.setattr(pipeline, "lms_track",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    _, _, obs, _ = make_observations()
    cfg = TrackerConfig(rank=6, n_train=500)
    run_lms(obs, cfg)
    run_asrmae(obs, cfg)
    run_lms(obs, cfg)
    assert len(calls) == 1
    run_lms(obs, dataclasses.replace(cfg, mu=0.004))
    assert len(calls) == 2
    run_lms(fresh(obs), cfg)
    assert len(calls) == 3


def test_front_end_goes_with_its_record():
    import subtrack.pipeline as pipeline

    _, _, obs, _ = make_observations()
    run_asrmae(obs, TrackerConfig(rank=6, n_train=500))
    held = [weakref.ref(value) for value in pipeline._FRONT_ENDS[obs].values()]
    assert len(held) == 3  # LMS, the coarse fit and PAST-d
    del obs
    assert [ref() for ref in held] == [None] * 3


def test_record_and_front_end_are_read_only():
    _, _, obs, _ = make_observations()
    cfg = TrackerConfig(rank=6, n_train=500)
    with pytest.raises(ValueError):
        obs.r[0] = 0.0
    h_lms = run_lms(obs, cfg).h_tracked
    with pytest.raises(ValueError):
        h_lms[0, 0] = 0.0
    assert_same_result(run_asrmae(obs, cfg), run_asrmae(fresh(obs), cfg))


def test_one_pastd_pass_sliced_across_ranks(monkeypatch):
    import subtrack.pipeline as pipeline

    built = []
    real = pipeline.PastdTracker
    monkeypatch.setattr(pipeline, "PastdTracker",
                        lambda basis, *a, **kw: built.append(basis.shape[1])
                        or real(basis, *a, **kw))
    _, _, obs, _ = make_observations(preset="rough")
    # 4 builds a pass, 2 and 3 slice it, 6 needs a wider one, 5 slices that.
    cfgs = [TrackerConfig(rank=r, n_train=500) for r in (4, 2, 6, 3, 5)]
    alone = [run_dfb_asrmae(fresh(obs), cfg) for cfg in cfgs]
    built.clear()
    shared = [run_dfb_asrmae(obs, cfg) for cfg in cfgs]
    assert built == [4, 6]
    for a, b in zip(alone, shared):
        assert_same_result(a, b)


@pytest.mark.parametrize("dynamic_phi", [False, True])
def test_backward_pass_inverts_each_distinct_model_once(monkeypatch, dynamic_phi):
    import subtrack.pipeline as pipeline

    inverted = []
    real = pipeline.backward_model
    monkeypatch.setattr(pipeline, "backward_model",
                        lambda model: inverted.append(model) or real(model))
    _, _, obs, _ = make_observations(preset="rough")
    cfg = TrackerConfig(rank=6, n_train=500, dynamic_phi=dynamic_phi)
    run_dfb_asrmae(obs, cfg)
    assert len({id(m) for m in inverted}) == len(inverted)
    assert not any(np.array_equal(a.phi, b.phi) for a, b in zip(inverted, inverted[1:]))
    if not dynamic_phi:
        assert len(inverted) == 1


def test_eigen_spectrum_is_the_coarse_fit_covariance_spectrum():
    from subtrack.coarse_est import fit_coarse_model, lms_track
    from subtrack.metrics import eigenvalue_spectrum

    _, _, obs, _ = make_observations()
    cfg = TrackerConfig(rank=6, n_train=500)
    res = run_asrmae(obs, cfg)
    coarse = fit_coarse_model(lms_track(obs.d, obs.r, cfg.mu), 500, 6, 1, cfg.mu)
    assert np.array_equal(res.eigen_spectrum, eigenvalue_spectrum(coarse.channel_cov))


def test_backward_sweep_stays_under_two_covariance_stacks():
    # Rank 12 of 16 taps: the (N, d, d) forward covariances outweigh every
    # other array the tracker allocates.
    _, _, obs, _ = make_observations(preset="rough", n_taps=16, n_steps=3000,
                                     n_train=600, r_true=12)
    cfg = TrackerConfig(rank=12, n_train=600)
    run_asrmae(obs, cfg)  # holds the record's front end
    stack = 3000 * 12 * 12 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_dfb_asrmae(obs, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * stack, peak / stack


def test_block_fusion_matches_one_shot_fusion(monkeypatch):
    import subtrack.pipeline as pipeline

    block = pipeline._FUSION_BLOCK
    for n_steps in (block - 1, block, block + 1, 2 * block + 3):
        _, _, obs, _ = make_observations(preset="rough", n_taps=8, n_steps=n_steps,
                                         n_train=100, r_true=3)
        cfg = TrackerConfig(rank=3, n_train=100)
        blocked = run_dfb_asrmae(obs, cfg)
        monkeypatch.setattr(pipeline, "_FUSION_BLOCK", n_steps)
        one_shot = run_dfb_asrmae(obs, cfg)
        monkeypatch.undo()
        assert np.array_equal(blocked.components, one_shot.components), n_steps
        assert np.array_equal(blocked.xi, one_shot.xi), n_steps
        assert np.array_equal(blocked.h_tracked, one_shot.h_tracked), n_steps
