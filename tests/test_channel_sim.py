import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from subtrack.channel_sim import (ChannelTrajectory, SimConfig, gen_symbols,
                                  generate_observations, latent_trajectory,
                                  noise_variance_for_snr, symbol_windows,
                                  synth_latent_channel)
from subtrack.errors import InvalidInputError


def small_cfg(**kw):
    params = dict(n_taps=16, n_steps=200, n_train=60, r_true=3, seed=0)
    params.update(kw)
    return SimConfig(**params)


def rotation_inputs(n_taps=16, r_true=3, seed=0):
    """``q0``, the simulator's own plane (orthogonal to q0) and a plane that
    meets q0's span: u = the normalised sum of q0's columns, v = the first
    QR column outside q0."""
    q_full, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n_taps, r_true + 2)))
    q0 = q_full[:, :r_true]
    u = q0.sum(axis=1) / np.linalg.norm(q0.sum(axis=1))
    return q0, q_full[:, r_true:], np.column_stack([u, q_full[:, r_true]])


def rotated(q0, plane, omega_q, n_steps, seed=1):
    phi = np.linspace(0.999, 0.99, q0.shape[1])
    return latent_trajectory(q0, plane, omega_q, phi, np.diag(1.0 - phi ** 2), n_steps,
                             np.random.default_rng(seed))


def givens_reference(q0, plane, omega_q, z):
    """Per-step Givens rotation of ``q0`` in ``plane``: returns ``h`` and the basis stack."""
    q_seq = np.empty((len(z),) + q0.shape, dtype=np.complex128)
    q_seq[0] = q0
    if plane is None or omega_q == 0.0:
        q_seq[1:] = q0
    else:
        u, v = plane[:, 0], plane[:, 1]
        c, s = np.cos(omega_q), np.sin(omega_q)
        q = q0.astype(np.complex128)
        for n in range(1, len(z)):
            pu = u.conj() @ q
            pv = v.conj() @ q
            q = q + np.outer(u, (c - 1.0) * pu - s * pv) + np.outer(v, (c - 1.0) * pv + s * pu)
            q_seq[n] = q
    return np.einsum("nkr,nr->nk", q_seq, z), q_seq


# ------------------------------------------------------------------ latent
@pytest.mark.parametrize("plane_kind,omega_q", [("own", 3e-3), ("meets_span", 3e-3),
                                                ("none", 3e-3), ("meets_span", 0.0)])
def test_latent_closed_form_matches_givens_loop(plane_kind, omega_q):
    q0, own, meets = rotation_inputs()
    plane = {"own": own, "meets_span": meets, "none": None}[plane_kind]
    traj, truth = rotated(q0, plane, omega_q, 500)
    want_h, want_q = givens_reference(q0, plane, omega_q, truth.z_true)
    tol = 1e-12 * np.max(np.abs(want_h))
    assert np.max(np.abs(traj.h - want_h)) < tol
    assert truth.q_true.shape == want_q.shape and truth.q_true.dtype == np.complex128
    assert np.max(np.abs(truth.q_true - want_q)) < tol


def test_truth_basis_is_built_only_when_read():
    cfg = SimConfig(n_taps=32, n_steps=4000, n_train=1000, r_true=8, preset="rough", seed=3)
    stack_bytes = cfg.n_steps * cfg.n_taps * cfg.r_true * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        _, truth = synth_latent_channel(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes
    assert truth.q_true.nbytes == stack_bytes
    assert truth.q_true is truth.q_true


def test_latent_frozen_dynamics():
    rng = np.random.default_rng(0)
    q0, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    traj, truth = latent_trajectory(q0, None, 0.0, np.array([1.0, 1.0]),
                                    np.zeros((2, 2)), 50, rng)
    assert np.max(np.abs(traj.h - traj.h[0])) < 1e-12
    assert np.linalg.norm(traj.h[0]) > 0


def test_latent_static_basis_rank():
    cfg = small_cfg(n_taps=24, n_steps=800, r_true=4, omega_q=0.0)
    traj, _ = synth_latent_channel(cfg)
    cov = traj.h.T @ traj.h.conj() / cfg.n_steps
    evals = np.linalg.eigvalsh(cov)[::-1]
    assert evals[4] < 1e-8 * evals[0]


def test_latent_determinism():
    cfg = small_cfg(seed=42)
    t1, g1 = synth_latent_channel(cfg)
    t2, g2 = synth_latent_channel(small_cfg(seed=42))
    assert np.array_equal(t1.h, t2.h)
    assert np.array_equal(g1.z_true, g2.z_true)
    assert np.array_equal(g1.q_true, g2.q_true)


def test_latent_projection_recovers_components():
    cfg = small_cfg(preset="calm", omega_q=5e-3)
    q0, _, meets = rotation_inputs(cfg.n_taps, cfg.r_true)
    for traj, truth in (synth_latent_channel(cfg), rotated(q0, meets, 5e-3, cfg.n_steps)):
        for n in (0, 50, 199):
            z = truth.q_true[n].conj().T @ traj.h[n]
            assert_allclose(z, truth.z_true[n], atol=1e-10)


def test_latent_basis_stays_orthonormal():
    """The simulator's own plane is orthogonal to the basis and leaves it in
    place; a plane that meets the span turns it by ``n omega_q``."""
    cfg = small_cfg(n_steps=500, omega_q=2e-3)
    q0, _, meets = rotation_inputs(cfg.n_taps, cfg.r_true)
    own = synth_latent_channel(cfg)[1]
    turned = rotated(q0, meets, 2e-3, cfg.n_steps)[1]
    for truth, turn_per_step in ((own, 0.0), (turned, 2e-3)):
        last = truth.q_true[-1]
        assert_allclose(last.conj().T @ last, np.eye(cfg.r_true), atol=1e-10)
        for n in (1, 200, 499):
            angle = scipy.linalg.subspace_angles(truth.q_true[0], truth.q_true[n]).max()
            assert abs(angle - n * turn_per_step) < 1e-9


def test_latent_rejects_bad_rank():
    with pytest.raises(InvalidInputError):
        small_cfg(r_true=20, n_taps=16)


def test_preset_parameters():
    calm = SimConfig(preset="calm")
    rough = SimConfig(preset="rough")
    assert calm.variation() == {"omega_q": 2e-4, "phi_drift": 0.0}
    assert rough.variation() == {"omega_q": 2e-3, "phi_drift": 0.05}
    assert SimConfig() == calm


def test_explicit_variation_values_beat_the_preset():
    cfg = SimConfig(preset="rough", omega_q=0.0)
    assert cfg.variation() == {"omega_q": 0.0, "phi_drift": 0.05}
    cfg = SimConfig(preset="calm", phi_drift=0.02)
    assert cfg.variation() == {"omega_q": 2e-4, "phi_drift": 0.02}
    cfg = dataclasses.replace(SimConfig(omega_q=0.0), preset="rough")
    assert cfg.variation() == {"omega_q": 0.0, "phi_drift": 0.05}


def test_rough_preset_drifts_phi():
    cfg = SimConfig(preset="rough", n_taps=16, n_steps=400, n_train=100,
                    r_true=3, seed=1)
    _, truth = synth_latent_channel(cfg)
    drop = truth.phi_true[0].real - truth.phi_true[-1].real
    assert_allclose(drop, 0.05, atol=1e-12)


def test_replaced_preset_simulates_its_own_regime():
    kw = dict(n_taps=16, n_steps=400, n_train=100, r_true=3, seed=1)
    replaced = dataclasses.replace(SimConfig(**kw), preset="rough")
    traj, truth = synth_latent_channel(replaced)
    want_traj, want_truth = synth_latent_channel(SimConfig(preset="rough", **kw))
    assert np.array_equal(traj.h, want_traj.h)
    assert np.array_equal(truth.phi_true, want_truth.phi_true)


# ----------------------------------------------------------------- symbols
def test_symbols_unit_magnitude():
    sym = gen_symbols(512, seed=3)
    assert_allclose(np.abs(sym), 1.0, atol=1e-12)


def test_symbols_zero_mean_monte_carlo():
    sym = gen_symbols(100_000, seed=4)
    assert abs(sym.mean()) < 0.02  # 3/sqrt(N) bound with margin


def test_symbols_deterministic():
    assert np.array_equal(gen_symbols(64, seed=9), gen_symbols(64, seed=9))


def test_symbols_validates_length():
    with pytest.raises(InvalidInputError):
        gen_symbols(0)


# ------------------------------------------------------------ observations
def test_observations_noiseless_scalar():
    traj = ChannelTrajectory(h=np.full((20, 1), 0.3 - 0.1j))
    obs = generate_observations(traj, np.ones(20), 0.0, seed=0)
    assert_allclose(obs.r, 0.3 - 0.1j, atol=1e-14)


def test_observations_dot_product_oracle():
    cfg = small_cfg(n_steps=64)
    traj, _ = synth_latent_channel(cfg)
    symbols = gen_symbols(cfg.n_steps, seed=5)
    obs = generate_observations(traj, symbols, 0.0, seed=6)
    padded = np.concatenate([np.zeros(cfg.n_taps - 1, complex), symbols])
    for n in range(cfg.n_steps):
        window = padded[n:n + cfg.n_taps][::-1]  # newest first
        want = sum(window[k] * traj.h[n, k] for k in range(cfg.n_taps))
        assert_allclose(obs.r[n], want, atol=1e-12)


def test_observations_noise_variance_monte_carlo():
    traj = ChannelTrajectory(h=np.zeros((100_000, 2)))
    obs = generate_observations(traj, gen_symbols(100_000, seed=7), 1.0, seed=8)
    assert abs(np.mean(np.abs(obs.r) ** 2) - 1.0) < 0.03


def test_observations_reject_negative_variance():
    traj, _ = synth_latent_channel(small_cfg())
    with pytest.raises(InvalidInputError):
        generate_observations(traj, gen_symbols(200, seed=1), -0.1)


def test_symbol_windows_layout():
    windows = symbol_windows(np.array([1.0, 2.0, 3.0]), 2)
    assert_allclose(windows, [[1, 0], [2, 1], [3, 2]])


@pytest.mark.parametrize("n_steps,n_taps", [(1, 1), (3, 2), (2, 5), (7, 7), (100, 1),
                                            (5000, 64), (14000, 20)])
def test_symbol_windows_equal_scipy_toeplitz(n_steps, n_taps):
    symbols = gen_symbols(n_steps, seed=n_steps + n_taps)
    want = scipy.linalg.toeplitz(symbols, np.zeros(n_taps, dtype=np.complex128))
    got = symbol_windows(symbols, n_taps)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.flags.owndata and got.flags.writeable


def test_symbol_windows_integer_input_is_complex():
    symbols = np.array([3, -1, 2, 5])
    got = symbol_windows(symbols, 6)
    want = scipy.linalg.toeplitz(symbols.astype(np.complex128),
                                 np.zeros(6, dtype=np.complex128))
    assert got.dtype == np.complex128
    assert got.tobytes() == want.tobytes()


def test_noise_variance_for_snr():
    traj = ChannelTrajectory(h=np.ones((10, 4)))
    assert_allclose(noise_variance_for_snr(traj, 10.0), 0.4)
    # 4 * 10^308 is not a float: the variance overflows, so it is refused.
    with pytest.raises(InvalidInputError, match="not a finite"):
        noise_variance_for_snr(traj, -3080.0)
    # 4 * 10^305 is, but ten steps of it times the headroom of 100 are not.
    with pytest.raises(InvalidInputError, match="10-step record"):
        noise_variance_for_snr(traj, -3050.0)
    assert_allclose(noise_variance_for_snr(traj, -3030.0), 4e303)
