import numpy as np
import pytest
from numpy.testing import assert_allclose

from subtrack.errors import InvalidInputError, UndefinedMetricError
from subtrack.metrics import (cross_path_coherence, eigenvalue_spectrum,
                              normalized_prediction_error, normalized_spectrum)


def test_error_no_model_predictor_is_zero_db():
    r = np.array([1.0, -2.0, 0.5 + 0.5j, 3.0j])
    per, mean = normalized_prediction_error(r, r)
    # |xi|^2 / mean|r|^2 averages to exactly one on the linear scale.
    assert mean == pytest.approx(0.0, abs=1e-12)


def test_error_perfect_prediction_hits_floor():
    r = np.ones(8)
    per, mean = normalized_prediction_error(np.zeros(8), r)
    assert_allclose(per, -120.0)
    assert mean == pytest.approx(-120.0)


def test_error_decade_arithmetic():
    r = np.ones(100)
    xi = np.full(100, 0.1)  # |xi|^2 = 0.01 * E|r|^2
    per, mean = normalized_prediction_error(xi, r)
    assert_allclose(per, -20.0, atol=1e-12)
    assert mean == pytest.approx(-20.0, abs=1e-12)


def test_error_custom_floor_and_window():
    r = np.concatenate([np.full(5, 10.0), np.ones(5)])
    xi = np.concatenate([np.full(5, 10.0), np.zeros(5)])
    per, mean = normalized_prediction_error(xi, r, floor_db=-60.0, eval_start=5)
    assert per.shape == (10,)
    assert_allclose(per[5:], -60.0)
    assert mean == pytest.approx(-60.0)
    assert per[0] == pytest.approx(20.0)  # normalized by the eval window power


def test_error_rejects_zero_reference():
    with pytest.raises(UndefinedMetricError):
        normalized_prediction_error(np.ones(4), np.zeros(4))


def test_error_rejects_mismatched_lengths():
    with pytest.raises(InvalidInputError):
        normalized_prediction_error(np.ones(3), np.ones(4))


def test_coherence_unit_diagonal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    out = cross_path_coherence(x)
    assert np.all(np.diag(out.rho) == 1.0)
    assert np.all(np.abs(out.rho) <= 1 + 1e-9)


def test_coherence_duplicated_columns():
    rng = np.random.default_rng(1)
    col = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    out = cross_path_coherence(np.stack([col, col], axis=1))
    assert abs(out.rho[0, 1]) == pytest.approx(1.0)


def test_coherence_independent_columns_monte_carlo():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10_000, 3)) + 1j * rng.standard_normal((10_000, 3))
    out = cross_path_coherence(x)
    off = np.abs(out.rho[~np.eye(3, dtype=bool)])
    assert np.max(off) < 0.05


def test_coherence_zero_power_column_flagged():
    x = np.zeros((20, 2), dtype=complex)
    x[:, 0] = 1.0
    out = cross_path_coherence(x)
    assert out.defined.tolist() == [True, False]
    assert np.isnan(out.rho[0, 1])
    assert out.rho[1, 1] == 1.0  # diagonal pinned by convention


def test_coherence_of_huge_columns_does_not_overflow():
    # Each column's power is near 1e300; the product of two would overflow.
    x = 1e149 * np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0]], dtype=complex)
    out = cross_path_coherence(x)  # RuntimeWarnings are errors under pytest
    assert out.defined.tolist() == [True, True]
    assert_allclose(out.rho, [[1.0, 0.5], [0.5, 1.0]], rtol=1e-12)


def test_coherence_needs_two_samples():
    with pytest.raises(InvalidInputError):
        cross_path_coherence(np.ones((1, 3), dtype=complex))


def test_spectrum_rank_one():
    u = np.array([1.0, 2.0, -1.0])
    spec = eigenvalue_spectrum(np.outer(u, u))
    assert spec[0] == pytest.approx(1.0)
    assert np.all(np.abs(spec[1:]) < 1e-12)


def test_spectrum_identity_is_flat():
    assert_allclose(eigenvalue_spectrum(np.eye(5)), np.ones(5))


def test_spectrum_latent_generator_rank():
    from subtrack.channel_sim import SimConfig, synth_latent_channel
    cfg = SimConfig(n_taps=32, n_steps=2500, n_train=500, r_true=12, seed=3,
                    omega_q=0.0)
    traj, _ = synth_latent_channel(cfg)
    cov = traj.h.T @ traj.h.conj() / cfg.n_steps
    spec = eigenvalue_spectrum(0.5 * (cov + cov.conj().T))
    assert spec[12] < 1e-6  # noiseless low-rank channel


def test_spectrum_rejects_zero_matrix():
    with pytest.raises(UndefinedMetricError):
        eigenvalue_spectrum(np.zeros((4, 4)))


def test_normalized_spectrum_divides_by_the_largest():
    assert_allclose(normalized_spectrum(np.array([4.0, 2.0, 0.0])), [1.0, 0.5, 0.0])
    for top in (0.0, -1.0):
        with pytest.raises(UndefinedMetricError):
            normalized_spectrum(np.array([top, -2.0]))
