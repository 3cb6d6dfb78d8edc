import numpy as np
import pytest
from numpy.testing import assert_allclose

from subtrack.channel_sim import gen_symbols, symbol_windows
from subtrack.coarse_est import (autocorrelation_table,
                                 estimate_channel_covariance,
                                 estimate_process_noise_correlated,
                                 fit_coarse_model, lms_track,
                                 project_components)
from subtrack.errors import DivergenceError, InvalidInputError
from subtrack.kalman_core import companion
from subtrack.linalg_spectral import (evd_hermitian, solve_yule_walker,
                                      truncate_subspace)


def ar1_samples(phi, n, rng, power=1.0):
    noise_std = np.sqrt(power * (1 - abs(phi) ** 2) / 2.0)
    z = np.empty(n, dtype=np.complex128)
    z[0] = np.sqrt(power / 2.0) * (rng.standard_normal() + 1j * rng.standard_normal())
    for i in range(1, n):
        z[i] = phi * z[i - 1] + noise_std * (rng.standard_normal()
                                             + 1j * rng.standard_normal())
    return z


# --------------------------------------------------------------------- LMS
def test_lms_scalar_recursion_hand_values():
    d = np.ones((2, 1))
    r = np.ones(2)
    out, _ = lms_track(d, r, 0.25)
    assert_allclose(out[:, 0], [0.5, 0.75], atol=1e-14)


def test_lms_convergence_to_real_static_channel():
    # Real-valued truth: the conjugate-form error makes it the fixed point.
    rng = np.random.default_rng(2)
    k = 8
    h_true = rng.standard_normal(k)
    d = symbol_windows(gen_symbols(5000, seed=3), k)
    r = np.einsum("nk,k->n", d, h_true)
    out, _ = lms_track(d, r, 0.01)
    assert np.linalg.norm(out[-1] - h_true) / np.linalg.norm(h_true) < 1e-2


def test_lms_divergence_names_mu():
    d = symbol_windows(gen_symbols(400, seed=4), 8)
    r = np.einsum("nk->n", d)
    with pytest.raises(DivergenceError, match="mu=0.8"):
        lms_track(d, r, 0.8)


@pytest.mark.parametrize("mu", [0.0, -0.1, np.nan])
def test_lms_rejects_nonpositive_mu(mu):
    with pytest.raises(InvalidInputError, match="mu must be positive"):
        lms_track(np.ones((2, 1)), np.ones(2), mu)


def test_lms_errors_are_apriori_errors():
    _, errors = lms_track(np.ones((3, 1)), np.ones(3), 0.25)
    assert_allclose(errors, [1.0, 0.5, 0.25], atol=1e-14)
    # e(n) = r(n) - h^H(n-1) d(n) from h(-1) = 0, on a complex record.
    rng = np.random.default_rng(5)
    d = rng.standard_normal((400, 6)) + 1j * rng.standard_normal((400, 6))
    r = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    h_seq, errors = lms_track(d, r, 0.01)
    prev = np.vstack([np.zeros((1, 6)), h_seq[:-1]])
    assert_allclose(errors, r - np.einsum("nk,nk->n", prev.conj(), d), rtol=0, atol=1e-12)


# -------------------------------------------------------------- covariance
def test_covariance_constant_outer_product():
    u = np.array([1.0 + 1j, 2.0, -1j])
    seq = np.broadcast_to(u, (40, 3))
    cov = estimate_channel_covariance(seq)
    assert_allclose(cov, np.outer(u, u.conj()), atol=1e-12)
    assert np.linalg.matrix_rank(cov, tol=1e-10) == 1


def test_covariance_sign_symmetry():
    u = np.array([0.5, -1.0j])
    seq = np.array([u if n % 2 == 0 else -u for n in range(30)])
    assert_allclose(estimate_channel_covariance(seq),
                    np.outer(u, u.conj()), atol=1e-12)


def test_covariance_double_loop_oracle():
    rng = np.random.default_rng(5)
    seq = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
    cov = estimate_channel_covariance(seq)
    want = np.zeros((4, 4), dtype=complex)
    for n in range(100):
        for j in range(4):
            for k in range(4):
                want[j, k] += seq[n, j] * np.conj(seq[n, k])
    want /= 100
    assert_allclose(cov, want, atol=1e-12)


# -------------------------------------------------------------- projection
def test_projection_coordinate_columns():
    h_seq = np.arange(12, dtype=complex).reshape(3, 4)
    basis = np.eye(4)[:, :2]
    assert_allclose(project_components(h_seq, basis), h_seq[:, :2])


def test_projection_orthogonal_input():
    basis = np.eye(4)[:, :2]
    h_seq = np.array([[0, 0, 1.0, 2.0]])
    assert_allclose(project_components(h_seq, basis), [[0.0, 0.0]])


def test_projection_round_trip_in_subspace():
    rng = np.random.default_rng(6)
    basis = np.linalg.qr(rng.standard_normal((6, 3))
                         + 1j * rng.standard_normal((6, 3)))[0]
    coeffs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    h_seq = coeffs @ basis.T
    z = project_components(h_seq, basis)
    assert_allclose(z @ basis.T, h_seq, atol=1e-12)


# --------------------------------------------------------- autocorrelation
def test_autocorr_zero_lag_is_mean_power():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    got = autocorrelation_table(z, 0)[:, 0]
    assert_allclose(got.imag, 0, atol=1e-12)
    assert_allclose(got.real, np.mean(np.abs(z) ** 2, axis=0), atol=1e-12)


def test_autocorr_constant_signal():
    c = 0.7 - 0.3j
    z = np.full((2000, 1), c)
    table = autocorrelation_table(z, 3)
    assert table.shape == (1, 4)
    for m in range(4):
        assert_allclose(table[:, m], abs(c) ** 2 * (2000 - m) / 2000, atol=1e-12)


def test_autocorr_ar1_ratio_monte_carlo():
    rng = np.random.default_rng(8)
    z = ar1_samples(0.9, 10_000, rng)[:, np.newaxis]
    (r0, r1), = autocorrelation_table(z, 1)
    assert abs(r1 / r0 - 0.9) < 0.02


def test_autocorr_divisor_stays_fixed():
    z = np.ones((10, 1), dtype=complex)
    got = autocorrelation_table(z, 4)[:, 4]
    assert_allclose(got, 0.6)  # 6 terms contribute, divisor stays 10



def test_estimators_divide_by_their_rows_and_reject_too_few():
    z = np.ones((10, 1), dtype=complex)
    assert_allclose(estimate_channel_covariance(z), [[1.0]])
    assert_allclose(autocorrelation_table(z, 0), [[1.0]])
    with pytest.raises(InvalidInputError):
        estimate_channel_covariance(z[:0])
    with pytest.raises(InvalidInputError):
        autocorrelation_table(z, 10)  # lag 10 needs 11 rows

# ------------------------------------------------------------ model fitting
def initial_model(table):
    """The training fit's coefficients and its diagonal innovation noise."""
    phi, noise_variance = solve_yule_walker(table)
    return phi, np.diag(noise_variance).astype(complex)


def test_build_initial_model_order1_diagonal():
    table = np.array([[1.0, 0.9], [2.0, 1.0]], dtype=complex)
    phi, noise = initial_model(table)
    assert_allclose(companion(phi), np.diag([0.9, 0.5]), atol=1e-14)
    assert_allclose(np.diag(noise).real, [1 - 0.81, 2 - 0.5], atol=1e-12)


def test_build_initial_model_order2_companion_layout():
    phi1, phi2 = 0.5, 0.3
    r1 = phi1 / (1 - phi2)
    r2 = phi1 * r1 + phi2
    phi, _ = initial_model(np.array([[1.0, r1, r2]], dtype=complex))
    want = np.array([[phi1, phi2], [1.0, 0.0]])
    assert_allclose(companion(phi), want, atol=1e-10)


def test_companion_eigenvalues_match_polynomial_roots():
    phi1, phi2 = 0.4, 0.25
    r1 = phi1 / (1 - phi2)
    r2 = phi1 * r1 + phi2
    phi, _ = initial_model(np.array([[1.0, r1, r2]], dtype=complex))
    eigs = np.sort_complex(np.linalg.eigvals(companion(phi)))
    roots = np.sort_complex(np.roots([1.0, -phi1, -phi2]))
    assert_allclose(eigs, roots, atol=1e-10)


def test_order1_coefficient_magnitude_identity():
    rng = np.random.default_rng(9)
    z = ar1_samples(0.85, 4000, rng)[:, np.newaxis]
    table = autocorrelation_table(z, 1)
    phi, _ = initial_model(table)
    want = abs(table[0, 1]) / table[0, 0].real
    assert_allclose(abs(phi[0, 0]), want, atol=1e-14)


@pytest.mark.parametrize("order", [1, 3])
def test_coarse_fit_coefficients_are_its_table_yule_walker_fit(order):
    rng = np.random.default_rng(11)
    h = np.stack([ar1_samples(0.95, 1000, rng) for _ in range(6)], axis=1)
    coarse = fit_coarse_model(h, 1000, 3, order, 0.01)
    phi, noise_variance = solve_yule_walker(coarse.autocorr)
    assert coarse.phi.shape == (3, order)
    assert np.array_equal(coarse.phi, phi)
    assert np.array_equal(coarse.noise_diag, np.diag(noise_variance))


# ------------------------------------------------------------ process noise
def test_process_noise_zero_transition_is_sample_covariance():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    got = estimate_process_noise_correlated(z, np.zeros((2, 1)))
    want = z[1:].T @ z[1:].conj() / 500  # first step has no lag-1 history
    assert_allclose(got, 0.5 * (want + want.conj().T), atol=1e-10)


def test_process_noise_diagonal_for_independent_components():
    rng = np.random.default_rng(11)
    z = np.stack([ar1_samples(0.9, 10_000, rng),
                  ar1_samples(0.7, 10_000, rng)], axis=1)
    phi = np.array([[0.9], [0.7]], dtype=complex)
    cov = estimate_process_noise_correlated(z, phi)
    off = abs(cov[0, 1])
    assert off < 0.05 * max(cov[0, 0].real, cov[1, 1].real)


def test_process_noise_duplicated_component():
    rng = np.random.default_rng(12)
    z1 = ar1_samples(0.8, 3000, rng)
    z = np.stack([z1, z1], axis=1)
    cov = estimate_process_noise_correlated(z, np.array([[0.8], [0.8]], dtype=complex))
    assert_allclose(abs(cov[0, 1]), cov[0, 0].real, rtol=1e-6)


def test_process_noise_is_psd():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    cov = estimate_process_noise_correlated(z, np.full((3, 1), 0.5 + 0j))
    evals = np.linalg.eigvalsh(cov)
    assert evals.min() >= 0
    assert_allclose(cov, cov.conj().T, atol=1e-12)


def test_process_noise_needs_history():
    with pytest.raises(InvalidInputError):
        estimate_process_noise_correlated(np.ones((2, 1), dtype=complex),
                                          np.ones((1, 2), dtype=complex))


# ------------------------------------------------------- spectral identity
def test_component_covariance_equals_top_eigenvalues():
    rng = np.random.default_rng(14)
    h_seq = rng.standard_normal((600, 6)) + 1j * rng.standard_normal((600, 6))
    h_seq[:, 3:] *= 0.05
    cov = estimate_channel_covariance(h_seq)
    dec = evd_hermitian(cov)
    basis = truncate_subspace(dec, 3)
    z = project_components(h_seq, basis)
    zcov = z.T @ z.conj() / 600
    assert_allclose(zcov, np.diag(dec.eigenvalues[:3]), atol=1e-9)
