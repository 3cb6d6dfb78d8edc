import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from subtrack.errors import DegenerateInputError, InvalidInputError
from subtrack.linalg_spectral import (RIDGE, RIDGE_CONDITION_LIMIT, evd_hermitian,
                                      solve_yule_walker, truncate_subspace)


def random_psd(k, rng, rank=None):
    rank = rank or k
    b = rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
    return b @ b.conj().T


def test_evd_identity():
    dec = evd_hermitian(np.eye(3))
    assert_allclose(dec.eigenvalues, np.ones(3))
    assert_allclose(dec.q @ dec.q.conj().T, np.eye(3), atol=1e-12)


def test_evd_classic_2x2():
    dec = evd_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)
    want = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert_allclose(np.abs(dec.q[:, 0]), want, atol=1e-12)
    assert_allclose(np.abs(dec.q[:, 1]), want, atol=1e-12)


def test_evd_reconstruction_oracle():
    rng = np.random.default_rng(7)
    a = random_psd(16, rng)
    dec = evd_hermitian(a)
    recon = (dec.q * dec.eigenvalues) @ dec.q.conj().T
    assert np.linalg.norm(recon - 0.5 * (a + a.conj().T)) / np.linalg.norm(a) < 1e-10


def test_evd_orthonormal_and_sorted():
    rng = np.random.default_rng(3)
    dec = evd_hermitian(random_psd(12, rng))
    assert_allclose(dec.q.conj().T @ dec.q, np.eye(12), atol=1e-10)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_evd_psd_eigenvalue_floor():
    rng = np.random.default_rng(11)
    dec = evd_hermitian(random_psd(10, rng, rank=4))
    assert dec.eigenvalues.min() >= -1e-10 * dec.eigenvalues.max()


def test_evd_deterministic_phase():
    rng = np.random.default_rng(5)
    a = random_psd(8, rng)
    d1, d2 = evd_hermitian(a.copy()), evd_hermitian(a.copy())
    assert np.array_equal(d1.q, d2.q)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    anchors = d1.q[np.argmax(np.abs(d1.q), axis=0), np.arange(8)]
    assert np.all(anchors.real > 0)
    assert np.all(np.abs(anchors.imag) < 1e-12 * np.abs(anchors.real))


def test_evd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        evd_hermitian(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(InvalidInputError):
        evd_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not Hermitian


def test_truncate_full_rank_is_identity_slice():
    dec = evd_hermitian(np.diag([4.0, 3.0, 2.0]))
    assert_allclose(truncate_subspace(dec, 3), dec.q)


def test_truncate_axis_aligned():
    dec = evd_hermitian(np.diag([4.0, 1.0]))
    basis = truncate_subspace(dec, 1)
    assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-12)


def test_truncate_range_capture():
    rng = np.random.default_rng(13)
    a = random_psd(9, rng, rank=3)
    basis = truncate_subspace(evd_hermitian(a), 3)
    assert np.linalg.norm(a - basis @ (basis.conj().T @ a)) < 1e-9


def test_truncate_rank_bounds():
    dec = evd_hermitian(np.eye(4))
    for bad in (0, 5, -1):
        with pytest.raises(InvalidInputError):
            truncate_subspace(dec, bad)


def test_yule_walker_order1_closed_form():
    phi, noise = solve_yule_walker([[1.0, 0.9]])
    assert_allclose(phi, [[0.9]], atol=1e-14)
    assert_allclose(noise, [0.19], atol=1e-14)


def test_yule_walker_ar1_identity():
    phi_true = 0.95
    phi, noise = solve_yule_walker([[1.0, phi_true]])
    assert_allclose(phi, [[phi_true]], atol=1e-14)
    assert_allclose(noise, [1 - phi_true**2], atol=1e-14)


def test_yule_walker_order2_linear_solver_oracle():
    # Cramer's rule on the explicit 2x2 Toeplitz system as the oracle.
    r0, r1, r2 = 1.0, 0.8, 0.5
    det = r0 * r0 - r1 * r1
    phi1 = (r1 * r0 - r2 * r1) / det
    phi2 = (r0 * r2 - r1 * r1) / det
    phi, noise = solve_yule_walker([[r0, r1, r2]])
    assert_allclose(phi, [[phi1, phi2]], atol=1e-12)
    assert noise[0] >= 0


def test_yule_walker_exact_ar2_recovery():
    # Stationary AR(2) autocorrelation from the coefficients themselves.
    phi1, phi2 = 0.5, 0.3
    r1 = phi1 / (1 - phi2)
    r2 = phi1 * r1 + phi2
    phi, _ = solve_yule_walker([[1.0, r1, r2]])
    assert_allclose(phi, [[phi1, phi2]], atol=1e-10)


def test_yule_walker_complex_ar1():
    phi_true = 0.9 * np.exp(0.7j)
    phi, noise = solve_yule_walker([[1.0, phi_true]])
    assert_allclose(phi, [[phi_true]], atol=1e-12)
    assert_allclose(noise, [1 - abs(phi_true) ** 2], atol=1e-12)


def test_yule_walker_residual_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        phi_true = rng.uniform(-0.9, 0.9)
        acf = np.array([1.0] + [phi_true**m for m in (1, 2)])
        phi, _ = solve_yule_walker([acf])
        toep = np.array([[acf[0], np.conj(acf[1])], [acf[1], acf[0]]])
        resid = toep @ phi[0] - acf[1:3]
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(acf)


def test_yule_walker_ridge_on_singular_system():
    # Constant autocorrelation makes the Toeplitz matrix exactly singular,
    # so the fit is the solve of T + RIDGE * R(0) * I.
    phi, noise = solve_yule_walker([[1.0, 1.0, 1.0]])
    toep = np.ones((2, 2), dtype=complex)
    assert not np.linalg.cond(toep) <= RIDGE_CONDITION_LIMIT
    want = np.linalg.solve(toep + RIDGE * np.eye(2), np.ones(2, dtype=complex))
    assert np.array_equal(phi[0], want)
    assert np.all(np.isfinite(phi))
    assert noise[0] >= 0


def test_yule_walker_degenerate_power():
    with pytest.raises(DegenerateInputError):
        solve_yule_walker([[0.0, 0.5]])
    with pytest.raises(DegenerateInputError):
        solve_yule_walker([[-1.0, 0.5]])


def test_yule_walker_noise_clamped_at_zero():
    # An inconsistent sequence can push the fitted innovation negative.
    _, noise = solve_yule_walker([[1.0, 1.2]])
    assert noise[0] == 0.0


def random_autocorr_table(rng, rows, order, n=400):
    """Lag 0..order autocorrelations of ``rows`` random-walk sequences."""
    z = np.cumsum(rng.standard_normal((n, rows)) + 1j * rng.standard_normal((n, rows)),
                  axis=0)
    return np.stack([np.sum(z[m:] * z[:n - m].conj(), axis=0) / n
                     for m in range(order + 1)], axis=1)


def reference_yule_walker(acf, ridge=1e-8):
    """The per-row solve the stacked one replaced: (phi, noise, condition)."""
    order = len(acf) - 1
    col = acf[:order]
    toep = scipy.linalg.toeplitz(col, col.conj())
    condition = float(np.linalg.cond(toep))
    if not np.isfinite(condition) or condition > 1e12:
        toep = toep + ridge * acf[0].real * np.eye(order)
    phi = np.linalg.solve(toep, acf[1:])
    noise = float((acf[0] - np.dot(phi, acf[1:].conj())).real)
    return phi, max(noise, 0.0), condition


@pytest.mark.parametrize("order", [1, 2, 3])
def test_yule_walker_table_matches_row_loop(order):
    table = random_autocorr_table(np.random.default_rng(order), 6, order)
    # Constant autocorrelation: a singular Toeplitz system at p >= 2.
    table[2] = table[2, 0]
    phi, noise = solve_yule_walker(table)
    assert phi.shape == (6, order) and noise.shape == (6,)
    ridged = []
    for i, row in enumerate(table):
        row_phi, row_noise = solve_yule_walker(row[None, :])
        assert np.array_equal(phi[i], row_phi[0]) and noise[i] == row_noise[0]
        want_phi, want_noise, condition = reference_yule_walker(row)
        assert np.array_equal(phi[i], want_phi) and noise[i] == want_noise
        ridged.append(not condition <= 1e12)
    assert ridged == [order >= 2 and i == 2 for i in range(6)]
    assert np.isfinite(phi).all()


def test_yule_walker_table_names_degenerate_row():
    table = random_autocorr_table(np.random.default_rng(4), 5, 2)
    table[3, 0] = 0.0
    with pytest.raises(DegenerateInputError, match="row 3"):
        solve_yule_walker(table)


def test_yule_walker_rejects_short_table():
    # No lag beyond zero, a lone sequence, a stack of tables.
    for shape in [(4, 1), (3,), (2, 2, 3)]:
        with pytest.raises(InvalidInputError, match="table"):
            solve_yule_walker(np.ones(shape, dtype=complex))
