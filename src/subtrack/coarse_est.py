"""Training-phase initialization: LMS estimate, covariance, AR-coefficient fit.

The chain runs: LMS coarse channel estimates -> time-invariant channel
covariance -> dominant-subspace projection -> one (r, p+1) table of
per-component autocorrelations at lags 0..p -> one stacked Yule-Walker fit of
that table's AR coefficients, plus two process-noise
covariance estimates (diagonal from the Yule-Walker innovations, full from the
fitted residuals).  The trackers build their transition models from these.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInputError
from .linalg_spectral import evd_hermitian, solve_yule_walker, truncate_subspace

LMS_DIVERGENCE_FACTOR = 1e6


@dataclass
class CoarseModel:
    """Everything the training phase produces for the trackers."""

    basis: np.ndarray          # (K, r) dominant-subspace basis
    eigenvalues: np.ndarray    # (K,) descending covariance eigenvalues
    autocorr: np.ndarray       # (r, p+1) component autocorrelation table
    phi: np.ndarray            # (r, p) AR coefficients, phi[i, l-1] at lag l
    noise_diag: np.ndarray     # (r, r) diagonal process-noise covariance
    noise_full: np.ndarray     # (r, r) correlated process-noise covariance


def lms_track(d: np.ndarray, r_seq: np.ndarray, mu: float):
    """Run the LMS recursion over symbol windows ``d`` and observations ``r_seq``.

    The error is ``e(n) = r(n) - h^H(n) d(n)`` and the update
    ``h(n+1) = h(n) + 2 mu conj(e(n)) d(n)``, i.e. a stochastic descent step
    on ``|e|^2`` that reduces to the plain real-signal recursion for real
    data.  The recursion starts from zero.  Returns ``(h_seq, errors)``: the
    post-update estimates, one row per step, and the a-priori errors
    ``e(n) = r(n) - h^H(n-1) d(n)`` they were updated with.
    """
    if not mu > 0:
        raise InvalidInputError(f"lms_track: mu must be positive, got {mu}")
    d = np.asarray(d, dtype=np.complex128)
    r_seq = np.asarray(r_seq, dtype=np.complex128).reshape(-1)
    n_steps, n_taps = d.shape
    if r_seq.size != n_steps:
        raise InvalidInputError(
            f"lms_track: {r_seq.size} observations for {n_steps} symbol windows")

    scale = float(np.sqrt(np.mean(np.abs(r_seq) ** 2)))
    limit = LMS_DIVERGENCE_FACTOR * max(scale, 1.0)
    two_mu = 2.0 * mu

    h = np.zeros(n_taps, dtype=np.complex128)
    out = np.empty((n_steps, n_taps), dtype=np.complex128)
    errors = np.empty(n_steps, dtype=np.complex128)
    for n in range(n_steps):
        errors[n] = e = r_seq[n] - np.vdot(h, d[n])
        h = h + two_mu * np.conj(e) * d[n]
        out[n] = h
        if not np.isfinite(e) or np.abs(h).max() > limit:
            raise DivergenceError(
                f"lms_track: estimate diverged at step {n} with mu={mu}")
    return out, errors


def estimate_channel_covariance(h_seq: np.ndarray) -> np.ndarray:
    """Time-invariant sample covariance ``(1/N) sum h(n) h^H(n)`` over N rows."""
    window = np.asarray(h_seq, dtype=np.complex128)
    if len(window) < 1:
        raise InvalidInputError("estimate_channel_covariance: no rows")
    cov = window.T @ window.conj() / len(window)
    return 0.5 * (cov + cov.conj().T)


def project_components(h_seq: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Project channel estimates onto a subspace basis: ``z(n) = Q^H h(n)``."""
    h_seq = np.asarray(h_seq, dtype=np.complex128)
    return h_seq @ np.asarray(basis).conj()


def autocorrelation_table(z_seq: np.ndarray, order: int) -> np.ndarray:
    """Per-component autocorrelations at lags 0..order over the N rows of
    ``z_seq``, as an (r, order+1) table.

    Column m is ``(1/N) sum_n z(n) conj(z(n - m))`` with the pre-start
    history treated as zero; the divisor stays the row count N at every lag.
    """
    z_seq = np.atleast_2d(np.asarray(z_seq, dtype=np.complex128))
    n_rows = z_seq.shape[0]
    if not 0 <= order < n_rows:
        raise InvalidInputError(
            f"autocorrelation_table: need 0 <= order < rows, "
            f"got order={order} for {n_rows} rows")
    return np.stack([np.sum(z_seq[m:] * z_seq[:n_rows - m].conj(), axis=0) / n_rows
                     for m in range(order + 1)], axis=1)


def estimate_process_noise_correlated(z_seq: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Full process-noise covariance from the AR-model fit residuals.

    Residuals ``eta(n) = z(n) - sum_l Phi(l) z(n-l)`` are formed for
    n = p+1..N (1-based) over the N rows of ``z_seq`` and averaged with
    divisor N; the result is symmetrized and eigenvalue-floored at
    ``1e-12 * trace`` so it stays usable as a Kalman process-noise covariance.
    """
    z_seq = np.atleast_2d(np.asarray(z_seq, dtype=np.complex128))
    phi = np.atleast_2d(np.asarray(phi, dtype=np.complex128))
    order = phi.shape[1]
    if len(z_seq) <= order:
        raise InvalidInputError(
            f"estimate_process_noise_correlated: {len(z_seq)} rows <= order {order}")
    resid = z_seq[order:].copy()
    for l in range(1, order + 1):
        resid -= phi[:, l - 1][np.newaxis, :] * z_seq[order - l:-l]
    cov = resid.T @ resid.conj() / len(z_seq)
    cov = 0.5 * (cov + cov.conj().T)
    floor = 1e-12 * float(np.trace(cov).real)
    evals, evecs = np.linalg.eigh(cov)
    evals = np.maximum(evals, floor)
    return (evecs * evals) @ evecs.conj().T


def lms_warmup_length(mu: float, n_train: int) -> int:
    """Training samples to discard while the LMS estimate is still converging.

    Roughly five adaptation time constants for unit-power inputs, capped at a
    quarter of the window so short runs keep most of their data.
    """
    return min(n_train // 4, int(round(1.25 / mu)))


def fit_coarse_model(h_lms: np.ndarray, n_train: int, rank: int, order: int,
                     mu: float) -> CoarseModel:
    """Run the training chain on the first ``n_train`` rows of the LMS
    estimates ``h_lms`` (tracked with step size ``mu``).

    The LMS convergence transient, :func:`lms_warmup_length` steps, is
    excluded from every statistic; fitting it would inflate the process-noise
    estimate with transient energy.
    """
    warmup = lms_warmup_length(mu, n_train)
    window = np.asarray(h_lms, dtype=np.complex128)[warmup:n_train]
    dec = evd_hermitian(estimate_channel_covariance(window))
    basis = truncate_subspace(dec, rank)
    z_lms = project_components(window, basis)
    table = autocorrelation_table(z_lms, order)
    phi, noise_variance = solve_yule_walker(table)
    noise_full = estimate_process_noise_correlated(z_lms, phi)
    return CoarseModel(basis=basis, eigenvalues=dec.eigenvalues,
                       autocorr=table, phi=phi,
                       noise_diag=np.diag(noise_variance).astype(np.complex128),
                       noise_full=noise_full)
