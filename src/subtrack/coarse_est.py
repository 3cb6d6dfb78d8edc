"""Training-phase initialization: LMS estimate, covariance, AR-model fit.

The chain runs: LMS coarse channel estimates -> time-invariant channel
covariance -> dominant-subspace projection -> per-component autocorrelations
-> Yule-Walker fit of the transition model, plus two process-noise covariance
estimates (diagonal from the Yule-Walker innovations, full from the fitted
residuals).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInputError
from .kalman_core import ArTransitionModel
from .linalg_spectral import evd_hermitian, solve_yule_walker, truncate_subspace

LMS_DIVERGENCE_FACTOR = 1e6


@dataclass
class CoarseModel:
    """Everything the training phase produces for the trackers."""

    channel_cov: np.ndarray    # (K, K) Hermitian sample covariance
    basis: np.ndarray          # (K, r) dominant-subspace basis
    eigenvalues: np.ndarray    # (K,) descending covariance eigenvalues
    autocorr: np.ndarray       # (r, p+1) component autocorrelation table
    model: ArTransitionModel   # transition model with diagonal noise
    noise_diag: np.ndarray     # (r, r) diagonal process-noise covariance
    noise_full: np.ndarray     # (r, r) correlated process-noise covariance


def lms_track(d: np.ndarray, r_seq: np.ndarray, mu: float) -> np.ndarray:
    """Run the LMS recursion over symbol windows ``d`` and observations ``r_seq``.

    The error is ``e(n) = r(n) - h^H(n) d(n)`` and the update
    ``h(n+1) = h(n) + 2 mu conj(e(n)) d(n)``, i.e. a stochastic descent step
    on ``|e|^2`` that reduces to the plain real-signal recursion for real
    data.  The recursion starts from zero.  Returns the post-update estimate
    sequence, one row per step.
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
    for n in range(n_steps):
        e = r_seq[n] - np.vdot(h, d[n])
        h = h + two_mu * np.conj(e) * d[n]
        out[n] = h
        if not np.isfinite(e) or np.abs(h).max() > limit:
            raise DivergenceError(
                f"lms_track: estimate diverged at step {n} with mu={mu}")
    return out


def lms_residuals(d: np.ndarray, r_seq: np.ndarray, h_seq: np.ndarray) -> np.ndarray:
    """A-priori errors ``e(n) = r(n) - h^H(n-1) d(n)`` for a sequence tracked
    from ``h(-1) = 0``."""
    d = np.asarray(d, dtype=np.complex128)
    prev = np.empty_like(h_seq)
    prev[0] = 0.0
    prev[1:] = h_seq[:-1]
    return np.asarray(r_seq).reshape(-1) - np.einsum("nk,nk->n", prev.conj(), d)


def estimate_channel_covariance(h_seq: np.ndarray, n_train: int) -> np.ndarray:
    """Time-invariant sample covariance ``(1/N) sum h(n) h^H(n)``."""
    if n_train < 1:
        raise InvalidInputError(f"estimate_channel_covariance: n_train {n_train} < 1")
    window = np.asarray(h_seq, dtype=np.complex128)[:n_train]
    cov = window.T @ window.conj() / n_train
    return 0.5 * (cov + cov.conj().T)


def project_components(h_seq: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Project channel estimates onto a subspace basis: ``z(n) = Q^H h(n)``."""
    h_seq = np.asarray(h_seq, dtype=np.complex128)
    return h_seq @ np.asarray(basis).conj()


def estimate_component_autocorrelation(z_seq: np.ndarray, lag: int,
                                       n_train: int) -> np.ndarray:
    """Per-component lag-``lag`` autocorrelation over the training window.

    ``(1/N) sum_n z(n) conj(z(n - lag))`` with the pre-start history treated
    as zero; the divisor stays ``n_train`` regardless of the lag.
    """
    z_seq = np.atleast_2d(np.asarray(z_seq, dtype=np.complex128))
    if not 0 <= lag < n_train:
        raise InvalidInputError(
            f"estimate_component_autocorrelation: need 0 <= lag < n_train, "
            f"got lag={lag}, n_train={n_train}")
    window = z_seq[:n_train]
    if lag == 0:
        return np.sum(window * window.conj(), axis=0) / n_train
    return np.sum(window[lag:] * window[:-lag].conj(), axis=0) / n_train


def autocorrelation_table(z_seq: np.ndarray, order: int, n_train: int) -> np.ndarray:
    """Stack lags 0..order into an (r, order+1) table."""
    cols = [estimate_component_autocorrelation(z_seq, m, n_train)
            for m in range(order + 1)]
    return np.stack(cols, axis=1)


def build_initial_model(autocorr: np.ndarray, order: int, rank: int):
    """Fit every component's AR model in one stacked Yule-Walker solve and
    assemble the stacked transition model.

    Returns ``(model, noise_diag)``: the companion-form transition model whose
    process noise is the diagonal matrix of fitted innovation variances, and
    that diagonal matrix itself.
    """
    autocorr = np.asarray(autocorr, dtype=np.complex128)
    if autocorr.shape != (rank, order + 1):
        raise InvalidInputError(
            f"build_initial_model: table shape {autocorr.shape} != ({rank}, {order + 1})")
    sol = solve_yule_walker(autocorr, order)
    noise_diag = np.diag(sol.noise_variance).astype(np.complex128)
    model = ArTransitionModel(phi=sol.phi, noise_cov=noise_diag)
    return model, noise_diag


def estimate_process_noise_correlated(z_seq: np.ndarray, phi: np.ndarray,
                                      n_train: int) -> np.ndarray:
    """Full process-noise covariance from the AR-model fit residuals.

    Residuals ``eta(n) = z(n) - sum_l Phi(l) z(n-l)`` are formed for
    n = p+1..n_train (1-based) and averaged with divisor ``n_train``; the
    result is symmetrized and eigenvalue-floored at ``1e-12 * trace`` so it
    stays usable as a Kalman process-noise covariance.
    """
    z_seq = np.atleast_2d(np.asarray(z_seq, dtype=np.complex128))[:n_train]
    phi = np.atleast_2d(np.asarray(phi, dtype=np.complex128))
    rank, order = phi.shape
    if n_train <= order:
        raise InvalidInputError(
            f"estimate_process_noise_correlated: n_train {n_train} <= order {order}")
    resid = z_seq[order:].copy()
    for l in range(1, order + 1):
        resid -= phi[:, l - 1][np.newaxis, :] * z_seq[order - l:n_train - l]
    cov = resid.T @ resid.conj() / n_train
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
    n_window = n_train - warmup
    cov = estimate_channel_covariance(window, n_window)
    dec = evd_hermitian(cov)
    basis = truncate_subspace(dec, rank)
    z_lms = project_components(window, basis)
    table = autocorrelation_table(z_lms, order, n_window)
    model, noise_diag = build_initial_model(table, order, rank)
    noise_full = estimate_process_noise_correlated(z_lms, model.phi, n_window)
    return CoarseModel(channel_cov=cov, basis=basis, eigenvalues=dec.eigenvalues,
                       autocorr=table, model=model, noise_diag=noise_diag,
                       noise_full=noise_full)
