"""Tracking-quality metrics: prediction error, coherence, eigenvalue spectrum."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .linalg_spectral import evd_hermitian

DEFAULT_FLOOR_DB = -120.0


@dataclass
class CoherenceMatrix:
    """Normalized cross-correlation magnitudes between tap or component series.

    ``rho`` has unit diagonal; rows/columns of zero-power series are NaN off
    the diagonal and flagged False in ``defined``.
    """

    rho: np.ndarray
    kind: str
    defined: np.ndarray


def normalized_prediction_error(xi: np.ndarray, r_seq: np.ndarray,
                                floor_db: float = DEFAULT_FLOOR_DB,
                                eval_start: int = 0):
    """Per-step and mean prediction error relative to the received power.

    The reference power is the sample mean of ``|r|^2`` over the evaluation
    window ``[eval_start:]``; per-step values are
    ``10 log10(|xi(n)|^2 / ref)`` floored at ``floor_db``.  The mean is taken
    on the linear scale over the evaluation window, then converted to dB.

    Returns ``(per_step_db, mean_db)`` where ``per_step_db`` covers every
    step.
    """
    xi = np.asarray(xi, dtype=np.complex128).reshape(-1)
    r_seq = np.asarray(r_seq, dtype=np.complex128).reshape(-1)
    if xi.size != r_seq.size:
        raise InvalidInputError(
            f"normalized_prediction_error: {xi.size} errors vs {r_seq.size} observations")
    if not 0 <= eval_start < xi.size:
        raise InvalidInputError(
            f"normalized_prediction_error: eval_start {eval_start} outside [0, {xi.size})")
    ref = float(np.mean(np.abs(r_seq[eval_start:]) ** 2))
    if ref <= 0:
        raise UndefinedMetricError(
            "normalized_prediction_error: zero received power over the evaluation window")
    lin = np.abs(xi) ** 2 / ref
    lin_floor = 10.0 ** (floor_db / 10.0)
    per_step_db = 10.0 * np.log10(np.maximum(lin, lin_floor))
    mean_db = 10.0 * np.log10(max(float(np.mean(lin[eval_start:])), lin_floor))
    return per_step_db, float(mean_db)


def cross_path_coherence(series: np.ndarray, kind: str = "taps") -> CoherenceMatrix:
    """Coherence between the columns of an (N, m) time-series matrix.

    ``rho[j, k] = sum_n conj(x_j) x_k / sqrt(sum |x_j|^2 sum |x_k|^2)``;
    zero-power columns yield undefined (NaN) off-diagonal entries rather than
    0/0.
    """
    series = np.asarray(series, dtype=np.complex128)
    if series.ndim != 2 or series.shape[0] < 2:
        raise InvalidInputError(
            f"cross_path_coherence: need an (N>=2, m) series, got {series.shape}")
    power = np.sum(np.abs(series) ** 2, axis=0)
    defined = power > 0
    cross = series.conj().T @ series
    denom = np.sqrt(np.outer(power, power))
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, cross / np.where(denom > 0, denom, 1.0), np.nan)
    np.fill_diagonal(rho, 1.0)
    return CoherenceMatrix(rho=rho, kind=kind, defined=defined)


def normalized_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """Descending eigenvalues divided by the largest, which must be positive."""
    top = eigenvalues[0]
    if top <= 0:
        raise UndefinedMetricError("eigenvalue_spectrum: covariance has no positive eigenvalue")
    return eigenvalues / top


def eigenvalue_spectrum(channel_cov: np.ndarray) -> np.ndarray:
    """Eigenvalues of a covariance, descending, normalized by the largest."""
    return normalized_spectrum(evd_hermitian(channel_cov).eigenvalues)
