"""Dense Hermitian eigendecompositions and Yule-Walker solves.

The numerical substrate for the rest of the package: covariance
eigendecomposition with a deterministic eigenvector phase convention,
dominant-subspace truncation, and the stacked Hermitian Toeplitz solves that
fit autoregressive coefficients to autocorrelation sequences, all rows of a
table at once.

A subspace basis is represented throughout the package as a plain complex
ndarray of shape (K, r) with orthonormal columns.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

# Condition estimate beyond which a Toeplitz system gets the ridge RIDGE * R(0) * I.
RIDGE_CONDITION_LIMIT = 1e12
RIDGE = 1e-8


@dataclass
class EigenDecomposition:
    """Spectral decomposition R = Q diag(eigenvalues) Q^H.

    Eigenvalues are real and sorted descending; eigenvector columns carry a
    deterministic phase (largest-magnitude entry real positive).
    """

    q: np.ndarray            # (K, K) complex, orthonormal columns
    eigenvalues: np.ndarray  # (K,) real, descending


@dataclass
class YuleWalkerSolution:
    """AR(p) coefficients fitted to one autocorrelation sequence, or to each
    row of a table.

    ``phi[..., l-1]`` is the lag-l coefficient; ``noise_variance`` is the
    fitted innovation variance (clamped at zero); ``condition_estimate`` is the
    condition number of the Toeplitz system before any ridge was applied.  For
    a table the two are (m,) arrays, one entry per row.
    """

    phi: np.ndarray
    noise_variance: Union[float, np.ndarray]
    condition_estimate: Union[float, np.ndarray]


def evd_hermitian(r_mat: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix with descending, phase-fixed output.

    The input is symmetrized as (R + R^H)/2 before decomposition; it must be
    Hermitian within 1e-8 to begin with.  Each eigenvector is rotated so its
    largest-magnitude entry is real positive, which makes repeated calls on
    equal inputs bit-identical.
    """
    r_mat = np.asarray(r_mat, dtype=np.complex128)
    if r_mat.ndim != 2 or r_mat.shape[0] != r_mat.shape[1]:
        raise InvalidInputError(f"evd_hermitian: expected square matrix, got {r_mat.shape}")
    if not np.isfinite(r_mat).all():
        raise InvalidInputError("evd_hermitian: non-finite entries in input")
    scale = max(1.0, float(np.max(np.abs(r_mat))))
    if np.max(np.abs(r_mat - r_mat.conj().T)) > 1e-8 * scale:
        raise InvalidInputError("evd_hermitian: input is not Hermitian within 1e-8")

    sym = 0.5 * (r_mat + r_mat.conj().T)
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1]
    evals = evals[order].astype(np.float64)
    evecs = evecs[:, order]

    # Phase convention: largest-magnitude entry of each column real positive.
    anchor_rows = np.argmax(np.abs(evecs), axis=0)
    anchors = evecs[anchor_rows, np.arange(evecs.shape[1])]
    mags = np.abs(anchors)
    phases = np.where(mags > 0, anchors / np.where(mags > 0, mags, 1.0), 1.0)
    evecs = evecs * phases.conj()[np.newaxis, :]
    return EigenDecomposition(q=evecs, eigenvalues=evals)


def truncate_subspace(dec: EigenDecomposition, rank: int) -> np.ndarray:
    """Return the (K, rank) basis of the dominant eigenvectors."""
    k = dec.q.shape[0]
    if not 1 <= rank <= k:
        raise InvalidInputError(f"truncate_subspace: rank {rank} outside [1, {k}]")
    return dec.q[:, :rank].copy()


def solve_yule_walker(autocorr: np.ndarray, order: int) -> YuleWalkerSolution:
    """Fit AR(``order``) coefficients to autocorrelation sequences, one per row.

    Parameters
    ----------
    autocorr : R(0), R(1), ..., R(order), complex: one sequence, or an
        (m, >= order+1) table holding one sequence per row.  Negative lags
        are taken as conjugates (Hermitian autocorrelation).
    order : AR order p >= 1.

    Solves every row's p x p Hermitian Toeplitz system linking
    autocorrelations to AR coefficients in one stacked solve, adding the
    Tikhonov ridge ``RIDGE * R(0) * I`` to each row whose condition estimate
    exceeds ``RIDGE_CONDITION_LIMIT`` (or is not finite); the innovation
    variance is ``R(0) - sum_l phi_l conj(R(l))``, clamped at zero.  A single
    sequence gives ``phi`` (p,) and float variance and condition; a table
    gives ``phi`` (m, p) and (m,) arrays, each row equal to its own 1-D solve.
    """
    autocorr = np.asarray(autocorr, dtype=np.complex128)
    single = autocorr.ndim == 1
    table = np.atleast_2d(autocorr)
    if order < 1:
        raise InvalidInputError(f"solve_yule_walker: order must be >= 1, got {order}")
    if table.ndim != 2 or table.shape[1] < order + 1:
        raise InvalidInputError(
            f"solve_yule_walker: need lags 0..{order} per row, got shape {autocorr.shape}")
    r0 = table[:, 0]
    bad = np.flatnonzero(~np.isfinite(r0) | (r0.real <= 0)
                         | (np.abs(r0.imag) > 1e-8 * np.abs(r0.real)))
    if bad.size:
        raise DegenerateInputError(
            f"solve_yule_walker: zero-lag autocorrelation must be real positive, "
            f"got {r0[bad[0]]} in row {bad[0]}")

    # Hermitian Toeplitz stack: T[i, j] = R(i - j), conj(R(j - i)) above the diagonal.
    lags = np.arange(order)
    toep = table[:, np.abs(lags[:, None] - lags[None, :])]
    upper = lags[:, None] < lags[None, :]
    toep[:, upper] = toep[:, upper].conj()
    rhs = table[:, 1:order + 1]

    condition = np.linalg.cond(toep)
    ridged = ~np.isfinite(condition) | (condition > RIDGE_CONDITION_LIMIT)
    if ridged.any():
        toep[ridged] = toep[ridged] + (RIDGE * r0[ridged].real)[:, None, None] * np.eye(order)
    phi = np.linalg.solve(toep, rhs[:, :, None])[:, :, 0]

    noise_var = np.maximum((r0 - (phi[:, None, :] @ rhs.conj()[:, :, None])[:, 0, 0]).real, 0.0)
    if single:
        return YuleWalkerSolution(phi=phi[0], noise_variance=float(noise_var[0]),
                                  condition_estimate=float(condition[0]))
    return YuleWalkerSolution(phi=phi, noise_variance=noise_var,
                              condition_estimate=condition)
