"""Kalman recursions over the stacked AR component state.

The state is the stacked vector ``Z(n) = [z(n); z(n-1); ...; z(n-p+1)]`` of
length r*p.  Its dynamics are plain arrays: (r, p) coefficients ``phi``, whose
:func:`companion` matrix is the transition, and an (r, r) process noise, which
:func:`stacked_noise` embeds in the stacked state.  This module supplies the
update/prediction steps on one ``(mean, cov)`` (the prediction symmetrises
the covariance, the update leaves it Hermitian to rounding; the pipeline's
backward pass runs them, while its forward loop does the same arithmetic on a
stack of trackers at once), the running table of lag-product sums that feeds
per-step re-fits of the coefficients (one stacked Yule-Walker solve over all
components per step, which reads the table up to scale; a table may stack
several models' components, and a model that cannot be re-fitted keeps its own
previous coefficients), the reversed-time
``(transition, noise)`` pair of a model, and the two-filter combination of
forward and backward filtered estimates, one step at a time
(:func:`fb_combine`) or batched over a stack of steps (:func:`fb_fuse`; the
pipeline fuses one block of the backward sweep per call, so each call's
singular-sum ridge covers only its own block).
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (FusionError, InvalidInputError, NumericError,
                     SingularModelError)
from .linalg_spectral import solve_yule_walker

# Magnitude assigned to re-fitted coefficients that land on or outside the
# unit circle; keeps the model stable and its companion matrix invertible.
STABILITY_CLAMP = 1.0 - 1e-6


@dataclass
class ArTransitionModel:
    """The argument of :func:`backward_model`: ``phi[i, l-1]`` is component i's
    lag-l coefficient, ``noise_cov`` the (r, r) innovation covariance."""

    phi: np.ndarray
    noise_cov: np.ndarray


def companion(phi: np.ndarray) -> np.ndarray:
    """The (rp, rp) transition matrix of (r, p) coefficients ``phi``: per-lag
    diagonal blocks in its first block row, a one-lag shift below."""
    if phi.ndim != 2 or phi.shape[1] < 1:
        raise InvalidInputError(f"companion: need (r, p) coefficients, p >= 1, got {phi.shape}")
    rank, order = phi.shape
    dim = rank * order
    trans = np.zeros((dim, dim), dtype=np.complex128)
    # First block row, seen as (i, l, j): lag l's coefficients at j == i.
    diag = np.arange(rank)
    trans[:rank].reshape(rank, order, rank)[diag, :, diag] = phi
    if order > 1:
        sub = np.arange(dim - rank)
        trans[rank + sub, sub] = 1.0
    return trans


def stacked_noise(noise_cov: np.ndarray, order: int) -> np.ndarray:
    """The (rp, rp) process noise of the stacked state: the (r, r)
    ``noise_cov`` in the top-left block, zero elsewhere."""
    if noise_cov.ndim != 2 or noise_cov.shape[0] != noise_cov.shape[1] or order < 1:
        raise InvalidInputError(f"stacked_noise: got noise {noise_cov.shape}, order {order}")
    rank = noise_cov.shape[0]
    noise = np.zeros((rank * order, rank * order), dtype=np.complex128)
    noise[:rank, :rank] = noise_cov
    return noise


def kf_update(mean: np.ndarray, cov: np.ndarray, row: np.ndarray, noise_var: float,
              r_n: complex):
    """Measurement update of a predicted state with one scalar observation
    ``r_n = row @ Z + v``, ``E|v|^2 = noise_var``.

    Returns the filtered ``(mean, cov)``, the innovation and its variance
    ``g``.  The covariance update is ``cov - u u^H`` with ``u = K D^H /
    sqrt(g)``.  It is not symmetrised: the product is Hermitian to rounding
    only, and the :func:`kf_predict` that follows symmetrises.  Only those two
    scalars are checked for finiteness, before the gain is
    formed: a non-finite entry of ``mean``, ``cov``, ``row`` or ``r_n`` makes
    one of them non-finite (NaN or inf times zero is NaN), and raises
    ``NumericError``.  An inf times zero is also an invalid operation, which
    numpy's ``errstate`` decides how to report; the pipeline raises it.
    """
    if not noise_var > 0:
        raise InvalidInputError(f"kf_update: noise_var must be positive, got {noise_var}")

    cov_dh = cov @ row.conj()                  # K D^H
    g = max(float((row @ cov_dh).real), 0.0) + noise_var
    innovation = complex(r_n - row @ mean)
    if not (math.isfinite(g) and cmath.isfinite(innovation)):
        raise NumericError("kalman_core.kf_update: non-finite input")
    mean = mean + cov_dh * (innovation / g)
    # (K D^H)(K D^H)^H / g as u u^H, u scaled first so that a huge covariance
    # cannot overflow the outer product.
    u = cov_dh / math.sqrt(g)
    cov = cov - u[:, np.newaxis] * u.conj()
    return mean, cov, innovation, g


def kf_predict(mean: np.ndarray, cov: np.ndarray, trans: np.ndarray,
               noise: np.ndarray):
    """Propagate a filtered ``(mean, cov)`` one step through the transition
    ``trans`` with stacked process noise ``noise``: the :func:`companion` of
    the coefficients and the :func:`stacked_noise`, or the pair
    :func:`backward_model` returns.  A 1-D ``trans`` is a diagonal transition,
    such as the (r,) coefficients ``phi[:, 0]`` of a p = 1 model, applied
    elementwise.  The predicted covariance is symmetrised.
    """
    if trans.ndim == 1:
        mean = trans * mean
        cov = trans[:, np.newaxis] * trans.conj() * cov + noise
    else:
        mean = trans @ mean
        cov = trans @ cov @ trans.conj().T + noise
    cov = 0.5 * (cov + cov.conj().T)
    return mean, cov


class RecursiveAutocorr:
    """Running per-component lag-product sums over predicted components.

    After ``count`` updates the (rank, order+1) table holds the sums
    ``sum_n z(n) conj(z(n-m))`` with zero pre-start history, for lags
    m = 0..order; ``table / count`` is the batch-average autocorrelation.
    :func:`predict_transition` reads the table up to scale, so it takes the
    sums as they are.
    """

    def __init__(self, rank: int, order: int):
        self.rank = rank
        self.order = order
        self.table = np.zeros((rank, order + 1), dtype=np.complex128)
        self.count = 0
        # Row m holds z(n-m) once the newest vector is in row 0.
        self._lagged = np.zeros((order + 1, rank), dtype=np.complex128)

    def update(self, z_new: np.ndarray) -> np.ndarray:
        """Fold one component vector into the running sums."""
        z_new = np.asarray(z_new, dtype=np.complex128).reshape(-1)
        if z_new.size != self.rank:
            raise InvalidInputError(
                f"RecursiveAutocorr: got {z_new.size} components, expected {self.rank}")
        lagged = self._lagged
        lagged[1:] = lagged[:-1]
        lagged[0] = z_new
        self.table += z_new[:, np.newaxis] * lagged.conj().T
        self.count += 1
        return self.table


def predict_transition(table: np.ndarray, previous: Optional[np.ndarray] = None,
                       members: int = 1) -> np.ndarray:
    """Re-fit the (r, p) transition coefficients from a (possibly running)
    (r, p+1) autocorrelation table; its shape gives the rank r and the order p.
    The table is read up to a positive scale per row, so the running sums of
    :class:`RecursiveAutocorr` serve as well as their average.

    At p = 1 each coefficient is R(1)/R(0); at p >= 2 every component's
    coefficients come from one stacked Yule-Walker solve of the table
    (:func:`~subtrack.linalg_spectral.solve_yule_walker`, which reads p from
    the same width).  Coefficients on or outside the unit circle are radially
    projected to magnitude ``1 - 1e-6`` with their phase preserved.

    The table's rows fall into ``members`` equal blocks, one per member of a
    stack of models.  A member with any nonpositive zero-lag power keeps its
    rows of the ``previous`` coefficients; when every member does,
    ``previous`` itself is returned.
    """
    table = np.asarray(table, dtype=np.complex128)
    if table.ndim != 2 or table.shape[1] < 2:
        raise InvalidInputError(
            f"predict_transition: need an (r, p+1) table with p >= 1, got {table.shape}")
    if members < 1 or table.shape[0] % members:
        raise InvalidInputError(
            f"predict_transition: {table.shape[0]} rows do not split into {members} members")
    order = table.shape[1] - 1
    power = table[:, 0]
    degenerate = (power.real <= 0) | ~np.isfinite(power)
    if degenerate.any():
        if previous is None:
            raise InvalidInputError(
                "predict_transition: degenerate zero-lag autocorrelation and no fallback")
        degenerate = np.repeat(degenerate.reshape(members, -1).any(axis=1),
                               table.shape[0] // members)
        if degenerate.all():
            return previous
        phi = np.array(previous, dtype=np.complex128)
        phi[~degenerate] = predict_transition(table[~degenerate])
        return phi

    if order == 1:
        phi = (table[:, 1] / table[:, 0].real)[:, np.newaxis]
    else:
        phi = solve_yule_walker(table)[0]
    mags = np.abs(phi)
    unstable = mags >= 1.0
    if unstable.any():
        phi = np.where(unstable, phi * (STABILITY_CLAMP / np.where(unstable, mags, 1.0)), phi)
    return phi


def backward_model(model: ArTransitionModel):
    """Invert a transition model for reversed-time filtering.

    Returns ``(trans, noise)``: the inverse of the companion matrix and the
    stacked forward noise mapped through it, symmetrized.  Requires the
    companion matrix to be invertible, i.e. no component's highest-lag
    coefficient may vanish.
    """
    phi, noise_cov = model.phi, model.noise_cov
    if phi.ndim != 2 or phi.shape[1] < 1 or noise_cov.shape != (phi.shape[0],) * 2:
        raise InvalidInputError(
            f"backward_model: need (r, p) coefficients and an (r, r) noise_cov, got "
            f"{phi.shape} and {noise_cov.shape}")
    order = phi.shape[1]
    bad = np.flatnonzero(np.abs(phi[:, -1]) <= 1e-12)
    if bad.size:
        raise SingularModelError(
            f"backward_model: lag-{order} coefficient of component {bad[0]} is "
            f"zero; transition not invertible")
    if order == 1:
        inv_phi = 1.0 / phi[:, 0]
        trans = np.diag(inv_phi)
        noise = noise_cov * np.outer(inv_phi, inv_phi.conj())
    else:
        trans = np.linalg.inv(companion(phi))
        noise = trans @ stacked_noise(noise_cov, order) @ trans.conj().T
    return trans, 0.5 * (noise + noise.conj().T)


def _hermitian_inverse_apply(cov: np.ndarray, targets: list) -> Optional[list]:
    """Solve ``cov @ X = target`` for each target, with ``cov`` Hermitian (or a stack
    of them), ridging once by ``1e-12 * trace`` of each matrix if singular."""
    for attempt in range(2):
        try:
            solved = [np.linalg.solve(cov, t) for t in targets]
        except np.linalg.LinAlgError:
            solved = None
        if solved is not None and all(np.isfinite(s).all() for s in solved):
            return solved
        ridge = 1e-12 * np.trace(cov, axis1=-2, axis2=-1).real
        if attempt == 0 and (ridge > 0).all():
            cov = cov + ridge[..., None, None] * np.eye(cov.shape[-1])
        else:
            return None
    return None


def fb_combine(mean_f: np.ndarray, cov_f: np.ndarray, mean_b: np.ndarray,
               cov_b: np.ndarray):
    """Combine forward and backward filtered estimates by inverse-covariance
    weighting, returning the fused ``(mean, cov)``.

    ``M = (K_f^-1 + K_b^-1)^-1`` and ``Z = M (K_f^-1 Z_f + K_b^-1 Z_b)``;
    each inverse is a Hermitian solve with a ``1e-12 * trace`` ridge retry.
    """
    eye = np.eye(mean_f.size, dtype=np.complex128)
    f_parts = _hermitian_inverse_apply(0.5 * (cov_f + cov_f.conj().T), [eye, mean_f])
    b_parts = _hermitian_inverse_apply(0.5 * (cov_b + cov_b.conj().T), [eye, mean_b])
    if f_parts is None or b_parts is None:
        sides = [name for name, part in (("forward", f_parts), ("backward", b_parts))
                 if part is None]
        raise FusionError(f"fb_combine: singular covariance on {' and '.join(sides)} side")
    info = f_parts[0] + b_parts[0]
    combined = _hermitian_inverse_apply(0.5 * (info + info.conj().T),
                                        [eye, f_parts[1] + b_parts[1]])
    if combined is None:
        raise FusionError("fb_combine: combined information matrix is singular")
    cov = 0.5 * (combined[0] + combined[0].conj().T)
    return combined[1], cov


def fb_fuse(means_f: np.ndarray, covs_f: np.ndarray, means_b: np.ndarray,
            covs_b: np.ndarray) -> np.ndarray:
    """Fused means of ``(N, d)`` forward/backward filtered means and their
    ``(N, d, d)`` covariances, in one solve: ``Z = Z_f + K_f (K_f + K_b)^-1
    (Z_b - Z_f)``, the mean of :func:`fb_combine` without its covariance.  The
    covariances must be Hermitian to rounding, as :func:`kf_update` leaves
    them; their sum is not re-symmetrised."""
    solved = _hermitian_inverse_apply(covs_f + covs_b, [(means_b - means_f)[..., None]])
    if solved is None:
        raise FusionError("fb_fuse: forward plus backward covariance is singular")
    return means_f + (covs_f @ solved[0])[..., 0]
