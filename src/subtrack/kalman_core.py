"""Kalman recursions over the stacked AR component state.

The state is the stacked vector ``Z(n) = [z(n); z(n-1); ...; z(n-p+1)]`` of
length r*p, evolving under a companion-form transition matrix whose first
block row holds the per-lag diagonal coefficient blocks.  This module supplies
the forward update/prediction steps, the running autocorrelation table that
feeds per-step re-fits of the transition model (one stacked Yule-Walker solve
over all components per step), the reversed-time ``(transition, noise)`` pair
of a model, and the two-filter combination of forward and backward filtered
estimates, one step at a time (:func:`fb_combine`) or batched over a stack of
steps (:func:`fb_fuse`; the pipeline fuses one block of the backward sweep per
call, so each call's singular-sum ridge covers only its own block).
Every kernel takes and returns plain arrays: the update, prediction and
combination kernels work on ``(mean, cov)``, and the prediction takes its
transition matrix and stacked process noise directly.
"""

from dataclasses import dataclass, field
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
    """Companion-form transition model for rank-r, order-p component dynamics.

    ``phi[i, l-1]`` is component i's lag-l coefficient.  ``noise_cov`` is the
    (r, r) innovation covariance; the stacked state sees it embedded in the
    top-left block of an otherwise zero (rp, rp) matrix, ``process_noise_star``.
    """

    phi: np.ndarray
    noise_cov: np.ndarray
    companion: np.ndarray = field(init=False, repr=False)
    process_noise_star: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=np.complex128))
        self.noise_cov = np.asarray(self.noise_cov, dtype=np.complex128)
        rank, order = self.phi.shape
        if order < 1:
            raise InvalidInputError("ArTransitionModel: order must be >= 1")
        if self.noise_cov.shape != (rank, rank):
            raise InvalidInputError(
                f"ArTransitionModel: noise_cov shape {self.noise_cov.shape} != ({rank}, {rank})")
        dim = rank * order
        companion = np.zeros((dim, dim), dtype=np.complex128)
        # First block row, seen as (i, l, j): lag l's coefficients at j == i.
        diag = np.arange(rank)
        companion[:rank].reshape(rank, order, rank)[diag, :, diag] = self.phi
        if order > 1:
            sub = np.arange(dim - rank)
            companion[rank + sub, sub] = 1.0
        self.companion = companion
        self.process_noise_star = np.zeros((dim, dim), dtype=np.complex128)
        self.process_noise_star[:rank, :rank] = self.noise_cov

    @property
    def order(self) -> int:
        return self.phi.shape[1]


def kf_update(mean: np.ndarray, cov: np.ndarray, row: np.ndarray, noise_var: float,
              r_n: complex):
    """Measurement update of a predicted state with one scalar observation
    ``r_n = row @ Z + v``, ``E|v|^2 = noise_var``.

    Returns the filtered ``(mean, cov)``, the innovation and its variance.
    """
    if not noise_var > 0:
        raise InvalidInputError(f"kf_update: noise_var must be positive, got {noise_var}")
    if not (np.isfinite(r_n) and np.isfinite(row).all()
            and np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NumericError("kalman_core.kf_update: non-finite input")

    cov_dh = cov @ row.conj()                  # K D^H
    g = max(float((row @ cov_dh).real), 0.0) + noise_var
    gain = cov_dh / g
    innovation = complex(r_n - row @ mean)
    mean = mean + gain * innovation
    cov = cov - np.outer(gain, row @ cov)
    cov = 0.5 * (cov + cov.conj().T)
    return mean, cov, innovation, g


def kf_predict(mean: np.ndarray, cov: np.ndarray, trans: np.ndarray,
               noise: np.ndarray):
    """Propagate a filtered ``(mean, cov)`` one step through the (rp, rp)
    transition matrix ``trans`` with stacked process noise ``noise``: a
    model's ``companion`` and ``process_noise_star``, or the pair
    :func:`backward_model` returns.
    """
    mean = trans @ mean
    cov = trans @ cov @ trans.conj().T + noise
    cov = 0.5 * (cov + cov.conj().T)
    return mean, cov


class RecursiveAutocorr:
    """Running per-component autocorrelation table over predicted components.

    After ``count`` updates the table equals the batch average
    ``(1/count) sum_n z(n) conj(z(n-m))`` with zero pre-start history, for
    lags m = 0..order.
    """

    def __init__(self, rank: int, order: int):
        self.rank = rank
        self.order = order
        self.table = np.zeros((rank, order + 1), dtype=np.complex128)
        self.count = 0
        self._history = np.zeros((order, rank), dtype=np.complex128)

    def update(self, z_new: np.ndarray) -> np.ndarray:
        """Fold one component vector into the running averages."""
        z_new = np.asarray(z_new, dtype=np.complex128).reshape(-1)
        if z_new.size != self.rank:
            raise InvalidInputError(
                f"RecursiveAutocorr: got {z_new.size} components, expected {self.rank}")
        lagged = np.concatenate([z_new[np.newaxis, :], self._history], axis=0)
        sample = z_new[:, np.newaxis] * lagged.conj().T
        n = self.count
        self.table = (n / (n + 1)) * self.table + sample / (n + 1)
        self.count = n + 1
        if self.order > 0:
            self._history[1:] = self._history[:-1]
            self._history[0] = z_new
        return self.table


def predict_transition(table: np.ndarray, noise_cov: np.ndarray,
                       previous: Optional[ArTransitionModel] = None) -> ArTransitionModel:
    """Re-fit the transition model from a (possibly running) (r, p+1)
    autocorrelation table; its shape gives the rank r and the order p.

    At p = 1 each coefficient is R(1)/R(0); at p >= 2 every component's
    coefficients come from one stacked Yule-Walker solve over the table's
    rows.  Coefficients on or outside the unit circle are radially projected to
    magnitude ``1 - 1e-6`` with their phase preserved.  The process noise is
    carried over unchanged (it is estimated once, on training data).  If any
    component's zero-lag power is nonpositive the ``previous`` model is
    returned as-is.
    """
    table = np.asarray(table, dtype=np.complex128)
    if table.ndim != 2 or table.shape[1] < 2:
        raise InvalidInputError(
            f"predict_transition: need an (r, p+1) table with p >= 1, got {table.shape}")
    order = table.shape[1] - 1
    power = table[:, 0]
    degenerate = (power.real <= 0) | ~np.isfinite(power)
    if degenerate.any():
        if previous is not None:
            return previous
        raise InvalidInputError(
            "predict_transition: degenerate zero-lag autocorrelation and no fallback model")

    if order == 1:
        phi = (table[:, 1] / table[:, 0].real)[:, np.newaxis]
    else:
        phi = solve_yule_walker(table, order).phi
    mags = np.abs(phi)
    unstable = mags >= 1.0
    if unstable.any():
        phi = np.where(unstable, phi * (STABILITY_CLAMP / np.where(unstable, mags, 1.0)), phi)
    return ArTransitionModel(phi=phi, noise_cov=noise_cov)


def backward_model(model: ArTransitionModel):
    """Invert a transition model for reversed-time filtering.

    Returns ``(trans, noise)``: the inverse of the companion matrix and the
    stacked forward noise mapped through it, symmetrized.  Requires the
    companion matrix to be invertible, i.e. no component's highest-lag
    coefficient may vanish.
    """
    tail = model.phi[:, -1]
    bad = np.flatnonzero(np.abs(tail) <= 1e-12)
    if bad.size:
        raise SingularModelError(
            f"backward_model: lag-{model.order} coefficient of component {bad[0]} is "
            f"zero; transition not invertible")
    if model.order == 1:
        inv_phi = 1.0 / model.phi[:, 0]
        trans = np.diag(inv_phi)
        noise = model.noise_cov * np.outer(inv_phi, inv_phi.conj())
    else:
        trans = np.linalg.inv(model.companion)
        noise = trans @ model.process_noise_star @ trans.conj().T
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
    covariances must be Hermitian; their sum is not re-symmetrised."""
    solved = _hermitian_inverse_apply(covs_f + covs_b, [(means_b - means_f)[..., None]])
    if solved is None:
        raise FusionError("fb_fuse: forward plus backward covariance is singular")
    return means_f + (covs_f @ solved[0])[..., 0]
