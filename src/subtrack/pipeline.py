"""End-to-end trackers: LMS baseline, forward-only subspace Kalman tracker,
and the dynamic forward-backward variant.

All three runners consume an :class:`~subtrack.channel_sim.ObservationSequence`
and a :class:`TrackerConfig` and return a :class:`TrackResult` of arrays; the
CLI builds every report table from them.  The forward-only tracker and the
forward-backward tracker share one engine, so disabling every enhancement
flag reproduces the baseline bit for bit.

The front end has one path: one LMS pass over the whole record, the coarse
fit of its first ``n_train`` estimates, and a PAST-d pass driven by the same
estimates.  While a record lives the runners share one LMS pass per ``mu``
(its estimates and its a-priori errors), one coarse fit per rank and order,
and one PAST-d pass for every rank and order.  The forward filter carries
each step's (r, p) AR coefficients and predicts through their companion
matrix, or at p = 1 elementwise through the (r,) coefficient vector, with the
process noise stacked and every step's measurement row ``d(n)^T Q(n)`` formed
once per run.  It checks the observations and symbol windows once before its
loop, runs the loop under ``np.errstate`` so an overflow or invalid operation
is a ``NumericError``, and checks its final state once after.  It stores each
step's filtered covariance as ``kf_update`` leaves it, Hermitian to rounding.
It keeps the coefficients in one (N, r, p) ``phis`` array,
from which :func:`~subtrack.kalman_core.backward_model` inverts the
reversed-time filter's ``(transition, noise)`` pair wherever they change.  The
backward sweep holds one block of ``_FUSION_BLOCK`` steps of its estimates and
fuses each complete block with the forward ones
(:func:`~subtrack.kalman_core.fb_fuse`), so it never holds a backward
covariance per step.
"""

import weakref
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from .channel_sim import ObservationSequence
from .coarse_est import fit_coarse_model, lms_track, lms_warmup_length
from .errors import InvalidInputError, NumericError
# fb_combine, cross_path_coherence and eigenvalue_spectrum are unused here but
# stay bound: the benchmark's tracer wraps them.
from .kalman_core import (ArTransitionModel, RecursiveAutocorr, backward_model,
                          companion, fb_combine, fb_fuse, kf_predict, kf_update,
                          predict_transition, stacked_noise)
from .metrics import (cross_path_coherence, eigenvalue_spectrum,
                      normalized_prediction_error, normalized_spectrum)
from .subspace_tracking import PastdTracker

BACKWARD_PRIOR_SCALE = 1e3
_FUSION_BLOCK = 256  # steps of backward estimates held at once
_FRONT_ENDS = weakref.WeakKeyDictionary()  # record -> {key: front-end value}


@dataclass
class TrackerConfig:
    """Shared tracker configuration.

    ``n_train`` is the training-prefix length (the CLI's ``sim.n_train``);
    ``sigma_v2`` overrides the observation-noise variance the filter assumes
    (default: take it from the simulator, else the mean power of the LMS errors
    over the last quarter of training).  The three flags select the
    enhancements of the forward-backward tracker; the baseline forces them all
    off.  ``mu`` and a set ``sigma_v2`` must be positive and finite.
    """

    order: int = 1
    rank: int = 12
    mu: float = 0.005
    beta: float = 0.998
    n_train: int = 1000
    sigma_v2: Optional[float] = None
    dynamic_phi: bool = True
    correlated_noise: bool = True
    fb_smoothing: bool = True

    def __post_init__(self):
        if self.order < 1:
            raise InvalidInputError(f"TrackerConfig: order must be >= 1, got {self.order}")
        if self.rank < 1:
            raise InvalidInputError(f"TrackerConfig: rank must be >= 1, got {self.rank}")
        if self.n_train < 1:
            raise InvalidInputError(f"TrackerConfig: n_train must be >= 1, got {self.n_train}")
        if not 0 < self.beta <= 1:
            raise InvalidInputError(f"TrackerConfig: beta must be in (0, 1], got {self.beta}")
        if not 0 < self.mu < np.inf:
            raise InvalidInputError(f"TrackerConfig: mu must be positive, got {self.mu}")
        if self.sigma_v2 is not None and not 0 < self.sigma_v2 < np.inf:
            raise InvalidInputError(
                f"TrackerConfig: sigma_v2 must be positive, got {self.sigma_v2}")


@dataclass
class TrackResult:
    """Tracked channel, its components, and the prediction-error sequence."""

    algo: str
    h_tracked: np.ndarray          # (N, K)
    xi: np.ndarray                 # (N,) prediction errors
    err_db: np.ndarray             # (N,) per-step normalized error, floored
    mean_err_db: float             # linear-scale mean over the eval window, in dB
    components: Optional[np.ndarray] = None      # (N, r) z behind h_tracked
    phi_traj: Optional[np.ndarray] = None        # (N, r) |phi_i(1)| per step
    eigen_spectrum: Optional[np.ndarray] = None  # (K,) normalized eigenvalues


def check_training(cfg: TrackerConfig, shape: tuple, subspace: bool = True) -> None:
    """Raise ``InvalidInputError`` unless a record of ``shape`` (steps, taps)
    can carry ``cfg``: ``0 < n_train < n_steps`` and, for a subspace tracker,
    a rank within the taps and more than ``order`` training rows left after
    the LMS warm-up (the coarse fit's Yule-Walker table needs them)."""
    n_steps, n_taps = shape
    if not 0 < cfg.n_train < n_steps:
        raise InvalidInputError(
            f"tracker: need 0 < n_train < n_steps, got n_train={cfg.n_train} "
            f"for {n_steps} steps")
    if not subspace:
        return
    if not 1 <= cfg.rank <= n_taps:
        raise InvalidInputError(f"tracker: rank {cfg.rank} outside [1, {n_taps}]")
    rows = cfg.n_train - lms_warmup_length(cfg.mu, cfg.n_train)
    if rows <= cfg.order:
        raise InvalidInputError(
            f"tracker: n_train={cfg.n_train} leaves {rows} rows after the LMS warm-up; "
            f"order {cfg.order} needs more")


def _filter_noise_variance(cfg: TrackerConfig, obs: ObservationSequence,
                           lms_errors: np.ndarray) -> float:
    """Observation-noise variance the filter assumes, floored positive."""
    if cfg.sigma_v2 is not None:
        value = float(cfg.sigma_v2)
    elif obs.sigma_v2 > 0:
        value = float(obs.sigma_v2)
    else:
        tail = lms_errors[3 * cfg.n_train // 4:cfg.n_train]
        value = float(np.mean(np.abs(tail) ** 2))
    floor = 1e-12 * float(np.mean(np.abs(obs.r) ** 2))
    return max(value, floor, 1e-300)


def _read_only(value):
    """Mark ``value``'s arrays, and a tuple's or a dataclass's arrays at any
    depth, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif is_dataclass(value):
        for item in fields(value):
            _read_only(getattr(value, item.name))
    return value


def _shared(obs: ObservationSequence, key: tuple, build, reuse=lambda held: True):
    """The value held under ``key`` for the record ``obs`` when ``reuse``
    accepts it, else ``build()``'s, made read-only and held until ``obs`` goes.

    Results are bit-identical to those on a fresh record, except that a rank-1
    slice of a wider PAST-d pass differs from a rank-1 pass by rounding (a
    (K, 1) basis column is contiguous, so another BLAS kernel runs).  Threads
    sharing a record may each build a value; every build gives the same one.
    """
    memo = _FRONT_ENDS.setdefault(obs, {})
    held = memo.get(key)
    if held is None or not reuse(held):
        memo[key] = held = _read_only(build())
    return held


def _lms(obs: ObservationSequence, cfg: TrackerConfig):
    """``(h_lms, errors)`` of the record's LMS pass at ``cfg.mu``."""
    return _shared(obs, ("lms", cfg.mu), lambda: lms_track(obs.d, obs.r, cfg.mu))


def _front_end(obs: ObservationSequence, cfg: TrackerConfig):
    """LMS over the whole record -> coarse model fit on its training prefix ->
    PAST-d basis sequence ``q_seq`` (N, K, r) driven by the LMS estimates;
    returns the LMS errors, the coarse fit and ``q_seq``.

    PAST-d deflates, so column i never sees a later column: the first r
    columns of a rank-R pass are the rank-r pass, and one pass serves every
    rank up to R.  It starts from the fit's basis and eigenvalues, which no
    AR order changes, so it serves every order too.  The coarse fit stays per
    rank and order (its full process-noise floor is not rank-nested).
    """
    h_lms, lms_errors = _lms(obs, cfg)
    coarse = _shared(obs, ("coarse", cfg.mu, cfg.n_train, cfg.rank, cfg.order),
                     lambda: fit_coarse_model(h_lms, cfg.n_train, cfg.rank,
                                              cfg.order, cfg.mu))

    def build_pastd():
        powers = np.maximum(coarse.eigenvalues[:cfg.rank],
                            max(1e-12 * max(coarse.eigenvalues[0], 0.0), 1e-20))
        pastd = PastdTracker(coarse.basis, powers, beta=cfg.beta)
        q_seq = np.empty(obs.d.shape + (cfg.rank,), dtype=np.complex128)
        for n in range(len(h_lms)):
            q_seq[n] = pastd.step(h_lms[n])
        return q_seq

    q_seq = _shared(obs, ("pastd", cfg.mu, cfg.n_train, cfg.beta),
                    build_pastd, reuse=lambda held: held.shape[2] >= cfg.rank)
    return lms_errors, coarse, q_seq[:, :, :cfg.rank]


def _run_subspace_tracker(obs: ObservationSequence, cfg: TrackerConfig,
                          algo: str) -> TrackResult:
    check_training(cfg, obs.d.shape)
    if not (np.isfinite(obs.r).all() and np.isfinite(obs.d).all()):
        raise NumericError("tracker: non-finite observations or symbol windows")
    n_steps = obs.d.shape[0]
    rank, order, n_train = cfg.rank, cfg.order, cfg.n_train
    dim = rank * order

    lms_errors, coarse, q_seq = _front_end(obs, cfg)
    noise_cov = coarse.noise_full if cfg.correlated_noise else coarse.noise_diag
    noise, phi = stacked_noise(noise_cov, order), coarse.phi
    # At p = 1 the transition is diagonal: kf_predict takes its (r,) vector.
    trans = phi[:, 0] if order == 1 else companion(phi)
    sigma = _filter_noise_variance(cfg, obs, lms_errors)

    rows = np.zeros((n_steps, dim), dtype=np.complex128)  # [d_z^T, 0, ..., 0]
    np.einsum("nk,nkr->nr", obs.d, q_seq, out=rows[:, :rank])
    xi_fwd = np.empty(n_steps, dtype=np.complex128)
    means_f = np.empty((n_steps, dim), dtype=np.complex128)
    phi_traj = np.empty((n_steps, rank), dtype=np.float64)
    # Only the backward pass and the fusion read these.
    covs_f = np.empty((n_steps, dim, dim), dtype=np.complex128) if cfg.fb_smoothing else None
    phis = np.empty((n_steps, rank, order), dtype=np.complex128) if cfg.fb_smoothing else None

    mean = np.zeros(dim, dtype=np.complex128)
    cov = np.eye(dim, dtype=np.complex128) * float(np.mean(coarse.autocorr[:, 0].real))
    running = RecursiveAutocorr(rank, order)

    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(n_steps):
                mean, cov, xi_fwd[n], _ = kf_update(mean, cov, rows[n], sigma, obs.r[n])
                means_f[n] = mean
                if cfg.fb_smoothing:
                    covs_f[n] = cov
                    phis[n] = phi
                mean, cov = kf_predict(mean, cov, trans, noise)
                np.abs(phi[:, 0], out=phi_traj[n])
                if cfg.dynamic_phi:
                    running.update(mean[:rank])
                    if n + 1 >= n_train:
                        phi = predict_transition(running.table, previous=phi)
                        trans = phi[:, 0] if order == 1 else companion(phi)
    except FloatingPointError as exc:
        raise NumericError(f"tracker: the forward filter failed at step {n} ({exc})") from None
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NumericError("tracker: the forward filter ended in a non-finite state")

    if cfg.fb_smoothing:
        block = min(_FUSION_BLOCK, n_steps)
        means_b = np.empty((block, dim), dtype=np.complex128)
        covs_b = np.empty((block, dim, dim), dtype=np.complex128)
        fused = np.empty((n_steps, dim), dtype=np.complex128)
        mean = np.zeros(dim, dtype=np.complex128)
        cov = BACKWARD_PRIOR_SCALE * np.eye(dim, dtype=np.complex128)
        for lo in range((n_steps - 1) // block * block, -1, -block):
            hi = min(lo + block, n_steps)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    for n in range(hi - 1, lo - 1, -1):
                        mean, cov, _, _ = kf_update(mean, cov, rows[n], sigma, obs.r[n])
                        means_b[n - lo] = mean
                        covs_b[n - lo] = cov
                        if n > 0:
                            # phis[n] holds the coefficients last inverted.
                            if n == n_steps - 1 or (phis[n - 1] != phis[n]).any():
                                reverse = backward_model(
                                    ArTransitionModel(phis[n - 1], noise_cov))
                            mean, cov = kf_predict(mean, cov, *reverse)
            except FloatingPointError as exc:
                raise NumericError(
                    f"tracker: the backward pass failed at step {n} ({exc}); "
                    f"tracker.fb_smoothing=false runs the forward filter only") from None
            fused[lo:hi] = fb_fuse(means_f[lo:hi], covs_f[lo:hi],
                                   means_b[:hi - lo], covs_b[:hi - lo])
        z_out = fused[:, :rank]
        xi_out = obs.r - np.einsum("nd,nd->n", rows, fused)
    else:
        z_out = means_f[:, :rank]
        xi_out = xi_fwd

    h_out = np.einsum("nkr,nr->nk", q_seq, z_out)
    err_db, mean_db = normalized_prediction_error(xi_out, obs.r, eval_start=n_train)
    return TrackResult(
        algo=algo, h_tracked=h_out, xi=xi_out, err_db=err_db, mean_err_db=mean_db,
        components=z_out, phi_traj=phi_traj, eigen_spectrum=normalized_spectrum(coarse.eigenvalues))


def run_asrmae(obs: ObservationSequence, cfg: TrackerConfig) -> TrackResult:
    """Forward-only subspace Kalman tracker with a fixed training-fit model."""
    return _run_subspace_tracker(
        obs, replace(cfg, dynamic_phi=False, correlated_noise=False, fb_smoothing=False),
        algo="asrmae")


def run_dfb_asrmae(obs: ObservationSequence, cfg: TrackerConfig) -> TrackResult:
    """Subspace Kalman tracker with the configured enhancements enabled.

    With all three flags on this is the full algorithm: per-step re-fit of the
    transition model from running autocorrelations of the predicted
    components, a full (correlated) process-noise covariance from the training
    residuals, and a reversed-time filter fused with the forward one; its
    prediction error is the fit residual of the fused estimate.  With all
    flags off the output is bit-identical to :func:`run_asrmae`.
    """
    return _run_subspace_tracker(obs, cfg, algo="dfb_asrmae")


def run_lms(obs: ObservationSequence, cfg: TrackerConfig) -> TrackResult:
    """Plain LMS channel tracker; its a-priori error is the prediction error."""
    check_training(cfg, obs.d.shape, subspace=False)
    h_lms, xi = _lms(obs, cfg)
    err_db, mean_db = normalized_prediction_error(xi, obs.r, eval_start=cfg.n_train)
    return TrackResult(algo="lms", h_tracked=h_lms, xi=xi, err_db=err_db,
                       mean_err_db=mean_db)


ALGORITHMS = {"lms": run_lms, "asrmae": run_asrmae, "dfb_asrmae": run_dfb_asrmae}
