"""End-to-end trackers: LMS baseline, forward-only subspace Kalman tracker,
and the dynamic forward-backward variant, plus their derived metrics.

All three runners consume an :class:`~subtrack.channel_sim.ObservationSequence`
and a :class:`TrackerConfig` and return a :class:`TrackResult`.  The
forward-only tracker and the forward-backward tracker share one engine, so
disabling every enhancement flag reproduces the baseline bit for bit; within
:func:`shared_front_end` the runners share one LMS, coarse fit and PAST-d pass.
"""

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel_sim import ObservationSequence
from .coarse_est import LmsConfig, fit_coarse_model, lms_residuals, lms_track
from .errors import InvalidInputError
# fb_combine is unused here but stays bound: the benchmark's tracer wraps it.
from .kalman_core import (KalmanBelief, ObservationRow, RecursiveAutocorr,
                          backward_model, fb_combine, fb_fuse, kf_predict,
                          kf_update, predict_transition)
from .metrics import (DEFAULT_FLOOR_DB, CoherenceMatrix, cross_path_coherence,
                      eigenvalue_spectrum, normalized_prediction_error)
from .subspace_tracking import PastdTracker

BACKWARD_PRIOR_SCALE = 1e3
_SHARED = contextvars.ContextVar("subtrack_shared_front_end", default=None)


@dataclass
class TrackerConfig:
    """Shared tracker configuration.

    ``n_train`` is the training-prefix length; ``sigma_v2`` overrides the
    observation-noise variance the filter assumes (default: take it from the
    simulator, estimating from LMS residuals only when the simulator reports
    none).  The three flags select the enhancements of the forward-backward
    tracker; the baseline forces them all off.
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
    floor_db: float = DEFAULT_FLOOR_DB
    reorth_period: int = 50

    def __post_init__(self):
        if self.order < 1:
            raise InvalidInputError(f"TrackerConfig: order must be >= 1, got {self.order}")
        if self.rank < 1:
            raise InvalidInputError(f"TrackerConfig: rank must be >= 1, got {self.rank}")
        if self.n_train < 1:
            raise InvalidInputError(f"TrackerConfig: n_train must be >= 1, got {self.n_train}")
        if not 0 < self.beta <= 1:
            raise InvalidInputError(f"TrackerConfig: beta must be in (0, 1], got {self.beta}")


@dataclass
class TrackResult:
    """Tracked channel, prediction-error sequence, and derived diagnostics."""

    algo: str
    h_tracked: np.ndarray          # (N, K)
    xi: np.ndarray                 # (N,) prediction errors
    err_db: np.ndarray             # (N,) per-step normalized error, floored
    mean_err_db: float             # linear-scale mean over the eval window, in dB
    rank: int
    order: int
    n_train: int
    phi_traj: Optional[np.ndarray] = None        # (N, r) |phi_i(1)| per step
    noise_cov: Optional[np.ndarray] = None       # (r, r) process noise used
    eigen_spectrum: Optional[np.ndarray] = None  # (K,) normalized eigenvalues
    coherence_taps: Optional[CoherenceMatrix] = None
    coherence_components: Optional[CoherenceMatrix] = None


def _filter_noise_variance(cfg: TrackerConfig, obs: ObservationSequence,
                           h_lms: np.ndarray) -> float:
    """Observation-noise variance the filter assumes, floored positive."""
    if cfg.sigma_v2 is not None:
        value = float(cfg.sigma_v2)
    elif obs.sigma_v2 > 0:
        value = float(obs.sigma_v2)
    else:
        n_train = cfg.n_train
        resid = lms_residuals(obs.d[:n_train], obs.r[:n_train], h_lms[:n_train])
        tail = resid[3 * n_train // 4:]
        value = float(np.mean(np.abs(tail) ** 2))
    floor = 1e-12 * float(np.mean(np.abs(obs.r) ** 2))
    return max(value, floor, 1e-300)


@contextlib.contextmanager
def shared_front_end():
    """Let the runners share LMS, the coarse fit and PAST-d on one record.

    Inside the scope each front end is built once per observation object and
    setting it depends on, with results bit-identical to separate calls; the
    observations must not change meanwhile.  The memo is per thread.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(obs: ObservationSequence, key: tuple, build):
    memo = _SHARED.get()
    if memo is None:
        return build()
    key = (id(obs),) + key
    if key not in memo:  # holding obs keeps its id unique while the memo lives
        memo[key] = (obs, build())
    return memo[key][1]


def _lms(obs: ObservationSequence, cfg: TrackerConfig) -> np.ndarray:
    lms_cfg = LmsConfig(mu=cfg.mu, n_taps=obs.d.shape[1])
    return _shared(obs, ("lms", cfg.mu), lambda: lms_track(obs.d, obs.r, lms_cfg))


def _front_end(obs: ObservationSequence, cfg: TrackerConfig):
    """LMS over the whole record -> coarse model fit on its training prefix ->
    PAST-d basis sequence ``q_seq`` (N, K, r) driven by the LMS estimates."""
    def build():
        h_lms = _lms(obs, cfg)
        coarse = fit_coarse_model(obs.d, obs.r, cfg.n_train, cfg.rank, cfg.order,
                                  LmsConfig(mu=cfg.mu), h_lms=h_lms)
        powers = np.maximum(coarse.eigenvalues[:cfg.rank],
                            max(1e-12 * max(coarse.eigenvalues[0], 0.0), 1e-20))
        pastd = PastdTracker(coarse.basis, powers, beta=cfg.beta,
                             reorth_period=cfg.reorth_period)
        q_seq = np.empty(obs.d.shape + (cfg.rank,), dtype=np.complex128)
        for n in range(len(h_lms)):
            q_seq[n] = pastd.step(h_lms[n])
        return h_lms, coarse, q_seq
    return _shared(obs, ("front", cfg.mu, cfg.n_train, cfg.rank, cfg.order,
                         cfg.beta, cfg.reorth_period), build)


def _run_subspace_tracker(obs: ObservationSequence, cfg: TrackerConfig, algo: str,
                          dynamic_phi: bool, correlated_noise: bool,
                          fb_smoothing: bool) -> TrackResult:
    n_steps, n_taps = obs.d.shape
    rank, order = cfg.rank, cfg.order
    if not 1 <= rank <= n_taps:
        raise InvalidInputError(f"tracker: rank {rank} outside [1, {n_taps}]")
    if not 0 < cfg.n_train < n_steps:
        raise InvalidInputError(
            f"tracker: need 0 < n_train < n_steps, got {cfg.n_train}, {n_steps}")
    n_train = cfg.n_train
    dim = rank * order

    h_lms, coarse, q_seq = _front_end(obs, cfg)
    noise_cov = coarse.noise_full if correlated_noise else coarse.noise_diag
    model = coarse.model.with_noise(noise_cov)
    sigma = _filter_noise_variance(cfg, obs, h_lms)

    rows = np.empty((n_steps, dim), dtype=np.complex128)
    xi_fwd = np.empty(n_steps, dtype=np.complex128)
    means_f = np.empty((n_steps, dim), dtype=np.complex128)
    phi_traj = np.empty((n_steps, rank), dtype=np.float64)
    # Only the backward pass and the fusion read these.
    covs_f = np.empty((n_steps, dim, dim), dtype=np.complex128) if fb_smoothing else None
    prediction_models = []

    pred = KalmanBelief(mean=np.zeros(dim, dtype=np.complex128),
                        cov=np.eye(dim, dtype=np.complex128)
                        * float(np.mean(coarse.autocorr[:, 0].real)),
                        kind="predicted")
    running = RecursiveAutocorr(rank, order)

    for n in range(n_steps):
        d_z = obs.d[n] @ q_seq[n]
        obs_row = ObservationRow.from_projected(d_z, order, sigma)
        rows[n] = obs_row.row
        upd = kf_update(pred, obs_row, obs.r[n])
        means_f[n] = upd.belief.mean
        xi_fwd[n] = upd.innovation
        pred = kf_predict(upd.belief, model)
        phi_traj[n] = np.abs(model.phi[:, 0])
        if fb_smoothing:
            covs_f[n] = upd.belief.cov
            prediction_models.append(model)
        if dynamic_phi:
            running.update(pred.mean[:rank])
            if n + 1 >= n_train:
                model = predict_transition(running.table, order, rank, noise_cov,
                                           previous=model)

    if fb_smoothing:
        means_b = np.empty((n_steps, dim), dtype=np.complex128)
        covs_b = np.empty((n_steps, dim, dim), dtype=np.complex128)
        pred_b = KalmanBelief(mean=np.zeros(dim, dtype=np.complex128),
                              cov=BACKWARD_PRIOR_SCALE * np.eye(dim, dtype=np.complex128),
                              kind="predicted")
        for n in range(n_steps - 1, -1, -1):
            upd_b = kf_update(pred_b, ObservationRow(row=rows[n], noise_var=sigma),
                              obs.r[n])
            means_b[n] = upd_b.belief.mean
            covs_b[n] = upd_b.belief.cov
            if n > 0:
                back = backward_model(prediction_models[n - 1])
                pred_b = kf_predict(upd_b.belief, back)

        fused = fb_fuse(means_f, covs_f, means_b, covs_b)
        z_out = fused[:, :rank]
        xi_out = obs.r - np.einsum("nd,nd->n", rows, fused)
    else:
        z_out = means_f[:, :rank]
        xi_out = xi_fwd

    h_out = np.einsum("nkr,nr->nk", q_seq, z_out)
    err_db, mean_db = normalized_prediction_error(xi_out, obs.r, cfg.floor_db,
                                                  eval_start=n_train)
    return TrackResult(
        algo=algo, h_tracked=h_out, xi=xi_out, err_db=err_db, mean_err_db=mean_db,
        rank=rank, order=order, n_train=n_train, phi_traj=phi_traj,
        noise_cov=noise_cov, eigen_spectrum=eigenvalue_spectrum(coarse.channel_cov),
        coherence_taps=cross_path_coherence(h_out[n_train:], kind="taps"),
        coherence_components=cross_path_coherence(z_out[n_train:], kind="components"))


def run_asrmae(obs: ObservationSequence, cfg: TrackerConfig) -> TrackResult:
    """Forward-only subspace Kalman tracker with a fixed training-fit model."""
    return _run_subspace_tracker(obs, cfg, algo="asrmae", dynamic_phi=False,
                                 correlated_noise=False, fb_smoothing=False)


def run_dfb_asrmae(obs: ObservationSequence, cfg: TrackerConfig) -> TrackResult:
    """Subspace Kalman tracker with the configured enhancements enabled.

    With all three flags on this is the full algorithm: per-step re-fit of the
    transition model from running autocorrelations of the predicted
    components, a full (correlated) process-noise covariance from the training
    residuals, and a reversed-time filter fused with the forward one; its
    prediction error is the fit residual of the fused estimate.  With all
    flags off the output is bit-identical to :func:`run_asrmae`.
    """
    return _run_subspace_tracker(obs, cfg, algo="dfb_asrmae",
                                 dynamic_phi=cfg.dynamic_phi,
                                 correlated_noise=cfg.correlated_noise,
                                 fb_smoothing=cfg.fb_smoothing)


def run_lms(obs: ObservationSequence, cfg: TrackerConfig) -> TrackResult:
    """Plain LMS channel tracker; its a-priori error is the prediction error."""
    n_steps = obs.d.shape[0]
    if not 0 < cfg.n_train < n_steps:
        raise InvalidInputError(
            f"tracker: need 0 < n_train < n_steps, got {cfg.n_train}, {n_steps}")
    h_lms = _lms(obs, cfg)
    xi = lms_residuals(obs.d, obs.r, h_lms)
    err_db, mean_db = normalized_prediction_error(xi, obs.r, cfg.floor_db,
                                                  eval_start=cfg.n_train)
    return TrackResult(
        algo="lms", h_tracked=h_lms, xi=xi, err_db=err_db, mean_err_db=mean_db,
        rank=cfg.rank, order=cfg.order, n_train=cfg.n_train,
        coherence_taps=cross_path_coherence(h_lms[cfg.n_train:], kind="taps"))


ALGORITHMS = {"lms": run_lms, "asrmae": run_asrmae, "dfb_asrmae": run_dfb_asrmae}
