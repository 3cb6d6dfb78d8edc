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
and one PAST-d pass for every rank and order.

The forward filter runs in lockstep over a stack of members: every job
announced with :func:`register_jobs` that shares a record's front end
(``mu``, ``beta``, ``n_train`` and ``order``) runs in the first such job's
call, and the others' forward outputs wait, at each job's own width, for
their own calls.  An unannounced call is a stack of one, and every member's
outputs are bit-identical to its run alone.  The loop carries each step's
(r, p) AR coefficients and predicts through their companion matrix, or at
p = 1 elementwise through the (r,) coefficient vector, with the process noise
stacked and the measurement rows ``d(n)^T Q(n)`` of the widest member formed
once per stack (a narrower member's rows are their leading columns).  It
checks the observations and symbol windows once before its loop, runs the
loop under ``np.errstate`` so an overflow or invalid operation is a
``NumericError``, and checks its final state once after.  It stores each
step's filtered covariance Hermitian to rounding, and the coefficients in one
(N, r, p) ``phis`` array, from which
:func:`~subtrack.kalman_core.backward_model` inverts the reversed-time filter's
``(transition, noise)`` pair wherever they change.  Each job runs its own
backward sweep, which holds one block of ``_FUSION_BLOCK`` steps of its
estimates and fuses each complete block with the forward ones
(:func:`~subtrack.kalman_core.fb_fuse`), so it never holds a backward
covariance per step.
"""

import cmath
import math
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
_JOBS = weakref.WeakKeyDictionary()  # record -> [[config, forward outputs or None], ...]


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

    Results are bit-identical to those on a fresh record.  Threads sharing a
    record may each build a value; every build gives the same one.
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


_JOB_FLAGS = {  # subspace algorithm -> the flags it forces
    "asrmae": dict(dynamic_phi=False, correlated_noise=False, fb_smoothing=False),
    "dfb_asrmae": {},
}


def register_jobs(obs: ObservationSequence, jobs) -> None:
    """Announce the ``(algo, cfg)`` jobs about to run on the record ``obs``.

    The first announced subspace job to run then runs the forward filter of
    every announced job that shares its front end (``mu``, ``beta``,
    ``n_train`` and ``order``) in one lockstep loop, and holds each other
    job's forward outputs until that job runs.  Each job's result equals its
    run on a fresh record; ``lms`` jobs are ignored.
    """
    entries = _JOBS.setdefault(obs, [])
    for algo, cfg in jobs:
        if algo in _JOB_FLAGS:
            check_training(cfg, obs.d.shape)
            entries.append([replace(cfg, **_JOB_FLAGS[algo]), None])


def _stack_key(cfg: TrackerConfig) -> tuple:
    return cfg.mu, cfg.beta, cfg.n_train, cfg.order


def _forward(obs: ObservationSequence, cfg: TrackerConfig) -> "_Forward":
    """``cfg``'s forward-filter outputs on ``obs``: held from an earlier lockstep
    loop, else from one over ``cfg`` and every announced job not yet run that
    shares its front end (``cfg`` alone when it was not announced)."""
    entries = _JOBS.get(obs, [])
    mine = next((i for i, (job, _) in enumerate(entries) if job == cfg), None)
    if mine is None:
        return _forward_stack(obs, [cfg])[0]
    _, held = entries.pop(mine)
    if held is not None:
        return held
    stack = [entry for entry in entries
             if entry[1] is None and _stack_key(entry[0]) == _stack_key(cfg)]
    found = _forward_stack(obs, [cfg] + [job for job, _ in stack])
    for entry, held in zip(stack, found[1:]):
        entry[1] = held
    return found[0]


@dataclass
class _Member:
    """One tracker's inputs to the lockstep forward loop: its (N, r)
    measurement rows ``d(n)^T Q(n)`` (the stacked state's rows are these
    padded with zeros), initial (r, p) coefficients, (r, r) process noise,
    observation-noise variance, initial covariance scale and flags."""

    rank: int
    rows: np.ndarray
    phi: np.ndarray
    noise_cov: np.ndarray
    sigma: float
    scale: float
    dynamic: bool
    smoothing: bool


@dataclass
class _Forward:
    """One tracker's forward-filter outputs, at its own width: innovations,
    filtered means, |phi_i(1)| per step and, for smoothing, the rows, the
    filtered covariances and the coefficients of every step."""

    sigma: float
    xi: np.ndarray
    means: np.ndarray
    phi_traj: np.ndarray
    rows: Optional[np.ndarray] = None
    covs: Optional[np.ndarray] = None
    phis: Optional[np.ndarray] = None


def _forward_stack(obs: ObservationSequence, cfgs: list) -> list:
    """The forward outputs of each subspace config in ``cfgs``, which share a
    front end and have each been checked against the record."""
    if not (np.isfinite(obs.r).all() and np.isfinite(obs.d).all()):
        raise NumericError("tracker: non-finite observations or symbol windows")
    # Widest first, so its PAST-d pass serves every narrower member, and its
    # rows d(n)^T Q(n) too: a narrower member's rows are their leading columns.
    by_width = sorted(range(len(cfgs)), key=lambda i: -cfgs[i].rank)
    members = [None] * len(cfgs)
    for i in by_width:
        cfg = cfgs[i]
        lms_errors, coarse, q_seq = _front_end(obs, cfg)
        if i == by_width[0]:
            rows = np.einsum("nk,nkr->nr", obs.d, q_seq)
        members[i] = _Member(
            rank=cfg.rank, rows=rows[:, :cfg.rank], phi=coarse.phi,
            noise_cov=coarse.noise_full if cfg.correlated_noise else coarse.noise_diag,
            sigma=_filter_noise_variance(cfg, obs, lms_errors),
            scale=float(np.mean(coarse.autocorr[:, 0].real)),
            dynamic=cfg.dynamic_phi, smoothing=cfg.fb_smoothing)
    # Re-fitting members first: their components are one block of the stack.
    placed = sorted(range(len(cfgs)), key=lambda i: not cfgs[i].dynamic_phi)
    found = _forward_loop(obs.r, [members[i] for i in placed], cfgs[0].order, cfgs[0].n_train)
    return [found[placed.index(i)] for i in range(len(cfgs))]


def _forward_loop(r_seq: np.ndarray, members: list, order: int, n_train: int) -> list:
    """Run every member's forward Kalman filter in one loop over the steps.

    The members' states are stacked, each padded to the widest rank: member
    i's state is the prefix of row i.  Every product that sums over state
    entries (K D^H, D K D^H, D Z and, at p >= 2, the companion products) runs
    per member on its prefix view, which BLAS rounds as it rounds the member's
    own contiguous arrays; everything else is elementwise and runs once over
    the stack.  Padded entries stay zero, and each padded component's zero-lag
    sum stays 1, so padding never trips the re-fit's degenerate rule.  So every
    member's outputs are those of a one-member loop, bit for bit.

    A row D is zero past its first r entries, and the predicted covariance
    K is symmetrised, so ``D K`` (over K's first r rows) is the conjugate of
    ``K D^H``: the loop forms ``D K`` and never conjugates a row.
    """
    n_steps, n_mem = r_seq.shape[0], len(members)
    # At least 2: numpy multiplies a lone complex element in place by another
    # kernel than a longer run, so a rank-1 member alone would round otherwise.
    width = max(2, *(m.rank for m in members))
    dim = width * order
    n_dyn = sum(m.dynamic for m in members)
    mean = np.zeros((n_mem, dim), dtype=np.complex128)
    cov = np.zeros((n_mem, dim, dim), dtype=np.complex128)
    noise = np.zeros((n_mem, dim, dim), dtype=np.complex128)
    phi = np.zeros((n_mem, width, order), dtype=np.complex128)
    dk = np.zeros((n_mem, dim), dtype=np.complex128)      # D K, conj(K D^H)
    u = np.empty((n_mem, dim), dtype=np.complex128)       # K D^H / sqrt(g)
    u_conj = np.empty((n_mem, dim), dtype=np.complex128)
    work = np.empty((n_mem, dim, dim), dtype=np.complex128)
    gains = np.zeros(n_mem, dtype=np.complex128)          # innovation / sqrt(g)
    roots = np.ones(n_mem)                                # sqrt(g)
    xi = np.empty((n_steps, n_mem), dtype=np.complex128)
    # At p = 1 the transition is diagonal: the (M, width) coefficients, whose
    # outer products scale the covariance elementwise.  At p >= 2 each member
    # keeps its companion matrix and that matrix's conjugate transpose.
    outs, views, stores, moves, companions = [], [], [], [], []
    for i, m in enumerate(members):
        r, d = m.rank, m.rank * order
        cov_v, mean_v, dk_v = cov[i, :d, :d], mean[i, :d], dk[i, :d]
        cov_v[:] = np.eye(d, dtype=np.complex128) * m.scale
        noise[i, :d, :d] = stacked_noise(m.noise_cov, order)
        phi[i, :r] = m.phi
        out = _Forward(sigma=m.sigma, xi=None,
                       means=np.empty((n_steps, d), dtype=np.complex128),
                       phi_traj=np.empty((n_steps, r)))
        out.phi_traj[:] = np.abs(m.phi[:, 0])
        stores.append((out.means, mean_v))
        if m.smoothing:
            out.covs = np.empty((n_steps, d, d), dtype=np.complex128)
            out.phis = np.empty((n_steps, r, order), dtype=np.complex128)
            out.phis[:] = m.phi
            stores.append((out.covs, cov_v))
        if m.dynamic:
            moves.append((i, out, phi[i, :r]))
        if order > 1:
            comp = companion(m.phi)
            companions.append((cov_v, mean_v, comp, comp.conj().T))
        outs.append(out)
        views.append((m.rows, m.rows.view(np.float64), cov_v[:r], dk_v,
                      dk_v[:r].view(np.float64), mean_v[:r], m.sigma))
    trans = phi[:, :, 0]
    trans_conj = trans.conj()
    trans_outer = trans[:, :, np.newaxis] * trans_conj[:, np.newaxis, :]
    if n_dyn:
        # The re-fitting members' components, padded to the widest rank, as
        # one table; at p >= 2 a narrow member's prefix runs past them.
        running = RecursiveAutocorr(n_dyn * width, order)
        table = running.table.reshape(n_dyn, width, order + 1)
        components = np.zeros((n_dyn, width), dtype=bool)
        for i, m in enumerate(members[:n_dyn]):
            table[i, m.rank:, 0] = 1.0
            components[i, :m.rank] = True
        z = mean[:n_dyn, :width]
        phi_dyn = phi[:n_dyn].reshape(n_dyn * width, order)
    gains_col, roots_col = gains[:, np.newaxis], roots[:, np.newaxis]
    u_col, u_row = u[:, :, np.newaxis], u_conj[:, np.newaxis, :]
    cov_h = cov.transpose(0, 2, 1)

    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(n_steps):
                r_n = complex(r_seq[n])
                for i, (rows, rows_real, cov_top, dk_v, dk_top, z_v, sigma) in enumerate(views):
                    row = rows[n]
                    np.matmul(row, cov_top, out=dk_v)
                    # D K D^H is real: the real dot of D with D K.
                    g = max(float(rows_real[n].dot(dk_top)), 0.0) + sigma
                    innovation = r_n - complex(row.dot(z_v))
                    if not (math.isfinite(g) and cmath.isfinite(innovation)):
                        raise NumericError(
                            f"tracker: the forward filter met a non-finite value at step {n}")
                    root = math.sqrt(g)
                    xi[n, i] = innovation
                    gains[i] = innovation / root
                    roots[i] = root
                # Gain K D^H innovation / g and the rank-one downdate cov - u u^H.
                np.divide(dk, roots_col, out=u_conj)
                np.conjugate(u_conj, out=u)
                mean += u * gains_col
                np.multiply(u_col, u_row, out=work)
                cov -= work
                for stored, view in stores:
                    stored[n] = view
                if order == 1:
                    np.multiply(trans, mean, out=mean)
                    np.multiply(trans_outer, cov, out=cov)
                else:
                    for cov_v, mean_v, comp, comp_h in companions:
                        mean_v[:] = comp @ mean_v
                        cov_v[:] = comp @ cov_v @ comp_h
                cov += noise
                np.conjugate(cov_h, out=work)
                cov += work
                cov *= 0.5
                if n_dyn:
                    running.update(z * components if order > 1 else z)
                    if n + 1 >= n_train:
                        phi_dyn[:] = predict_transition(running.table, previous=phi_dyn,
                                                        members=n_dyn)
                        if order == 1:
                            np.conjugate(trans, out=trans_conj)
                            np.multiply(trans[:, :, np.newaxis], trans_conj[:, np.newaxis, :],
                                        out=trans_outer)
                        if n + 1 < n_steps:
                            for i, out, phi_v in moves:
                                if out.phis is not None:
                                    out.phis[n + 1] = phi_v
                                else:
                                    np.abs(phi_v[:, 0], out=out.phi_traj[n + 1])
                                if order > 1:
                                    comp = companion(phi_v)
                                    companions[i] = companions[i][:2] + (comp, comp.conj().T)
    except FloatingPointError as exc:
        raise NumericError(f"tracker: the forward filter failed at step {n} ({exc})") from None
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NumericError("tracker: the forward filter ended in a non-finite state")
    for i, (m, out) in enumerate(zip(members, outs)):
        out.xi = xi[:, i].copy()
        if m.smoothing:
            out.rows = np.zeros((n_steps, m.rank * order), dtype=np.complex128)
            out.rows[:, :m.rank] = m.rows
            if m.dynamic:
                np.abs(out.phis[:, :, 0], out=out.phi_traj)
    return outs


def _run_subspace_tracker(obs: ObservationSequence, cfg: TrackerConfig,
                          algo: str) -> TrackResult:
    check_training(cfg, obs.d.shape)
    fwd = _forward(obs, cfg)
    n_steps = obs.d.shape[0]
    rank, order, n_train = cfg.rank, cfg.order, cfg.n_train
    dim = rank * order
    _, coarse, q_seq = _front_end(obs, cfg)
    noise_cov = coarse.noise_full if cfg.correlated_noise else coarse.noise_diag
    sigma, rows, means_f, covs_f, phis = fwd.sigma, fwd.rows, fwd.means, fwd.covs, fwd.phis

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
        xi_out = fwd.xi

    h_out = np.einsum("nkr,nr->nk", q_seq, z_out)
    err_db, mean_db = normalized_prediction_error(xi_out, obs.r, eval_start=n_train)
    return TrackResult(
        algo=algo, h_tracked=h_out, xi=xi_out, err_db=err_db, mean_err_db=mean_db,
        components=z_out, phi_traj=fwd.phi_traj, eigen_spectrum=normalized_spectrum(coarse.eigenvalues))


def run_asrmae(obs: ObservationSequence, cfg: TrackerConfig) -> TrackResult:
    """Forward-only subspace Kalman tracker with a fixed training-fit model."""
    return _run_subspace_tracker(obs, replace(cfg, **_JOB_FLAGS["asrmae"]), algo="asrmae")


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
