"""Synthetic correlated time-varying channel generator.

The generator gives full ground truth: a low-rank trajectory ``h(n) = Q(n) z(n)``,
built in closed form, where the components ``z`` follow independent AR(1) recursions
and the basis ``Q`` (built only when read) turns in a fixed random plane orthogonal
to it, so ``Q(n)`` stays ``Q(0)`` up to rounding.  The one working mismatch with
the tracker's own model class is drift of the AR coefficients.

Plus the training-symbol generator and the received-signal synthesizer.
All randomness is driven by explicit seeds; identical inputs give
bit-identical outputs.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInputError

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)
# Each preset's rotation angle per step (omega_q; it moves no basis column) and AR drift.
_PRESETS = {"calm": {"omega_q": 2e-4, "phi_drift": 0.0},
            "rough": {"omega_q": 2e-3, "phi_drift": 0.05}}
# At or below this SNR the noise-to-signal ratio 10^(-snr_db/10) overflows a float.
_MIN_SNR_DB = -10.0 * float(np.log10(np.finfo(np.float64).max))
_ENERGY_HEADROOM = 100.0  # noise energy never exceeds its expectation this much


@dataclass
class ChannelTrajectory:
    """Sampled channel impulse response h[n, k] over n = 0..N-1, k = 0..K-1."""

    h: np.ndarray       # (N, K) complex

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.complex128)
        if self.h.ndim != 2:
            raise InvalidInputError(f"ChannelTrajectory: h must be 2-D, got {self.h.shape}")
        if not np.isfinite(self.h).all():
            raise InvalidInputError("ChannelTrajectory: non-finite channel entries")

    @property
    def n_steps(self) -> int:
        return self.h.shape[0]

    @property
    def n_taps(self) -> int:
        return self.h.shape[1]


@dataclass
class SimGroundTruth:
    """Latent-generator truth: components, AR parameters, and the basis, built when read."""

    z_true: np.ndarray        # (N, r) components
    phi_true: np.ndarray      # (N, r) AR(1) coefficients per step
    q0: np.ndarray            # (K, r) orthonormal basis at step 0
    plane: np.ndarray         # (K, 2) orthonormal rotation plane; zeros for none
    omega_q: float            # rotation angle per step, radians

    @cached_property
    def q_true(self) -> np.ndarray:
        """(N, K, r) orthonormal basis per step."""
        coeffs = _turn(self.omega_q, len(self.z_true)) @ (self.plane.conj().T @ self.q0)
        q_seq = self.plane @ coeffs
        q_seq += self.q0
        return q_seq


@dataclass(eq=False)
class ObservationSequence:
    """Received scalar sequence with the symbol windows that produced it; the
    record is hashed by identity and its arrays are made read-only."""

    r: np.ndarray         # (N,) complex received samples
    d: np.ndarray         # (N, K) complex sliding symbol windows, newest first
    sigma_v2: float       # observation-noise variance
    seed: int

    def __post_init__(self):
        if self.sigma_v2 < 0:
            raise InvalidInputError(f"ObservationSequence: sigma_v2 {self.sigma_v2} < 0")
        if len(self.r) != self.d.shape[0]:
            raise InvalidInputError("ObservationSequence: r and d lengths differ")
        self.r.flags.writeable = False
        self.d.flags.writeable = False


@dataclass
class SimConfig:
    """Latent-generator configuration.

    ``preset`` selects the variation regime; the presets differ only in
    ``phi_drift``: "calm" keeps the AR coefficients fixed, "rough" drifts each
    down by it over the run (no ``omega_q`` moves the basis; see
    :func:`synth_latent_channel`).  ``omega_q`` and ``phi_drift`` are stored as given;
    :meth:`variation` resolves them, a value left at ``None`` taking the
    preset's, so a config copied with another ``preset`` takes that preset's
    values.  The basis rotates in a plane outside its own span, so a nonzero
    resolved ``omega_q`` needs ``r_true + 2 <= n_taps``.  ``n_train`` is the
    training length; the CLI checks it against the record it tracks.
    """

    n_taps: int = 64
    n_steps: int = 5000
    n_train: int = 1000
    r_true: int = 12
    seed: int = 0
    snr_db: float = 20.0
    phi_lo: float = 0.99
    phi_hi: float = 0.9995
    omega_q: Optional[float] = None
    phi_drift: Optional[float] = None
    preset: str = "calm"
    power_decay: float = 0.7  # geometric per-component power ratio

    def __post_init__(self):
        if self.preset not in _PRESETS:
            raise InvalidInputError(f"SimConfig: unknown preset {self.preset!r}")
        if not (self.n_steps >= 1 and self.n_train >= 1):
            raise InvalidInputError(
                f"SimConfig: n_steps and n_train must be >= 1, got {self.n_steps}, {self.n_train}")
        if not 1 <= self.r_true <= self.n_taps:
            raise InvalidInputError(
                f"SimConfig: need 1 <= r_true <= n_taps, got {self.r_true}, {self.n_taps}")
        if not 0 <= self.phi_lo <= self.phi_hi < 1:
            raise InvalidInputError(
                f"SimConfig: need 0 <= phi_lo <= phi_hi < 1, got "
                f"{self.phi_lo}, {self.phi_hi}")
        if not self.snr_db > _MIN_SNR_DB:  # +inf is noise-free
            raise InvalidInputError(
                f"SimConfig: snr_db must be above {_MIN_SNR_DB:.2f} dB, got {self.snr_db}")
        variation = self.variation()
        for name, value in variation.items():
            if not np.isfinite(value):
                raise InvalidInputError(f"SimConfig: {name} must be finite, got {value}")
        if variation["omega_q"] != 0 and self.r_true + 2 > self.n_taps:
            raise InvalidInputError(
                f"SimConfig: a rotating basis (omega_q != 0) needs r_true + 2 <= n_taps, "
                f"got r_true {self.r_true}, n_taps {self.n_taps}")
        if not 0 <= self.power_decay < np.inf:
            raise InvalidInputError(
                f"SimConfig: power_decay must be finite and >= 0, got {self.power_decay}")

    def variation(self) -> dict:
        """``omega_q`` and ``phi_drift`` as simulated: each as given, else the preset's."""
        return {name: value if getattr(self, name) is None else getattr(self, name)
                for name, value in _PRESETS[self.preset].items()}


def _turn(omega_q: float, n_steps: int) -> np.ndarray:
    """(N, 2, 2) ``M(n)``, the turn by ``n omega_q`` within a plane minus the identity:
    turned in the orthonormal plane ``(u, v)``, ``Q(n) = q0 + [u, v] M(n) [u, v]^H q0``."""
    angle = omega_q * np.arange(n_steps)
    cos1, sin = np.cos(angle) - 1.0, np.sin(angle)
    return np.stack([np.stack([cos1, -sin], axis=1), np.stack([sin, cos1], axis=1)], axis=1)


def latent_trajectory(q0: np.ndarray, plane: np.ndarray, omega_q: float,
                      phi: np.ndarray, noise_cov: np.ndarray, n_steps: int,
                      rng: np.random.Generator):
    """Low-level latent generator with explicit truth parameters; ``h`` in closed form.

    Parameters
    ----------
    q0 : (K, r) initial orthonormal basis.
    plane : (K, 2) orthonormal pair spanning the rotation plane, or None for
        no rotation.
    omega_q : rotation angle per step, radians.
    phi : per-component AR(1) coefficients, shape (r,) or (n_steps, r).
    noise_cov : (r, r) innovation covariance (diagonal is drawn as independent
        complex Gaussians per component).
    """
    q0 = np.asarray(q0, dtype=np.complex128)
    n_taps, r_true = q0.shape
    plane = np.asarray(np.zeros((n_taps, 2)) if plane is None else plane, dtype=np.complex128)
    phi = np.broadcast_to(np.asarray(phi, dtype=np.complex128), (n_steps, r_true)).copy()
    noise_std = np.sqrt(np.diag(np.asarray(noise_cov, dtype=np.complex128)).real)

    # Stationary start at the initial coefficients (unit-power fallback where
    # the component is marginally stable and has no stationary distribution).
    denom = 1.0 - np.abs(phi[0]) ** 2
    p0 = np.divide(noise_std ** 2, denom, out=np.ones(r_true), where=denom > 0)

    z = np.empty((n_steps, r_true), dtype=np.complex128)
    z[0] = np.sqrt(p0 / 2.0) * (rng.standard_normal(r_true) + 1j * rng.standard_normal(r_true))
    innov = (rng.standard_normal((n_steps - 1, r_true))
             + 1j * rng.standard_normal((n_steps - 1, r_true))) * (noise_std / np.sqrt(2.0))
    for n in range(1, n_steps):
        z[n] = phi[n] * z[n - 1] + innov[n - 1]

    # h(n) = [q0, u, v] [z(n); M(n) [u, v]^H q0 z(n)]: no (N, K, r) basis, no (N, K) temporary.
    in_plane = np.einsum("nij,nj->ni", _turn(omega_q, n_steps), z @ (plane.conj().T @ q0).T)
    h = np.einsum("kj,nj->nk", np.hstack([q0, plane]), np.hstack([z, in_plane]))
    return ChannelTrajectory(h=h), SimGroundTruth(z, phi, q0, plane, omega_q)


def synth_latent_channel(cfg: SimConfig):
    """Generate a low-rank AR channel with known truth from a SimConfig.

    Component powers decay geometrically (``cfg.power_decay``) and sum to one;
    AR coefficients run from ``phi_hi`` (strongest component) down to
    ``phi_lo``.  The real random orthonormal basis turns ``omega_q`` radians
    per step in the plane of QR columns ``r_true`` and ``r_true + 1``, both
    orthogonal to it, so ``q_true`` (built when read) stays at its first step up
    to rounding.  Under the rough preset every coefficient drifts down by ``phi_drift``.
    """
    rng = np.random.default_rng(cfg.seed)
    raw = rng.standard_normal((cfg.n_taps, cfg.r_true + 2))
    q_full, _ = np.linalg.qr(raw)
    q0 = q_full[:, :cfg.r_true].astype(np.complex128)
    plane = q_full[:, cfg.r_true:] if q_full.shape[1] == cfg.r_true + 2 else None

    # Relative to the strongest component (the last when powers grow): none overflows.
    lags = np.arange(cfg.r_true) - (cfg.r_true - 1 if cfg.power_decay > 1 else 0)
    powers = cfg.power_decay ** lags
    powers = powers / powers.sum()
    phi0 = np.linspace(cfg.phi_hi, cfg.phi_lo, cfg.r_true)
    noise_cov = np.diag(powers * (1.0 - phi0 ** 2)).astype(np.complex128)

    variation = cfg.variation()
    if variation["phi_drift"] != 0.0:
        ramp = np.linspace(0.0, variation["phi_drift"], cfg.n_steps)
        phi = np.clip(phi0[np.newaxis, :] - ramp[:, np.newaxis], 0.0, 1.0 - 1e-9)
    else:
        phi = phi0
    return latent_trajectory(q0, plane, variation["omega_q"], phi, noise_cov,
                             cfg.n_steps, rng)


def gen_symbols(n_steps: int, seed: int = 0) -> np.ndarray:
    """Unit-magnitude QPSK training symbols, i.i.d. uniform over the constellation."""
    if n_steps <= 0:
        raise InvalidInputError(f"gen_symbols: n_steps must be positive, got {n_steps}")
    rng = np.random.default_rng(seed)
    return _QPSK[rng.integers(0, 4, size=n_steps)]


def symbol_windows(symbols: np.ndarray, n_taps: int) -> np.ndarray:
    """Sliding windows d[n] = [s(n), s(n-1), ..., s(n-K+1)], zero-padded history."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    padded = np.concatenate([np.zeros(n_taps - 1, dtype=np.complex128), symbols])
    return np.lib.stride_tricks.sliding_window_view(padded, n_taps)[:, ::-1].copy()


def generate_observations(traj: ChannelTrajectory, symbols: np.ndarray,
                          sigma_v2: float, seed: int = 0) -> ObservationSequence:
    """Pass symbols through the channel: ``r(n) = d(n)^T h(n) + v(n)``.

    ``v`` is circularly-symmetric complex Gaussian with variance ``sigma_v2``.
    The symbol sequence must cover every step; the pre-start history in each
    window is zero-padded.
    """
    if sigma_v2 < 0:
        raise InvalidInputError(f"generate_observations: sigma_v2 {sigma_v2} < 0")
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    if symbols.size < traj.n_steps:
        raise InvalidInputError(
            f"generate_observations: {symbols.size} symbols for {traj.n_steps} steps")
    d = symbol_windows(symbols[:traj.n_steps], traj.n_taps)
    rng = np.random.default_rng(seed)
    noise = (rng.standard_normal(traj.n_steps) + 1j * rng.standard_normal(traj.n_steps))
    r = np.einsum("nk,nk->n", d, traj.h) + np.sqrt(sigma_v2 / 2.0) * noise
    return ObservationSequence(r=r, d=d, sigma_v2=float(sigma_v2), seed=seed)


def noise_variance_for_snr(traj: ChannelTrajectory, snr_db: float) -> float:
    """Observation-noise variance giving the requested SNR for unit-power symbols.

    Raises ``InvalidInputError`` unless the trackers can sum the squared
    observations: ``_ENERGY_HEADROOM`` times their expected sum must be a float.
    """
    # Scaled by a power of two near the largest tap before squaring, so no
    # square overflows; the scaling is exact, so the power is unchanged.
    magnitudes = np.abs(traj.h)
    peak = float(np.max(magnitudes, initial=0.0))
    exponent = math.frexp(peak)[1] - 1 if 0 < peak < math.inf else 0
    scale = math.ldexp(1.0, exponent)
    signal_power = float(np.mean(np.sum((magnitudes / scale) ** 2, axis=1))) * scale * scale
    sigma_v2 = signal_power * 10.0 ** (-snr_db / 10.0)
    if not np.isfinite(traj.n_steps * (signal_power + sigma_v2) * _ENERGY_HEADROOM):
        raise InvalidInputError(
            f"noise_variance_for_snr: {_ENERGY_HEADROOM:g} times the energy of the "
            f"{traj.n_steps}-step record at {snr_db} dB SNR (signal power "
            f"{signal_power:.3g}) is not a finite float")
    return sigma_v2
