"""Recursive dominant-subspace tracking by deflation.

One pass per input vector: each basis column absorbs a rank-one update from
the (progressively deflated) input, weighted by an exponentially forgotten
power estimate, at Theta(K*r) arithmetic per step.  Columns are periodically
re-orthonormalized by modified Gram-Schmidt to stop drift from the projection
approximation.
"""

import numpy as np

from .errors import InvalidInputError, TrackerStallError

POWER_UNDERFLOW = 1e-30
# Columns whose power falls this far below the strongest column before them
# are held fixed: updating them would amplify numerical noise by 1/power.
FREEZE_RATIO = 1e-12


class PastdTracker:
    """Deflation subspace tracker over a stream of K-vectors.

    Parameters
    ----------
    basis : (K, r) initial orthonormal basis (typically the dominant
        eigenvectors of a training-window covariance).
    powers : (r,) initial per-column power estimates (matching eigenvalues).
    beta : forgetting factor in (0, 1].
    reorth_period : steps between modified Gram-Schmidt sweeps.

    The tracker tallies its complex multiplies in ``multiply_count`` so the
    per-step cost stays checkable.
    """

    def __init__(self, basis: np.ndarray, powers: np.ndarray, beta: float = 0.998,
                 reorth_period: int = 50):
        basis = np.asarray(basis, dtype=np.complex128)
        powers = np.asarray(powers, dtype=np.float64).reshape(-1)
        if basis.ndim != 2 or basis.shape[1] != powers.size:
            raise InvalidInputError(
                f"PastdTracker: basis {basis.shape} does not match {powers.size} powers")
        if not 0 < beta <= 1:
            raise InvalidInputError(f"PastdTracker: beta must be in (0, 1], got {beta}")
        if np.any(powers <= 0):
            raise InvalidInputError("PastdTracker: initial powers must be positive")
        self.w = basis.copy()
        self.powers = powers.copy()
        self.beta = float(beta)
        self.reorth_period = int(reorth_period)
        self.step_count = 0
        self.multiply_count = 0

    @property
    def n_inputs(self) -> int:
        return self.w.shape[0]

    @property
    def rank(self) -> int:
        return self.w.shape[1]

    def step(self, x: np.ndarray) -> np.ndarray:
        """Fold one input vector in; returns a copy of the updated basis."""
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n_inputs,):
            raise InvalidInputError(
                f"PastdTracker.step: input shape {x.shape} != ({self.n_inputs},)")
        k = self.n_inputs
        work = x.copy()
        beta = self.beta
        # Python floats within the step: numpy-scalar arithmetic on each
        # column's power costs more than the column's own vector work.
        powers = self.powers.tolist()
        # Column i is measured against the strongest of columns 0..i only, so
        # like the deflation itself it never looks at a later column: the
        # first r columns of a rank-R tracker are a rank-r tracker.
        freeze_levels = (FREEZE_RATIO * np.maximum.accumulate(self.powers)).tolist()
        multiplies = 0
        for i in range(self.rank):
            col = self.w[:, i]
            y = np.vdot(col, work)
            y_c = complex(y)
            power = beta * powers[i] + (y_c.real * y_c.real + y_c.imag * y_c.imag)
            if power < POWER_UNDERFLOW:
                raise TrackerStallError(
                    f"PastdTracker: power estimate for column {i} underflowed "
                    f"({power:.3e})")
            if power < freeze_levels[i]:
                # Unexcited direction: hold the column instead of amplifying
                # noise; it re-activates as soon as real energy returns.
                powers[i] = freeze_levels[i]
                multiplies += k + 1
                continue
            powers[i] = power
            col += (work - col * y) * (np.conj(y) / power)
            work -= col * y
            multiplies += 4 * k + 2
        self.powers[:] = powers
        self.multiply_count += multiplies
        self.step_count += 1
        if self.reorth_period > 0 and self.step_count % self.reorth_period == 0:
            self._reorthonormalize()
        return self.w.copy()

    def _reorthonormalize(self):
        k, r = self.w.shape
        for i in range(r):
            col = self.w[:, i]
            for j in range(i):
                col -= np.vdot(self.w[:, j], col) * self.w[:, j]
                self.multiply_count += 2 * k
            norm = np.linalg.norm(col)
            self.multiply_count += k + 1
            if norm > 0:
                col /= norm
