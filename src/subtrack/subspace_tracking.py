"""Recursive dominant-subspace tracking by deflation.

One pass per input vector: each basis column absorbs a rank-one update from
the (progressively deflated) input, weighted by an exponentially forgotten
power estimate, at Theta(K*r) arithmetic per step.  A step measures every
column first, with one inner product and one vector update per column, and
then moves all columns at once.  Columns are periodically re-orthonormalized
by modified Gram-Schmidt to stop drift from the projection approximation.

The basis is held as contiguous rows, one per column, so every column's
inner product and update runs on contiguous memory whatever the rank: the
first r columns of a wider tracker are the rank-r tracker bit for bit, rank 1
included.
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
    per-step cost stays checkable.  ``w`` is the (K, r) basis, a transposed
    view of the (r, K) rows the tracker works on.
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
        self._rows = basis.T.copy()
        # The rows' conjugates, so each inner product is a plain dot, and the
        # deflated inputs; row views of all three are made once.
        self._rows_conj = self._rows.conj()
        self._omega = np.empty((basis.shape[1] + 1, basis.shape[0]), dtype=np.complex128)
        self._cols = list(zip(self._rows, self._rows_conj))
        self._deflated = list(self._omega)
        self.powers = powers.copy()
        self.beta = float(beta)
        self.reorth_period = int(reorth_period)
        self.step_count = 0
        self.multiply_count = 0

    @property
    def w(self) -> np.ndarray:
        return self._rows.T

    @property
    def n_inputs(self) -> int:
        return self._rows.shape[1]

    @property
    def rank(self) -> int:
        return self._rows.shape[0]

    def step(self, x: np.ndarray) -> np.ndarray:
        """Fold one input vector in; returns a copy of the updated basis.

        Nothing is written until every column has been measured, so a step
        that stalls leaves the tracker as it was.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n_inputs,):
            raise InvalidInputError(
                f"PastdTracker.step: input shape {x.shape} != ({self.n_inputs},)")
        rank, k = self._rows.shape
        cols, omega = self._cols, self._deflated
        beta = self.beta
        # Python floats within the step: numpy-scalar arithmetic on each
        # column's power costs more than the column's own vector work.
        powers = self.powers.tolist()
        # Column i is measured against the strongest of columns 0..i only, so
        # like the deflation itself it never looks at a later column: the
        # first r columns of a rank-R tracker are a rank-r tracker.
        freeze_levels = (FREEZE_RATIO * np.maximum.accumulate(self.powers)).tolist()
        # Deflation without moving a column: omega[i] is x less eta_j w_j for
        # each earlier unfrozen column j (eta_j = w_j^H omega[j]), and column
        # i's deflated input is scale * omega[i], scale being the product of
        # the earlier columns' 1 - |y_j|^2 / p_j.  So y_i = scale * eta_i, and
        # column i's residual, its input less w_i y_i, is scale * omega[i + 1]:
        # once all are measured, each column moves by omega[i + 1] times
        # gains[i] = scale conj(y_i) / p_i.
        omega[0][:] = x
        np.conjugate(self._rows, out=self._rows_conj)
        gains = [0j] * rank
        scale = 1.0
        multiplies = 0
        for i in range(rank):
            col, col_conj = cols[i]
            eta = complex(col_conj.dot(omega[i]))
            y = scale * eta
            energy = y.real * y.real + y.imag * y.imag
            power = beta * powers[i] + energy
            if power < POWER_UNDERFLOW:
                raise TrackerStallError(
                    f"PastdTracker: power estimate for column {i} underflowed "
                    f"({power:.3e})")
            if power < freeze_levels[i]:
                # Unexcited direction: hold the column instead of amplifying
                # noise; it re-activates as soon as real energy returns.
                powers[i] = freeze_levels[i]
                omega[i + 1][:] = omega[i]
                multiplies += k + 1
                continue
            powers[i] = power
            np.subtract(omega[i], col * eta, out=omega[i + 1])
            gains[i] = scale * y.conjugate() / power
            scale *= 1.0 - energy / power
            multiplies += 4 * k + 2
        self._rows += self._omega[1:] * np.array(gains)[:, np.newaxis]
        self.powers[:] = powers
        self.multiply_count += multiplies
        self.step_count += 1
        if self.reorth_period > 0 and self.step_count % self.reorth_period == 0:
            self._reorthonormalize()
        return self.w.copy()

    def _reorthonormalize(self):
        """Modified Gram-Schmidt: each column, once normalized, is projected
        out of every later column at once."""
        rows = self._rows
        r, k = rows.shape
        for j in range(r):
            col = rows[j]
            norm = np.linalg.norm(col)
            if norm > 0:
                col /= norm
            later = rows[j + 1:]
            later -= col * np.einsum("k,ik->i", col.conj(), later)[:, np.newaxis]
        self.multiply_count += r * (k + 1) + k * r * (r - 1)
