import numpy as np
import pytest
from numpy.testing import assert_allclose

from subtrack.errors import InvalidInputError, TrackerStallError
from subtrack.subspace_tracking import FREEZE_RATIO, PastdTracker


def random_basis(k, r, rng):
    return np.linalg.qr(rng.standard_normal((k, r))
                        + 1j * rng.standard_normal((k, r)))[0]


def low_rank_stream(k, r, sigmas, noise_std, n, rng):
    basis = np.linalg.qr(rng.standard_normal((k, r)))[0].astype(complex)
    z = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) / np.sqrt(2)
    x = z * sigmas @ basis.T
    x += noise_std * (rng.standard_normal((n, k))
                      + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    return basis, x


def max_principal_angle(a, b):
    qa = np.linalg.qr(a)[0]
    qb = np.linalg.qr(b)[0]
    s = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return np.degrees(np.arccos(np.clip(s.min(), 0.0, 1.0)))


def test_zero_input_only_decays_powers():
    rng = np.random.default_rng(0)
    tracker = PastdTracker(random_basis(6, 2, rng), np.array([3.0, 1.5]), beta=0.9)
    w_before = tracker.w.copy()
    tracker.step(np.zeros(6, dtype=complex))
    assert np.array_equal(tracker.w, w_before)
    assert_allclose(tracker.powers, [2.7, 1.35], atol=1e-15)


def test_aligned_input_is_fixed_point():
    basis = np.eye(4, dtype=complex)[:, :2]
    tracker = PastdTracker(basis, np.array([100.0, 50.0]), beta=1.0)
    tracker.step(basis[:, 0].copy())
    assert np.array_equal(tracker.w[:, 0], basis[:, 0])
    assert np.array_equal(tracker.w[:, 1], basis[:, 1])
    assert_allclose(tracker.powers, [101.0, 50.0])


def test_rank_one_stream_converges_to_direction():
    rng = np.random.default_rng(1)
    k = 12
    u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    u /= np.linalg.norm(u)
    tracker = PastdTracker(random_basis(k, 1, rng), np.array([1.0]), beta=0.995)
    for _ in range(500):
        s = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
        tracker.step(u * s)
    assert abs(np.vdot(tracker.w[:, 0], u)) > 0.999

    # Oracle: the dominant eigenvector of the stream covariance is u itself.
    cov = np.outer(u, u.conj())
    evals, evecs = np.linalg.eigh(cov)
    assert abs(np.vdot(evecs[:, -1], tracker.w[:, 0])) > 0.999


def test_orthonormal_after_reorth():
    rng = np.random.default_rng(2)
    _, x = low_rank_stream(10, 3, np.array([4.0, 2.0, 1.0]), 0.1, 100, rng)
    tracker = PastdTracker(random_basis(10, 3, rng), np.ones(3), beta=0.99,
                           reorth_period=50)
    for row in x:
        tracker.step(row)
    gram = tracker.w.conj().T @ tracker.w
    assert np.max(np.abs(gram - np.eye(3))) < 1e-8


def test_convergence_angle_property_many_seeds():
    # Stationary stream with spectral gap >= 5: within 10/(1-beta) steps of a
    # training-window EVD start, the tracked span sits within 5 degrees of
    # the batch-EVD span.
    from subtrack.linalg_spectral import evd_hermitian, truncate_subspace

    beta = 0.998
    n = round(10 / (1 - beta))
    warm = 300
    sigmas = np.array([8.0, 6.0, 4.5, 3.4, 2.6, 2.0])
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        _, x = low_rank_stream(16, 6, sigmas, 0.8, warm + n, rng)  # gap 7.25
        cov0 = x[:warm].T @ x[:warm].conj() / warm
        dec = evd_hermitian(0.5 * (cov0 + cov0.conj().T))
        tracker = PastdTracker(truncate_subspace(dec, 6),
                               np.maximum(dec.eigenvalues[:6], 1e-6), beta=beta)
        for row in x[warm:]:
            tracker.step(row)
        cov = x[warm:].T @ x[warm:].conj() / n
        evecs = np.linalg.eigh(cov)[1][:, ::-1][:, :6]
        if max_principal_angle(tracker.w, evecs) < 5.0:
            hits += 1
    assert hits >= 9


def test_multiply_count_scales_linearly():
    rng = np.random.default_rng(3)

    def count(k, r, steps=10):
        tracker = PastdTracker(random_basis(k, r, rng), np.ones(r), beta=0.99,
                               reorth_period=0)
        for _ in range(steps):
            tracker.step(rng.standard_normal(k) + 0j)
        return tracker.multiply_count

    base = count(64, 4)
    assert 1.9 < count(128, 4) / base < 2.1       # linear in K
    assert 1.9 < count(64, 8) / base < 2.1        # linear in r
    assert base <= 10 * 4 * (4 * 64 + 2) * 1.05   # ~4Kr per step


def test_power_underflow_stalls():
    tracker = PastdTracker(np.eye(3, dtype=complex)[:, :1], np.array([1e-25]),
                           beta=0.5)
    with pytest.raises(TrackerStallError):
        for _ in range(100):
            tracker.step(np.zeros(3, dtype=complex))


def test_validates_construction():
    with pytest.raises(InvalidInputError):
        PastdTracker(np.eye(3), np.ones(2), beta=0.9)
    with pytest.raises(InvalidInputError):
        PastdTracker(np.eye(3), np.ones(3), beta=1.5)
    with pytest.raises(InvalidInputError):
        PastdTracker(np.eye(3), np.zeros(3), beta=0.9)


def nested_pair(powers, x, r, reorth_period=5):
    """A rank-R tracker and a rank-r tracker on the first r of its columns,
    both stepped through ``x``; returns both trackers and their per-step bases."""
    basis = np.eye(x.shape[1], dtype=complex)[:, :len(powers)]
    wide = PastdTracker(basis, powers, beta=0.99, reorth_period=reorth_period)
    narrow = PastdTracker(basis[:, :r], powers[:r], beta=0.99,
                          reorth_period=reorth_period)
    wide_seq = [wide.step(row) for row in x]
    narrow_seq = [narrow.step(row) for row in x]
    return wide, narrow, np.array(wide_seq), np.array(narrow_seq)


def test_leading_columns_of_a_wider_tracker_are_the_narrower_tracker():
    # Column 3 (beyond r = 3) starts strongest; column 1's power lies between
    # 1e-12 of column 0's and 1e-12 of column 3's, so measured against every
    # column it would freeze in the rank-5 tracker only; column 2 carries no
    # energy and freezes in both.
    rng = np.random.default_rng(4)
    k, n = 8, 40
    powers = np.array([1.0, 1e-10, 1e-16, 1e3, 0.5])
    x = 0.3 * (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    x[:, 1] *= 1e-5
    x[:, 2] = 0.0
    x[:, 3] *= 30.0
    wide, narrow, wide_seq, narrow_seq = nested_pair(powers, x, 3)

    assert np.array_equal(wide_seq[:, :, :3], narrow_seq)
    assert np.array_equal(wide.powers[:3], narrow.powers)
    # The freeze path ran: column 2 never moved, and its power, which the
    # forgetting factor alone would only shrink, was raised to a freeze level.
    assert np.array_equal(narrow.w[:, 2], np.eye(k)[:, 2])
    assert narrow.powers[2] >= FREEZE_RATIO * powers[0]


def test_rank_one_slice_differs_only_by_rounding():
    # A (K, 1) basis column is contiguous and a wider basis's columns are
    # strided, so numpy's dot runs another kernel: equal up to rounding.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 6)) + 1j * rng.standard_normal((200, 6))
    *_, wide_seq, narrow_seq = nested_pair(np.array([3.0, 2.0, 1.0]), x, 1)
    assert_allclose(wide_seq[:, :, :1], narrow_seq, rtol=0, atol=1e-13)
