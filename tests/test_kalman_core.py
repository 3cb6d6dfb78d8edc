import numpy as np
import pytest
from numpy.testing import assert_allclose

from subtrack.errors import (FusionError, InvalidInputError, NumericError,
                             SingularModelError)
from subtrack.kalman_core import (ArTransitionModel, RecursiveAutocorr,
                                  backward_model, companion, fb_combine, fb_fuse,
                                  kf_predict, kf_update, predict_transition,
                                  stacked_noise)


def vec(values):
    return np.atleast_1d(np.asarray(values, complex))


def mat(values):
    return np.atleast_2d(np.asarray(values, complex))


def forward_pair(model):
    """The stacked ``(transition, noise)`` a model's forward prediction uses."""
    return companion(model.phi), stacked_noise(model.noise_cov, model.phi.shape[1])


def stacked_covariance(model, p0, n_steps):
    """Joint covariance of [Z(1); ...; Z(N)] under the linear-Gaussian chain."""
    trans, noise = forward_pair(model)
    blocks = [[None] * n_steps for _ in range(n_steps)]
    blocks[0][0] = np.asarray(p0, complex)
    for k in range(1, n_steps):
        blocks[k][k] = trans @ blocks[k - 1][k - 1] @ trans.conj().T + noise
    for j in range(n_steps):
        for k in range(j + 1, n_steps):
            blocks[k][j] = trans @ (blocks[k - 1][j] if k - 1 != j
                                    else blocks[j][j])
            blocks[j][k] = blocks[k][j].conj().T
    return np.block([[blocks[a][b] for b in range(n_steps)]
                     for a in range(n_steps)])


def batch_lmmse(model, p0, rows, noise_var, observations, information=False):
    """Dense joint LMMSE of every stacked state given all observations.

    The covariance form handles the structurally singular joint covariance of
    order >= 2 chains; the information form (invertible chains only) avoids
    the cancellation the covariance form suffers under a diffuse prior.
    """
    n_steps = len(observations)
    dim = model.phi.size
    sigma = stacked_covariance(model, p0, n_steps)
    h = np.zeros((n_steps, n_steps * dim), dtype=complex)
    for n, row in enumerate(rows):
        h[n, n * dim:(n + 1) * dim] = row
    if information:
        precision = np.linalg.inv(sigma) + h.conj().T @ h / noise_var
        cov = np.linalg.inv(precision)
        mean = cov @ (h.conj().T @ np.asarray(observations, complex)) / noise_var
    else:
        gram = h @ sigma @ h.conj().T + noise_var * np.eye(n_steps)
        gain = sigma @ h.conj().T @ np.linalg.inv(gram)
        mean = gain @ np.asarray(observations, complex)
        cov = sigma - gain @ h @ sigma
    return mean.reshape(n_steps, dim), cov


def run_forward(model, p0, rows, noise_var, observations):
    """Forward filtered (mean, cov) at every step from a zero-mean prior."""
    trans, noise = forward_pair(model)
    mean, cov = np.zeros(model.phi.size, complex), mat(p0)
    filtered = []
    for row, r_n in zip(rows, observations):
        mean, cov, _, _ = kf_update(mean, cov, vec(row), noise_var, r_n)
        filtered.append((mean, cov))
        mean, cov = kf_predict(mean, cov, trans, noise)
    return filtered


def run_backward(model, p0, rows, noise_var, observations):
    """Backward filtered (mean, cov) at every step: the reversed-time filter
    through ``backward_model(model)``, from a zero-mean prior at the last step."""
    trans, noise = backward_model(model)
    mean, cov = np.zeros(model.phi.size, complex), mat(p0)
    filtered = [None] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        mean, cov, _, _ = kf_update(mean, cov, vec(rows[i]), noise_var, observations[i])
        filtered[i] = (mean, cov)
        if i > 0:
            mean, cov = kf_predict(mean, cov, trans, noise)
    return filtered


# ------------------------------------------------------------------ update
def test_update_uninformative_row():
    mean0, cov0 = vec([1.0, -2.0]), mat(np.diag([2.0, 3.0]))
    mean, cov, innovation, innovation_var = kf_update(mean0, cov0, vec([0.0, 0.0]),
                                                      0.5, 4.0)
    assert_allclose(mean, mean0)
    assert_allclose(cov, cov0)
    assert innovation == pytest.approx(4.0)
    assert innovation_var == pytest.approx(0.5)


def test_update_scalar_hand_values():
    mean0 = vec([0.0])
    mean, cov, innovation, innovation_var = kf_update(mean0, mat([[1.0]]), vec([1.0]),
                                                      1.0, 2.0)
    assert innovation_var == pytest.approx(2.0)
    assert_allclose(mean - mean0, [0.5 * innovation])  # gain 0.5
    assert innovation == pytest.approx(2.0)
    assert_allclose(mean, [1.0])
    assert_allclose(cov, [[0.5]])


def test_update_near_exact_observation_pins_state():
    mean, _, _, _ = kf_update(vec([0.0, 0.0]), mat(np.eye(2)), vec([1.0, 0.0]),
                              1e-12, 0.7 - 0.2j)
    assert abs(mean[0] - (0.7 - 0.2j)) < 1e-6


def test_update_innovation_variance_floor():
    _, _, _, innovation_var = kf_update(vec([0.0]), mat([[1.0]]), vec([1.0]), 0.25, 1.0)
    assert innovation_var >= 0.25


def test_update_rejects_nonfinite():
    with pytest.raises(NumericError):
        kf_update(vec([np.nan]), mat([[1.0]]), vec([1.0]), 1.0, 1.0)
    with pytest.raises(NumericError):
        kf_update(vec([0.0]), mat([[1.0]]), vec([1.0]), 1.0, np.inf)


@pytest.mark.parametrize("noise_var", [0.0, -1.0])
def test_update_rejects_nonpositive_noise_var(noise_var):
    with pytest.raises(InvalidInputError):
        kf_update(vec([0.0]), mat([[1.0]]), vec([1.0]), noise_var, 1.0)


def test_update_covariance_is_the_gain_form_symmetrised():
    # cov - u u^H with u = K D^H / sqrt(g) is cov - gain (row @ cov) on a
    # Hermitian cov; the latter, symmetrised, is the reference.
    rng = np.random.default_rng(11)
    d = 12
    for _ in range(50):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        cov0 = a @ a.conj().T
        row = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        _, cov, _, g = kf_update(np.zeros(d, complex), cov0, row, 0.3, 1.0 + 0.5j)
        gain = cov0 @ row.conj() / g
        want = cov0 - gain[:, np.newaxis] * (row @ cov0)
        want = 0.5 * (want + want.conj().T)
        assert np.max(np.abs(cov - want)) <= 1e-14 * np.max(np.abs(want))


def test_filtered_covariances_stay_hermitian_to_rounding():
    # kf_update does not symmetrise and kf_predict does, so over a long run
    # the filtered covariances never drift from Hermitian beyond rounding.
    rng = np.random.default_rng(12)
    d, n = 12, 3000
    phi = 0.99 * np.exp(2j * np.pi * rng.uniform(size=d))
    a = 0.1 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    noise = a @ a.conj().T
    mean, cov = np.zeros(d, complex), np.eye(d, dtype=complex)
    worst = 0.0
    for _ in range(n):
        row = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        mean, cov, _, _ = kf_update(mean, cov, row, 0.1,
                                    rng.standard_normal() + 1j * rng.standard_normal())
        worst = max(worst, np.max(np.abs(cov - cov.conj().T)) / np.max(np.abs(cov)))
        mean, cov = kf_predict(mean, cov, phi, noise)
    assert worst <= 1e-12


# ----------------------------------------------------------------- predict
def test_predict_identity_dynamics():
    trans, noise = companion(np.ones((2, 1))), stacked_noise(np.zeros((2, 2)), 1)
    mean0, cov0 = vec([1.0, 2.0]), mat(np.diag([0.5, 0.25]))
    mean, cov = kf_predict(mean0, cov0, trans, noise)
    assert_allclose(mean, mean0)
    assert_allclose(cov, cov0)


def test_predict_zero_dynamics_resets_to_noise():
    noise = np.array([[0.3, 0.1], [0.1, 0.2]])
    mean, cov = kf_predict(vec([1.0, 2.0]), mat(np.eye(2)), companion(np.zeros((2, 1))),
                           stacked_noise(noise, 1))
    assert_allclose(mean, 0)
    assert_allclose(cov, noise)


def test_predict_matches_dense_triple_product():
    rng = np.random.default_rng(0)
    phi = 0.8 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(2, 2)))
    trans, noise = companion(phi), stacked_noise(np.eye(2) * 0.1, 2)
    cov = mat(np.eye(4) + 0.1 * np.ones((4, 4)))
    mean = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pred_mean, pred_cov = kf_predict(mean, cov, trans, noise)
    assert_allclose(pred_mean, trans @ mean, atol=1e-12)
    want = trans @ cov @ trans.conj().T + noise
    assert_allclose(pred_cov, 0.5 * (want + want.conj().T), atol=1e-12)


def test_predict_vector_transition_is_the_diagonal_companion():
    rng = np.random.default_rng(12)
    rank = 7
    phi = rng.uniform(0.5, 0.99, rank) * np.exp(1j * rng.uniform(-np.pi, np.pi, rank))
    a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    b = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    cov0, noise = a @ a.conj().T, 0.1 * b @ b.conj().T
    mean0 = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    mean, cov = kf_predict(mean0, cov0, phi, noise)
    want_mean, want_cov = kf_predict(mean0, cov0, companion(phi[:, None]), noise)
    assert np.abs(mean - want_mean).max() <= 1e-14 * np.abs(want_mean).max()
    assert np.abs(cov - want_cov).max() <= 1e-14 * np.abs(want_cov).max()
    assert np.array_equal(cov, cov.conj().T)


def test_companion_structure_order2():
    want = np.array([
        [0.5, 0.0, 0.2, 0.0],
        [0.0, 0.4, 0.0, 0.1],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    assert_allclose(companion(np.array([[0.5, 0.2], [0.4, 0.1]])), want)
    star = stacked_noise(np.eye(2), 2)
    assert_allclose(star[:2, :2], np.eye(2))
    assert not np.any(star[2:, :]) and not np.any(star[:, 2:])


@pytest.mark.parametrize("phi", [np.ones(3), np.ones((2, 0)), np.ones((1, 1, 1))])
def test_companion_rejects_coefficients_without_rank_and_lag(phi):
    with pytest.raises(InvalidInputError, match="companion"):
        companion(phi)


@pytest.mark.parametrize("noise, order", [(np.eye(2)[:1], 1), (np.ones(2), 1),
                                          (np.eye(2), 0)])
def test_stacked_noise_rejects_a_non_square_noise_or_no_lag(noise, order):
    with pytest.raises(InvalidInputError, match="stacked_noise"):
        stacked_noise(noise, order)


# ------------------------------------------------- recursive autocorrelation
def test_autocorr_single_sample():
    acc = RecursiveAutocorr(rank=1, order=1)
    z = np.array([0.5 + 0.5j])
    acc.update(z)
    assert_allclose(acc.table[0, 0] / acc.count, abs(z[0]) ** 2)
    assert_allclose(acc.table[0, 1] / acc.count, 0.0)  # no history yet


def test_autocorr_two_sample_mean():
    acc = RecursiveAutocorr(rank=1, order=0)
    acc.update(np.array([1.0 + 0j]))
    acc.update(np.array([3.0 + 0j]))
    assert_allclose(acc.table[0, 0] / acc.count, 5.0)  # (1 + 9) / 2


def test_autocorr_matches_batch_average():
    rng = np.random.default_rng(1)
    rank, order, n = 3, 2, 200
    z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    acc = RecursiveAutocorr(rank, order)
    for row in z:
        acc.update(row)
    padded = np.concatenate([np.zeros((order, rank), complex), z])
    for m in range(order + 1):
        want = np.sum(padded[order:] * padded[order - m:n + order - m].conj(),
                      axis=0) / n
        assert_allclose(acc.table[:, m] / acc.count, want, atol=1e-10)


# -------------------------------------------------------- model re-fitting
def test_predict_transition_consistent_with_training_fit():
    from subtrack.coarse_est import autocorrelation_table
    from subtrack.linalg_spectral import solve_yule_walker
    rng = np.random.default_rng(2)
    z = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    table = autocorrelation_table(z, 1)
    phi, _ = solve_yule_walker(table)
    assert_allclose(predict_transition(table), phi, atol=1e-12)


def test_predict_transition_clamps_unstable():
    table = np.array([[1.0, 1.2]], dtype=complex)
    phi = predict_transition(table)
    assert abs(phi[0, 0]) == pytest.approx(1 - 1e-6)
    assert np.angle(phi[0, 0]) == pytest.approx(0.0)
    rot = np.array([[1.0, 1.1j]], dtype=complex)
    phi = predict_transition(rot)
    assert np.angle(phi[0, 0]) == pytest.approx(np.pi / 2)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_predict_transition_matches_solver(order):
    from subtrack.linalg_spectral import solve_yule_walker
    rng = np.random.default_rng(3)
    z = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
    acc = RecursiveAutocorr(4, order)
    for row in z:
        acc.update(row)
    phi = predict_transition(acc.table)
    assert phi.shape == (4, order)
    for i in range(4):
        want = solve_yule_walker(acc.table[i:i + 1])[0][0]
        assert np.all(np.abs(want) < 1.0)  # no stability clamp
        assert np.array_equal(phi[i], want)


def test_predict_transition_degenerate_keeps_previous():
    prev = np.array([[0.5 + 0j]])
    table = np.array([[0.0, 0.0]], dtype=complex)
    assert predict_transition(table, previous=prev) is prev
    with pytest.raises(InvalidInputError, match="no fallback"):
        predict_transition(table)


@pytest.mark.parametrize("shape", [(3,), (2, 1), (1, 2, 2)])
def test_predict_transition_rejects_a_table_without_lags(shape):
    with pytest.raises(InvalidInputError, match="table"):
        predict_transition(np.ones(shape, dtype=complex))


def test_predict_transition_tracks_drifting_coefficient():
    # Cumulative averaging lags a drifting AR(1); with constant-power
    # innovations the bias stays within +/-0.05 after the first fifth.
    n, n_seeds = 5000, 8
    phi_path = np.linspace(0.99, 0.90, n)
    estimates = np.zeros((n_seeds, n))
    for s in range(n_seeds):
        rng = np.random.default_rng(50 + s)
        acc = RecursiveAutocorr(1, 1)
        z = np.array([1.0 + 0j])
        phi = None
        for i in range(n):
            noise_std = np.sqrt((1 - phi_path[i] ** 2) / 2)
            z = phi_path[i] * z + noise_std * (rng.standard_normal()
                                               + 1j * rng.standard_normal())
            acc.update(z)
            phi = predict_transition(acc.table, previous=phi)
            estimates[s, i] = abs(phi[0, 0])
    mean_est = estimates.mean(axis=0)
    assert np.max(np.abs(mean_est[1000:] - phi_path[1000:])) < 0.05


def toeplitz_condition(table):
    """Largest 2-norm condition number of the rows' Yule-Walker systems."""
    lags = np.arange(table.shape[1] - 1)
    toep = table[:, np.abs(lags[:, None] - lags[None, :])]
    upper = lags[:, None] < lags[None, :]
    toep[:, upper] = toep[:, upper].conj()
    return np.linalg.cond(toep).max()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_predict_transition_reads_running_sums_as_their_average(order):
    # A drifting AR(1) record: the sums grow with the step count while their
    # average stays O(1).  Dividing by the count rounds the table, and the
    # Yule-Walker solve amplifies that by its condition number (1 at p = 1).
    rng = np.random.default_rng(13)
    n, rank = 3000, 3
    acc = RecursiveAutocorr(rank, order)
    z = np.ones(rank, complex)
    phi_sums = phi_mean = None
    for i in range(n):
        a = 0.99 - 0.09 * i / n
        z = a * z + np.sqrt((1 - a * a) / 2) * (rng.standard_normal(rank)
                                                + 1j * rng.standard_normal(rank))
        acc.update(z)
        mean = acc.table / acc.count
        phi_sums = predict_transition(acc.table, previous=phi_sums)
        phi_mean = predict_transition(mean, previous=phi_mean)
        if i >= order:
            gap = np.max(np.abs(phi_sums - phi_mean)) / np.max(np.abs(phi_mean))
            assert gap <= 1e-15 * toeplitz_condition(mean)


# ---------------------------------------------------------- backward model
def test_backward_model_diagonal_inverse():
    model = ArTransitionModel(phi=np.array([[0.5], [0.8]]),
                              noise_cov=np.zeros((2, 2)))
    trans, noise = backward_model(model)
    assert_allclose(trans, np.diag([2.0, 1.25]))
    assert_allclose(noise, 0)


def test_backward_model_inverse_product_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        phi = rng.uniform(0.2, 0.95, size=(3, 2)) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, size=(3, 2)))
        model = ArTransitionModel(phi=phi, noise_cov=np.eye(3) * 0.1)
        trans, _ = backward_model(model)
        assert_allclose(trans @ companion(phi), np.eye(6), atol=1e-10)


def test_backward_model_maps_noise():
    model = ArTransitionModel(phi=np.array([[0.5]]),
                              noise_cov=np.array([[0.1]]))
    _, noise = backward_model(model)
    assert_allclose(noise, [[0.1 / 0.25]])


def test_backward_model_singular_names_component():
    model = ArTransitionModel(phi=np.array([[0.5], [0.0]]),
                              noise_cov=np.eye(2))
    with pytest.raises(SingularModelError, match="component 1"):
        backward_model(model)


@pytest.mark.parametrize("phi, noise", [(np.ones((2, 1)), np.eye(3)),
                                        (np.ones((2, 0)), np.eye(2)),
                                        (np.ones(2), np.eye(2))])
def test_backward_model_rejects_mismatched_shapes(phi, noise):
    with pytest.raises(InvalidInputError, match="backward_model"):
        backward_model(ArTransitionModel(phi=phi, noise_cov=noise))


# ----------------------------------------------------------------- fusion
def test_fb_combine_symmetric():
    rng = np.random.default_rng(5)
    cov = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    zf = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    zb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    mean, sm_cov = fb_combine(zf, cov, zb, cov)
    assert_allclose(mean, 0.5 * (zf + zb), atol=1e-12)
    assert_allclose(sm_cov, 0.5 * cov, atol=1e-12)


def test_fb_combine_uninformative_backward():
    zf = np.array([1.0 - 1.0j, 2.0 + 0.5j])
    mean, _ = fb_combine(zf, mat(np.eye(2)), vec([5.0, -3.0]), mat(1e9 * np.eye(2)))
    assert np.linalg.norm(mean - zf) / np.linalg.norm(zf) < 1e-6


def test_fb_combine_both_singular():
    with pytest.raises(FusionError):
        fb_combine(vec([0.0]), mat([[0.0]]), vec([0.0]), mat([[0.0]]))


def random_hpd_stack(rng, n, dim):
    a = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    return a @ np.swapaxes(a, -1, -2).conj() + 0.1 * np.eye(dim)


@pytest.mark.parametrize("dim", [1, 3, 12])
def test_fb_fuse_matches_per_step_fb_combine(dim):
    rng = np.random.default_rng(40 + dim)
    n = 200
    covs_f, covs_b = random_hpd_stack(rng, n, dim), random_hpd_stack(rng, n, dim)
    means_f, means_b = (rng.standard_normal((2, n, dim))
                        + 1j * rng.standard_normal((2, n, dim)))
    fused = fb_fuse(means_f, covs_f, means_b, covs_b)
    want = np.array([fb_combine(means_f[i], covs_f[i], means_b[i], covs_b[i])[0]
                     for i in range(n)])
    rel = np.linalg.norm(fused - want, axis=1) / np.linalg.norm(want, axis=1)
    assert rel.max() < 1e-10


def test_fb_fuse_ridges_singular_stack_once():
    # K_f + K_b = diag(2, 0) at every step: the 1e-12 * trace ridge makes it
    # solvable, and the direction neither filter saw keeps the forward mean.
    cov = np.tile(np.diag([1.0, 0.0]).astype(complex), (5, 1, 1))
    means_f = np.tile(np.array([1.0, 2.0], dtype=complex), (5, 1))
    means_b = np.tile(np.array([3.0, 5.0], dtype=complex), (5, 1))
    fused = fb_fuse(means_f, cov, means_b, cov)
    assert_allclose(fused, np.tile([2.0, 2.0], (5, 1)), atol=1e-9)


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_fb_fuse_unsolvable_raises_fusion_error(bad):
    covs = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
    covs[2] = bad * np.ones((2, 2))
    means = np.ones((4, 2), dtype=complex)
    with pytest.raises(FusionError):
        fb_fuse(means, covs, means, covs)


def test_fb_combine_three_step_scalar_matches_combined_lmmse():
    # Forward filtered, backward filtered, and their fusion must match the
    # same quantities computed by dense joint-Gaussian algebra.
    rng = np.random.default_rng(6)
    phi_val, q, sigma, p0, n = 0.9, 0.19, 0.05, 1.0, 3
    model = ArTransitionModel(phi=np.array([[phi_val]]),
                              noise_cov=np.array([[q]]))
    rows = [np.array([rng.standard_normal() + 1j * rng.standard_normal()])
            for _ in range(n)]
    observations = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    filtered_f = run_forward(model, [[p0]], rows, sigma, observations)
    prior_b = 1e3
    filtered_b = run_backward(model, [[prior_b]], rows, sigma, observations)

    # Dense forward posterior at each time given observations 1..n.
    for t in range(n):
        mean_f, cov_f = batch_lmmse(model, [[p0]], rows[:t + 1], sigma,
                                    observations[:t + 1], information=True)
        assert_allclose(filtered_f[t][0], mean_f[t], atol=1e-8)
        assert_allclose(filtered_f[t][1][0, 0], cov_f[t, t], atol=1e-8)

    # Dense backward posterior: reversed chain with the inverted model.
    back_model_obj = ArTransitionModel(
        phi=np.array([[1.0 / phi_val]]),
        noise_cov=np.array([[q / phi_val**2]]))
    for t in range(n):
        rows_rev = rows[t:][::-1]
        obs_rev = observations[t:][::-1]
        mean_b, cov_b = batch_lmmse(back_model_obj, [[prior_b]], rows_rev,
                                    sigma, obs_rev, information=True)
        assert_allclose(filtered_b[t][0], mean_b[-1], atol=1e-8)
        assert_allclose(filtered_b[t][1][0, 0], cov_b[-1, -1], atol=1e-8)

    # Fusion equals the combined-system LMMSE built from those posteriors.
    for (mean_f, cov_f), (mean_b, cov_b) in zip(filtered_f, filtered_b):
        sm_mean, sm_cov = fb_combine(mean_f, cov_f, mean_b, cov_b)
        info_f = 1.0 / cov_f[0, 0]
        info_b = 1.0 / cov_b[0, 0]
        want_cov = 1.0 / (info_f + info_b)
        want_mean = want_cov * (info_f * mean_f[0] + info_b * mean_b[0])
        assert_allclose(sm_mean[0], want_mean, atol=1e-10)
        assert_allclose(sm_cov[0, 0], want_cov, atol=1e-10)


def test_forward_filter_matches_batch_lmmse_mimo():
    # Time-invariant rp<=4 instances: filtered state at N equals the dense
    # joint LMMSE of the stacked system.
    rng = np.random.default_rng(7)
    for rank, order in ((2, 2), (4, 1), (1, 3)):
        phi = rng.uniform(0.3, 0.9, size=(rank, order)) / order
        model = ArTransitionModel(phi=phi + 0j,
                                  noise_cov=0.1 * np.eye(rank))
        dim = rank * order
        p0 = np.eye(dim) * 0.8
        n = 12
        rows = [np.concatenate([
            rng.standard_normal(rank) + 1j * rng.standard_normal(rank),
            np.zeros(dim - rank)]) for _ in range(n)]
        observations = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        last_mean, last_cov = run_forward(model, p0, rows, 0.3, observations)[-1]
        mean, cov = batch_lmmse(model, p0, rows, 0.3, observations)
        scale = max(np.linalg.norm(mean[-1]), 1.0)
        assert np.linalg.norm(last_mean - mean[-1]) / scale < 1e-8
        block = cov[(n - 1) * dim:, (n - 1) * dim:]
        assert np.linalg.norm(last_cov - block) / np.linalg.norm(block) < 1e-8


def test_innovation_whiteness_matched_model():
    rng = np.random.default_rng(8)
    rank, n = 2, 5000
    phi = np.array([0.95, 0.8])
    q = 1 - phi**2
    trans, noise = companion(phi[:, None]), stacked_noise(np.diag(q), 1)
    z = np.zeros(rank, complex)
    mean, cov = np.zeros(rank, complex), mat(np.eye(rank))
    sigma = 0.1
    norm_innov = np.empty(n, complex)
    for i in range(n):
        z = phi * z + np.sqrt(q / 2) * (rng.standard_normal(rank)
                                        + 1j * rng.standard_normal(rank))
        row = (rng.standard_normal(rank) + 1j * rng.standard_normal(rank)) / np.sqrt(2)
        r_n = row @ z + np.sqrt(sigma / 2) * (rng.standard_normal()
                                              + 1j * rng.standard_normal())
        mean, cov, innovation, innovation_var = kf_update(mean, cov, row, sigma, r_n)
        norm_innov[i] = innovation / np.sqrt(innovation_var)
        mean, cov = kf_predict(mean, cov, trans, noise)
    assert abs(np.mean(np.abs(norm_innov[500:]) ** 2) - 1.0) < 0.1


def test_fb_combine_reduces_error_monte_carlo():
    # Smoothed estimates beat both one-sided filters on matched scalar runs.
    n_steps, n_seeds = 40, 25
    phi_val, q, sigma = 0.9, 0.19, 0.1
    model = ArTransitionModel(phi=np.array([[phi_val]]),
                              noise_cov=np.array([[q]]))
    se_f = se_b = se_s = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(200 + seed)
        z = np.zeros(n_steps, complex)
        z[0] = rng.standard_normal() + 1j * rng.standard_normal()
        for i in range(1, n_steps):
            z[i] = phi_val * z[i - 1] + np.sqrt(q / 2) * (
                rng.standard_normal() + 1j * rng.standard_normal())
        rows = [np.array([(rng.standard_normal() + 1j * rng.standard_normal())
                          / np.sqrt(2)]) for _ in range(n_steps)]
        obs = np.array([rows[i][0] * z[i] for i in range(n_steps)])
        obs += np.sqrt(sigma / 2) * (rng.standard_normal(n_steps)
                                     + 1j * rng.standard_normal(n_steps))

        filt_f = run_forward(model, [[1.0]], rows, sigma, obs)
        filt_b = run_backward(model, [[1e3]], rows, sigma, obs)
        for i in range(n_steps):
            sm_mean, _ = fb_combine(*filt_f[i], *filt_b[i])
            se_f += abs(filt_f[i][0][0] - z[i]) ** 2
            se_b += abs(filt_b[i][0][0] - z[i]) ** 2
            se_s += abs(sm_mean[0] - z[i]) ** 2
    assert se_s <= min(se_f, se_b) + 1e-9


def test_output_covariances_stay_psd():
    rng = np.random.default_rng(9)
    trans = companion(np.array([[0.9], [0.5]]))
    noise = stacked_noise(np.diag([0.1, 0.2]) + 0j, 1)
    mean, cov = np.zeros(2, complex), mat(np.eye(2))
    for _ in range(200):
        row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        mean, cov, _, _ = kf_update(mean, cov, row, 0.1,
                                    rng.standard_normal() + 1j * rng.standard_normal())
        pred_mean, pred_cov = kf_predict(mean, cov, trans, noise)
        for out in (cov, pred_cov):
            evals = np.linalg.eigvalsh(out)
            assert evals.min() >= -1e-8 * max(np.trace(out).real, 1e-30)
        mean, cov = pred_mean, pred_cov


@pytest.mark.parametrize("order", [1, 2])
def test_predict_transition_members_fall_back_one_by_one(order):
    # Three stacked models of two components each; the middle one has a
    # component at zero power and keeps its own previous coefficients.
    rng = np.random.default_rng(8)
    tables = []
    for _ in range(3):
        acc = RecursiveAutocorr(2, order)
        for row in rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2)):
            acc.update(row)
        tables.append(acc.table.copy())
    tables[1][0] = 0.0
    previous = np.full((6, order), 0.25 + 0j)
    phi = predict_transition(np.concatenate(tables), previous=previous, members=3)
    assert np.array_equal(phi[2:4], previous[2:4])
    for i in (0, 2):
        assert np.array_equal(phi[2 * i:2 * i + 2], predict_transition(tables[i]))
    tables[0][1] = 0.0
    tables[2][0, 0] = -1.0
    stacked = np.concatenate(tables)
    assert predict_transition(stacked, previous=previous, members=3) is previous
    with pytest.raises(InvalidInputError, match="members"):
        predict_transition(stacked, previous=previous, members=4)
