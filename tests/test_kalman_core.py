import numpy as np
import pytest
from numpy.testing import assert_allclose

from subtrack.errors import (FusionError, InvalidInputError, NumericError,
                             SingularModelError)
from subtrack.kalman_core import (ArTransitionModel, KalmanBelief,
                                  ObservationRow, RecursiveAutocorr,
                                  backward_model, fb_combine, fb_fuse,
                                  kf_predict, kf_update, predict_transition)


def belief(mean, cov, kind="predicted"):
    return KalmanBelief(mean=np.atleast_1d(np.asarray(mean, complex)),
                        cov=np.atleast_2d(np.asarray(cov, complex)), kind=kind)


def stacked_covariance(model, p0, n_steps):
    """Joint covariance of [Z(1); ...; Z(N)] under the linear-Gaussian chain."""
    dim = model.transition_matrix.shape[0]
    trans = model.transition_matrix
    blocks = [[None] * n_steps for _ in range(n_steps)]
    blocks[0][0] = np.asarray(p0, complex)
    for k in range(1, n_steps):
        blocks[k][k] = trans @ blocks[k - 1][k - 1] @ trans.conj().T \
            + model.process_noise_star
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
    dim = model.transition_matrix.shape[0]
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
    dim = model.transition_matrix.shape[0]
    pred = belief(np.zeros(dim), p0)
    filtered = []
    for row, r_n in zip(rows, observations):
        upd = kf_update(pred, ObservationRow(row=row, noise_var=noise_var), r_n)
        filtered.append(upd.belief)
        pred = kf_predict(upd.belief, model)
    return filtered


# ------------------------------------------------------------------ update
def test_update_uninformative_row():
    pred = belief([1.0, -2.0], np.diag([2.0, 3.0]))
    out = kf_update(pred, ObservationRow(row=np.zeros(2), noise_var=0.5), 4.0)
    assert_allclose(out.belief.mean, pred.mean)
    assert_allclose(out.belief.cov, pred.cov)
    assert out.innovation == pytest.approx(4.0)
    assert out.innovation_var == pytest.approx(0.5)


def test_update_scalar_hand_values():
    out = kf_update(belief([0.0], [[1.0]]),
                    ObservationRow(row=np.array([1.0]), noise_var=1.0), 2.0)
    assert out.innovation_var == pytest.approx(2.0)
    assert_allclose(out.gain, [0.5])
    assert out.innovation == pytest.approx(2.0)
    assert_allclose(out.belief.mean, [1.0])
    assert_allclose(out.belief.cov, [[0.5]])


def test_update_near_exact_observation_pins_state():
    pred = belief([0.0, 0.0], np.eye(2))
    row = np.array([1.0, 0.0])
    out = kf_update(pred, ObservationRow(row=row, noise_var=1e-12), 0.7 - 0.2j)
    assert abs(out.belief.mean[0] - (0.7 - 0.2j)) < 1e-6


def test_update_innovation_variance_floor():
    out = kf_update(belief([0.0], [[1.0]]),
                    ObservationRow(row=np.array([1.0]), noise_var=0.25), 1.0)
    assert out.innovation_var >= 0.25


def test_update_rejects_nonfinite():
    with pytest.raises(NumericError):
        kf_update(belief([np.nan], [[1.0]]),
                  ObservationRow(row=np.array([1.0]), noise_var=1.0), 1.0)
    with pytest.raises(NumericError):
        kf_update(belief([0.0], [[1.0]]),
                  ObservationRow(row=np.array([1.0]), noise_var=1.0), np.inf)


def test_update_requires_predicted_belief():
    filt = belief([0.0], [[1.0]], kind="filtered")
    with pytest.raises(InvalidInputError):
        kf_update(filt, ObservationRow(row=np.array([1.0]), noise_var=1.0), 1.0)


# ----------------------------------------------------------------- predict
def test_predict_identity_dynamics():
    model = ArTransitionModel(phi=np.array([[1.0], [1.0]]),
                              noise_cov=np.zeros((2, 2)))
    filt = belief([1.0, 2.0], np.diag([0.5, 0.25]), kind="filtered")
    pred = kf_predict(filt, model)
    assert_allclose(pred.mean, filt.mean)
    assert_allclose(pred.cov, filt.cov)


def test_predict_zero_dynamics_resets_to_noise():
    noise = np.array([[0.3, 0.1], [0.1, 0.2]])
    model = ArTransitionModel(phi=np.zeros((2, 1)), noise_cov=noise)
    pred = kf_predict(belief([1.0, 2.0], np.eye(2), kind="filtered"), model)
    assert_allclose(pred.mean, 0)
    assert_allclose(pred.cov, noise)


def test_predict_matches_dense_triple_product():
    rng = np.random.default_rng(0)
    phi = 0.8 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(2, 2)))
    noise = np.eye(2) * 0.1
    model = ArTransitionModel(phi=phi, noise_cov=noise)
    cov = np.eye(4) + 0.1 * np.ones((4, 4))
    mean = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pred = kf_predict(belief(mean, cov, kind="filtered"), model)
    trans = model.companion
    assert_allclose(pred.mean, trans @ mean, atol=1e-12)
    want = trans @ cov @ trans.conj().T + model.process_noise_star
    assert_allclose(pred.cov, 0.5 * (want + want.conj().T), atol=1e-12)


def test_companion_structure_order2():
    model = ArTransitionModel(phi=np.array([[0.5, 0.2], [0.4, 0.1]]),
                              noise_cov=np.eye(2))
    want = np.array([
        [0.5, 0.0, 0.2, 0.0],
        [0.0, 0.4, 0.0, 0.1],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    assert_allclose(model.companion, want)
    star = model.process_noise_star
    assert_allclose(star[:2, :2], np.eye(2))
    assert not np.any(star[2:, :]) and not np.any(star[:, 2:])


# ------------------------------------------------- recursive autocorrelation
def test_autocorr_single_sample():
    acc = RecursiveAutocorr(rank=1, order=1)
    z = np.array([0.5 + 0.5j])
    acc.update(z)
    assert_allclose(acc.table[0, 0], abs(z[0]) ** 2)
    assert_allclose(acc.table[0, 1], 0.0)  # no history yet


def test_autocorr_two_sample_mean():
    acc = RecursiveAutocorr(rank=1, order=0)
    acc.update(np.array([1.0 + 0j]))
    acc.update(np.array([3.0 + 0j]))
    assert_allclose(acc.table[0, 0], 5.0)  # (1 + 9) / 2


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
        assert_allclose(acc.table[:, m], want, atol=1e-10)


# -------------------------------------------------------- model re-fitting
def test_predict_transition_consistent_with_training_fit():
    from subtrack.coarse_est import autocorrelation_table, build_initial_model
    rng = np.random.default_rng(2)
    z = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    table = autocorrelation_table(z, 1, 500)
    model0, noise = build_initial_model(table, 1, 2)
    refit = predict_transition(table, 1, 2, noise)
    assert_allclose(refit.phi, model0.phi, atol=1e-12)


def test_predict_transition_clamps_unstable():
    table = np.array([[1.0, 1.2]], dtype=complex)
    model = predict_transition(table, 1, 1, np.eye(1))
    assert abs(model.phi[0, 0]) == pytest.approx(1 - 1e-6)
    assert np.angle(model.phi[0, 0]) == pytest.approx(0.0)
    rot = np.array([[1.0, 1.1j]], dtype=complex)
    model = predict_transition(rot, 1, 1, np.eye(1))
    assert np.angle(model.phi[0, 0]) == pytest.approx(np.pi / 2)


def test_predict_transition_order1_matches_solver():
    from subtrack.linalg_spectral import solve_yule_walker
    rng = np.random.default_rng(3)
    table = np.empty((4, 2), dtype=complex)
    table[:, 0] = rng.uniform(0.5, 2.0, size=4)
    table[:, 1] = table[:, 0] * rng.uniform(-0.9, 0.9, size=4)
    model = predict_transition(table, 1, 4, np.eye(4))
    for i in range(4):
        want = solve_yule_walker(table[i], 1).phi
        assert_allclose(model.phi[i], want, atol=1e-14)


def test_predict_transition_degenerate_keeps_previous():
    prev = ArTransitionModel(phi=np.array([[0.5]]), noise_cov=np.eye(1))
    table = np.array([[0.0, 0.0]], dtype=complex)
    model = predict_transition(table, 1, 1, np.eye(1), previous=prev)
    assert model is prev


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
        model = None
        for i in range(n):
            noise_std = np.sqrt((1 - phi_path[i] ** 2) / 2)
            z = phi_path[i] * z + noise_std * (rng.standard_normal()
                                               + 1j * rng.standard_normal())
            acc.update(z)
            model = predict_transition(acc.table, 1, 1, np.eye(1), previous=model)
            estimates[s, i] = abs(model.phi[0, 0])
    mean_est = estimates.mean(axis=0)
    assert np.max(np.abs(mean_est[1000:] - phi_path[1000:])) < 0.05


# ---------------------------------------------------------- backward model
def test_backward_model_diagonal_inverse():
    model = ArTransitionModel(phi=np.array([[0.5], [0.8]]),
                              noise_cov=np.zeros((2, 2)))
    back = backward_model(model)
    assert_allclose(back.transition_matrix, np.diag([2.0, 1.25]))
    assert_allclose(back.process_noise_star, 0)


def test_backward_model_inverse_product_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        phi = rng.uniform(0.2, 0.95, size=(3, 2)) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, size=(3, 2)))
        model = ArTransitionModel(phi=phi, noise_cov=np.eye(3) * 0.1)
        back = backward_model(model)
        assert_allclose(back.transition_matrix @ model.companion,
                        np.eye(6), atol=1e-10)


def test_backward_model_maps_noise():
    model = ArTransitionModel(phi=np.array([[0.5]]),
                              noise_cov=np.array([[0.1]]))
    back = backward_model(model)
    assert_allclose(back.process_noise_star, [[0.1 / 0.25]])


def test_backward_model_singular_names_component():
    model = ArTransitionModel(phi=np.array([[0.5], [0.0]]),
                              noise_cov=np.eye(2))
    with pytest.raises(SingularModelError, match="component 1"):
        backward_model(model)


# ----------------------------------------------------------------- fusion
def test_fb_combine_symmetric():
    rng = np.random.default_rng(5)
    cov = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    zf = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    zb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sm = fb_combine(belief(zf, cov, "filtered"), belief(zb, cov, "filtered"))
    assert_allclose(sm.mean, 0.5 * (zf + zb), atol=1e-12)
    assert_allclose(sm.cov, 0.5 * cov, atol=1e-12)


def test_fb_combine_uninformative_backward():
    zf = np.array([1.0 - 1.0j, 2.0 + 0.5j])
    sm = fb_combine(belief(zf, np.eye(2), "filtered"),
                    belief([5.0, -3.0], 1e9 * np.eye(2), "filtered"))
    assert np.linalg.norm(sm.mean - zf) / np.linalg.norm(zf) < 1e-6


def test_fb_combine_requires_filtered():
    with pytest.raises(InvalidInputError):
        fb_combine(belief([0.0], [[1.0]], "predicted"),
                   belief([0.0], [[1.0]], "filtered"))


def test_fb_combine_both_singular():
    with pytest.raises(FusionError):
        fb_combine(belief([0.0], [[0.0]], "filtered"),
                   belief([0.0], [[0.0]], "filtered"))


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
    want = np.array([fb_combine(belief(means_f[i], covs_f[i], "filtered"),
                                belief(means_b[i], covs_b[i], "filtered")).mean
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

    back = backward_model(model)
    prior_b = 1e3
    pred_b = belief([0.0], [[prior_b]])
    filtered_b = [None] * n
    for i in range(n - 1, -1, -1):
        upd = kf_update(pred_b, ObservationRow(row=rows[i], noise_var=sigma),
                        observations[i])
        filtered_b[i] = upd.belief
        if i > 0:
            pred_b = kf_predict(upd.belief, back)

    # Dense forward posterior at each time given observations 1..n.
    for t in range(n):
        mean_f, cov_f = batch_lmmse(model, [[p0]], rows[:t + 1], sigma,
                                    observations[:t + 1], information=True)
        assert_allclose(filtered_f[t].mean, mean_f[t], atol=1e-8)
        assert_allclose(filtered_f[t].cov[0, 0], cov_f[t, t], atol=1e-8)

    # Dense backward posterior: reversed chain with the inverted model.
    back_model_obj = ArTransitionModel(
        phi=np.array([[1.0 / phi_val]]),
        noise_cov=np.array([[q / phi_val**2]]))
    for t in range(n):
        rows_rev = rows[t:][::-1]
        obs_rev = observations[t:][::-1]
        mean_b, cov_b = batch_lmmse(back_model_obj, [[prior_b]], rows_rev,
                                    sigma, obs_rev, information=True)
        assert_allclose(filtered_b[t].mean, mean_b[-1], atol=1e-8)
        assert_allclose(filtered_b[t].cov[0, 0], cov_b[-1, -1], atol=1e-8)

    # Fusion equals the combined-system LMMSE built from those posteriors.
    for t in range(n):
        sm = fb_combine(filtered_f[t], filtered_b[t])
        info_f = 1.0 / filtered_f[t].cov[0, 0]
        info_b = 1.0 / filtered_b[t].cov[0, 0]
        want_cov = 1.0 / (info_f + info_b)
        want_mean = want_cov * (info_f * filtered_f[t].mean[0]
                                + info_b * filtered_b[t].mean[0])
        assert_allclose(sm.mean[0], want_mean, atol=1e-10)
        assert_allclose(sm.cov[0, 0], want_cov, atol=1e-10)


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
        filtered = run_forward(model, p0, rows, 0.3, observations)
        mean, cov = batch_lmmse(model, p0, rows, 0.3, observations)
        scale = max(np.linalg.norm(mean[-1]), 1.0)
        assert np.linalg.norm(filtered[-1].mean - mean[-1]) / scale < 1e-8
        block = cov[(n - 1) * dim:, (n - 1) * dim:]
        assert np.linalg.norm(filtered[-1].cov - block) / np.linalg.norm(block) < 1e-8


def test_innovation_whiteness_matched_model():
    rng = np.random.default_rng(8)
    rank, n = 2, 5000
    phi = np.array([0.95, 0.8])
    q = 1 - phi**2
    model = ArTransitionModel(phi=phi[:, None] + 0j, noise_cov=np.diag(q) + 0j)
    z = np.zeros(rank, complex)
    pred = belief(np.zeros(rank), np.eye(rank))
    sigma = 0.1
    norm_innov = np.empty(n, complex)
    for i in range(n):
        z = phi * z + np.sqrt(q / 2) * (rng.standard_normal(rank)
                                        + 1j * rng.standard_normal(rank))
        row = (rng.standard_normal(rank) + 1j * rng.standard_normal(rank)) / np.sqrt(2)
        r_n = row @ z + np.sqrt(sigma / 2) * (rng.standard_normal()
                                              + 1j * rng.standard_normal())
        upd = kf_update(pred, ObservationRow(row=row, noise_var=sigma), r_n)
        norm_innov[i] = upd.innovation / np.sqrt(upd.innovation_var)
        pred = kf_predict(upd.belief, model)
    assert abs(np.mean(np.abs(norm_innov[500:]) ** 2) - 1.0) < 0.1


def test_fb_combine_reduces_error_monte_carlo():
    # Smoothed estimates beat both one-sided filters on matched scalar runs.
    n_steps, n_seeds = 40, 25
    phi_val, q, sigma = 0.9, 0.19, 0.1
    model = ArTransitionModel(phi=np.array([[phi_val]]),
                              noise_cov=np.array([[q]]))
    back = backward_model(model)
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
        pred_b = belief([0.0], [[1e3]])
        filt_b = [None] * n_steps
        for i in range(n_steps - 1, -1, -1):
            upd = kf_update(pred_b, ObservationRow(row=rows[i], noise_var=sigma),
                            obs[i])
            filt_b[i] = upd.belief
            if i > 0:
                pred_b = kf_predict(upd.belief, back)
        for i in range(n_steps):
            sm = fb_combine(filt_f[i], filt_b[i])
            se_f += abs(filt_f[i].mean[0] - z[i]) ** 2
            se_b += abs(filt_b[i].mean[0] - z[i]) ** 2
            se_s += abs(sm.mean[0] - z[i]) ** 2
    assert se_s <= min(se_f, se_b) + 1e-9


def test_output_covariances_stay_psd():
    rng = np.random.default_rng(9)
    model = ArTransitionModel(phi=np.array([[0.9], [0.5]]),
                              noise_cov=np.diag([0.1, 0.2]) + 0j)
    pred = belief(np.zeros(2), np.eye(2))
    for _ in range(200):
        row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        upd = kf_update(pred, ObservationRow(row=row, noise_var=0.1),
                        rng.standard_normal() + 1j * rng.standard_normal())
        for cov in (upd.belief.cov, kf_predict(upd.belief, model).cov):
            evals = np.linalg.eigvalsh(cov)
            assert evals.min() >= -1e-8 * max(np.trace(cov).real, 1e-30)
        pred = kf_predict(upd.belief, model)
