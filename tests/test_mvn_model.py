import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp

from gnssfp import mvn_model
from gnssfp.mvn_model import fit, from_moments, log_density, log_mean_of_scores
from helpers import density, log_mean_oracle


def _model(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    k = len(mu)
    chol = np.linalg.cholesky(sigma)
    logdet = 2 * np.sum(np.log(np.diag(chol)))
    return mvn_model.MvnModel(mu=mu, sigma=sigma, k=k,
                              sigma_inv=np.linalg.inv(sigma),
                              log_norm_const=float(-0.5 * (k * np.log(2 * np.pi) + logdet)))


def test_density_identity_sigma_k6():
    m = _model(np.zeros(6), np.eye(6))
    expected = (2 * np.pi) ** -3
    assert density(np.zeros(6), m) == pytest.approx(expected, rel=1e-12)


def test_density_standard_normal_1d():
    m = _model([0.0], [[1.0]])
    assert density([0.0], m) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)


def test_paper_scale_max_density():
    # A 6-D covariance scaled so the mode density is exactly 6e-27: the
    # determinant must equal ((2 pi)^-3 / 6e-27)^2.
    target = 6e-27
    det = ((2 * np.pi) ** -3 / target) ** 2
    sigma = np.eye(6) * det ** (1 / 6)
    m = _model(np.zeros(6), sigma)
    assert density(m.mu, m) == pytest.approx(target, rel=1e-9)
    assert density(np.zeros(6), m) == pytest.approx(target, rel=1e-9)


def test_paper_scale_threshold_in_log_space():
    assert np.log(1.177e-192) == pytest.approx(-441.9, abs=0.05)


def test_fit_constant_samples_regularization_floor():
    v = np.array([2.0, -1.0, 0.5])
    m = fit(np.tile(v, (10, 1)))
    assert np.allclose(m.mu, v)
    assert np.allclose(m.sigma, 1e-9 * np.eye(3))


def test_fit_hand_computed_2d_case():
    samples = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    m = fit(samples)
    assert np.allclose(m.mu, [0.5, 0.5])
    # diagonal is 1/3 up to the documented ridge of eps * (trace/k)
    assert m.sigma[0, 0] == pytest.approx(1 / 3, rel=1e-8)
    assert m.sigma[1, 1] == pytest.approx(1 / 3, rel=1e-8)
    assert m.sigma[0, 1] == pytest.approx(0.0, abs=1e-9)


def test_from_moments_matches_explicit_construction():
    mu, sigma = [0.5, -0.5], [[2.0, 0.3], [0.3, 1.0]]
    m, ref = from_moments(mu, sigma), _model(mu, sigma)
    assert m.k == ref.k == 2
    np.testing.assert_array_equal(m.mu, ref.mu)
    np.testing.assert_array_equal(m.sigma_inv, ref.sigma_inv)
    assert m.log_norm_const == pytest.approx(ref.log_norm_const, rel=1e-15)
    fitted = fit(np.random.default_rng(3).normal(size=(50, 3)))
    again = from_moments(fitted.mu, fitted.sigma)
    np.testing.assert_array_equal(again.sigma_inv, fitted.sigma_inv)
    assert again.log_norm_const == fitted.log_norm_const
    with pytest.raises(np.linalg.LinAlgError):
        from_moments([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def test_fit_recovers_known_distribution():
    rng = np.random.default_rng(11)
    mu = np.array([1.0, -2.0, 0.3])
    a = rng.normal(size=(3, 3))
    sigma = a @ a.T + 0.5 * np.eye(3)
    n = 10_000
    draws = rng.multivariate_normal(mu, sigma, size=n)
    m = fit(draws)
    tol = 5 * np.sqrt(np.diag(sigma) / n)
    assert np.all(np.abs(m.mu - mu) < tol)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit(np.zeros((3, 6)))  # n <= k
    bad = np.ones((10, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        fit(bad)


def test_density_dimension_mismatch():
    m = _model(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        density(np.zeros(4), m)


def test_log_density_consistency():
    rng = np.random.default_rng(5)
    m = _model([0.5, -0.5], [[2.0, 0.3], [0.3, 1.0]])
    for _ in range(50):
        x = rng.normal(size=2) * 3
        d = density(x, m)
        if d > 1e-300:
            assert np.exp(log_density(x, m)) == pytest.approx(d, rel=1e-12)


def test_log_density_at_mean_equals_norm_const():
    rng = np.random.default_rng(2)
    samples = rng.normal(size=(200, 4))
    m = fit(samples)
    assert log_density(m.mu, m) == pytest.approx(m.log_norm_const, abs=1e-12)


def test_normalization_1d_quadrature():
    m = _model([0.7], [[1.9]])
    sd = np.sqrt(1.9)
    total, _ = integrate.quad(lambda x: density([x], m), 0.7 - 8 * sd, 0.7 + 8 * sd)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_normalization_2d_quadrature():
    sigma = np.array([[1.5, 0.4], [0.4, 0.8]])
    m = _model([0.0, 0.0], sigma)
    lim = 8 * np.sqrt(sigma.max())
    total, _ = integrate.dblquad(lambda y, x: density([x, y], m),
                                 -lim, lim, -lim, lim, epsabs=1e-9)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_symmetric_about_mean():
    m = _model([1.0, 2.0], [[1.0, 0.2], [0.2, 2.0]])
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = rng.normal(size=2)
        assert density(m.mu + d, m) == pytest.approx(density(m.mu - d, m), rel=1e-12)


def test_density_decreases_along_rays():
    m = _model([0.0, 0.0, 0.0], np.diag([1.0, 2.0, 0.5]))
    rng = np.random.default_rng(4)
    for _ in range(20):
        direction = rng.normal(size=3)
        scales = np.sort(rng.uniform(0.1, 5.0, size=5))
        vals = [density(s * direction, m) for s in scales]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_max_density_bounds_and_scaling():
    m = _model(np.zeros(6), np.eye(6))
    assert density(m.mu, m) == pytest.approx((2 * np.pi) ** -3, rel=1e-12)
    m2 = _model(np.zeros(6), 2 * np.eye(6))
    assert density(m2.mu, m2) / density(m.mu, m) == pytest.approx(2 ** -3, rel=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(30):
        x = rng.normal(size=6) * 2
        assert density(x, m) <= density(m.mu, m) + 1e-300


def _avg_score(xs, m):
    """Mean density of sample points, as the detector averages them."""
    return float(np.exp(log_mean_of_scores(log_density(np.atleast_2d(xs), m))))


def test_avg_score_basic():
    m = _model([0.0], [[1.0]])
    x = np.array([[0.3]])
    assert _avg_score(x, m) == pytest.approx(density([0.3], m), rel=1e-12)
    xs = np.tile([0.3], (5, 1))
    assert _avg_score(xs, m) == pytest.approx(density([0.3], m), rel=1e-12)
    xs = np.array([[-1.0], [1.0]])
    assert _avg_score(xs, m) == pytest.approx(density([1.0], m), rel=1e-12)
    with pytest.raises(ValueError):
        _avg_score(np.empty((0, 1)), m)


def test_avg_score_reduces_variance():
    rng = np.random.default_rng(21)
    m = _model([0.0], [[1.0]])
    draws = rng.normal(size=(100, 100, 1))
    single = np.array([density(d[0], m) for d in draws])
    averaged = np.array([_avg_score(d, m) for d in draws])
    assert averaged.std() < single.std()


def test_log_mean_of_scores_handles_neg_inf():
    assert log_mean_of_scores([-np.inf, -np.inf]) == -np.inf
    val = log_mean_of_scores([-np.inf, np.log(2.0)])
    assert val == pytest.approx(np.log(1.0), abs=1e-12)


def test_log_mean_of_scores_matches_per_block_oracle():
    # disjoint and sliding blocks, some rows partly and some entirely -inf
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.choice([1, 2, 3, 7, 8, 9, 10, 16, 17, 37, 100]))
        scores = rng.normal(-200.0, 80.0, size=int(rng.integers(n, 4 * n + 5)))
        scores[rng.random(len(scores)) < 0.2] = -np.inf
        if rng.random() < 0.3:
            start = int(rng.integers(0, len(scores) - n + 1))
            scores[start:start + n] = -np.inf
        n_blocks = len(scores) // n
        for blocks in (scores[:n_blocks * n].reshape(n_blocks, n),
                       np.lib.stride_tricks.sliding_window_view(scores, n)):
            out = log_mean_of_scores(blocks)
            assert out.shape == (len(blocks),)
            assert out.tobytes() == log_mean_oracle(blocks).tobytes()
        assert log_mean_of_scores(scores[:n]) == log_mean_oracle(scores[:n])[0]


def test_log_mean_of_scores_shapes():
    assert isinstance(log_mean_of_scores([-1.0, -3.0]), float)
    assert log_mean_of_scores(np.full((2, 3), -np.inf)).tolist() == [-np.inf, -np.inf]
    assert log_mean_of_scores(np.empty((0, 4))).shape == (0,)
    with pytest.raises(ValueError):
        log_mean_of_scores(np.empty((3, 0)))


def test_private_logsumexp_is_bit_exact_with_scipy():
    # scipy is the oracle: the same bits on rows with tied maxima, single -inf
    # entries, all -inf rows, one column, and strided sliding windows
    rng = np.random.default_rng(16)
    for trial in range(2000):
        shape = ((int(rng.integers(1, 6)), int(rng.integers(1, 40))) if trial % 2
                 else (int(rng.integers(1, 60)),))
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), shape) + rng.uniform(-800.0, 100.0)
        case = trial % 6
        if case == 1:
            a = np.round(a / 50.0) * 50.0
        elif case == 2:
            a.flat[rng.integers(0, a.size)] = -np.inf
        elif case == 3:
            a[...] = -np.inf
        elif case == 4:
            a[..., :1] = -np.inf
            a[0] = -np.inf
        elif case == 5:
            a[...] = a.flat[0]
        windows = np.lib.stride_tricks.sliding_window_view(a, (a.shape[-1] + 1) // 2, axis=-1)
        for x in (a, a[..., :1], windows):
            got, want = mvn_model._logsumexp(x), logsumexp(x, axis=-1)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want), x
