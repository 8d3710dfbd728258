import copy
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.spatial.distance import cdist

import gpmmc.gp
from gpmmc import (EvalLedger, EvaluationStore, LocalGP, SurrogateError,
                   calibrate_lengthscales, evaluate, fit_quadratic_mean,
                   parse_config, run_experiment, sample_prior)
from gpmmc.benchmarks import min_distance_model, poisson_kl_model
from gpmmc.gp import (AMPLITUDE_FLOOR, CALIBRATION_GRID, CALIBRATION_SPAN,
                      CALIBRATION_SWEEPS, STORE_CAPACITY, QuadraticMean,
                      _check_kernel, _chol_with_jitter, _corr_matrix,
                      _trend_terms, build_local_surrogate, local_size)

def unit_store(d):
    """A d-D store with unit lengthscales and p = 2: its kernel distance is
    the squared Euclidean distance."""
    return EvaluationStore(d, np.ones(d), 2)


def kernel_eval(a, lengths, p, x1, x2):
    """Oracle: K(x1, x2) = a * exp(-sum_i |x1_i - x2_i|^p / l_i), one pair
    at a time."""
    expo = np.abs(np.asarray(x1, float) - np.asarray(x2, float)) ** p / lengths
    return a * math.exp(-float(expo.sum()))


def kernel_distance(X, x, lengths, p):
    """Oracle: sum_i |X_i - x_i|^p / l_i for every row of X, by the identity
    |u - v|^p / l = |u / l^(1/p) - v / l^(1/p)|^p: a cityblock (p = 1) or
    squared Euclidean (p = 2) distance between the rescaled points."""
    root = lengths if p == 1 else np.sqrt(lengths)
    metric = "cityblock" if p == 1 else "sqeuclidean"
    return cdist(np.atleast_2d(X) / root, np.asarray(x, float)[None, :] / root,
                 metric)[:, 0]


def posterior_at(gp, support, x, lengths, p):
    """gp's posterior at any point x, with the kernel distances from x to
    the support rows computed here rather than by a support query."""
    x = np.asarray(x, dtype=float)
    return gp.posterior(x, kernel_distance(support, x, lengths, p))


class TestLocalSize:
    def test_values(self):
        assert [local_size(d) for d in (1, 2, 5, 10, 16)] == [3, 9, 47, 209, 612]

    def test_invalid(self):
        with pytest.raises(ValueError):
            local_size(0)


class TestKernel:
    def test_squared_differences(self):
        C = _corr_matrix(np.array([[0.0], [1.0]]), np.array([1.0]), 2)
        assert C[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_absolute_differences_and_amplitude(self):
        gp = LocalGP(mean=lambda x: 0.0, a=2.0, chol=np.array([[1.0]]),
                     alpha=np.zeros(1), idx=np.array([0]), r=np.zeros(1),
                     jitter=0.0)
        # one support point at distance 3: c = exp(-1.5), var = a (1 - c^2)
        _, var = posterior_at(gp, np.array([[0.0]]), [3.0], np.array([2.0]),
                              1)
        assert var == pytest.approx(2.0 * (1.0 - math.exp(-3.0)), rel=1e-14)

    def test_coordinates_contribute_additively(self):
        C = _corr_matrix(np.array([[0.0, 0.0], [1.0, 2.0]]),
                         np.array([1.0, 4.0]), 2)
        assert C[0, 1] == pytest.approx(math.exp(-(1.0 + 4.0 / 4.0)),
                                        rel=1e-14)

    def test_symmetric_and_unit_at_zero_distance(self):
        X = np.array([[0.2, -1.0], [1.5, 0.25]])
        C = _corr_matrix(X, np.array([0.7, 1.3]), 1)
        assert C[0, 1] == C[1, 0]
        np.testing.assert_array_equal(np.diag(C), [1.0, 1.0])

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("d", [2, 4, 10])
    def test_exactly_symmetric(self, d, p):
        # _chol_with_jitter copies the matrix in as its transpose
        rng = np.random.default_rng(40 + d + p)
        lengths = rng.uniform(0.5, 4.0, d)
        for n in (50, 209, 400):
            C = _corr_matrix(rng.normal(size=(n, d)), lengths, p)
            np.testing.assert_array_equal(C, C.T)
            L, jitter = _chol_with_jitter(C)
            want, info = dpotrf(C + jitter * np.eye(n), lower=1, clean=1)
            assert info == 0
            np.testing.assert_array_equal(L, want)

    def test_validation(self):
        np.testing.assert_array_equal(_check_kernel([2], 1, 1), [2.0])
        np.testing.assert_array_equal(_check_kernel([1, 3], 2, 2), [1.0, 3.0])
        for lengths in ([0.0], [-1.0], [1.0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="lengthscales"):
                _check_kernel(np.array(lengths), 2, len(lengths))
        for p in (0, 3, 1.5):
            with pytest.raises(ValueError, match="exponent"):
                _check_kernel(np.ones(1), p, 1)

    def test_matrix_matches_pairwise_eval(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 3))
        lengths = np.array([0.5, 1.0, 2.0])
        for p in (1, 2):
            C = _corr_matrix(X, lengths, p)
            for i in range(6):
                for j in range(6):
                    assert C[i, j] == pytest.approx(
                        kernel_eval(1.0, lengths, p, X[i], X[j]), rel=1e-12)


class TestEvaluationStore:
    @pytest.mark.parametrize("lengths", [[1.0], [1.0, 1.0, 1.0], 1.0,
                                         [[1.0, 1.0]]])
    def test_lengthscale_count_must_match_dimension(self, lengths):
        # one lengthscale per coordinate: a single one is not broadcast to
        # an isotropic kernel, and a longer vector is not accepted either
        with pytest.raises(ValueError, match="2 kernel lengthscales"):
            EvaluationStore(2, lengths, 1)

    def test_insert_and_growth(self):
        store = unit_store(2)
        n = 2 * STORE_CAPACITY + 10  # grows twice
        for i in range(n):
            assert store.insert(np.array([float(i), 0.0]), float(i) ** 2)
        assert store.size == n
        np.testing.assert_array_equal(store.points[:, 0], np.arange(n * 1.0))
        np.testing.assert_array_equal(store.values, np.arange(n * 1.0) ** 2)

    def test_exact_duplicate_skipped(self):
        store = unit_store(1)
        assert store.insert(np.array([1.0]), 5.0)
        assert not store.insert(np.array([1.0]), 99.0)
        assert store.size == 1
        assert store.values[0] == 5.0

    def test_duplicate_tolerance_boundary(self):
        store = unit_store(1)
        store.insert(np.array([0.0]), 0.0)
        assert not store.insert(np.array([1e-13]), 1.0)   # inside tolerance
        assert store.insert(np.array([1e-6]), 2.0)        # clearly outside
        assert store.size == 2

    def test_duplicate_detected_at_large_coordinates(self):
        # the squared-distance shortcut based on cached norms loses ~eps*|x|^2
        # and cannot certify an exact repeat at this scale; inserts must not
        # rely on it
        store = unit_store(5)
        x = np.array([4.0, 4.0, 500.0, 1000.0, 2.9e7])
        assert store.insert(x, 0.6)
        assert not store.insert(x.copy(), 0.7)
        assert store.size == 1

    def test_invalid_inserts(self):
        store = unit_store(2)
        with pytest.raises(ValueError):
            store.insert(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            store.insert(np.array([1.0, math.nan]), 0.0)
        with pytest.raises(ValueError):
            store.insert(np.array([1.0, 2.0]), math.inf)

    def test_nearest_orders_by_distance(self):
        store = unit_store(1)
        for v in (5.0, 1.0, 3.0, 2.0):
            store.insert(np.array([v]), v)
        # the support is the nearest points as a set, in store-index order,
        # with every stored point's kernel distance (here the squared
        # distance)
        idx, dist, _ = store.nearest(np.array([0.0]), 2)
        np.testing.assert_array_equal(idx, [1, 3])
        np.testing.assert_array_equal(store.values[idx], [1.0, 2.0])
        np.testing.assert_array_equal(dist, [25.0, 1.0, 9.0, 4.0])
        idx, dist, radius = store.nearest(np.array([0.0]), 3, 2)
        np.testing.assert_array_equal(idx, [1, 2, 3])
        np.testing.assert_array_equal(store.values[idx], [1.0, 3.0, 2.0])
        np.testing.assert_array_equal(dist[idx], [1.0, 9.0, 4.0])
        assert radius == 4.0

    def test_nearest_breaks_ties_by_insertion_order(self):
        store = unit_store(1)
        for v in (1.0, -1.0, 3.0, -3.0):
            store.insert(np.array([v]), v)
        idx, _, _ = store.nearest(np.array([0.0]), 2)
        np.testing.assert_array_equal(store.values[idx], [1.0, -1.0])
        # 3 and -3 tie at the cutoff: the earlier insert wins
        idx, dist, radius = store.nearest(np.array([0.0]), 3, 1)
        np.testing.assert_array_equal(store.values[idx], [1.0, -1.0, 3.0])
        np.testing.assert_array_equal(dist[idx], [1.0, 1.0, 9.0])
        assert radius == 1.0

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_nearest_matches_a_stable_sort(self, d, p):
        """nearest is the first n of a stable sort by (distance, index),
        as a set, on stores just below, at and above n points, and its
        radius at t(d) the distance of the t(d)-th in that sort. Integer
        points with unit lengthscales put exact ties at the cutoff, random
        lengthscales on real points none."""
        rng = np.random.default_rng(10 * d + p)
        n = local_size(d)
        ties = 0
        for size in (n - 1, n, n + 1, 3 * n):
            for lattice in (True, False):
                if lattice:
                    lengths = np.ones(d)
                    pool = rng.integers(-4, 5, size=(40 * size, d))
                    _, first = np.unique(pool, axis=0, return_index=True)
                    X = pool[np.sort(first)][:size].astype(float)
                    queries = rng.integers(-4, 5, size=(40, d)) / 2.0
                else:
                    lengths = rng.uniform(0.2, 3.0, d)
                    X = rng.normal(size=(size, d))
                    queries = rng.normal(size=(40, d))
                assert X.shape == (size, d)
                store = EvaluationStore(d, lengths, p)
                for x in X:
                    assert store.insert(x, 0.0)
                for q in queries:
                    dist = kernel_distance(X, q, lengths, p)
                    order = np.lexsort((np.arange(size), dist))
                    want = np.sort(order[:n])
                    t = min(_trend_terms(d), size)
                    idx, got, radius = store.nearest(q, n, t)
                    np.testing.assert_array_equal(idx, want)
                    np.testing.assert_array_equal(got, dist)
                    assert radius == dist[order[t - 1]]
                    if size > n:  # a tie at the cutoff leaves a point out
                        ties += np.count_nonzero(
                            dist <= dist[order[n - 1]]) > n
        assert ties > 10

    def test_nearest_clamps_to_size(self):
        store = unit_store(1)
        store.insert(np.array([1.0]), 1.0)
        idx, dist, radius = store.nearest(np.array([0.0]), 10, 5)
        np.testing.assert_array_equal(idx, [0])
        np.testing.assert_array_equal(dist, [1.0])
        assert radius == 1.0

    def test_nearest_empty_store(self):
        store = unit_store(1)
        with pytest.raises(RuntimeError):
            store.nearest(np.array([0.0]), 1)

    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        store = unit_store(3)
        for _ in range(20):
            store.insert(rng.normal(scale=1e7, size=3), rng.normal())
        store.insert(np.array([0.1, 1e-17, -2.9e7]), 0.1 + 0.2)
        path = tmp_path / "store.csv"
        store.save_csv(path)
        assert path.read_text().splitlines()[0] == "x_1,x_2,x_3,y"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert back.shape == (store.size, 4)
        np.testing.assert_array_equal(back[:, :3], store.points)
        np.testing.assert_array_equal(back[:, 3], store.values)


class TestQuadraticMean:
    def test_exact_quadratic_recovery(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2.0, 2.0, size=(15, 2))
        y = (1.5 - 2.0 * X[:, 0] + 0.5 * X[:, 1]
             + 0.25 * X[:, 0] ** 2 - 1.0 * X[:, 0] * X[:, 1]
             + 2.0 * X[:, 1] ** 2)
        mean, r = fit_quadratic_mean(X, y)
        assert mean.degree == 2
        np.testing.assert_allclose(r, 0.0, atol=1e-8)
        Xq = rng.uniform(-3.0, 3.0, size=(40, 2))
        yq = (1.5 - 2.0 * Xq[:, 0] + 0.5 * Xq[:, 1]
              + 0.25 * Xq[:, 0] ** 2 - 1.0 * Xq[:, 0] * Xq[:, 1]
              + 2.0 * Xq[:, 1] ** 2)
        np.testing.assert_allclose(mean(Xq), yq, rtol=1e-8, atol=1e-8)

    def test_extreme_coordinate_scales(self):
        # raw design columns would span ~15 orders of magnitude here; the
        # internal standardization must keep the fit exact anyway
        rng = np.random.default_rng(5)
        X = np.column_stack([
            rng.normal(4.0, 0.03, 40),
            rng.normal(4.0, 0.01, 40),
            rng.normal(500.0, 10.0, 40),
            rng.normal(1000.0, 10.0, 40),
            rng.normal(2.9e7, 1.2e3, 40),
        ])
        coef_true = np.array([2.0, 0.5, -1.0, 1e-3, -1e-3, 1e-8])
        y = (coef_true[0] + X[:, 0] * coef_true[1] + X[:, 1] * coef_true[2]
             + X[:, 2] * coef_true[3] + X[:, 3] * coef_true[4]
             + X[:, 4] * coef_true[5] + 1e-7 * X[:, 0] ** 2)
        mean, _ = fit_quadratic_mean(X, y)
        np.testing.assert_allclose(mean(X), y, rtol=1e-8)

    def test_small_support_degrades_to_linear(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
        y = 2.0 + 3.0 * X[:, 0] - 1.0 * X[:, 1]
        mean, _ = fit_quadratic_mean(X, y)  # 4 points < 6 quadratic terms
        assert mean.degree == 1
        np.testing.assert_allclose(mean(X), y, atol=1e-10)

    def test_collinear_support_degrades_to_constant(self):
        t = np.linspace(0.0, 1.0, 6)
        X = np.column_stack([t, 2.0 * t + 1.0])  # rank-deficient even linearly
        y = np.sin(t)
        mean, _ = fit_quadratic_mean(X, y)
        assert mean.degree == 0
        assert mean(X[0]) == pytest.approx(y.mean(), rel=1e-12)

    def test_two_points_one_dim_fit_a_line(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([1.0, 5.0])
        mean, _ = fit_quadratic_mean(X, y)
        assert mean.degree == 1
        assert mean(np.array([1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_single_point_is_constant(self):
        mean, r = fit_quadratic_mean(np.array([[1.0, 2.0]]), np.array([7.0]))
        assert mean.degree == 0
        assert mean(np.array([9.0, -9.0])) == 7.0
        np.testing.assert_array_equal(r, [0.0])

    @pytest.mark.parametrize("n", [2, 4, 15])
    def test_residuals_are_y_minus_the_trend(self, n):
        # the residuals come from the fit's own design and must equal a fresh
        # evaluation of the trend bit for bit (degree 0, 1 and 2 here)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(n, 2)) * [1.0, 1e3] + [0.0, 5e6]
        y = np.sin(X[:, 0]) + 1e-3 * X[:, 1]
        mean, r = fit_quadratic_mean(X, y)
        assert mean.degree == {2: 0, 4: 1, 15: 2}[n]
        np.testing.assert_array_equal(r, y - mean(X))

    def test_standardization_is_numpy_std(self):
        # the fit centres once and takes the scale from the centred design;
        # that must be X.mean and X.std bit for bit, a constant column
        # (standard deviation 0) scaled by 1
        rng = np.random.default_rng(12)
        for n, d in ((2, 1), (9, 2), (30, 5), (209, 10), (400, 10)):
            X = (rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d)
                 + rng.uniform(-50.0, 50.0, size=d))
            X[:, 0] = 0.75
            mean, r = fit_quadratic_mean(X, np.sin(X).sum(axis=1))
            std = X.std(axis=0)
            assert std[0] == 0.0
            np.testing.assert_array_equal(mean.center, X.mean(axis=0))
            np.testing.assert_array_equal(mean.scale,
                                          np.where(std == 0.0, 1.0, std))


def random_trend(rng, d, degree):
    """A QuadraticMean of the given degree in d dimensions with random
    standardization and coefficients."""
    k = {0: 1, 1: 1 + d, 2: 1 + d + d * (d + 1) // 2}[degree]
    return QuadraticMean(degree, rng.normal(size=d), rng.uniform(0.1, 3.0, d),
                         rng.normal(size=k))


class TestSinglePointTrend:
    """The trend at one point skips the design and must keep its bits: a
    point x gives what the block x[None, :] gives. A taller block is no
    reference, since its matrix-vector product may sum in another order."""

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_point_equals_its_one_row_block(self, d, degree):
        rng = np.random.default_rng(100 * d + degree)
        for _ in range(5):
            mean = random_trend(rng, d, degree)
            for x in rng.normal(scale=2.0, size=(400, d)):
                one = mean(x)
                assert type(one) is float
                assert one == mean(x[None, :])[0]

    @pytest.mark.parametrize("d", [2, 10])
    def test_fitted_trend_point_equals_its_one_row_block(self, d):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(local_size(d), d))
        mean, _ = fit_quadratic_mean(X, np.sin(X).sum(axis=1))
        assert mean.degree == 2
        for x in rng.normal(size=(500, d)):
            assert mean(x) == mean(x[None, :])[0]

    def test_models_share_no_buffer(self):
        rng = np.random.default_rng(8)
        first, second = random_trend(rng, 3, 2), random_trend(rng, 3, 2)
        X = rng.normal(size=(300, 3))
        alone = ([first(x) for x in X], [second(x) for x in X])
        interleaved = ([], [])
        for x in X:
            interleaved[0].append(first(x))
            interleaved[1].append(second(x))
        assert interleaved == alone

    def test_point_never_builds_a_design(self, monkeypatch):
        rng = np.random.default_rng(9)
        means = [random_trend(rng, 2, degree) for degree in (0, 1, 2)]

        def no_design(Z, degree):
            raise AssertionError("single-point call built a design")

        monkeypatch.setattr(gpmmc.gp, "_design", no_design)
        for mean in means:
            assert math.isfinite(mean(np.array([0.3, -1.2])))
            with pytest.raises(AssertionError):
                mean(np.array([[0.3, -1.2]]))


def lstsq_trend(X, y):
    """Oracle: degree and standardized-basis coefficients of the trend that
    numpy.linalg.lstsq fits on the same design, trying degree 2, 1 and 0
    until the design has full rank at lstsq's default cutoff."""
    n, d = X.shape
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    Z = (X - X.mean(axis=0)) / scale
    ii, jj = np.triu_indices(d)
    ones = np.ones((n, 1))
    designs = {2: np.hstack([ones, Z, Z[:, ii] * Z[:, jj]]),
               1: np.hstack([ones, Z]), 0: ones}
    for degree in (2, 1, 0):
        B = designs[degree]
        if n < B.shape[1]:
            continue
        coef, _, rank, _ = np.linalg.lstsq(B, y, rcond=None)
        if rank == B.shape[1]:
            return degree, coef


class TestQuadraticMeanAgainstLstsq:
    """The pivoted-QR trend fit against numpy.linalg.lstsq: the same degree,
    the same coefficients to 1e-9 relative, and residuals that are exactly
    y - mean(X)."""

    @staticmethod
    def _check(X, y, degree=None):
        mean, r = fit_quadratic_mean(X, y)
        want_degree, want = lstsq_trend(X, y)
        assert mean.degree == want_degree
        if degree is not None:
            assert mean.degree == degree
        err = np.linalg.norm(mean.scaled_coef - want)
        assert err <= 1e-9 * np.linalg.norm(want)
        np.testing.assert_array_equal(r, y - mean(X))

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_random_supports(self, d):
        rng = np.random.default_rng(30 + d)
        k = (d + 1) * (d + 2) // 2
        for n in range(k - 1, 3 * k + 1):
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d)
            y = np.sin(X).sum(axis=1) + rng.normal(size=n)
            self._check(X, y)

    def test_collinear_coordinates(self):
        rng = np.random.default_rng(41)
        t = rng.normal(size=(30, 2))
        X = np.column_stack([t, 3.0 * t[:, 0] - 2.0])
        self._check(X, np.cos(t).sum(axis=1), degree=0)

    def test_nearly_collinear_coordinates_keep_full_degree(self):
        # collinear but for 1e-4 noise: the quadratic design's smallest
        # singular value is ~2e-10 relative, far above the rank cutoff, so the
        # full quadratic stays; its coefficients are too ill-conditioned to
        # compare at 1e-9
        rng = np.random.default_rng(44)
        t = rng.normal(size=(30, 2))
        X = np.column_stack([t, 3.0 * t[:, 0] - 2.0
                             + 1e-4 * rng.normal(size=30)])
        y = np.cos(t).sum(axis=1)
        mean, r = fit_quadratic_mean(X, y)
        assert mean.degree == lstsq_trend(X, y)[0] == 2
        np.testing.assert_array_equal(r, y - mean(X))

    def test_constant_coordinate(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(25, 3))
        X[:, 1] = 4.0
        self._check(X, np.exp(X[:, 0]) - X[:, 2], degree=0)

    @pytest.mark.parametrize("distinct, degree", [(4, 1), (5, 1), (7, 2)])
    def test_repeated_rows(self, distinct, degree):
        # 2-D: six quadratic terms, so fewer than six distinct points leave
        # the quadratic design rank-deficient however often they repeat
        rng = np.random.default_rng(43 + distinct)
        X = np.tile(rng.normal(size=(distinct, 2)), (3, 1))
        self._check(X, np.sin(X[:, 0]) + X[:, 1] ** 3, degree=degree)


class TestAmplitude:
    """build_local_surrogate's closed-form amplitude a = r' C^{-1} r / n of
    the trend residuals r, floored at AMPLITUDE_FLOOR * max(r_i^2). Four
    equally spaced points in 1-D leave the quadratic trend one residual
    direction, the third difference v = (-1, 3, -3, 1), so r = (y.v / v.v)
    v."""

    V = np.array([-1.0, 3.0, -3.0, 1.0])

    def _gp(self, y, spacing, length):
        store = EvaluationStore(1, [length], 2)
        for k, yk in enumerate(y):
            store.insert(np.array([k * spacing]), float(yk))
        return build_local_surrogate(store, np.arange(4))

    def test_identity_correlation(self):
        y = np.array([1.0, -2.0, 3.0, 0.5])
        gp = self._gp(y, spacing=10.0, length=1e-3)  # exp(-1e5): C = I
        r = (y @ self.V) / (self.V @ self.V) * self.V
        assert gp.a == pytest.approx(r @ r / 4, rel=1e-8)

    def test_floor_for_zero_residuals(self):
        # the floor is relative to the residuals: an exact quadratic's
        # roundoff residuals keep their own roundoff-sized amplitude, not a
        # fixed 1e-12, and exactly zero residuals a zero one, under which
        # every prediction is a point prediction
        x = np.arange(4.0)
        gp = self._gp(1.0 + 2.0 * x - 0.5 * x**2, spacing=1.0, length=1.0)
        assert 0.0 < AMPLITUDE_FLOOR * np.max(gp.r**2) <= gp.a < 1e-24
        gp = self._gp(np.zeros(4), spacing=1.0, length=1.0)
        assert gp.a == 0.0
        assert gp.posterior(np.array([0.5]), np.array([0.25, 0.25, 2.25,
                                                       6.25]))[1] == 0.0

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4])
    def test_posterior_scales_with_y(self, c):
        # a model on c * y predicts c * mu with variance c^2 var: nothing in
        # the amplitude, its floor included, sets an absolute scale
        rng = np.random.default_rng(19)
        X = rng.uniform(-1.0, 1.0, size=(30, 2))
        y = np.sin(3.0 * X[:, 0]) + np.cos(2.0 * X[:, 1])
        lengths = np.array([0.5, 0.8])
        gps = []
        for scale in (1.0, c):
            store = EvaluationStore(2, lengths, 2)
            for xi, yi in zip(X, scale * y):
                store.insert(xi, float(yi))
            idx, _, _ = store.nearest(np.zeros(2), local_size(2))
            gps.append(build_local_surrogate(store, idx))
        support = X[gps[0].idx]
        for x in rng.uniform(-0.3, 0.3, size=(5, 2)):
            mu, var = posterior_at(gps[0], support, x, lengths, 2)
            mu_c, var_c = posterior_at(gps[1], support, x, lengths, 2)
            assert mu_c == pytest.approx(c * mu, rel=1e-9, abs=0.0)
            assert var_c == pytest.approx(c * c * var, rel=1e-9, abs=0.0)

    def test_correlated_residuals(self):
        y = np.array([1.0, -2.0, 3.0, 0.5])
        gp = self._gp(y, spacing=1.0, length=1.0)
        x = np.arange(4.0)
        C = np.exp(-(x[:, None] - x[None, :]) ** 2)
        r = (y @ self.V) / (self.V @ self.V) * self.V
        assert gp.a == pytest.approx(r @ np.linalg.solve(C, r) / 4,
                                            rel=1e-8)

    def test_overflow_raises_surrogate_error(self):
        # residuals near 1e170: r' C^{-1} r overflows to inf, which must
        # reach the caller as a surrogate failure, not as a ValueError
        y = 1e170 * np.array([1.0, -2.0, 3.0, 0.5])
        with pytest.raises(SurrogateError, match="amplitude"):
            self._gp(y, spacing=10.0, length=1e-3)


class TestCholesky:
    def test_well_conditioned_uses_smallest_jitter(self):
        C = _corr_matrix(np.linspace(0, 5, 6)[:, None], np.array([1.0]), 2)
        L, jitter = _chol_with_jitter(C)
        assert jitter == 1e-10
        np.testing.assert_allclose(L @ L.T, C + jitter * np.eye(6), atol=1e-12)

    def test_indefinite_matrix_raises(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        with pytest.raises(SurrogateError):
            _chol_with_jitter(bad)


class TestPosterior:
    def test_single_point_closed_form(self):
        trend = 1.5
        y0 = 3.0
        gp = LocalGP(mean=lambda x: trend, a=2.0, chol=np.array([[1.0]]),
                     alpha=np.array([y0 - trend]), idx=np.array([0]),
                     r=np.array([y0 - trend]), jitter=0.0)
        x = np.array([1.3])
        c = math.exp(-(0.8 ** 2) / 0.8)
        mu, var = posterior_at(gp, np.array([[0.5]]), x, np.array([0.8]), 2)
        assert mu == pytest.approx(trend + c * (y0 - trend), rel=1e-14)
        assert var == pytest.approx(2.0 * (1.0 - c * c), rel=1e-14)

    def test_non_finite_mean_raises_surrogate_error(self):
        gp = LocalGP(mean=lambda x: 1e308, a=1.0, chol=np.array([[1.0]]),
                     alpha=np.array([1e308]), idx=np.array([0]),
                     r=np.array([1e308]), jitter=0.0)
        with pytest.raises(SurrogateError, match="not finite"):
            gp.posterior(np.array([0.0]), np.zeros(1))

    def test_interpolates_training_data(self):
        rng = np.random.default_rng(11)
        lengths = np.array([1.0, 1.0])
        store = EvaluationStore(2, lengths, 2)
        X = rng.uniform(-1.0, 1.0, size=(12, 2))
        y = np.sin(X[:, 0]) + np.cos(2.0 * X[:, 1])
        for xi, yi in zip(X, y):
            store.insert(xi, float(yi))
        gp = build_local_surrogate(store, np.arange(12))
        for xi, yi in zip(X, y):
            mu, var = posterior_at(gp, store.points, xi, lengths, 2)
            assert mu == pytest.approx(yi, abs=1e-6)
            assert var <= 1e-6 * gp.a

    def test_reverts_to_trend_far_from_data(self):
        rng = np.random.default_rng(12)
        lengths = np.array([0.5])
        store = EvaluationStore(1, lengths, 2)
        for _ in range(8):
            x = rng.uniform(-1.0, 1.0, size=1)
            store.insert(x, float(np.sin(3.0 * x[0])))
        gp = build_local_surrogate(store, np.arange(8))
        far = np.array([60.0])
        mu, var = posterior_at(gp, store.points, far, lengths, 2)
        assert mu == pytest.approx(float(gp.mean(far)), rel=1e-10)
        assert var == pytest.approx(gp.a, rel=1e-10)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(13)
        lengths = np.array([2.0, 2.0])
        store = EvaluationStore(2, lengths, 1)
        for _ in range(30):
            store.insert(rng.normal(size=2), float(rng.normal()))
        idx, _, _ = store.nearest(np.zeros(2), local_size(2))
        gp = build_local_surrogate(store, idx)
        for _ in range(200):
            _, var = posterior_at(gp, store.points[idx],
                                  rng.normal(scale=2.0, size=2), lengths, 1)
            assert var >= 0.0

    @pytest.mark.parametrize("d, p", [(2, 1), (2, 2), (10, 2)])
    def test_one_solve_variance_matches_two_solves(self, d, p):
        # a (1 - v.v) with v = L^{-1} c against a (1 - c' C^{-1} c) from
        # dpotrs's two solves, on the same jittered factor
        rng = np.random.default_rng(50 + d + p)
        lengths = rng.uniform(0.5, 2.0, d)
        store = EvaluationStore(d, lengths, p)
        for x in rng.normal(size=(2 * local_size(d), d)):
            store.insert(x, float(np.sin(x).sum()))
        for _ in range(5):
            idx, _, _ = store.nearest(rng.normal(size=d), local_size(d))
            gp = build_local_surrogate(store, idx)
            support = store.points[idx]
            for x in rng.normal(scale=0.5, size=(20, d)):
                c = np.exp(-kernel_distance(support, x, lengths, p))
                w, _ = dpotrs(gp.chol, c, lower=1)
                want = max(gp.a * (1.0 - float(c @ w)), 0.0)
                _, var = posterior_at(gp, support, x, lengths, p)
                assert abs(var - want) <= 1e-12 * gp.a
            # on the support the variance is jitter-sized, and never negative
            for x in support:
                _, var = posterior_at(gp, support, x, lengths, p)
                assert 0.0 <= var <= 1e-6 * gp.a

    def test_build_uses_local_support_size(self):
        store = unit_store(1)
        for v in np.linspace(-5.0, 5.0, 30):
            store.insert(np.array([v]), v * v)
        _, dist = store.local_model(np.array([0.1]))
        assert dist.size == local_size(1) == 3
        # support is the nearest three grid points to 0.1
        want = sorted((np.linspace(-5.0, 5.0, 30) - 0.1) ** 2)[:3]
        got = sorted(dist)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_scaled_rows_survive_growth(self, p):
        # a model built before the store grows must equal a fresh build
        # after it, and every distance must still come from the same
        # rescaled rows
        rng = np.random.default_rng(16)
        lengths = np.array([0.3, 2.0, 7.5])
        store = EvaluationStore(3, lengths, p)
        X = rng.normal(size=(STORE_CAPACITY + 40, 3))
        for xi in X[:STORE_CAPACITY]:
            store.insert(xi, float(np.sin(xi).sum()))
        query = np.array([0.2, -0.1, 0.4])
        idx, _, _ = store.nearest(query, local_size(3))
        before = build_local_surrogate(store, idx)
        for xi in X[STORE_CAPACITY:]:
            store.insert(xi, float(np.sin(xi).sum()))
        assert store.size == X.shape[0]
        _, dist, _ = store.nearest(query, store.size)
        np.testing.assert_array_equal(
            dist, kernel_distance(X, query, lengths, p))
        after = build_local_surrogate(store, idx)
        assert before.a == after.a
        np.testing.assert_array_equal(before.chol, after.chol)
        np.testing.assert_array_equal(before.alpha, after.alpha)

    @pytest.mark.parametrize("p", [1, 2])
    def test_support_is_chosen_by_kernel_correlation(self, p):
        # a short lengthscale in x and a long one in y: the most correlated
        # points are not the nearest in raw distance
        rng = np.random.default_rng(15)
        lengths = np.array([0.2, 50.0])
        store = EvaluationStore(2, lengths, p)
        X = rng.uniform(-3.0, 3.0, size=(60, 2))
        for xi in X:
            store.insert(xi, float(xi[0] ** 2 + 0.1 * xi[1]))
        query = np.array([0.1, -0.4])
        idx, dist, _ = store.nearest(query, local_size(2))
        corr = np.array([kernel_eval(1.0, lengths, p, xi, query) for xi in X])
        want = np.sort(np.argsort(-corr, kind="stable")[:local_size(2)])
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(store.points[idx], X[want])
        # the query's distances to the support, bit for bit
        np.testing.assert_array_equal(
            dist[idx], kernel_distance(X[want], query, lengths, p))
        raw = X[np.argsort(((X - query) ** 2).sum(axis=1))[:local_size(2)]]
        assert {tuple(r) for r in raw} != {tuple(r) for r in X[want]}

    def test_build_is_deterministic(self):
        rng = np.random.default_rng(14)
        lengths = np.array([1.0, 1.0])
        store = EvaluationStore(2, lengths, 1)
        for _ in range(25):
            store.insert(rng.normal(size=2), float(rng.normal()))
        idx, _, _ = store.nearest(np.array([0.3, -0.2]), local_size(2))
        g1 = build_local_surrogate(store, idx)
        g2 = build_local_surrogate(store, idx)
        assert g1.a == g2.a
        q = np.array([0.5, 0.5])
        support = store.points[idx]
        assert (posterior_at(g1, support, q, lengths, 1)
                == posterior_at(g2, support, q, lengths, 1))


def random_store(rng, d, size, lengths, p):
    store = EvaluationStore(d, lengths, p)
    for x in rng.normal(size=(size, d)):
        store.insert(x, float(np.sin(x).sum()))
    return store


def slot_of(store, gp):
    """The cache slot of store that holds gp."""
    return next(s for s, m in enumerate(store._models) if m is gp)


def fits(store, gp, x):
    """The reuse rule from first principles: gp, cached in store, holds x's
    t(d) nearest evaluations, and every evaluation of x's support it lacks
    was stored before its build."""
    d = store.dimension
    idx, _, _ = store.nearest(x, local_size(d))
    core, _, _ = store.nearest(x, _trend_terms(d))
    born = store._born[slot_of(store, gp)]
    return bool(np.isin(core, gp.idx).all()
                and (np.setdiff1d(idx, gp.idx) < born).all())


def reusing_query(store, gp, q0, rng):
    """A query near q0 whose support is not gp's but which gp may serve."""
    n = local_size(store.dimension)
    for _ in range(100):
        step = rng.normal(size=store.dimension)
        for k in range(1, 1000):
            q = q0 + 1e-3 * k * step
            if not np.array_equal(store.nearest(q, n)[0], gp.idx):
                break
        if fits(store, gp, q):
            return q
    raise AssertionError("no query near q0 may reuse gp")


class TestModelReuse:
    """EvaluationStore.local_model serves a query whose support has no
    model from the most recently used cached model that holds the query's
    t(d) nearest evaluations and lacks none of its support stored after
    its build."""

    @pytest.mark.parametrize("d, p", [(2, 1), (2, 2), (10, 2)])
    def test_reused_model_holds_the_core_and_serves_its_own_rows(self, d, p):
        rng = np.random.default_rng(30 + d + p)
        lengths = rng.uniform(0.5, 2.0, d)
        store = random_store(rng, d, 3 * local_size(d), lengths, p)
        n = local_size(d)
        q = np.zeros(d)
        reused = 0
        for _ in range(300):
            q = q + rng.normal(scale=0.02, size=d)
            idx, dist, _ = store.nearest(q, n)
            gp, gp_dist = store.local_model(q)
            np.testing.assert_array_equal(gp_dist, dist[gp.idx])
            # bit for bit the posterior at the distances to its own rows
            assert (gp.posterior(q, gp_dist)
                    == posterior_at(gp, store.points[gp.idx], q, lengths, p))
            # the store's table holds exactly the model's support (a grown
            # model's idx is in factor-row order, not ascending)
            np.testing.assert_array_equal(
                store._held[:, slot_of(store, gp)].nonzero()[0],
                np.sort(gp.idx))
            if not np.array_equal(gp.idx, idx):
                reused += 1
                assert fits(store, gp, q)
        assert reused > 10
        assert store.models_built == sum(m is not None
                                         for m in store._models)

    def test_late_point_in_the_support_forces_a_rebuild(self):
        rng = np.random.default_rng(33)
        lengths = np.ones(2)
        store = random_store(rng, 2, 60, lengths, 2)
        n, t = local_size(2), _trend_terms(2)
        gp, _ = store.local_model(np.zeros(2))
        # walk off until the support moves but the core stays in gp's rows
        step = rng.normal(size=2)
        for k in range(1, 1000):
            q = 1e-3 * k * step
            idx, dist, _ = store.nearest(q, n)
            if not np.array_equal(idx, gp.idx):
                break
        assert not np.array_equal(idx, gp.idx)
        core, _, _ = store.nearest(q, t)
        assert np.isin(core, gp.idx).all()
        assert store.local_model(q)[0] is gp
        # a new point between the query's (n - 1)-th and n-th nearest
        # enters its support but not its core
        ranked = np.sort(dist)
        r = 0.5 * (ranked[n - 2] + ranked[n - 1])
        assert store.insert(q + np.array([math.sqrt(r), 0.0]), 0.0)
        new_idx, _, _ = store.nearest(q, n)
        assert store.size - 1 in new_idx
        np.testing.assert_array_equal(store.nearest(q, t)[0], core)
        rebuilt, _ = store.local_model(q)
        assert rebuilt is not gp
        np.testing.assert_array_equal(rebuilt.idx, new_idx)
        assert store._born[slot_of(store, rebuilt)] == store.size
        assert store.models_built == 2

    def test_exact_support_hit_returns_the_same_object(self):
        rng = np.random.default_rng(34)
        store = random_store(rng, 2, 60, np.ones(2), 1)
        a, b = np.array([0.5, 0.5]), np.array([-1.5, -1.0])
        first, _ = store.local_model(a)
        second, _ = store.local_model(b)
        assert second is not first
        # first is no longer the most recent model, and its support is a's
        assert store.local_model(a)[0] is first
        assert store.local_model(b)[0] is second
        assert store.models_built == 2

    def test_model_that_is_not_the_most_recent_serves(self):
        rng = np.random.default_rng(35)
        store = random_store(rng, 2, 60, np.ones(2), 2)
        first, _ = store.local_model(np.zeros(2))
        second, _ = store.local_model(np.array([3.0, 3.0]))
        assert second is not first
        q = reusing_query(store, first, np.zeros(2), rng)
        # the most recent model may not serve q; first may
        assert not fits(store, second, q)
        assert store.local_model(q)[0] is first
        assert store.models_built == 2

    def test_most_recent_of_the_models_that_may_serve_serves(self):
        rng = np.random.default_rng(36)
        store = random_store(rng, 2, 80, np.ones(2), 2)
        built_at = {}
        for q in rng.normal(scale=0.7, size=(40, 2)):
            before = store.models_built
            gp, _ = store.local_model(q)
            if store.models_built > before:
                built_at[slot_of(store, gp)] = q
        for q in rng.normal(scale=0.7, size=(2000, 2)):
            if store.nearest(q, local_size(2))[0].tobytes() in store._keys:
                continue
            slots = [s for s in built_at if fits(store, store._models[s], q)]
            if len(slots) >= 2:
                break
        assert len(slots) >= 2
        other = next(s for s in built_at if s not in slots)
        for s in slots:
            trial = copy.deepcopy(store)
            # exact hits on the supports they were built on make s the most
            # recently used model that may serve q, and other, which may
            # not, the most recently used of all
            assert slot_of(trial, trial.local_model(built_at[s])[0]) == s
            trial.local_model(built_at[other])
            assert slot_of(trial, trial.local_model(q)[0]) == s
            assert trial.models_built == store.models_built

    def test_alias_checks_the_rule_again(self):
        # two queries on one support whose cores differ: the model that
        # served the first may not serve the second
        rng = np.random.default_rng(37)
        store = random_store(rng, 2, 60, np.ones(2), 2)
        n = local_size(2)
        for q0 in rng.normal(scale=0.5, size=(200, 2)):
            gp, _ = store.local_model(q0)
            q1 = reusing_query(store, gp, q0, rng)
            support = store.nearest(q1, n)[0]
            for q2 in q1 + rng.normal(scale=0.05, size=(200, 2)):
                if (np.array_equal(store.nearest(q2, n)[0], support)
                        and not fits(store, gp, q2)):
                    break
            else:
                continue
            break
        else:
            raise AssertionError("no such pair of queries")
        assert store.local_model(q1)[0] is gp
        assert store._keys[support.tobytes()] == (slot_of(store, gp), True)
        served, _ = store.local_model(q2)
        assert served is not gp and fits(store, served, q2)

    def test_eviction_takes_the_slots_aliases(self, monkeypatch):
        monkeypatch.setattr(gpmmc.gp, "MODEL_CACHE_ENTRIES",
                            2 * local_size(2)**2)
        rng = np.random.default_rng(38)
        store = random_store(rng, 2, 60, np.ones(2), 2)
        first, _ = store.local_model(np.zeros(2))
        q = reusing_query(store, first, np.zeros(2), rng)
        assert store.local_model(q)[0] is first
        alias = store.nearest(q, local_size(2))[0].tobytes()
        assert store._keys[alias] == (slot_of(store, first), True)
        store.local_model(np.array([3.0, 3.0]))
        assert len(store._keys) == 3
        # a third build refills first's slot, the least recently used
        slot = slot_of(store, first)
        third, _ = store.local_model(np.array([-3.0, -3.0]))
        assert store._models[slot] is third
        assert store.models_built == 3
        assert alias not in store._keys and len(store._keys) == 2
        # the refilled slot does not inherit the alias: q gets a model
        # that may serve it
        assert not fits(store, third, q)
        served, _ = store.local_model(q)
        assert served is not third and fits(store, served, q)


def walk(store, rng, steps):
    """A chain-like walk of queries from the origin: yields each query, and
    when the caller asks for the next one stores a new evaluation near every
    third, as refinements do."""
    q = np.zeros(store.dimension)
    for k in range(steps):
        q = q + rng.normal(scale=0.05, size=store.dimension)
        yield q
        if k % 3 == 0:
            x = q + rng.normal(scale=0.1, size=store.dimension)
            store.insert(x, float(np.sin(x).sum()))


def growing_store(seed):
    """A 10-D store of 400 random points, on whose walks models grow."""
    rng = np.random.default_rng(seed)
    return random_store(rng, 10, 400, rng.uniform(2.0, 8.0, 10), 2), rng


class TestModelGrowth:
    """A query that no cached model may serve grows the most recently used
    model lacking between 1 and t(d) // 16 of its core by the points it
    lacks, up to ceil(1.25 n(d)) rows; only otherwise does it build."""

    def test_grown_model_is_the_dense_model_on_its_rows(self):
        store, rng = growing_store(40)
        checked = 0
        for q in walk(store, rng, 120):
            grown = store.models_grown
            gp, dist = store.local_model(q)
            if store.models_grown == grown:
                continue
            checked += 1
            N = gp.idx.size
            X, y = store.points[gp.idx], store.values[gp.idx]
            C = _corr_matrix(X, store.lengths, 2) + gp.jitter * np.eye(N)
            L, info = dpotrf(C, lower=1, clean=1)
            assert info == 0
            np.testing.assert_allclose(gp.chol, L, rtol=1e-10,
                                       atol=1e-10 * np.abs(L).max())
            # the trend stays as fitted at build: r = y - mean(X)
            r = y - gp.mean(X)
            np.testing.assert_allclose(gp.r, r, rtol=1e-12, atol=1e-14)
            alpha, _ = dpotrs(L, r, lower=1)
            a = max(float(r @ alpha) / N, AMPLITUDE_FLOOR * np.max(r**2))
            c = np.exp(-kernel_distance(X, q, store.lengths, 2))
            w, _ = dpotrs(L, c, lower=1)
            mu, var = gp.posterior(q, dist)
            assert mu == pytest.approx(float(gp.mean(q)) + float(c @ alpha),
                                       rel=1e-10, abs=1e-12)
            assert var == pytest.approx(a * (1.0 - float(c @ w)), rel=1e-8,
                                        abs=1e-12 * a)
        assert checked > 10

    def test_growth_appends_the_missing_core_in_store_order(self):
        store, rng = growing_store(41)
        t = _trend_terms(10)
        checked = chosen = 0
        for q in walk(store, rng, 300):
            models, used = list(store._models), store._used.copy()
            grown = store.models_grown
            gp, _ = store.local_model(q)
            if store.models_grown == grown:
                continue
            checked += 1
            core, _, _ = store.nearest(q, t)
            lacks = {s: np.setdiff1d(core, m.idx)
                     for s, m in enumerate(models) if m is not None}
            near = [s for s in lacks if 1 <= lacks[s].size <= t // 16]
            slot = max(near, key=lambda s: used[s])
            chosen += len(near) > 1
            before = models[slot]
            assert store._models[slot] is gp
            np.testing.assert_array_equal(
                gp.idx, np.concatenate([before.idx, lacks[slot]]))
            np.testing.assert_array_equal(gp.r[:before.idx.size], before.r)
            assert gp.mean is before.mean and gp.jitter == before.jitter
            assert store._born[slot] == store.size
            assert fits(store, gp, q)
        # some growths chose the most recent of several models
        assert checked > 10 and chosen > 0

    def test_grown_support_never_exceeds_the_cap(self):
        store, rng = growing_store(42)
        cap = math.ceil(1.25 * local_size(10))
        assert cap == 262
        sizes = [store.local_model(q)[0].idx.size
                 for q in walk(store, rng, 300)]
        assert max(sizes) <= cap
        # models come within one growth of the cap
        assert max(sizes) > cap - _trend_terms(10) // 16
        assert store.models_grown > 20 and store.models_built > 1

    def test_two_dimensional_store_never_grows(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a 2-D store grew a model")

        monkeypatch.setattr(gpmmc.gp, "_grow_local_surrogate", fail)
        rng = np.random.default_rng(43)
        store = random_store(rng, 2, 60, np.ones(2), 2)
        for q in walk(store, rng, 300):
            gp, _ = store.local_model(q)
            assert gp.idx.size == local_size(2)
            assert np.all(np.diff(gp.idx) > 0)
        assert store.models_grown == 0 and store.models_built > 10

    def test_failed_growth_falls_back_to_a_build(self, monkeypatch):
        calls = []

        def fail(store, gp, new):
            calls.append(new)
            raise SurrogateError("growth failed")

        monkeypatch.setattr(gpmmc.gp, "_grow_local_surrogate", fail)
        store, rng = growing_store(40)
        n = local_size(10)
        for q in walk(store, rng, 60):
            failed, built = len(calls), store.models_built
            gp, _ = store.local_model(q)
            if len(calls) > failed:
                # the query built its own model instead
                assert store.models_built == built + 1
                np.testing.assert_array_equal(gp.idx, store.nearest(q, n)[0])
        assert len(calls) > 5 and store.models_grown == 0

    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_store_smaller_than_the_growth_limit(self, size):
        # a core of at most t(d) // 16 points: empty slots and models that
        # hold none of it are never grown
        rng = np.random.default_rng(44)
        store = random_store(rng, 10, size, np.ones(10), 2)
        first, _ = store.local_model(np.zeros(10))
        assert np.array_equal(first.idx, np.arange(size))
        assert store.models_built == 1 and store.models_grown == 0
        x = rng.normal(size=10)
        store.insert(x, float(np.sin(x).sum()))
        grown, _ = store.local_model(x)
        assert store.models_grown == 1 and store.models_built == 1
        np.testing.assert_array_equal(grown.idx, np.arange(size + 1))

    def test_ten_dimensional_runs_with_growth_are_reproducible(
            self, tmp_path, monkeypatch):
        grows = []
        grow = gpmmc.gp._grow_local_surrogate

        def counted(store, gp, new):
            grows.append(new)
            return grow(store, gp, new)

        monkeypatch.setattr(gpmmc.gp, "_grow_local_surrogate", counted)
        cfg = tmp_path / "poisson.cfg"
        cfg.write_text(POISSON_GPMMC)
        first = run_experiment(parse_config(str(cfg)), tmp_path / "a")
        assert first["local_models_grown"] == len(grows) > 0
        second = run_experiment(parse_config(str(cfg)), tmp_path / "b")
        assert second["local_models_grown"] == first["local_models_grown"]
        assert second["local_models_built"] == first["local_models_built"]
        for name in ("histogram.csv", "store.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


# a small 10-D surrogate run on which local models grow
POISSON_GPMMC = """
model = poisson_kl
method = gpmmc
seed = 3
bins = 20
range_lo = -1.2
range_hi = 0.0
iterations = 2
samples_per_iteration = 300
burn_in = 30
proposal_scale = 0.5
gamma = 1e-4
beta_max = 0.05
kernel_p = 2
initial_design = 400
grid_nodes = 33
"""


class TestLengthscaleCalibration:
    def test_recovers_known_scale(self):
        rng = np.random.default_rng(21)
        X = np.sort(rng.uniform(0.0, 10.0, size=80))[:, None]
        l_true = 2.0
        C = _corr_matrix(X, np.array([l_true]), 2)
        L = np.linalg.cholesky(C + 1e-12 * np.eye(80))
        y = L @ rng.standard_normal(80)
        lengths = calibrate_lengthscales(X, y, p=2)
        # grid steps are ~2.6x apart; allow under two steps of slack
        assert l_true / 5.0 <= lengths[0] <= l_true * 5.0

    def test_degenerate_data_falls_back_to_ranges(self):
        X = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, -1.0], [6.0, 0.5]])
        y = np.full(4, 3.0)
        lengths = calibrate_lengthscales(X, y, p=1)
        np.testing.assert_allclose(lengths, [6.0, 2.0], rtol=1e-12)
        # a length has the units of |x|^p
        lengths = calibrate_lengthscales(X, y, p=2)
        np.testing.assert_allclose(lengths, [36.0, 4.0], rtol=1e-12)

    def test_same_lengthscales_at_any_scale_of_y(self):
        # the residuals are divided by their largest magnitude, so outputs
        # near 1e170 (whose likelihoods would overflow) or 1e-170 choose the
        # same grid values as outputs near 1
        rng = np.random.default_rng(24)
        X = rng.normal(size=(20, 1))
        y = np.sin(7.0 * X[:, 0])
        lengths = calibrate_lengthscales(X, y, p=2)
        lo, hi = CALIBRATION_SPAN
        grid = np.geomspace(lo * X.std()**2, hi * X.std()**2,
                            CALIBRATION_GRID)
        assert lengths[0] in grid
        assert lengths[0] != grid[CALIBRATION_GRID // 2]
        np.testing.assert_array_equal(lengths, oracle_lengthscales(X, y, 2))
        for scale in (1e170, 1e-170):
            np.testing.assert_array_equal(
                calibrate_lengthscales(X, scale * y, p=2), lengths)

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_lengths_scale_with_the_column_to_the_power_p(self, column):
        # a p = 2 length has the units of x^2: stretching one coordinate by
        # 4 stretches its grid, and so its chosen length, by 16, and leaves
        # the likelihoods and the other lengths as they were
        rng = np.random.default_rng(26)
        X = rng.uniform(-1.0, 1.0, size=(40, 3))
        y = np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1]) + X[:, 2]
        lengths = calibrate_lengthscales(X, y, p=2)
        stretched = X.copy()
        stretched[:, column] *= 4.0
        want = lengths.copy()
        want[column] *= 16.0
        np.testing.assert_allclose(calibrate_lengthscales(stretched, y, p=2),
                                   want, rtol=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            calibrate_lengthscales(np.array([[0.0]]), np.array([1.0]), p=2)

    def test_exponent_checked(self):
        X = np.random.default_rng(23).normal(size=(20, 2))
        for p in (0, 3):
            with pytest.raises(ValueError, match="exponent"):
                calibrate_lengthscales(X, X[:, 0], p)

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        X = rng.uniform(-1.0, 1.0, size=(30, 2))
        y = np.sin(X[:, 0] * 3.0) * np.cos(X[:, 1])
        l1 = calibrate_lengthscales(X, y, p=1)
        l2 = calibrate_lengthscales(X, y, p=1)
        np.testing.assert_array_equal(l1, l2)
        assert np.all(l1 > 0)


def oracle_lengthscales(X, y, p):
    """Oracle: the per-candidate search, one full correlation matrix from
    _corr_matrix per candidate, factored by _chol_with_jitter and solved by
    dpotrs, skipping each sweep's starting value. Data with residual signal
    only."""
    n, d = X.shape
    _, r = fit_quadratic_mean(X, y)
    r = r / np.max(np.abs(r))
    std = X.std(axis=0)
    std[std <= 0] = 1.0
    lo, hi = CALIBRATION_SPAN
    grids = [np.geomspace(lo * s**p, hi * s**p, CALIBRATION_GRID)
             for s in std]
    lengths = np.array([g[CALIBRATION_GRID // 2] for g in grids])

    def loglik(lengths):
        try:
            L, _ = _chol_with_jitter(_corr_matrix(X, lengths, p))
        except SurrogateError:
            return -math.inf
        alpha, _ = dpotrs(L, r, lower=1)
        a_hat = max(float(r @ alpha) / n, AMPLITUDE_FLOOR)
        return -n * math.log(a_hat) - 2.0 * float(np.log(np.diag(L)).sum())

    best = loglik(lengths)
    for _ in range(CALIBRATION_SWEEPS):
        for j in range(d):
            start = lengths[j]
            for cand in grids[j]:
                if cand == start:
                    continue
                trial = lengths.copy()
                trial[j] = cand
                ll = loglik(trial)
                if ll > best:
                    best, lengths = ll, trial
    return lengths


def prior_design(model, seed, n):
    """The initial design fit_surrogate_kernel evaluates: n prior draws
    from the RNG stream [seed, 1] and their true outputs."""
    X = sample_prior(model, np.random.default_rng([seed, 1]), n)
    return X, evaluate(model, X, EvalLedger())


@pytest.fixture(scope="module")
def poisson_design():
    """Criterion 10's initial design: 400 points of the 10-D KL Poisson
    model at seed 20260819."""
    return prior_design(poisson_kl_model(nodes=33), 20260819, 400)


def near_duplicate_design():
    """30 uniform points in 2-D and a copy of the first 1e-9 away."""
    X = np.random.default_rng(25).uniform(-1.0, 1.0, size=(30, 2))
    X = np.vstack([X, X[0] + 1e-9])
    return X, np.sin(3.0 * X[:, 0]) + X.sum(axis=1) ** 3


def count_calls(monkeypatch, name):
    """Count the calls calibration makes to the LAPACK routine name."""
    calls = [0]
    routine = getattr(gpmmc.gp, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return routine(*args, **kwargs)

    monkeypatch.setattr(gpmmc.gp, name, counted)
    return calls


class TestCalibrationSearch:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_oracle_on_two_center_designs(self, p):
        model = min_distance_model()
        for seed in range(10):
            X, y = prior_design(model, seed, 50)
            np.testing.assert_array_equal(calibrate_lengthscales(X, y, p),
                                          oracle_lengthscales(X, y, p))

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_oracle_on_poisson_design(self, poisson_design, p):
        X, y = poisson_design
        np.testing.assert_array_equal(calibrate_lengthscales(X, y, p),
                                      oracle_lengthscales(X, y, p))

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_oracle_with_near_duplicate_pair(self, p):
        X, y = near_duplicate_design()
        np.testing.assert_array_equal(calibrate_lengthscales(X, y, p),
                                      oracle_lengthscales(X, y, p))

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_oracle_up_the_jitter_ladder(self, monkeypatch, p):
        # no design tried here needs more than the first jitter (a valid
        # design's correlation matrix is within n eps of a positive
        # definite one), so dpotrf is made to refuse it: both searches
        # climb the shared ladder, one rung per likelihood
        real = gpmmc.gp.dpotrf

        def refuse_first_rung(a, **kwargs):
            if a[0, 0] < 1.0 + 5e-10:
                return a, 1
            return real(a, **kwargs)

        monkeypatch.setattr(gpmmc.gp, "dpotrf", refuse_first_rung)
        calls = count_calls(monkeypatch, "dpotrf")
        X, y = near_duplicate_design()
        lengths = calibrate_lengthscales(X, y, p)
        assert calls[0] == 2 * (1 + CALIBRATION_SWEEPS * 2
                                * (CALIBRATION_GRID - 1))
        np.testing.assert_array_equal(lengths, oracle_lengthscales(X, y, p))

    def test_scores_each_candidate_once(self, monkeypatch):
        # a candidate wins in some sweep here, so a search that skipped
        # only the current grid value would score the sweep's start twice
        rng = np.random.default_rng(22)
        X = rng.uniform(-1.0, 1.0, size=(30, 2))
        y = np.sin(X[:, 0] * 3.0) * np.cos(X[:, 1])
        factors = count_calls(monkeypatch, "dpotrf")
        solves = count_calls(monkeypatch, "dpotrs")
        lengths = calibrate_lengthscales(X, y, p=1)
        lo, hi = CALIBRATION_SPAN
        centers = math.sqrt(lo * hi) * X.std(axis=0)
        assert not np.allclose(lengths, centers)
        want = 1 + CALIBRATION_SWEEPS * 2 * (CALIBRATION_GRID - 1)
        assert factors[0] == solves[0] == want

    def test_pinned_lengths(self, poisson_design):
        # criterion 10's design and the reduced two-center design: a search
        # that picks another grid point fails here, not only in every
        # criterion pinned downstream of these lengths
        X, y = poisson_design
        np.testing.assert_array_equal(calibrate_lengthscales(X, y, 2), [
            4.59775205278014, 87.12811307958042, 79.727906277209,
            195.45328123421245, 215.42874575130466, 188.40572926316784,
            186.89087549557354, 192.6297876103834, 214.32126855840716,
            529.8332624788469])
        X, y = prior_design(min_distance_model(), 17, 50)
        np.testing.assert_array_equal(calibrate_lengthscales(X, y, 1),
                                      [87.39289335789901, 4.972719536610803])

    @pytest.mark.parametrize("seed", [20260819, 4271264846])
    def test_brackets_the_optimum_on_poisson_designs(self, seed):
        # every coordinate of the 10-D Poisson designs matters at some
        # scale inside the grid: a length on either edge would be clamped
        # by the span, not chosen by the likelihood
        X, y = prior_design(poisson_kl_model(nodes=33), seed, 400)
        lengths = calibrate_lengthscales(X, y, 2)
        lo, hi = CALIBRATION_SPAN
        std = X.std(axis=0)
        assert np.all(lo * std**2 < lengths)
        assert np.all(lengths < hi * std**2)
