import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import gpmmc.gp
from gpmmc import (Binning, EvalLedger, EvaluationStore, LocalGP, Proposal,
                   SurrogateError, SurrogateKernel, build_local_surrogate,
                   calibrate_lengthscales, fit_quadratic_mean, gaussian_model,
                   local_size)
from gpmmc.gp import (STORE_CAPACITY, QuadraticMean, _check_kernel,
                      _chol_with_jitter, _corr_matrix)

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
                     alpha=np.zeros(1))
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
        # with each one's kernel distance (here the squared distance)
        idx, dist = store.nearest(np.array([0.0]), 2)
        np.testing.assert_array_equal(idx, [1, 3])
        np.testing.assert_array_equal(store.values[idx], [1.0, 2.0])
        np.testing.assert_array_equal(dist, [1.0, 4.0])
        idx, dist = store.nearest(np.array([0.0]), 3)
        np.testing.assert_array_equal(idx, [1, 2, 3])
        np.testing.assert_array_equal(store.values[idx], [1.0, 3.0, 2.0])
        np.testing.assert_array_equal(dist, [1.0, 9.0, 4.0])

    def test_nearest_breaks_ties_by_insertion_order(self):
        store = unit_store(1)
        for v in (1.0, -1.0, 3.0, -3.0):
            store.insert(np.array([v]), v)
        idx, _ = store.nearest(np.array([0.0]), 2)
        np.testing.assert_array_equal(store.values[idx], [1.0, -1.0])
        # 3 and -3 tie at the cutoff: the earlier insert wins
        idx, dist = store.nearest(np.array([0.0]), 3)
        np.testing.assert_array_equal(store.values[idx], [1.0, -1.0, 3.0])
        np.testing.assert_array_equal(dist, [1.0, 1.0, 9.0])

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_nearest_matches_a_stable_sort(self, d, p):
        """nearest is the first n of a stable sort by (distance, index),
        as a set, on stores just below, at and above n points. Integer
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
                    idx, got = store.nearest(q, n)
                    np.testing.assert_array_equal(idx, want)
                    np.testing.assert_array_equal(got, dist[want])
                    if size > n:  # a tie at the cutoff leaves a point out
                        ties += np.count_nonzero(
                            dist <= dist[order[n - 1]]) > n
        assert ties > 10

    def test_nearest_clamps_to_size(self):
        store = unit_store(1)
        store.insert(np.array([1.0]), 1.0)
        idx, dist = store.nearest(np.array([0.0]), 10)
        np.testing.assert_array_equal(idx, [0])
        np.testing.assert_array_equal(dist, [1.0])

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
    the trend residuals r, floored at 1e-12. Four equally spaced points in
    1-D leave the quadratic trend one residual direction, the third
    difference v = (-1, 3, -3, 1), so r = (y.v / v.v) v."""

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
        x = np.arange(4.0)
        gp = self._gp(1.0 + 2.0 * x - 0.5 * x**2, spacing=1.0, length=1.0)
        assert gp.a == 1e-12

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
                     alpha=np.array([y0 - trend]))
        x = np.array([1.3])
        c = math.exp(-(0.8 ** 2) / 0.8)
        mu, var = posterior_at(gp, np.array([[0.5]]), x, np.array([0.8]), 2)
        assert mu == pytest.approx(trend + c * (y0 - trend), rel=1e-14)
        assert var == pytest.approx(2.0 * (1.0 - c * c), rel=1e-14)

    def test_non_finite_mean_raises_surrogate_error(self):
        gp = LocalGP(mean=lambda x: 1e308, a=1.0, chol=np.array([[1.0]]),
                     alpha=np.array([1e308]))
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
        idx, _ = store.nearest(np.zeros(2), local_size(2))
        gp = build_local_surrogate(store, idx)
        for _ in range(200):
            _, var = posterior_at(gp, store.points[idx],
                                  rng.normal(scale=2.0, size=2), lengths, 1)
            assert var >= 0.0

    def test_build_uses_local_support_size(self):
        store = unit_store(1)
        for v in np.linspace(-5.0, 5.0, 30):
            store.insert(np.array([v]), v * v)
        model = gaussian_model("square", lambda X: X[:, 0] ** 2,
                               np.zeros(1), np.ones(1))
        kernel = SurrogateKernel(model, store, Binning(0.0, 25.0, 5), 0.0,
                                 0.05, Proposal(1.0), EvalLedger())
        _, dist = kernel._local_model(np.array([0.1]))
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
        idx, _ = store.nearest(query, local_size(3))
        before = build_local_surrogate(store, idx)
        for xi in X[STORE_CAPACITY:]:
            store.insert(xi, float(np.sin(xi).sum()))
        assert store.size == X.shape[0]
        _, dist = store.nearest(query, store.size)
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
        idx, dist = store.nearest(query, local_size(2))
        corr = np.array([kernel_eval(1.0, lengths, p, xi, query) for xi in X])
        want = np.sort(np.argsort(-corr, kind="stable")[:local_size(2)])
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(store.points[idx], X[want])
        # the query's distances are those of the support alone, bit for bit
        np.testing.assert_array_equal(
            dist, kernel_distance(X[want], query, lengths, p))
        raw = X[np.argsort(((X - query) ** 2).sum(axis=1))[:local_size(2)]]
        assert {tuple(r) for r in raw} != {tuple(r) for r in X[want]}

    def test_build_is_deterministic(self):
        rng = np.random.default_rng(14)
        lengths = np.array([1.0, 1.0])
        store = EvaluationStore(2, lengths, 1)
        for _ in range(25):
            store.insert(rng.normal(size=2), float(rng.normal()))
        idx, _ = store.nearest(np.array([0.3, -0.2]), local_size(2))
        g1 = build_local_surrogate(store, idx)
        g2 = build_local_surrogate(store, idx)
        assert g1.a == g2.a
        q = np.array([0.5, 0.5])
        support = store.points[idx]
        assert (posterior_at(g1, support, q, lengths, 1)
                == posterior_at(g2, support, q, lengths, 1))


class TestLengthscaleCalibration:
    def test_recovers_known_scale(self):
        rng = np.random.default_rng(21)
        X = np.sort(rng.uniform(0.0, 10.0, size=80))[:, None]
        l_true = 2.0
        C = _corr_matrix(X, np.array([l_true]), 2)
        L = np.linalg.cholesky(C + 1e-12 * np.eye(80))
        y = L @ rng.standard_normal(80)
        lengths = calibrate_lengthscales(X, y, p=2)
        # grid steps are ~2.15x apart; allow two steps of slack
        assert l_true / 5.0 <= lengths[0] <= l_true * 5.0

    def test_degenerate_data_falls_back_to_ranges(self):
        X = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, -1.0], [6.0, 0.5]])
        y = np.full(4, 3.0)
        lengths = calibrate_lengthscales(X, y, p=1)
        np.testing.assert_allclose(lengths, [6.0, 2.0], rtol=1e-12)

    def test_same_lengthscales_at_any_scale_of_y(self):
        # the residuals are divided by their largest magnitude, so outputs
        # near 1e170 (whose likelihoods would overflow) or 1e-170 choose the
        # same grid values as outputs near 1
        rng = np.random.default_rng(24)
        X = rng.normal(size=(20, 1))
        y = np.sin(7.0 * X[:, 0])
        lengths = calibrate_lengthscales(X, y, p=2)
        grid = np.geomspace(0.01 * X.std(), 100.0 * X.std(), 13)
        assert lengths[0] in grid and lengths[0] != grid[6]
        for scale in (1e170, 1e-170):
            np.testing.assert_array_equal(
                calibrate_lengthscales(X, scale * y, p=2), lengths)

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
