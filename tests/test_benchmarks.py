import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gpmmc import benchmarks
from gpmmc import (EvalLedger, beam_eval, beam_model, evaluate,
                   interpolate_bilinear, kl_decompose,
                   min_distance_model, pilot_output_range,
                   poisson_kl_model, realize_field, solve_poisson)
from gpmmc.benchmarks import MODELS, OBSERVE, PILOT_DRAWS, PILOT_PAD

# limit of the double Fourier series for the uniform-coefficient problem,
# evaluated at the center of the square (converges like 1/m^4; summed to
# machine precision over odd modes)
U_CENTER_UNIFORM = -0.07367135302960168


def sparse_solve_poisson(a):
    """Oracle: the same finite-volume system assembled as a sparse matrix
    (five diagonals) and solved by SuperLU. Needs at least 4x4 nodes."""
    nodes = a.shape[0]
    h = 1.0 / (nodes - 1)
    ni = nodes - 2
    c = a[1:-1, 1:-1]

    def harmonic(a1, a2):
        return 2.0 * a1 * a2 / (a1 + a2)

    face_e = harmonic(c, a[2:, 1:-1]) / h**2
    face_w = harmonic(c, a[:-2, 1:-1]) / h**2
    face_n = harmonic(c, a[1:-1, 2:]) / h**2
    face_s = harmonic(c, a[1:-1, :-2]) / h**2
    diag = -(face_e + face_w + face_n + face_s).ravel()
    up = face_n.ravel()[:-1].copy()
    up[np.arange(1, ni * ni) % ni == 0] = 0.0
    down = face_s.ravel()[1:].copy()
    down[np.arange(ni * ni - 1) % ni == ni - 1] = 0.0
    A = sp.diags([diag, up, down, face_e.ravel()[:-ni], face_w.ravel()[ni:]],
                 [0, 1, -1, ni, -ni], format="csc")
    u = np.zeros((nodes, nodes))
    u[1:-1, 1:-1] = spla.spsolve(A, np.ones(ni * ni)).reshape(ni, ni)
    return u


class TestMinDistance:
    def test_at_a_center(self):
        model = min_distance_model()
        assert evaluate(model, np.array([3.0, 3.0])) == -1.0

    def test_at_origin(self):
        model = min_distance_model()
        # squared distance to either default center is 3^2 + 3^2 = 18
        assert evaluate(model, np.array([0.0, 0.0])) == pytest.approx(
            17.0, rel=1e-14)

    def test_mirror_symmetry_of_default_centers(self):
        model = min_distance_model()
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=2)
            flipped = np.array([x[0], -x[1]])
            assert evaluate(model, x) == pytest.approx(
                evaluate(model, flipped), rel=1e-14)

    def test_nearest_center_wins(self):
        model = min_distance_model(2, np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert evaluate(model, np.array([1.0, 0.0])) == \
            pytest.approx(0.0, abs=1e-14)
        assert evaluate(model, np.array([9.0, 0.0])) == \
            pytest.approx(0.0, abs=1e-14)

    def test_other_dimensions_use_unit_corners(self):
        model = min_distance_model(dimension=3)
        # squared distance from the origin to either unit corner is 3
        assert evaluate(model, np.zeros(3)) == pytest.approx(2.0, rel=1e-14)

    def test_center_dimension_mismatch(self):
        with pytest.raises(ValueError):
            min_distance_model(dimension=3,
                               centers=np.array([[1.0, 2.0]]))

    def test_standard_normal_prior(self):
        model = min_distance_model()
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(4, 2))
        for x in xs:
            want = -0.5 * float(x @ x) - math.log(2.0 * math.pi)
            assert model.log_prior_fn(x) == pytest.approx(want, rel=1e-12)

    def test_output_moments_match_closed_form(self):
        # With the default centers, the output splits into independent terms
        # (x1-3)^2 + (|x2|-3)^2 - 1, so its mean and variance follow from
        # normal and half-normal moments.
        s = math.sqrt(2.0 / math.pi)
        mean_want = 19.0 - 6.0 * s
        var_want = 176.0 - 132.0 * s - (10.0 - 6.0 * s) ** 2
        model = min_distance_model()
        rng = np.random.default_rng(3)
        ys = evaluate(model, rng.normal(size=(200_000, 2)))
        assert ys.mean() == pytest.approx(mean_want, rel=5e-3)
        assert ys.var() == pytest.approx(var_want, rel=2e-2)


class TestBeam:
    def test_unit_case(self):
        # 4 L^3 / (E w t) = 1 and the load root is 1
        assert beam_eval(1.0, 1.0, 0.0, 1.0, 4.0e6) == pytest.approx(
            1.0, rel=1e-14)

    def test_nominal_displacement(self):
        model = beam_model()
        means = np.array([4.0, 4.0, 500.0, 1000.0, 2.9e7])
        got = evaluate(model, means)
        want = (4.0 * 100.0**3 / (2.9e7 * 16.0)
                * math.sqrt((1000.0 / 16.0) ** 2 + (500.0 / 16.0) ** 2))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.6023890025592106, rel=1e-12)

    def test_softer_modulus_scales_tenfold(self):
        soft = beam_model(e_mean=2.9e6)
        means = np.array([4.0, 4.0, 500.0, 1000.0, 2.9e6])
        assert evaluate(soft, means) == pytest.approx(
            10.0 * 0.6023890025592106, rel=1e-12)

    def test_invalid_section(self):
        for args in ((0.0, 4.0, 500.0, 1000.0, 2.9e7),
                     (4.0, -1.0, 500.0, 1000.0, 2.9e7),
                     (4.0, 4.0, 500.0, 1000.0, 0.0)):
            with pytest.raises(ValueError):
                beam_eval(*args)

    def test_prior_matches_reference_spread(self):
        model = beam_model()
        rng = np.random.default_rng(2)
        xs = model.prior_sampler(rng, 200_000)
        np.testing.assert_allclose(
            xs.mean(axis=0), [4.0, 4.0, 500.0, 1000.0, 2.9e7], rtol=1e-2)
        np.testing.assert_allclose(
            xs.var(axis=0), [1e-3, 1e-4, 100.0, 100.0, 1.45e6], rtol=3e-2)


class TestKlDecomposition:
    def test_grid_orthonormal(self):
        basis = kl_decompose(17, 0.6, 5)
        n_pts = 17 * 17
        gram = (basis.functions @ basis.functions.T) / n_pts
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_eigenvalues_positive_descending(self):
        basis = kl_decompose(17, 0.6, 8)
        assert np.all(basis.eigenvalues > 0)
        assert np.all(np.diff(basis.eigenvalues) <= 1e-12)

    def test_spectrum_decays_fast(self):
        basis = kl_decompose(33, 0.6, 10)
        assert basis.eigenvalues[-1] / basis.eigenvalues[0] < 0.01

    def test_ten_modes_capture_nearly_all_variance(self):
        # the covariance has unit diagonal, so the full spectrum sums to one
        basis = kl_decompose(17, 0.6, 10)
        assert 0.99 <= basis.eigenvalues.sum() <= 1.0 + 1e-9

    def test_leading_eigenvalue_stable_across_resolution(self):
        c = kl_decompose(17, 0.6, 3)
        f = kl_decompose(33, 0.6, 3)
        np.testing.assert_allclose(c.eigenvalues, f.eigenvalues, rtol=0.03)

    def test_sign_convention(self):
        basis = kl_decompose(17, 0.6, 6)
        for row in basis.functions:
            nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
            assert row[nz[0]] > 0

    def test_modes_are_products_of_1d_modes(self):
        nodes = 17
        basis = kl_decompose(nodes, 0.6, 10)
        for f in basis.functions:
            s = np.linalg.svd(f.reshape(nodes, nodes), compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    def test_equal_pairs_come_in_index_order(self):
        # mode (a, b) is phi_a(x) phi_b(y); its partner (b, a) is the
        # transpose, and the one whose x factor is the lower 1-D mode (fewer
        # sign changes) comes first
        nodes = 17
        basis = kl_decompose(nodes, 0.6, 10)
        lam = basis.eigenvalues
        pairs = [j for j in range(lam.size - 1)
                 if abs(lam[j] - lam[j + 1]) <= 1e-12 * lam[j]]
        assert len(pairs) == 4

        def sign_changes(v):
            v = v[np.abs(v) > 1e-8 * np.abs(v).max()]
            return int(np.count_nonzero(np.diff(np.sign(v))))

        for j in pairs:
            first = basis.functions[j].reshape(nodes, nodes)
            second = basis.functions[j + 1].reshape(nodes, nodes)
            np.testing.assert_allclose(second, first.T, atol=1e-12)
            u, _, vt = np.linalg.svd(first)
            assert sign_changes(u[:, 0]) < sign_changes(vt[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            kl_decompose(4, 0.6, 2)
        with pytest.raises(ValueError):
            kl_decompose(17, 0.6, 0)

    def test_modes_past_the_numerical_rank_rejected(self):
        # at 17 nodes the 1-D kernel has two eigenvalues <= 0; the first 216
        # modes avoid them, and beyond that the modes are rounding noise
        # (a field from all 289 was all NaN)
        basis = kl_decompose(17, 0.6, 216)
        assert np.all(basis.eigenvalues > 0)
        field = realize_field(basis, np.ones(216))
        assert np.all(np.isfinite(field)) and np.all(field > 0)
        for n_modes in (217, 289):
            with pytest.raises(ValueError, match="numerical rank"):
                kl_decompose(17, 0.6, n_modes)


class TestRealizeField:
    def test_zero_coefficients_give_constant_field(self):
        basis = kl_decompose(17, 0.6, 4)
        field = realize_field(basis, np.zeros(4))
        assert field.shape == (17, 17)
        np.testing.assert_array_equal(field, np.ones((17, 17)))

    def test_positive_everywhere(self):
        basis = kl_decompose(17, 0.6, 10)
        rng = np.random.default_rng(3)
        for _ in range(10):
            field = realize_field(basis, rng.normal(size=10))
            assert np.all(field > 0)

    def test_coefficient_count_checked(self):
        basis = kl_decompose(17, 0.6, 4)
        with pytest.raises(ValueError):
            realize_field(basis, np.zeros(3))


class TestSolvePoisson:
    def test_uniform_field_matches_series_limit(self):
        u = solve_poisson(np.ones((65, 65)))
        center = interpolate_bilinear(u, (0.5, 0.5))
        assert center == pytest.approx(U_CENTER_UNIFORM, abs=2e-5)

    def test_second_order_convergence(self):
        e = []
        for n in (17, 33):
            u = solve_poisson(np.ones((n, n)))
            e.append(abs(interpolate_bilinear(u, (0.5, 0.5))
                         - U_CENTER_UNIFORM))
        assert 3.5 <= e[0] / e[1] <= 4.5

    def test_boundary_and_sign(self):
        u = solve_poisson(np.ones((33, 33)))
        assert np.all(u[0] == 0) and np.all(u[-1] == 0)
        assert np.all(u[:, 0] == 0) and np.all(u[:, -1] == 0)
        assert np.all(u[1:-1, 1:-1] < 0)  # positive source pulls u down

    def test_symmetries_of_uniform_problem(self):
        u = solve_poisson(np.ones((33, 33)))
        np.testing.assert_allclose(u, u.T, atol=1e-12)
        np.testing.assert_allclose(u, u[::-1, :], atol=1e-12)

    def test_doubling_coefficient_halves_solution(self):
        rng = np.random.default_rng(4)
        a = np.exp(0.3 * rng.normal(size=(17, 17)))
        u1 = solve_poisson(a)
        u2 = solve_poisson(2.0 * a)
        np.testing.assert_allclose(u2, 0.5 * u1, atol=1e-10)

    @pytest.mark.parametrize("nodes", [4, 17, 33, 65])
    def test_matches_sparse_oracle(self, nodes):
        rng = np.random.default_rng(nodes)
        shape = (nodes, nodes)
        fields = [np.ones(shape), np.exp(rng.normal(size=shape)),
                  np.exp(3.0 * rng.normal(size=shape))]  # high contrast
        for a in fields:
            want = sparse_solve_poisson(a)
            got = solve_poisson(a)
            np.testing.assert_array_equal(got[[0, -1]], 0.0)
            np.testing.assert_array_equal(got[:, [0, -1]], 0.0)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_three_by_three_grid(self):
        # one unknown with four faces of 1 / h^2 = 4: -16 u = 1
        u = solve_poisson(np.ones((3, 3)))
        want = np.zeros((3, 3))
        want[1, 1] = -0.0625
        np.testing.assert_array_equal(u, want)

    def test_residual_check_runs(self, monkeypatch):
        monkeypatch.setattr(benchmarks, "RESIDUAL_TOL", 0.0)
        rng = np.random.default_rng(6)
        with pytest.raises(RuntimeError, match="residual"):
            solve_poisson(np.exp(rng.normal(size=(17, 17))))

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            solve_poisson(np.ones((4, 5)))
        with pytest.raises(ValueError):
            solve_poisson(np.zeros((9, 9)))
        bad = np.ones((9, 9))
        bad[4, 4] = math.nan
        with pytest.raises(ValueError):
            solve_poisson(bad)


class TestInterpolateBilinear:
    def test_exact_at_nodes(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(9, 9))
        h = 1.0 / 8.0
        for i in (0, 3, 8):
            for j in (0, 5, 8):
                assert interpolate_bilinear(u, (i * h, j * h)) == \
                    pytest.approx(u[i, j], rel=1e-12, abs=1e-12)

    def test_cell_center_averages_corners(self):
        u = np.zeros((3, 3))
        u[0, 0], u[1, 0], u[0, 1], u[1, 1] = 1.0, 2.0, 3.0, 4.0
        assert interpolate_bilinear(u, (0.25, 0.25)) == pytest.approx(2.5)

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            interpolate_bilinear(np.zeros((3, 3)), (1.2, 0.5))


class TestPoissonKlModel:
    def test_zero_coefficients_reduce_to_uniform(self):
        model = poisson_kl_model(nodes=17, n_modes=4)
        u = solve_poisson(np.ones((17, 17)))
        want = interpolate_bilinear(u, (0.5, 0.5))
        assert evaluate(model, np.zeros(4)) == pytest.approx(want, rel=1e-12)

    def test_dimension_and_prior(self):
        model = poisson_kl_model(nodes=17, n_modes=6)
        assert model.dimension == 6
        x = np.zeros(6)
        assert model.log_prior_fn(x) == pytest.approx(
            -3.0 * math.log(2.0 * math.pi), rel=1e-12)

    def test_field_roughness_moves_observation(self):
        model = poisson_kl_model(nodes=17, n_modes=4)
        y0 = evaluate(model, np.zeros(4))
        y1 = evaluate(model, np.array([2.0, 0.0, 0.0, 0.0]))
        assert y0 != y1

    def test_registry_round_trip(self):
        model = MODELS["poisson_kl"][0](nodes=17, n_modes=4)
        assert model.name == "poisson_kl"
        assert model.dimension == 4


def _min_distance_oracle(centers):
    return lambda x: float(((centers - x) ** 2).sum(axis=1).min()) - 1.0


def _poisson_oracle(basis):
    return lambda c: interpolate_bilinear(
        solve_poisson(realize_field(basis, c)), OBSERVE)


class TestBlockEqualsPoint:
    """Each shipped model evaluates a block of prior draws to the same bits
    as each draw alone and as the model's scalar formula."""

    @pytest.mark.parametrize("model, oracle", [
        (min_distance_model(2),
         _min_distance_oracle(np.array([[3.0, 3.0], [3.0, -3.0]]))),
        (min_distance_model(8),
         _min_distance_oracle(np.vstack([np.ones(8), -np.ones(8)]))),
        (beam_model(), lambda x: beam_eval(*x)),
        (poisson_kl_model(nodes=9, n_modes=4),
         _poisson_oracle(kl_decompose(9, 0.6, 4))),
    ], ids=["min_distance_d2", "min_distance_d8", "beam", "poisson_kl"])
    def test_bit_for_bit(self, model, oracle):
        X = model.prior_sampler(np.random.default_rng(31), 50)
        ledger = EvalLedger()
        block = evaluate(model, X, ledger)
        assert ledger.true_evals == 50
        assert block.tolist() == [evaluate(model, x) for x in X]
        assert block.tolist() == [oracle(x) for x in X]


class TestPilotOutputRange:
    def test_padded_and_reproducible(self):
        model = min_distance_model()
        lo1, hi1 = pilot_output_range(model, 7, EvalLedger())
        lo2, hi2 = pilot_output_range(model, 7, EvalLedger())
        assert (lo1, hi1) == (lo2, hi2)
        assert lo1 < hi1
        # padding means some pilot draw lies strictly inside each end
        raw_span = (hi1 - lo1) / (1.0 + 2.0 * PILOT_PAD)
        assert hi1 - raw_span * PILOT_PAD > lo1

    def test_ledger_counts_pilot(self):
        model = min_distance_model()
        ledger = EvalLedger()
        pilot_output_range(model, 7, ledger)
        assert ledger.true_evals == PILOT_DRAWS == 1000

    def test_draws_go_to_the_model_as_one_block(self):
        base = min_distance_model()
        sizes = []

        def recording(X):
            sizes.append(len(X))
            return base.eval_fn(X)

        model = dataclasses.replace(base, eval_fn=recording)
        assert (pilot_output_range(model, 7, EvalLedger())
                == pilot_output_range(base, 7, EvalLedger()))
        assert sizes == [PILOT_DRAWS]

    def test_degenerate_output_rejected(self):
        from gpmmc import gaussian_model
        flat = gaussian_model("flat", lambda X: np.ones(len(X)), np.zeros(1),
                              np.ones(1))
        with pytest.raises(RuntimeError):
            pilot_output_range(flat, 1, EvalLedger())

