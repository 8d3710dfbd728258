import math

import numpy as np
import pytest

from gpmmc import (EvalLedger, EvaluationError, evaluate, gaussian_model,
                   log_prior_density, min_distance_model, sample_prior)
from gpmmc.benchmarks import MODELS


def _unit_normal_2d(eval_fn=lambda X: X[:, 0]):
    return gaussian_model("toy", eval_fn, np.zeros(2), np.ones(2))


class TestEvaluate:
    def test_min_distance_at_center(self):
        m = min_distance_model()
        assert evaluate(m, np.array([3.0, 3.0])) == -1.0

    def test_min_distance_at_origin(self):
        m = min_distance_model()
        got = evaluate(m, np.zeros(2))
        assert got == pytest.approx(17.0, abs=1e-12)

    def test_ledger_counts_each_call_once(self):
        m = min_distance_model()
        ledger = EvalLedger()
        for k in range(5):
            evaluate(m, np.zeros(2), ledger)
            assert ledger.true_evals == k + 1
        assert ledger.surrogate_evals == 0

    def test_dimension_mismatch(self):
        m = min_distance_model()
        with pytest.raises(ValueError):
            evaluate(m, np.zeros(3))

    def test_non_finite_output_carries_point(self):
        m = _unit_normal_2d(eval_fn=lambda X: np.full(len(X), np.nan))
        with pytest.raises(EvaluationError) as err:
            evaluate(m, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(err.value.point, [1.0, 2.0])

    def test_deterministic(self):
        m = min_distance_model()
        x = np.array([0.3, -1.7])
        assert evaluate(m, x) == evaluate(m, x)

    def test_block_charges_ledger_once_per_row(self):
        m = min_distance_model()
        ledger = EvalLedger()
        X = np.random.default_rng(4).normal(size=(7, 2))
        ys = evaluate(m, X, ledger)
        assert ledger.true_evals == 7
        assert ys.shape == (7,)
        assert [evaluate(m, x) for x in X] == list(ys)
        assert type(evaluate(m, X[0])) is float

    def test_block_width_mismatch(self):
        m = min_distance_model()
        for bad in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((2, 4, 2)),
                    np.float64(1.0)):
            with pytest.raises(ValueError):
                evaluate(m, bad)

    def test_non_finite_row_carries_that_row(self):
        m = _unit_normal_2d(
            eval_fn=lambda X: np.where(X[:, 0] > 0.5, np.inf, X[:, 0]))
        X = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        ledger = EvalLedger()
        with pytest.raises(EvaluationError) as err:
            evaluate(m, X, ledger)
        np.testing.assert_array_equal(err.value.point, [1.0, 2.0])
        assert ledger.true_evals == 3

    def test_one_value_per_point_required(self):
        m = _unit_normal_2d(eval_fn=lambda X: 0.0)
        with pytest.raises(ValueError, match="returned shape"):
            evaluate(m, np.zeros(2))
        m = _unit_normal_2d(eval_fn=lambda X: X)
        with pytest.raises(ValueError, match="returned shape"):
            evaluate(m, np.zeros((3, 2)))


class TestLogPrior:
    def test_standard_normal_ratio(self):
        m = _unit_normal_2d()
        diff = log_prior_density(m, np.array([1.0, 0.0])) \
            - log_prior_density(m, np.array([0.0, 0.0]))
        assert diff == pytest.approx(-0.5, abs=1e-12)

    def test_constant_is_fixed(self):
        m = _unit_normal_2d()
        got = log_prior_density(m, np.zeros(2))
        assert got == pytest.approx(-math.log(2.0 * math.pi), abs=1e-12)

    def test_scaled_prior(self):
        m = gaussian_model("toy", lambda X: np.zeros(len(X)),
                           np.array([2.0]), np.array([3.0]))
        # density of N(2, 9) at its mean
        assert log_prior_density(m, np.array([2.0])) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi * 9.0), abs=1e-12)

    def test_standard_normal_matches_the_general_form(self):
        # the standard-normal prior skips the shift and scale, which are
        # exact there, so it must give the same bits as the general form
        m = gaussian_model("toy", lambda X: X[:, 0], np.zeros(3), np.ones(3))
        xs = np.vstack([np.random.default_rng(6).normal(size=(50, 3)),
                        [[-0.0, 0.0, 1e-300]]])
        for x in xs:
            z = (x - np.zeros(3)) / np.ones(3)
            want = -1.5 * math.log(2.0 * math.pi) - 0.5 * float(z @ z)
            assert m.log_prior_fn(x) == want

    def test_dimension_checked(self):
        m = _unit_normal_2d()
        with pytest.raises(ValueError):
            log_prior_density(m, np.zeros(5))


class TestSamplePrior:
    def test_moments_of_large_sample(self):
        m = _unit_normal_2d()
        rng = np.random.default_rng(42)
        xs = sample_prior(m, rng, 100_000)
        assert xs.shape == (100_000, 2)
        assert np.abs(xs.mean(axis=0)).max() < 0.02
        np.testing.assert_allclose(xs.var(axis=0), 1.0, rtol=0.05)

    def test_reproducible(self):
        m = _unit_normal_2d()
        a = sample_prior(m, np.random.default_rng(9), 50)
        b = sample_prior(m, np.random.default_rng(9), 50)
        np.testing.assert_array_equal(a, b)

    def test_zero_draws_rejected(self):
        m = _unit_normal_2d()
        with pytest.raises(ValueError):
            sample_prior(m, np.random.default_rng(0), 0)


class TestRegistry:
    def test_benchmarks_registered(self):
        assert set(MODELS) == {"min_distance", "beam", "poisson_kl"}

    def test_models_declare_their_config_keys(self):
        assert MODELS["poisson_kl"][1]["kl_modes"] == ("n_modes", int)
        assert set(MODELS["beam"][1]) == {"e_mean"}
        factory, keys = MODELS["min_distance"]
        assert factory is min_distance_model
        assert keys["dimension"] == ("dimension", int)
        kw, parse = keys["centers"]
        assert kw == "centers"
        np.testing.assert_array_equal(parse("1,2 ; 3,4"), [[1, 2], [3, 4]])


class TestGaussianModelValidation:
    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_model("bad", lambda X: np.zeros(len(X)), np.zeros(2),
                           np.array([1.0, 0.0]))

    def test_empty_mean_rejected(self):
        # a zero-dimensional model has no input to sample
        with pytest.raises(ValueError, match="non-empty"):
            gaussian_model("bad", lambda X: np.zeros(len(X)), np.zeros(0),
                           np.ones(0))
