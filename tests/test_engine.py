import collections
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import gpmmc.engine
from conftest import engine_steps
from gpmmc import (Binning, EvalLedger, ExactKernel, MmcConfig,
                   SurrogateError, combined_probability, estimate_moments,
                   fit_surrogate_kernel, flatness_cv, gaussian_model, run_mmc,
                   run_plain_mc, tally, update_weights)
from gpmmc.benchmarks import min_distance_model
from gpmmc.engine import PLAIN_MC_CHUNK
from gpmmc.mcmc import log_bias_density


def _identity_model(d=1):
    return gaussian_model("identity", lambda X: X[:, 0],
                          np.zeros(d), np.ones(d))


class TestCombinedProbabilityInputs:
    """combined_probability checks the whole record it pools, so every
    table a run updates from, its final estimate and a histogram.csv read
    back pass the same checks."""

    def test_positive_finite_weights_required(self):
        counts = np.array([[5, 5], [5, 5]])
        for bad in (0.0, -2.0, math.nan, math.inf):
            weights = np.array([[1.0, 1.0], [1.0, bad]])
            with pytest.raises(ValueError, match="positive and finite"):
                combined_probability(weights, counts)
            with pytest.raises(ValueError, match="positive and finite"):
                update_weights(weights, counts)

    @pytest.mark.parametrize("weights, counts", [
        (np.ones((2, 3)), np.ones((2, 2), dtype=int)),
        (np.ones(2), np.ones(2, dtype=int)),
        (np.ones((0, 2)), np.ones((0, 2), dtype=int)),
    ], ids=["bins", "one_dimensional", "no_iterations"])
    def test_shape_mismatch_rejected(self, weights, counts):
        with pytest.raises(ValueError, match="shape"):
            combined_probability(weights, counts)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            combined_probability(np.ones((2, 2)), np.array([[3, 1], [5, -1]]))

    def test_empty_row_beside_a_filled_one_rejected(self):
        with pytest.raises(RuntimeError, match="empty"):
            combined_probability(np.ones((2, 3)),
                                 np.array([[3, 1, 2], [0, 0, 0]]))


def _config(scale):
    return MmcConfig(iterations=2, samples_per_iteration=100,
                     proposal_scale=scale, seed=1)


class TestMmcConfig:
    """The proposal scale is checked when the config is made and kept as a
    float or a tuple of floats, so the frozen config stays hashable."""

    def test_nonpositive_rejected(self):
        for scale in (0.0, -1.0, (0.5, 0.0), np.array([0.5, -2.0])):
            with pytest.raises(ValueError, match="positive and finite"):
                _config(scale)

    def test_nonfinite_rejected(self):
        for scale in (math.inf, math.nan, np.array([0.5, math.inf])):
            with pytest.raises(ValueError, match="positive and finite"):
                _config(scale)

    @pytest.mark.parametrize("name", ["iterations", "samples_per_iteration",
                                      "burn_in", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2.0), "2"],
                             ids=["float", "whole", "numpy_float", "str"])
    def test_non_integer_count_rejected(self, name, value):
        counts = dict(iterations=2, samples_per_iteration=100, burn_in=10,
                      seed=1)
        counts[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MmcConfig(proposal_scale=0.5, **counts)

    def test_numpy_integer_counts_accepted(self):
        cfg = MmcConfig(iterations=np.int64(2),
                        samples_per_iteration=np.int32(100),
                        proposal_scale=0.5, burn_in=np.uint16(10),
                        seed=np.int64(1))
        assert (cfg.iterations, cfg.samples_per_iteration, cfg.burn_in,
                cfg.seed) == (2, 100, 10, 1)
        assert MmcConfig(2, np.int64(100), 0.5).burn_in == 10

    @pytest.mark.parametrize("scale", [(), np.ones((2, 2)), [[0.5]]],
                             ids=["empty", "matrix", "nested"])
    def test_empty_or_multidimensional_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="proposal_scale"):
            _config(scale)

    def test_scale_kept_as_float_or_tuple(self):
        one = _config(np.float64(0.5)).proposal_scale
        assert one == 0.5 and type(one) is float
        vector = _config(np.array([0.5, 2.0]))
        assert vector.proposal_scale == (0.5, 2.0)
        assert vector == _config([0.5, 2.0])
        assert hash(vector) == hash(_config((0.5, 2.0)))
        assert _config([0.5]).proposal_scale == (0.5,)

    @pytest.mark.parametrize("scale, shape", [(0.7, ()), ((0.7, 1.3), (2,))])
    def test_run_makes_the_scale_an_array_once(self, scale, shape,
                                               monkeypatch):
        """One scale becomes a 0-d array (numpy multiplies that into a
        vector faster than a length-1 one), made once for the whole run."""
        sample, seen = gpmmc.engine._sample, []

        def recorded(kernel, scale, *rest):
            seen.append(scale)
            return sample(kernel, scale, *rest)

        monkeypatch.setattr(gpmmc.engine, "_sample", recorded)
        run_mmc(ExactKernel(_identity_model(2), Binning(-3.0, 3.0, 6),
                            EvalLedger()), _config(scale))
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0].shape == shape and seen[0].dtype == float
        np.testing.assert_array_equal(seen[0], scale)


class TestLogBiasDensity:
    def test_out_of_range_is_minus_inf(self):
        m = _identity_model()
        b = Binning(-1.0, 1.0, 4)
        assert log_bias_density([0.0] * 4, b, m, np.array([2.0]),
                                2.0) == -math.inf

    def test_weight_enters_inversely(self):
        m = _identity_model()
        b = Binning(-1.0, 1.0, 4)
        log1, log2 = ([math.log(t) for t in w]
                      for w in ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 4.0, 1.0]))
        x = np.array([0.2])  # bin 2
        assert log_bias_density(log2, b, m, x, 0.2) == pytest.approx(
            log_bias_density(log1, b, m, x, 0.2) - math.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("surrogate", [False, True])
    def test_every_step_goes_through_it(self, surrogate, monkeypatch):
        """run_mmc scores each iteration's start state and both kernels
        score every candidate through engine.log_bias_density, so a wrapper
        installed under that name in every gpmmc module, as perfbench's
        engine.target layer is, counts one call per step and iteration."""
        original = gpmmc.engine.log_bias_density
        calls = []

        def counted(*args):
            calls.append(None)
            return original(*args)

        for name, mod in list(sys.modules.items()):
            if name == "gpmmc" or name.startswith("gpmmc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 6)
        if surrogate:
            kernel = fit_surrogate_kernel(model, binning, 4,
                                          initial_design=10, gamma=0.1,
                                          beta_max=0.05, p=2,
                                          ledger=EvalLedger())
        else:
            kernel = ExactKernel(model, binning, EvalLedger())
        res = run_mmc(kernel, MmcConfig(iterations=3,
                                        samples_per_iteration=200,
                                        proposal_scale=1.0, burn_in=20,
                                        seed=4))
        assert len(calls) == 3 * (1 + 200 + 20)
        if surrogate:
            causes = res.causes
            served = causes.get("served", 0) + causes.get("screened", 0)
            assert 0 < served < sum(causes.values())


class TestUpdateWeights:
    def test_two_bin_example(self):
        w2 = update_weights(np.array([[0.5, 0.5]]), np.array([[75, 25]]))
        np.testing.assert_allclose(w2, [0.75, 0.25], rtol=1e-14)

    def test_empty_bin_drops_to_min_visited(self):
        w2 = update_weights(np.full((1, 3), 1 / 3), np.array([[60, 40, 0]]))
        # visited bins update to (0.2, 2/15); the empty bin takes the
        # smaller of those, and the sum 7/15 rescales back to 1
        np.testing.assert_allclose(w2, [3 / 7, 2 / 7, 2 / 7], rtol=1e-14)

    def test_empty_bin_weight_tracks_the_rarest_visited_bin(self):
        w2 = update_weights(np.array([[0.25, 0.25, 0.25, 0.25]]),
                            np.array([[9000, 990, 10, 0]]))
        assert w2[3] == pytest.approx(w2[2], rel=1e-14)
        assert w2[2] < w2[1] < w2[0]

    def test_flat_histogram_is_fixed_point(self):
        w = np.array([[0.1, 0.6, 0.3]])
        w2 = update_weights(w, np.array([[200, 200, 200]]))
        np.testing.assert_allclose(w2, w[0], rtol=1e-14)

    def test_sum_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            theta = rng.uniform(0.1, 5.0, size=8)
            counts = rng.integers(0, 50, size=8)
            if counts.sum() == 0:
                counts[0] = 1
            w2 = update_weights(np.array([theta]), np.array([counts]))
            assert w2.sum() == pytest.approx(theta.sum(), rel=1e-12)
            assert np.all(w2 > 0)

    def test_empty_histogram_rejected(self):
        with pytest.raises(RuntimeError):
            update_weights(np.ones((1, 3)), np.zeros((1, 3), dtype=int))


class TestCombinedProbability:
    def test_single_histogram_is_counts_times_weights(self):
        w = np.array([[0.2, 1.0, 3.0, 0.5]])
        counts = np.array([[40, 10, 0, 50]])
        raw = (counts * w)[0]
        np.testing.assert_allclose(combined_probability(w, counts),
                                   raw / raw.sum(), rtol=1e-14)

    def test_exact_histograms_recover_the_probabilities(self):
        # counts exactly proportional to P_i / theta_ki in every iteration
        prob = np.array([0.5, 0.3, 0.15, 0.05])
        weights = np.array([np.ones(4), prob * 4.0, [1.0, 0.5, 0.5, 0.25]])
        share = prob / weights
        counts = np.round(share / share.sum(axis=1, keepdims=True)
                          * 8000).astype(int)
        np.testing.assert_allclose(combined_probability(weights, counts),
                                   prob, rtol=1e-12)

    def test_mismatched_history_rejected(self):
        with pytest.raises(ValueError):
            combined_probability(np.ones((2, 2)), np.array([[1, 1]]))


class TestUpdateWeightsFromHistory:
    def test_bin_seen_earlier_is_not_floored(self):
        # iteration 0 put half its samples in bin 2; iteration 1, sampled with
        # the weights that followed, never reached it
        counts = np.array([[10, 40, 50], [70, 30, 0]])
        weights = np.ones((2, 3))
        weights[1] = update_weights(weights[:1], counts[:1])
        w2 = update_weights(weights, counts)
        assert w2[2] > w2[:2].min()
        prob = combined_probability(weights, counts)
        np.testing.assert_allclose(w2 / w2.sum(), prob, rtol=1e-12)
        assert w2.sum() == pytest.approx(3.0, rel=1e-12)
        # the one-histogram update would have floored it
        floored = update_weights(weights[1:], counts[1:])
        assert floored[2] == pytest.approx(floored.min(), rel=1e-14)

    def test_bin_never_seen_takes_the_floor(self):
        counts = np.array([[60, 40, 0], [45, 55, 0]])
        weights = np.ones((2, 3))
        weights[1] = update_weights(weights[:1], counts[:1])
        w2 = update_weights(weights, counts)
        assert w2[2] == pytest.approx(w2[:2].min(), rel=1e-14)

    def test_run_density_pools_all_iterations(self):
        model = _identity_model()
        b = Binning(-3.0, 3.0, 12)
        res = run_mmc(ExactKernel(model, b, EvalLedger()),
                      MmcConfig(iterations=3, samples_per_iteration=2000,
                                proposal_scale=1.5, burn_in=100, seed=5))
        np.testing.assert_array_equal(
            res.pdf, combined_probability(res.weights, res.counts) / b.delta)
        np.testing.assert_array_equal(
            res.weights[-1], update_weights(res.weights[:-1], res.counts[:-1]))


class TestRunRecord:
    """MmcResult.weights and .counts: one (iterations, bins) row per
    iteration, each weight row the update from the rows before it, bit for
    bit."""

    @pytest.fixture(scope="class")
    def run(self):
        kernel = ExactKernel(_identity_model(), Binning(-3.0, 3.0, 12),
                             EvalLedger())
        return run_mmc(kernel, MmcConfig(iterations=4,
                                         samples_per_iteration=1500,
                                         proposal_scale=1.5, burn_in=100,
                                         seed=8))

    def test_shapes_and_types(self, run):
        assert run.weights.shape == run.counts.shape == (4, 12)
        assert run.weights.dtype == float
        assert np.issubdtype(run.counts.dtype, np.integer)

    def test_first_weights_are_ones(self, run):
        np.testing.assert_array_equal(run.weights[0], np.ones(12))

    def test_each_row_is_the_update_of_the_rows_before(self, run):
        for k in range(1, 4):
            np.testing.assert_array_equal(
                run.weights[k],
                update_weights(run.weights[:k], run.counts[:k]))

    def test_counts_sum_to_samples_per_iteration(self, run):
        np.testing.assert_array_equal(run.counts.sum(axis=1), [1500] * 4)

    def test_flatness_is_per_count_row(self, run):
        assert run.flatness == [flatness_cv(c) for c in run.counts]


class TestEstimatePdf:
    """The run's density estimate: combined_probability over the bin width,
    as run_mmc computes MmcResult.pdf."""

    def test_uniform_counts_flat_weights(self):
        b = Binning(0.0, 1.0, 4)
        pdf = combined_probability(np.ones((1, 4)),
                                   np.array([[25, 25, 25, 25]])) / b.delta
        np.testing.assert_allclose(pdf, np.ones(4), rtol=1e-14)

    def test_normalization_exact(self):
        b = Binning(-2.0, 2.0, 8)
        counts = np.array([5, 0, 7, 1, 0, 3, 2, 9])
        pdf = combined_probability(np.array([np.linspace(0.2, 3.0, 8)]),
                                   np.array([counts])) / b.delta
        assert pdf @ np.full(8, b.delta) == pytest.approx(1.0, abs=1e-12)
        assert np.all(pdf[counts == 0] == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(RuntimeError):
            combined_probability(np.ones((1, 2)), np.zeros((1, 2), dtype=int))


class TestEstimateMoments:
    def test_symmetric_two_bins(self):
        b = Binning(-1.0, 1.0, 2)
        moments = estimate_moments(np.array([0.5, 0.5]), b)
        assert moments["mean"] == pytest.approx(0.0, abs=1e-14)
        assert moments["variance"] == pytest.approx(0.25, abs=1e-14)
        assert moments["central3"] == pytest.approx(0.0, abs=1e-14)

    def test_point_mass(self):
        b = Binning(0.0, 5.0, 5)
        pdf = np.array([0.0, 0.0, 1.0 / b.delta, 0.0, 0.0])
        moments = estimate_moments(pdf, b)
        assert moments["mean"] == pytest.approx(2.5, abs=1e-14)
        assert moments["variance"] <= b.delta**2 / 12.0

    def test_quadrature_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        b = Binning(-3.0, 3.0, 12)
        mass = rng.uniform(0.0, 1.0, size=12)
        mass /= mass.sum()
        pdf = mass / b.delta
        moments = estimate_moments(pdf, b)
        mean = float(b.centers @ mass)
        assert moments["mean"] == pytest.approx(mean, abs=1e-12)
        for r, key in ((2, "variance"), (3, "central3"), (4, "central4"),
                       (5, "central5")):
            want = float(((b.centers - mean) ** r) @ mass)
            assert moments[key] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                estimate_moments(np.array([bad, 1.0]), Binning(0.0, 2.0, 2))

    def test_all_zero_rejected(self):
        with pytest.raises(RuntimeError):
            estimate_moments(np.zeros(4), Binning(0.0, 1.0, 4))

    def test_overflowing_moments_are_none(self):
        # bin centres near 1e170: the variance overflows to inf and the odd
        # central moments come out NaN; both must be reported as None,
        # without a numpy warning
        b = Binning(-1e170, 1e170, 10)
        pdf = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = estimate_moments(pdf, b)
        assert math.isfinite(moments["mean"])
        assert all(moments[k] is None
                   for k in ("variance", "central3", "central4", "central5"))


class TestFlatness:
    def test_uniform_counts_have_zero_cv(self):
        assert flatness_cv(np.array([10, 10, 10])) == 0.0

    def test_zero_bins_ignored(self):
        assert flatness_cv(np.array([10, 0, 30])) == pytest.approx(10.0 / 20.0)


class TestRunMmc:
    def test_deterministic_given_seed(self):
        model = _identity_model()
        binning = Binning(-2.0, 2.0, 8)
        cfg = MmcConfig(iterations=3, samples_per_iteration=400,
                        proposal_scale=1.0, seed=77)
        results, kernels = [], []
        for _ in range(2):
            kernels.append(ExactKernel(model, binning, EvalLedger()))
            results.append(run_mmc(kernels[-1], cfg))
        a, b = results
        np.testing.assert_array_equal(a.pdf, b.pdf)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert kernels[0].ledger == kernels[1].ledger

    def test_oracle_weights_give_flat_histogram(self):
        """With weights proportional to the true bin masses the sampled
        histogram is nearly flat (max/min <= 2 over well-supported bins)."""
        from scipy.stats import norm
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 40)
        edges = binning.edges
        masses = norm.cdf(edges[1:]) - norm.cdf(edges[:-1])
        theta = masses * binning.m / masses.sum()

        class FixedWeightKernel(ExactKernel):
            pass

        kernel = FixedWeightKernel(model, binning, EvalLedger())
        log_theta = [math.log(t) for t in theta]
        rng = np.random.default_rng(123)

        x, y, _, _ = engine_steps(kernel, 2.0, rng, np.zeros(1), 0.0,
                                  log_theta, 2000)
        _, _, ys, _ = engine_steps(kernel, 2.0, rng, x, y, log_theta, 100_000)
        strong = masses >= 1e-6
        counts = tally(binning, ys)[strong]
        assert counts.min() > 0
        assert counts.max() / counts.min() <= 2.0

    def test_accounting_identity(self):
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 6)
        cfg = MmcConfig(iterations=4, samples_per_iteration=250,
                        proposal_scale=1.0, burn_in=50, seed=3)
        ledger = EvalLedger()
        kernel = ExactKernel(model, binning, ledger)
        res = run_mmc(kernel, cfg)
        assert ledger.true_evals == 4 * (250 + 50) + res.start_draws

    @pytest.mark.parametrize("surrogate", [False, True],
                             ids=["exact", "surrogate"])
    def test_causes_tally_every_step(self, surrogate):
        """result.causes is the kernel's declared cause table, in order with
        zeros kept, and counts the cause of every step on_step sees, burn-in
        included; on_step gets each step's index, cause, beta and decision.
        The causes not SERVED, with the design and the start draws, account
        for the whole ledger."""
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 6)
        ledger = EvalLedger()
        if surrogate:
            kernel = fit_surrogate_kernel(model, binning, 5,
                                          initial_design=10, gamma=0.1,
                                          beta_max=0.05, p=2,
                                          ledger=ledger)
            design = 10
        else:
            kernel = ExactKernel(model, binning, ledger)
            design = 0
        calls = []
        res = run_mmc(kernel, MmcConfig(iterations=3,
                                        samples_per_iteration=200,
                                        proposal_scale=1.0, burn_in=20,
                                        seed=5),
                      on_step=lambda *args: calls.append(args))
        steps = 3 * (200 + 20)
        assert [c[0] for c in calls] == list(range(steps))
        assert all(type(c[3]) is bool for c in calls)
        seen = collections.Counter(c[1] for c in calls)
        assert list(res.causes) == list(type(kernel).CAUSES)
        assert res.causes == {k: seen[k] for k in res.causes}
        assert sum(res.causes.values()) == steps
        true_causes = set(kernel.CAUSES) - set(kernel.SERVED)
        assert ledger.true_evals == (design + res.start_draws + sum(
            res.causes[k] for k in true_causes))
        if surrogate:
            assert res.causes["served"] and res.causes["refine_random"]
            # a declared cause no step took keeps its zero
            assert res.causes["refine_fallback"] == 0
        else:
            assert all(beta is None for _, _, beta, _ in calls)

    def test_undeclared_cause_raises(self):
        """A step whose cause its kernel does not declare stops the run,
        instead of adding a key to the cause table."""
        class Stray(ExactKernel):
            def step(self, *args):
                return super().step(*args)[0], "stray", None

        kernel = Stray(_identity_model(), Binning(-3.0, 3.0, 6),
                       EvalLedger())
        with pytest.raises(KeyError, match="stray"):
            run_mmc(kernel, MmcConfig(iterations=1, samples_per_iteration=50,
                                      proposal_scale=1.0, seed=2))

    def test_mass_conservation_and_probabilities(self):
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 6)
        cfg = MmcConfig(iterations=2, samples_per_iteration=500,
                        proposal_scale=1.0, seed=21)
        kernel = ExactKernel(model, binning, EvalLedger())
        res = run_mmc(kernel, cfg)
        assert res.pdf @ np.full(6, binning.delta) == pytest.approx(1.0, abs=1e-12)
        assert (res.pdf * binning.delta).sum() == pytest.approx(1.0, abs=1e-12)
        assert res.weights.shape == res.counts.shape == (2, 6)

    @pytest.mark.parametrize("surrogate", [False, True],
                             ids=["exact", "surrogate"])
    def test_scale_of_the_wrong_length_rejected_before_any_draw(self,
                                                                surrogate):
        """A scale vector that is not one entry per coordinate is refused
        before the start draw: the ledger holds only the surrogate's
        design."""
        model, binning = min_distance_model(), Binning(-1.0, 54.0, 55)
        ledger = EvalLedger()
        if surrogate:
            kernel = fit_surrogate_kernel(model, binning, 3,
                                          initial_design=20, gamma=0.05,
                                          beta_max=0.05, p=2, ledger=ledger)
        else:
            kernel = ExactKernel(model, binning, ledger)
        spent = ledger.true_evals
        with pytest.raises(ValueError, match="proposal_scale has 3 entries, "
                                             "model dimension is 2"):
            run_mmc(kernel, _config((1.0, 1.0, 1.0)))
        assert ledger.true_evals == spent == (20 if surrogate else 0)

    def test_sparse_sampling_warns(self):
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 60)
        cfg = MmcConfig(iterations=1, samples_per_iteration=30,
                        proposal_scale=1.0, seed=1)
        kernel = ExactKernel(model, binning, EvalLedger())
        with pytest.warns(UserWarning, match="below bin count"):
            run_mmc(kernel, cfg)

    def test_unreachable_range_errors(self):
        model = _identity_model()
        binning = Binning(500.0, 501.0, 4)
        cfg = MmcConfig(iterations=1, samples_per_iteration=100,
                        proposal_scale=1.0, seed=1)
        kernel = ExactKernel(model, binning, EvalLedger())
        with pytest.raises(RuntimeError, match="no prior draw"):
            run_mmc(kernel, cfg)


class _RecordingRng:
    """Wraps a Generator and logs every draw made through it; any draw
    other than standard_normal and random fails."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def standard_normal(self, size=None):
        self._log.append(("standard_normal", size))
        return self._rng.standard_normal(size)

    def random(self, size=None):
        self._log.append(("random", size))
        return self._rng.random(size)


class TestRngLayout:
    SURROGATE_CAUSES = {"served", "screened", "refine_random", "refine_beta",
                        "refine_fallback"}

    @pytest.mark.parametrize("surrogate", [False, True],
                             ids=["exact", "surrogate"])
    def test_each_step_draws_one_normal_then_two_uniforms(self, surrogate,
                                                          monkeypatch):
        """Every step of a run, whatever its cause, draws one
        standard_normal(d) and then two random() from the chain's generator,
        all before the kernel is asked for the candidate's output, and
        kernel.step draws nothing. Both kernels thus consume the one layout
        the engine draws, so a surrogate kernel that always refines (gamma
        = 1) replays the exact kernel's trajectory by construction, as
        criterion 4 checks end to end."""
        model = min_distance_model(2)
        binning = Binning(-1.0, 54.0, 55)
        if surrogate:
            kernel = fit_surrogate_kernel(model, binning, 3,
                                          initial_design=20, gamma=0.05,
                                          beta_max=0.05, p=2,
                                          ledger=EvalLedger())
            # every 25th local model fails, so refine_fallback occurs too
            serve, queries = kernel.store.local_model, []

            def failing(x):
                queries.append(None)
                if len(queries) % 25 == 0:
                    raise SurrogateError("forced build failure")
                return serve(x)

            kernel.store.local_model = failing
        else:
            kernel = ExactKernel(model, binning, EvalLedger())
        log = []
        step = kernel.step

        def marked(*args):
            log.append("step")
            out = step(*args)
            log.append("returned")
            return out

        kernel.step = marked
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _RecordingRng(default_rng(seed), log))
        res = run_mmc(kernel, MmcConfig(iterations=2,
                                        samples_per_iteration=300,
                                        proposal_scale=1.0, burn_in=30,
                                        seed=3),
                      on_step=lambda i, cause, beta, accepted:
                      log.append(cause))
        # the start draws come first: one prior draw each
        start = res.start_draws
        assert log[:start] == [("standard_normal", (1, 2))] * start
        steps = log[start:]
        n = sum(res.causes.values())
        assert n == 2 * (300 + 30) and len(steps) == 6 * n
        seen = set()
        for k in range(n):
            group = steps[6 * k:6 * k + 6]
            assert group[:5] == [("standard_normal", 2), ("random", None),
                                 ("random", None), "step", "returned"], k
            seen.add(group[5])
        assert seen == (self.SURROGATE_CAUSES if surrogate else {"chain"})


class TestRunPlainMc:
    def test_pdf_is_raw_count_density(self):
        model = _identity_model()
        binning = Binning(-1.0, 1.0, 4)
        ledger = EvalLedger()
        counts = run_plain_mc(model, binning, 2000, seed=5, ledger=ledger)
        assert ledger.true_evals == 2000
        assert counts.shape == (4,) and counts.dtype == np.int64
        # the range [-1, 1] leaves about a third of the N(0, 1) draws out
        assert 0 < counts.sum() < 2000
        # under the flat table the density is the in-range count density
        p = combined_probability(np.ones((1, 4)), counts[None])
        np.testing.assert_allclose(p, counts / counts.sum(), rtol=1e-14)

    @pytest.mark.parametrize("n", [1000.5, 1000.0, np.float64(1000.0)],
                             ids=["float", "whole", "numpy_float"])
    def test_non_integer_draw_count_rejected(self, n):
        ledger = EvalLedger()
        with pytest.raises(ValueError, match="integer"):
            run_plain_mc(_identity_model(), Binning(-1.0, 1.0, 4), n, seed=1,
                         ledger=ledger)
        assert ledger.true_evals == 0

    def test_numpy_integer_draw_count_accepted(self):
        ledger = EvalLedger()
        counts = run_plain_mc(_identity_model(), Binning(-1.0, 1.0, 4),
                              np.int64(100), seed=1, ledger=ledger)
        assert ledger.true_evals == 100 and counts.sum() <= 100

    def test_matches_normal_mass(self):
        from scipy.stats import norm
        model = _identity_model()
        binning = Binning(-1.0, 1.0, 2)
        counts = run_plain_mc(model, binning, 200_000, seed=8,
                              ledger=EvalLedger())
        want = (norm.cdf(1.0) - norm.cdf(0.0))
        got = counts[1] / 200_000
        assert got == pytest.approx(want, rel=0.02)

    def test_draws_in_chunks(self):
        base = _identity_model()
        sizes = []
        blocks = []

        def sampler(rng, n):
            sizes.append(n)
            return base.prior_sampler(rng, n)

        def recording(X):
            blocks.append(len(X))
            return base.eval_fn(X)

        model = dataclasses.replace(base, prior_sampler=sampler,
                                    eval_fn=recording)
        binning = Binning(-1.0, 1.0, 4)
        n = 2 * PLAIN_MC_CHUNK + 5
        ledger = EvalLedger()
        counts = run_plain_mc(model, binning, n, seed=3, ledger=ledger)
        assert sizes == [PLAIN_MC_CHUNK, PLAIN_MC_CHUNK, 5]
        # each chunk goes to the true model as one block
        assert blocks == [PLAIN_MC_CHUNK, PLAIN_MC_CHUNK, 5]
        assert ledger.true_evals == n
        # one block from the same stream; the identity model's outputs are
        # the first coordinates
        xs = base.prior_sampler(np.random.default_rng([3, 0]), n)
        np.testing.assert_array_equal(counts, tally(binning, xs[:, 0]))
