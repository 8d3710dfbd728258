import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import gpmmc.engine
from gpmmc import (Binning, EvalLedger, ExactKernel, Histogram, MmcConfig,
                   Proposal, WeightTable, combined_probability,
                   estimate_moments, fit_surrogate_kernel, flatness_cv,
                   gaussian_model, log_bias_density, run_mmc, run_plain_mc,
                   tally, update_weights)
from gpmmc.engine import PLAIN_MC_CHUNK


def _identity_model(d=1):
    return gaussian_model("identity", lambda X: X[:, 0],
                          np.zeros(d), np.ones(d))


class TestWeightTable:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            WeightTable(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            WeightTable(np.array([1.0, -2.0]))

    def test_flat(self):
        w = WeightTable.flat(4)
        np.testing.assert_array_equal(w.theta, np.ones(4))


class TestLogBiasDensity:
    def test_out_of_range_is_minus_inf(self):
        m = _identity_model()
        b = Binning(-1.0, 1.0, 4)
        assert log_bias_density([0.0] * 4, b, m, np.array([2.0]),
                                2.0) == -math.inf

    def test_weight_enters_inversely(self):
        m = _identity_model()
        b = Binning(-1.0, 1.0, 4)
        w1 = WeightTable(np.array([1.0, 1.0, 1.0, 1.0]))
        w2 = WeightTable(np.array([1.0, 1.0, 4.0, 1.0]))
        log1, log2 = ([math.log(t) for t in w.theta] for w in (w1, w2))
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
        prop = Proposal(1.0)
        if surrogate:
            kernel = fit_surrogate_kernel(model, binning, 4,
                                          initial_design=10, gamma=0.1,
                                          beta_max=0.05, p=2, prop=prop,
                                          ledger=EvalLedger())
        else:
            kernel = ExactKernel(model, binning, prop, EvalLedger())
        run_mmc(kernel, MmcConfig(iterations=3, samples_per_iteration=200,
                                  burn_in=20, seed=4))
        assert len(calls) == 3 * (1 + 200 + 20)
        if surrogate:
            assert 0 < kernel.surrogate_steps < kernel.steps


class TestUpdateWeights:
    def test_two_bin_example(self):
        w = WeightTable(np.array([0.5, 0.5]))
        h = Histogram(counts=np.array([75, 25]), total=100)
        w2 = update_weights([w], [h])
        np.testing.assert_allclose(w2.theta, [0.75, 0.25], rtol=1e-14)

    def test_empty_bin_drops_to_min_visited(self):
        w = WeightTable(np.array([1.0, 1.0, 1.0]) / 3.0)
        h = Histogram(counts=np.array([60, 40, 0]), total=100)
        w2 = update_weights([w], [h])
        # visited bins update to (0.2, 2/15); the empty bin takes the
        # smaller of those, and the sum 7/15 rescales back to 1
        np.testing.assert_allclose(w2.theta, [3 / 7, 2 / 7, 2 / 7],
                                   rtol=1e-14)

    def test_empty_bin_weight_tracks_the_rarest_visited_bin(self):
        w = WeightTable(np.array([0.25, 0.25, 0.25, 0.25]))
        h = Histogram(counts=np.array([9000, 990, 10, 0]), total=10000)
        w2 = update_weights([w], [h])
        assert w2.theta[3] == pytest.approx(w2.theta[2], rel=1e-14)
        assert w2.theta[2] < w2.theta[1] < w2.theta[0]

    def test_flat_histogram_is_fixed_point(self):
        w = WeightTable(np.array([0.1, 0.6, 0.3]))
        h = Histogram(counts=np.array([200, 200, 200]), total=600)
        w2 = update_weights([w], [h])
        np.testing.assert_allclose(w2.theta, w.theta, rtol=1e-14)

    def test_sum_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            theta = rng.uniform(0.1, 5.0, size=8)
            counts = rng.integers(0, 50, size=8)
            if counts.sum() == 0:
                counts[0] = 1
            w = WeightTable(theta)
            h = Histogram(counts=counts, total=int(counts.sum()))
            w2 = update_weights([w], [h])
            assert w2.theta.sum() == pytest.approx(theta.sum(), rel=1e-12)
            assert np.all(w2.theta > 0)

    def test_empty_histogram_rejected(self):
        w = WeightTable.flat(3)
        h = Histogram(counts=np.zeros(3, dtype=int), total=0)
        with pytest.raises(RuntimeError):
            update_weights([w], [h])


class TestCombinedProbability:
    def test_single_histogram_is_counts_times_weights(self):
        w = WeightTable(np.array([0.2, 1.0, 3.0, 0.5]))
        h = Histogram(counts=np.array([40, 10, 0, 50]), total=100)
        raw = h.counts * w.theta
        np.testing.assert_allclose(combined_probability([w], [h]),
                                   raw / raw.sum(), rtol=1e-14)

    def test_exact_histograms_recover_the_probabilities(self):
        # counts exactly proportional to P_i / theta_ki in every iteration
        prob = np.array([0.5, 0.3, 0.15, 0.05])
        tables = [WeightTable(np.ones(4)), WeightTable(prob * 4.0),
                  WeightTable(np.array([1.0, 0.5, 0.5, 0.25]))]
        hists = []
        for t in tables:
            share = prob / t.theta
            counts = np.round(share / share.sum() * 8000).astype(int)
            hists.append(Histogram(counts=counts, total=int(counts.sum())))
        np.testing.assert_allclose(combined_probability(tables, hists), prob,
                                   rtol=1e-12)

    def test_mismatched_history_rejected(self):
        with pytest.raises(ValueError):
            combined_probability([WeightTable.flat(2)] * 2,
                                 [Histogram(counts=np.array([1, 1]), total=2)])


class TestUpdateWeightsFromHistory:
    def test_bin_seen_earlier_is_not_floored(self):
        # iteration 0 put half its samples in bin 2; iteration 1, sampled with
        # the weights that followed, never reached it
        w0 = WeightTable.flat(3)
        h0 = Histogram(counts=np.array([10, 40, 50]), total=100)
        w1 = update_weights([w0], [h0])
        h1 = Histogram(counts=np.array([70, 30, 0]), total=100)
        w2 = update_weights([w0, w1], [h0, h1])
        assert w2.theta[2] > w2.theta[:2].min()
        prob = combined_probability([w0, w1], [h0, h1])
        np.testing.assert_allclose(w2.theta / w2.theta.sum(), prob,
                                   rtol=1e-12)
        assert w2.theta.sum() == pytest.approx(3.0, rel=1e-12)
        # the one-histogram update would have floored it
        floored = update_weights([w1], [h1])
        assert floored.theta[2] == pytest.approx(floored.theta.min(),
                                                 rel=1e-14)

    def test_bin_never_seen_takes_the_floor(self):
        w0 = WeightTable.flat(3)
        h0 = Histogram(counts=np.array([60, 40, 0]), total=100)
        w1 = update_weights([w0], [h0])
        h1 = Histogram(counts=np.array([45, 55, 0]), total=100)
        w2 = update_weights([w0, w1], [h0, h1])
        assert w2.theta[2] == pytest.approx(w2.theta[:2].min(), rel=1e-14)

    def test_run_density_pools_all_iterations(self):
        model = _identity_model()
        b = Binning(-3.0, 3.0, 12)
        res = run_mmc(ExactKernel(model, b, Proposal(1.5), EvalLedger()),
                      MmcConfig(iterations=3, samples_per_iteration=2000,
                                burn_in=100, seed=5))
        np.testing.assert_array_equal(
            res.pdf, combined_probability(res.weights, res.histograms) / b.delta)
        np.testing.assert_array_equal(
            res.weights[-1].theta,
            update_weights(res.weights[:-1], res.histograms[:-1]).theta)


class TestEstimatePdf:
    """The run's density estimate: combined_probability over the bin width,
    as run_mmc computes MmcResult.pdf."""

    def test_uniform_counts_flat_weights(self):
        b = Binning(0.0, 1.0, 4)
        w = WeightTable.flat(4)
        h = Histogram(counts=np.array([25, 25, 25, 25]), total=100)
        pdf = combined_probability([w], [h]) / b.delta
        np.testing.assert_allclose(pdf, np.ones(4), rtol=1e-14)

    def test_normalization_exact(self):
        b = Binning(-2.0, 2.0, 8)
        w = WeightTable(np.linspace(0.2, 3.0, 8))
        counts = np.array([5, 0, 7, 1, 0, 3, 2, 9])
        h = Histogram(counts=counts, total=int(counts.sum()))
        pdf = combined_probability([w], [h]) / b.delta
        assert pdf @ np.full(8, b.delta) == pytest.approx(1.0, abs=1e-12)
        assert np.all(pdf[counts == 0] == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(RuntimeError):
            combined_probability(
                [WeightTable.flat(2)],
                [Histogram(counts=np.zeros(2, dtype=int), total=0)])


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
        h = Histogram(counts=np.array([10, 10, 10]), total=30)
        assert flatness_cv(h) == 0.0

    def test_zero_bins_ignored(self):
        h = Histogram(counts=np.array([10, 0, 30]), total=40)
        assert flatness_cv(h) == pytest.approx(10.0 / 20.0)


class TestRunMmc:
    def test_deterministic_given_seed(self):
        model = _identity_model()
        binning = Binning(-2.0, 2.0, 8)
        cfg = MmcConfig(iterations=3, samples_per_iteration=400, seed=77)
        results, kernels = [], []
        for _ in range(2):
            kernels.append(ExactKernel(model, binning,
                                       Proposal(1.0), EvalLedger()))
            results.append(run_mmc(kernels[-1], cfg))
        a, b = results
        np.testing.assert_array_equal(a.pdf, b.pdf)
        for ha, hb in zip(a.histograms, b.histograms):
            np.testing.assert_array_equal(ha.counts, hb.counts)
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

        kernel = FixedWeightKernel(model, binning, Proposal(2.0), EvalLedger())
        log_theta = [math.log(t) for t in WeightTable(theta).theta]
        rng = np.random.default_rng(123)

        from gpmmc import ChainState
        x0 = np.zeros(1)
        state = ChainState(x0, 0.0, log_bias_density(log_theta, binning,
                                                     model, x0, 0.0))
        ys = np.empty(100_000)
        for t in range(2000):
            state, _ = kernel.step(rng, state, log_theta)
        for t in range(ys.size):
            state, _ = kernel.step(rng, state, log_theta)
            ys[t] = state.y
        h = tally(binning, ys)
        strong = masses >= 1e-6
        counts = h.counts[strong]
        assert counts.min() > 0
        assert counts.max() / counts.min() <= 2.0

    def test_accounting_identity(self):
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 6)
        cfg = MmcConfig(iterations=4, samples_per_iteration=250, burn_in=50,
                        seed=3)
        ledger = EvalLedger()
        kernel = ExactKernel(model, binning, Proposal(1.0), ledger)
        res = run_mmc(kernel, cfg)
        assert ledger.true_evals == 4 * (250 + 50) + res.start_draws

    def test_mass_conservation_and_probabilities(self):
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 6)
        cfg = MmcConfig(iterations=2, samples_per_iteration=500, seed=21)
        kernel = ExactKernel(model, binning, Proposal(1.0), EvalLedger())
        res = run_mmc(kernel, cfg)
        assert res.pdf @ np.full(6, binning.delta) == pytest.approx(1.0, abs=1e-12)
        assert (res.pdf * binning.delta).sum() == pytest.approx(1.0, abs=1e-12)
        assert len(res.weights) == 2
        assert len(res.histograms) == 2

    def test_sparse_sampling_warns(self):
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 60)
        cfg = MmcConfig(iterations=1, samples_per_iteration=30, seed=1)
        kernel = ExactKernel(model, binning, Proposal(1.0), EvalLedger())
        with pytest.warns(UserWarning, match="below bin count"):
            run_mmc(kernel, cfg)

    def test_unreachable_range_errors(self):
        model = _identity_model()
        binning = Binning(500.0, 501.0, 4)
        cfg = MmcConfig(iterations=1, samples_per_iteration=100, seed=1)
        kernel = ExactKernel(model, binning, Proposal(1.0), EvalLedger())
        with pytest.raises(RuntimeError, match="no prior draw"):
            run_mmc(kernel, cfg)


class TestRunPlainMc:
    def test_pdf_is_raw_count_density(self):
        model = _identity_model()
        binning = Binning(-1.0, 1.0, 4)
        ledger = EvalLedger()
        res = run_plain_mc(model, binning, 2000, seed=5, ledger=ledger)
        assert ledger.true_evals == 2000
        np.testing.assert_allclose(
            res.pdf, res.histogram.counts / (2000 * binning.delta), rtol=1e-14)
        assert res.in_range_fraction == res.histogram.in_range / 2000

    def test_matches_normal_mass(self):
        from scipy.stats import norm
        model = _identity_model()
        binning = Binning(-1.0, 1.0, 2)
        res = run_plain_mc(model, binning, 200_000, seed=8,
                           ledger=EvalLedger())
        want = (norm.cdf(1.0) - norm.cdf(0.0))
        got = res.pdf[1] * binning.delta
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
        res = run_plain_mc(model, binning, n, seed=3, ledger=ledger)
        assert sizes == [PLAIN_MC_CHUNK, PLAIN_MC_CHUNK, 5]
        # each chunk goes to the true model as one block
        assert blocks == [PLAIN_MC_CHUNK, PLAIN_MC_CHUNK, 5]
        assert ledger.true_evals == n
        # one block from the same stream; the identity model's outputs are
        # the first coordinates
        xs = base.prior_sampler(np.random.default_rng([3, 0]), n)
        whole = tally(binning, xs[:, 0])
        np.testing.assert_array_equal(res.histogram.counts, whole.counts)
        assert ((res.histogram.total, res.histogram.overflow_low,
                 res.histogram.overflow_high)
                == (whole.total, whole.overflow_low, whole.overflow_high))
