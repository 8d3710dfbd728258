import math

import numpy as np
import pytest

from gpmmc import (Binning, ChainState, EvalLedger, EvaluationStore,
                   ExactKernel, MmcConfig, Proposal, SurrogateKernel,
                   SurrogateKernelConfig, WeightTable, fit_surrogate_kernel,
                   gaussian_model, log_bias_density, misassignment_probability,
                   run_mmc, sample_prior)


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _identity_model(d=1):
    return gaussian_model("identity", lambda x: float(x[0]),
                          np.zeros(d), np.ones(d))


def _flat_target(model, binning):
    w = WeightTable.flat(binning.m)

    def target(x, y):
        return log_bias_density(w, binning, model, x, y)

    return target


class TestMisassignmentProbability:
    def test_centered_prediction(self):
        # mu in the middle of a unit bin with sigma half the bin width:
        # both tails are one sigma away, so beta = 2 Phi(-1)
        b = Binning(0.0, 1.0, 1)
        beta = misassignment_probability(0.5, 0.5, b)
        assert beta == pytest.approx(0.31731050786291415, rel=1e-12)

    def test_edge_prediction_approaches_half(self):
        b = Binning(0.0, 1.0, 2)
        beta = misassignment_probability(0.5, 1e-9, b)
        assert beta == pytest.approx(0.5, rel=1e-9)

    def test_point_prediction_is_certain(self):
        b = Binning(0.0, 1.0, 4)
        assert misassignment_probability(0.3, 0.0, b) == 0.0

    def test_out_of_range_beta_is_mass_back_in_range(self):
        b = Binning(0.0, 1.0, 4)
        # mu one sigma above the top edge: P(y <= 1) = Phi(-1), with the
        # far edge's contribution negligible
        beta = misassignment_probability(1.1, 0.1, b)
        assert beta == pytest.approx(_phi(-1.0), rel=1e-9)
        # a certain out-of-range prediction is a certain rejection
        assert misassignment_probability(-0.5, 0.0, b) == 0.0
        # far-out prediction with small sigma: essentially certain
        beta_far = misassignment_probability(9.0, 0.1, b)
        assert beta_far < 1e-12

    def test_out_of_range_beta_straddling_edge_refines(self):
        b = Binning(0.0, 1.0, 4)
        # mu barely above the edge with wide sigma: the chain cannot tell
        # rejection from acceptance, so beta must breach any usable beta_max
        beta = misassignment_probability(1.0 + 1e-9, 0.5, b)
        assert beta > 0.45

    def test_monotone_in_sigma(self):
        b = Binning(0.0, 1.0, 1)
        betas = [misassignment_probability(0.4, s, b)
                 for s in (0.01, 0.1, 0.3, 1.0, 10.0)]
        assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))
        assert betas[-1] < 1.0

    def test_invalid_sigma(self):
        b = Binning(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            misassignment_probability(0.5, -1.0, b)
        with pytest.raises(ValueError):
            misassignment_probability(0.5, math.nan, b)


class TestConfigValidation:
    def test_bounds(self):
        prop = Proposal.isotropic(0.5, 1)
        good = dict(gamma=0.1, beta_max=0.05, lengths=np.array([1.0]), p=1,
                    prop=prop)
        SurrogateKernelConfig(**good)
        for bad in (dict(good, gamma=-0.1), dict(good, gamma=1.5),
                    dict(good, beta_max=0.0), dict(good, beta_max=1.0),
                    dict(good, lengths=np.array([0.0])), dict(good, p=3)):
            with pytest.raises(ValueError):
                SurrogateKernelConfig(**bad)


def _make_kernel(model, binning, store, gamma, beta_max=0.05, scale=0.5):
    cfg = SurrogateKernelConfig(gamma=gamma, beta_max=beta_max,
                                lengths=np.array([1.0] * model.dimension),
                                p=2, prop=Proposal.isotropic(scale,
                                                             model.dimension))
    return SurrogateKernel(model, store, binning, cfg, EvalLedger())


class TestSurrogateKernel:
    def test_bootstraps_from_empty_store(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 8)
        store = EvaluationStore(1)
        kernel = _make_kernel(model, binning, store, gamma=0.0)
        rng = np.random.default_rng(0)
        target = _flat_target(model, binning)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        state, rec = kernel.step(rng, state, target)
        assert kernel.refine_fallback == 1
        assert store.size == 1
        assert rec.used_surrogate is False
        assert rec.refined is True

    def test_counters_partition_steps(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        store = EvaluationStore(1)
        for v in np.linspace(-4.0, 4.0, 41):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.2)
        rng = np.random.default_rng(1)
        target = _flat_target(model, binning)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        for _ in range(300):
            state, _ = kernel.step(rng, state, target)
        c = kernel.counters()
        assert c["steps"] == 300
        assert (c["surrogate_steps"] + c["refine_random"] + c["refine_beta"]
                + c["refine_fallback"]) == 300
        assert c["refine_random"] > 0
        assert c["surrogate_steps"] > 0

    def test_surrogate_steps_respect_beta_threshold(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        store = EvaluationStore(1)
        for v in np.linspace(-4.5, 4.5, 91):  # dense support: tiny sigma
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.0,
                              beta_max=0.05)
        rng = np.random.default_rng(2)
        target = _flat_target(model, binning)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        for _ in range(400):
            state, rec = kernel.step(rng, state, target)
            if rec.used_surrogate:
                assert rec.beta is not None and rec.beta <= 0.05
            elif rec.beta is not None:
                assert rec.beta > 0.05
        assert kernel.surrogate_steps > 200  # dense design: mostly surrogate
        assert kernel.refine_random == 0

    def test_every_refinement_grows_the_store(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 8)
        store = EvaluationStore(1)
        store.insert(np.array([0.0]), 0.0)
        kernel = _make_kernel(model, binning, store, gamma=0.3)
        rng = np.random.default_rng(3)
        target = _flat_target(model, binning)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        before = store.size
        for _ in range(200):
            state, _ = kernel.step(rng, state, target)
        refined = (kernel.refine_random + kernel.refine_beta
                   + kernel.refine_fallback)
        assert store.size == before + refined
        assert kernel.ledger.true_evals == refined

    def test_gamma_one_replays_exact_kernel(self):
        """gamma = 1 forces a true evaluation every step, so the surrogate
        kernel must walk the exact kernel's trajectory from the same seed."""
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        target = _flat_target(model, binning)

        store = EvaluationStore(1)
        for v in np.linspace(-4.0, 4.0, 9):
            store.insert(np.array([v]), v)
        sk = _make_kernel(model, binning, store, gamma=1.0, scale=0.7)
        ek = ExactKernel(model, Proposal.isotropic(0.7, 1), EvalLedger())

        rng_s = np.random.default_rng([99, 0])
        rng_e = np.random.default_rng([99, 0])
        xs = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        xe = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        for _ in range(500):
            xs, rs = sk.step(rng_s, xs, target)
            xe, re = ek.step(rng_e, xe, target)
            assert xs.x[0] == xe.x[0]
            assert xs.y == xe.y
            assert rs.accepted == re.accepted
        assert sk.surrogate_steps == 0
        assert sk.refine_random + sk.refine_fallback == 500
        assert sk.ledger.true_evals == ek.ledger.true_evals
        # the gate refines before any local model is built
        assert sk.ledger.surrogate_evals == 0

    def test_rejected_step_returns_same_object(self):
        model = _identity_model()
        binning = Binning(-0.5, 0.5, 2)  # narrow range: frequent rejections
        store = EvaluationStore(1)
        for v in np.linspace(-1.0, 1.0, 21):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.0, scale=2.0)
        rng = np.random.default_rng(4)
        target = _flat_target(model, binning)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        saw = False
        for _ in range(50):
            new, rec = kernel.step(rng, state, target)
            if not rec.accepted:
                assert new is state
                saw = True
            state = new
        assert saw

    def test_surrogate_never_moves_chain_out_of_range(self):
        model = _identity_model()
        binning = Binning(-1.0, 1.0, 4)
        store = EvaluationStore(1)
        for v in np.linspace(-2.0, 2.0, 41):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.05, scale=1.0)
        rng = np.random.default_rng(5)
        target = _flat_target(model, binning)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        for _ in range(500):
            state, _ = kernel.step(rng, state, target)
            assert binning.index(state.y) is not None

    def test_non_finite_local_model_falls_back_to_true_model(self):
        # outputs near 1e170: the local amplitude r' C^{-1} r overflows, so
        # every step the local model cannot serve must refine, not crash
        model = gaussian_model("huge",
                               lambda x: 1e170 * math.sin(7.0 * x[0]),
                               np.zeros(1), np.ones(1))
        binning = Binning(-1e170, 1e170, 10)
        ledger = EvalLedger()
        kernel = fit_surrogate_kernel(model, binning, 1, initial_design=20,
                                      gamma=1e-4, beta_max=0.05, p=2,
                                      prop=Proposal.isotropic(0.5, 1),
                                      ledger=ledger)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_mmc(model, binning, MmcConfig(
                iterations=2, samples_per_iteration=300, seed=1), kernel)
        assert kernel.steps == 2 * (300 + 30)
        assert kernel.refine_fallback > 0
        assert ledger.true_evals == (20 + res.start_draws
                                     + kernel.refine_random
                                     + kernel.refine_beta
                                     + kernel.refine_fallback)
        assert np.all(np.isfinite(res.pdf))


class TestFitSurrogateKernel:
    def test_design_store_and_ledger(self):
        model = gaussian_model("plane", lambda x: float(x[0] + 2.0 * x[1]),
                               np.zeros(2), np.ones(2))
        binning = Binning(-6.0, 6.0, 12)
        prop = Proposal.isotropic(0.5, 2)
        ledger = EvalLedger()
        kernel = fit_surrogate_kernel(model, binning, 3, initial_design=20,
                                      gamma=0.01, beta_max=0.05, p=2,
                                      prop=prop, ledger=ledger)
        design = sample_prior(model, np.random.default_rng([3, 1]), 20)
        np.testing.assert_array_equal(kernel.store.points, design)
        np.testing.assert_array_equal(kernel.store.values,
                                      design[:, 0] + 2.0 * design[:, 1])
        assert kernel.ledger is ledger
        assert ledger.true_evals == 20
        assert ledger.surrogate_evals == 0
        cfg = kernel.config
        assert (cfg.gamma, cfg.beta_max, cfg.p, cfg.prop) == (0.01, 0.05, 2,
                                                              prop)
        assert cfg.lengths.shape == (2,) and np.all(cfg.lengths > 0)
        again = fit_surrogate_kernel(model, binning, 3, initial_design=20,
                                     gamma=0.01, beta_max=0.05, p=2,
                                     prop=prop, ledger=EvalLedger())
        np.testing.assert_array_equal(again.config.lengths, cfg.lengths)
