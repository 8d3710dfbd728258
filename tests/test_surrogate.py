import copy
import dataclasses
import math

import numpy as np
import pytest

import gpmmc.surrogate
from gpmmc import (Binning, ChainState, EvalLedger, EvaluationStore,
                   ExactKernel, MmcConfig, Proposal, SurrogateError,
                   SurrogateKernel, fit_surrogate_kernel,
                   gaussian_model, log_bias_density, log_prior_density,
                   metropolis_accept, misassignment_probability, run_mmc,
                   sample_prior)
from gpmmc.benchmarks import min_distance_model


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _identity_model(d=1):
    return gaussian_model("identity", lambda X: X[:, 0],
                          np.zeros(d), np.ones(d))


def _flat_start(model, binning, x0, y0):
    """The flat table (log theta = 0 in every bin) and the chain state at
    (x0, y0) under it."""
    log_theta = [0.0] * binning.m
    return log_theta, ChainState(x0, y0, log_bias_density(log_theta, binning,
                                                          model, x0, y0))


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
        model = _identity_model()
        binning = Binning(-1.0, 1.0, 2)
        good = dict(gamma=0.1, beta_max=0.05,
                    prop=Proposal(0.5))

        def kernel(**kw):
            return SurrogateKernel(model, _unit_store(), binning,
                                   ledger=EvalLedger(), **kw)

        k = kernel(**good)
        assert (k.gamma, k.beta_max) == (0.1, 0.05)
        for bad in (dict(good, gamma=-0.1), dict(good, gamma=1.5),
                    dict(good, beta_max=0.0), dict(good, beta_max=1.0)):
            with pytest.raises(ValueError):
                kernel(**bad)
        # the kernel's lengthscales and exponent are the store's to check
        store = EvaluationStore(1, [1], 1)
        assert store.p == 1
        np.testing.assert_array_equal(store.lengths, [1.0])
        assert store.lengths.dtype == float
        for lengths, p in (([0.0], 1), ([math.inf], 1), ([1.0], 3)):
            with pytest.raises(ValueError):
                EvaluationStore(1, lengths, p)


def _unit_store(d=1):
    """An empty d-D store with unit lengthscales and p = 2."""
    return EvaluationStore(d, np.ones(d), 2)


def _make_kernel(model, binning, store, gamma, beta_max=0.05, scale=0.5):
    return SurrogateKernel(model, store, binning, gamma, beta_max,
                           Proposal(scale), EvalLedger())


def _support(kernel, x):
    """The support rows of the 1-D kernel's local model at x, in store
    order, as the points' coordinates."""
    idx, _ = kernel.store.nearest(np.array([x]), kernel._support_size)
    return kernel.store.points[idx, 0]


def _record_builds(monkeypatch):
    """Route the kernel's local-model builds through a recorder; returns
    the list it appends (support key, build succeeded) to, one per build."""
    calls = []
    build = gpmmc.surrogate.build_local_surrogate

    def recorded(store, idx):
        try:
            gp = build(store, idx)
        except SurrogateError:
            calls.append((idx.tobytes(), False))
            raise
        calls.append((idx.tobytes(), True))
        return gp

    monkeypatch.setattr(gpmmc.surrogate, "build_local_surrogate", recorded)
    return calls


class TestSurrogateKernel:
    def test_bootstraps_from_empty_store(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 8)
        store = _unit_store()
        kernel = _make_kernel(model, binning, store, gamma=0.0)
        rng = np.random.default_rng(0)
        log_theta, state = _flat_start(model, binning, np.zeros(1), 0.0)
        state, rec = kernel.step(rng, state, log_theta)
        assert kernel.refine_fallback == 1
        assert store.size == 1
        assert rec.used_surrogate is False
        assert rec.refined is True

    def test_counters_partition_steps(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        store = _unit_store()
        for v in np.linspace(-4.0, 4.0, 41):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.2)
        rng = np.random.default_rng(1)
        log_theta, state = _flat_start(model, binning, np.zeros(1), 0.0)
        for _ in range(300):
            state, _ = kernel.step(rng, state, log_theta)
        c = kernel.counters()
        assert c["steps"] == 300
        assert (c["surrogate_steps"] + c["refine_random"] + c["refine_beta"]
                + c["refine_fallback"]) == 300
        assert c["refine_random"] > 0
        assert c["surrogate_steps"] > 0

    def test_surrogate_steps_respect_beta_threshold(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        store = _unit_store()
        for v in np.linspace(-4.5, 4.5, 91):  # dense support: tiny sigma
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.0,
                              beta_max=0.05)
        rng = np.random.default_rng(2)
        log_theta, state = _flat_start(model, binning, np.zeros(1), 0.0)
        for _ in range(400):
            state, rec = kernel.step(rng, state, log_theta)
            if rec.used_surrogate:
                assert rec.beta is not None and rec.beta <= 0.05
            elif rec.beta is not None:
                assert rec.beta > 0.05
        assert kernel.surrogate_steps > 200  # dense design: mostly surrogate
        assert kernel.refine_random == 0

    def test_every_refinement_grows_the_store(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 8)
        store = _unit_store()
        store.insert(np.array([0.0]), 0.0)
        kernel = _make_kernel(model, binning, store, gamma=0.3)
        rng = np.random.default_rng(3)
        log_theta, state = _flat_start(model, binning, np.zeros(1), 0.0)
        before = store.size
        for _ in range(200):
            state, _ = kernel.step(rng, state, log_theta)
        refined = (kernel.refine_random + kernel.refine_beta
                   + kernel.refine_fallback)
        assert store.size == before + refined
        assert kernel.ledger.true_evals == refined

    def test_gamma_one_replays_exact_kernel(self):
        """gamma = 1 forces a true evaluation every step, so the surrogate
        kernel must walk the exact kernel's trajectory from the same seed."""
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        log_theta, start = _flat_start(model, binning, np.zeros(1), 0.0)

        store = _unit_store()
        for v in np.linspace(-4.0, 4.0, 9):
            store.insert(np.array([v]), v)
        sk = _make_kernel(model, binning, store, gamma=1.0, scale=0.7)
        ek = ExactKernel(model, binning, Proposal(0.7), EvalLedger())

        rng_s = np.random.default_rng([99, 0])
        rng_e = np.random.default_rng([99, 0])
        xs = xe = start
        for _ in range(500):
            xs, rs = sk.step(rng_s, xs, log_theta)
            xe, re = ek.step(rng_e, xe, log_theta)
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
        store = _unit_store()
        for v in np.linspace(-1.0, 1.0, 21):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.0, scale=2.0)
        rng = np.random.default_rng(4)
        log_theta, state = _flat_start(model, binning, np.zeros(1), 0.0)
        saw = False
        for _ in range(50):
            new, rec = kernel.step(rng, state, log_theta)
            if not rec.accepted:
                assert new is state
                saw = True
            state = new
        assert saw

    def test_surrogate_never_moves_chain_out_of_range(self):
        model = _identity_model()
        binning = Binning(-1.0, 1.0, 4)
        store = _unit_store()
        for v in np.linspace(-2.0, 2.0, 41):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.05, scale=1.0)
        rng = np.random.default_rng(5)
        log_theta, state = _flat_start(model, binning, np.zeros(1), 0.0)
        for _ in range(500):
            state, _ = kernel.step(rng, state, log_theta)
            assert binning.index(state.y) is not None

    def test_non_finite_local_model_falls_back_to_true_model(self,
                                                             monkeypatch):
        # outputs near 1e170: the local amplitude r' C^{-1} r overflows, so
        # every step the local model cannot serve must refine, not crash
        model = gaussian_model(
            "huge", lambda X: np.array([1e170 * math.sin(7.0 * x[0])
                                        for x in X]),
            np.zeros(1), np.ones(1))
        binning = Binning(-1e170, 1e170, 10)
        ledger = EvalLedger()
        kernel = fit_surrogate_kernel(model, binning, 1, initial_design=20,
                                      gamma=1e-4, beta_max=0.05, p=2,
                                      prop=Proposal(0.5), ledger=ledger)
        builds = _record_builds(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_mmc(kernel, MmcConfig(
                iterations=2, samples_per_iteration=300, seed=1))
        assert kernel.steps == 2 * (300 + 30)
        assert kernel.refine_fallback > 0
        assert ledger.true_evals == (20 + res.start_draws
                                     + kernel.refine_random
                                     + kernel.refine_beta
                                     + kernel.refine_fallback)
        assert np.all(np.isfinite(res.pdf))
        # a failed build is never cached: each fallback is a build that
        # raised, also for a support that failed before
        failed = [key for key, ok in builds if not ok]
        assert kernel.refine_fallback == len(failed)
        assert len(set(failed)) < len(failed)
        assert not set(failed) & kernel._models.keys()


class _ScriptedRng:
    """Stands in for the step's generator: the proposal draws z, and the
    uniforms come from a list. Counts the uniforms drawn so far."""

    def __init__(self, z, uniforms):
        self.z = np.atleast_1d(np.asarray(z, dtype=float))
        self.uniforms = list(uniforms)
        self.drawn = 0

    def standard_normal(self, n):
        assert n == self.z.size
        return self.z

    def random(self):
        self.drawn += 1
        return self.uniforms.pop(0)


class _Prediction:
    """A local model whose posterior is a fixed (mu, var)."""

    def __init__(self, mu, var):
        self.mu, self.var = mu, var

    def posterior(self, x, dist):
        return self.mu, self.var


# Four unit bins; from a state in bin 0, with the candidate at the state's x
# and u = 0.5, bins 0 and 1 accept and bins 2 and 3 reject.
RULE_BINS = Binning(0.0, 4.0, 4)
RULE_LOG_THETA = [0.0, 0.0, 5.0, 5.0]


class TestDecisionAwareRefinement:
    def _step(self, mu, sigma, u=0.5, beta_max=0.05):
        """One step from (x, y) = (0.5, 0.5) to the candidate x = 0.5 with
        the prediction (mu, sigma) and accept uniform u. Returns the kernel,
        the record, the new state and, per true evaluation, how many
        uniforms had been drawn when it ran."""
        rng = _ScriptedRng(0.0, [0.9, u])
        at_eval = []

        def identity(X):
            at_eval.append(rng.drawn)
            return X[:, 0]

        model = gaussian_model("identity", identity, np.zeros(1), np.ones(1))
        kernel = _make_kernel(model, RULE_BINS, _unit_store(), gamma=0.0,
                              beta_max=beta_max)
        kernel._local_model = lambda x: (_Prediction(mu, sigma**2), None)
        _, state = _flat_start(model, RULE_BINS, np.array([0.5]), 0.5)
        new, rec = kernel.step(rng, state, RULE_LOG_THETA)
        assert rng.drawn == 2 and not rng.uniforms
        return kernel, rec, new, at_eval

    @staticmethod
    def _accepting_mass(mu, sigma):
        return _phi((2.0 - mu) / sigma) - _phi((0.0 - mu) / sigma)

    def test_predicted_acceptance_above_beta_max_refines(self):
        mu, sigma = 1.0 + 1e-3, 0.5  # in bin 1, on its lower edge
        bin_beta = misassignment_probability(mu, sigma, RULE_BINS)
        assert bin_beta > 0.4
        kernel, rec, new, at_eval = self._step(mu, sigma)
        assert rec.refined and not rec.used_surrogate
        assert rec.beta == bin_beta
        assert kernel.refine_beta == 1 and kernel.ledger.true_evals == 1
        # the refinement was decided with the accept uniform in hand
        assert at_eval == [2]

    @pytest.mark.parametrize("mu", [3.0, 4.05])
    def test_predicted_rejection_with_small_accepting_mass_is_served(self,
                                                                     mu):
        # on the edge between two rejecting bins, or just above the range:
        # the bin beta is large, but little mass reaches an accepting bin
        sigma = 0.3
        assert misassignment_probability(mu, sigma, RULE_BINS) > 0.4
        mass = self._accepting_mass(mu, sigma)
        assert mass <= 0.05
        kernel, rec, new, at_eval = self._step(mu, sigma)
        assert rec.used_surrogate and not rec.refined and not rec.accepted
        assert rec.beta == pytest.approx(mass, rel=1e-9)
        assert kernel.surrogate_steps == 1 and kernel.refine_beta == 0
        assert kernel.ledger.true_evals == 0 and at_eval == []
        assert kernel.store.size == 0

    def test_predicted_rejection_with_large_accepting_mass_refines(self):
        mu, sigma = 2.2, 0.3  # in rejecting bin 2, near accepting bin 1
        mass = self._accepting_mass(mu, sigma)
        assert 0.05 < mass < misassignment_probability(mu, sigma, RULE_BINS)
        kernel, rec, new, at_eval = self._step(mu, sigma)
        assert rec.refined and not rec.used_surrogate
        assert rec.beta == pytest.approx(mass, rel=1e-9)
        assert kernel.refine_beta == 1 and at_eval == [2]

    def test_beta_max_bounds_the_accepting_mass(self):
        mu, sigma = 2.2, 0.3
        mass = self._accepting_mass(mu, sigma)
        _, served, _, _ = self._step(mu, sigma, beta_max=mass * 1.001)
        _, refined, _, _ = self._step(mu, sigma, beta_max=mass * 0.999)
        assert served.used_surrogate and refined.refined

    def test_zero_uniform_makes_every_bin_accept(self):
        state = ChainState(np.zeros(1), 0.0, 0.0)
        log_theta = [0.0, 1e6, 1e300, 50.0]
        accepting = gpmmc.surrogate._accepting_bins
        assert not accepting(0.5, state, 0.0, log_theta)[1:].any()
        assert accepting(0.0, state, 0.0, log_theta).all()
        # at u = 0 the prediction that rejects at u = 0.5 accepts: refined
        kernel, rec, new, at_eval = self._step(3.0, 0.3, u=0.0)
        assert rec.refined and rec.beta == misassignment_probability(
            3.0, 0.3, RULE_BINS)
        assert at_eval == [2]

    def test_accepting_set_matches_metropolis_accept(self):
        """One value per bin through log_bias_density and metropolis_accept
        decides exactly as the vector rule, also for u placed on a bin's
        acceptance threshold."""
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 12)
        rng = np.random.default_rng(11)
        on_edge = 0
        for _ in range(300):
            log_theta = list(rng.normal(scale=3.0, size=binning.m))
            x0 = rng.normal(size=1)
            y0 = float(rng.uniform(-3.0, 3.0))
            state = ChainState(x0, y0, log_bias_density(log_theta, binning,
                                                        model, x0, y0))
            x_new = x0 + rng.normal(size=1)
            lp = log_prior_density(model, x_new)
            log_qs = [log_bias_density(log_theta, binning, model, x_new, y)
                      for y in binning.centers]
            u = float(rng.random())
            j = int(rng.integers(binning.m))
            if log_qs[j] - state.log_q < 0.0:
                u = math.exp(log_qs[j] - state.log_q)
                on_edge += 1
            accepting = gpmmc.surrogate._accepting_bins(u, state, lp,
                                                        log_theta)
            brute = [metropolis_accept(u, state, x_new, y, q) is not state
                     for y, q in zip(binning.centers, log_qs)]
            assert accepting.tolist() == brute
        assert on_edge > 50

    @staticmethod
    def _two_center_kernel():
        """A 2-D two-center kernel on a 20-point design, small enough that
        many candidates have a bin beta above beta_max."""
        model = min_distance_model(2)
        binning = Binning(-1.0, 54.0, 55)
        return fit_surrogate_kernel(model, binning, 17, initial_design=20,
                                    gamma=0.0, beta_max=0.05, p=2,
                                    prop=Proposal(1.0), ledger=EvalLedger())

    def test_screened_step_is_never_accepted(self, monkeypatch):
        """A served candidate whose bin beta is above beta_max was predicted
        rejected, and the chain rejects it."""
        bin_betas = []
        bin_rule = gpmmc.surrogate.misassignment_probability

        def recorded(mu, sigma, binning):
            bin_betas.append(bin_rule(mu, sigma, binning))
            return bin_betas[-1]

        monkeypatch.setattr(gpmmc.surrogate, "misassignment_probability",
                            recorded)
        kernel = self._two_center_kernel()
        model, binning = kernel.model, kernel.binning
        # low weights, so high acceptance, only in bins 10 to 20
        log_theta = [0.0 if 10 <= i <= 20 else 4.0 for i in range(binning.m)]
        x0 = np.zeros(2)
        y0 = float(model.eval_fn(x0[None, :])[0])
        state = ChainState(x0, y0, log_bias_density(log_theta, binning,
                                                    model, x0, y0))
        rng = np.random.default_rng(6)
        screened = 0
        for _ in range(2000):
            bin_betas.clear()
            before = state
            state, rec = kernel.step(rng, state, log_theta)
            if rec.used_surrogate and bin_betas[0] > kernel.beta_max:
                screened += 1
                assert not rec.accepted and state is before
        assert screened > 20
        assert kernel.counters()["screened"] == screened

    def test_refines_a_subset_of_the_bin_rule(self):
        """On the same store, state, candidate and u, a step refines only if
        the bin rule alone would have refined it, and some it would have
        refined are served."""
        base = self._two_center_kernel()
        model, binning = base.model, base.binning
        rng = np.random.default_rng(12)
        bin_rule_refined = served_instead = 0
        for _ in range(600):
            kernel = copy.deepcopy(base)
            log_theta = list(rng.normal(scale=2.0, size=binning.m))
            x0 = rng.normal(size=2) * 1.5
            y0 = float(model.eval_fn(x0[None, :])[0])
            state = ChainState(x0, y0, log_bias_density(log_theta, binning,
                                                        model, x0, y0))
            z = rng.normal(size=2)
            gp, dist = kernel._local_model(x0 + z)
            mu, var = gp.posterior(x0 + z, dist)
            old = misassignment_probability(mu, math.sqrt(var),
                                            binning) > kernel.beta_max
            _, rec = kernel.step(_ScriptedRng(z, [0.5, rng.random()]), state,
                                 log_theta)
            assert not rec.refined or old
            bin_rule_refined += old
            served_instead += old and rec.used_surrogate
        assert bin_rule_refined > 50 and served_instead > 10


class TestModelCache:
    @pytest.mark.parametrize("p", [1, 2])
    def test_cache_is_invisible(self, p, monkeypatch):
        """A 2-D two-center chain takes the same steps, pays the same true
        evaluations and grows the same store whether the kernel reuses its
        local models or rebuilds one at every step."""
        builds = _record_builds(monkeypatch)

        def run(clear):
            model = min_distance_model(2)
            binning = Binning(-1.0, 54.0, 55)
            ledger = EvalLedger()
            kernel = fit_surrogate_kernel(model, binning, 17,
                                          initial_design=50, gamma=1e-2,
                                          beta_max=0.075, p=p,
                                          prop=Proposal(1.0), ledger=ledger)
            x0 = kernel.store.points[0].copy()
            y0 = float(kernel.store.values[0])
            log_theta, state = _flat_start(model, binning, x0, y0)
            rng = np.random.default_rng([17, 0])
            trace = []
            builds.clear()
            for _ in range(400):
                if clear:
                    kernel._models.clear()
                state, rec = kernel.step(rng, state, log_theta)
                trace.append((tuple(state.x), state.y, state.log_q, rec))
            return (kernel, ledger, trace, len(builds))

        cached, cached_ledger, cached_trace, cached_builds = run(False)
        fresh, fresh_ledger, fresh_trace, fresh_builds = run(True)
        assert cached_trace == fresh_trace
        assert cached.counters() == fresh.counters()
        assert cached_ledger == fresh_ledger
        np.testing.assert_array_equal(cached.store.points, fresh.store.points)
        np.testing.assert_array_equal(cached.store.values, fresh.store.values)
        # every step past the gate built a model without the cache, and
        # some reused one with it
        assert fresh_builds == 400 - fresh.refine_random
        assert cached_builds < fresh_builds
        assert cached.surrogate_steps > 200

    def test_same_support_set_shares_one_model(self):
        store = _unit_store()
        for v in (0.0, 1.0, 2.0, 3.0, 4.0):
            store.insert(np.array([v]), v * v)
        kernel = _make_kernel(_identity_model(), Binning(-4.0, 4.0, 8),
                              store, gamma=0.0)
        # both supports are the points 0, 1 and 2: nearest first, 1, 0, 2
        # from 0.9 and 1, 2, 0 from 1.1
        gp, dist = kernel._local_model(np.array([0.9]))
        again, dist_again = kernel._local_model(np.array([1.1]))
        assert again is gp
        np.testing.assert_array_equal(_support(kernel, 0.9), [0.0, 1.0, 2.0])
        assert dist[0] < dist[2] and dist_again[2] < dist_again[0]
        # a new point that enters the support makes a new model
        assert store.insert(np.array([1.05]), 1.05**2)
        moved, _ = kernel._local_model(np.array([0.9]))
        assert moved is not gp
        np.testing.assert_array_equal(_support(kernel, 0.9), [0.0, 1.0, 1.05])

    def test_memory_bound_at_209_point_supports(self):
        d = 10
        model = gaussian_model("sines", lambda X: np.sin(X).sum(axis=1),
                               np.zeros(d), np.ones(d))
        rng = np.random.default_rng(8)
        store = EvaluationStore(d, np.full(d, 4.0), 2)
        for x in rng.normal(size=(260, d)):
            store.insert(x, float(np.sin(x).sum()))
        kernel = SurrogateKernel(model, store, Binning(-10.0, 10.0, 20), 0.0,
                                 0.05, Proposal(0.5), EvalLedger())
        bound = 2**18 // 209**2
        queries = rng.normal(size=(12, d))
        models = []
        for q in queries:
            models.append(kernel._local_model(q)[0])
            assert len(kernel._models) <= bound
        assert len({id(gp) for gp in models}) == 12
        assert len(kernel._models) == bound == 6
        # least recently used goes first: after a hit on the oldest model
        # held, the next miss evicts the one after it
        assert kernel._local_model(queries[6])[0] is models[6]
        kernel._local_model(rng.normal(size=d))
        assert kernel._local_model(queries[6])[0] is models[6]
        assert kernel._local_model(queries[7])[0] is not models[7]


class TestFitSurrogateKernel:
    def test_design_store_and_ledger(self):
        model = gaussian_model("plane", lambda X: X[:, 0] + 2.0 * X[:, 1],
                               np.zeros(2), np.ones(2))
        binning = Binning(-6.0, 6.0, 12)
        prop = Proposal(0.5)
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
        assert (kernel.gamma, kernel.beta_max, kernel.store.p,
                kernel.prop) == (0.01, 0.05, 2, prop)
        lengths = kernel.store.lengths
        assert lengths.shape == (2,) and np.all(lengths > 0)
        again = fit_surrogate_kernel(model, binning, 3, initial_design=20,
                                     gamma=0.01, beta_max=0.05, p=2,
                                     prop=prop, ledger=EvalLedger())
        np.testing.assert_array_equal(again.store.lengths, lengths)

    def test_design_is_one_block(self):
        base = _identity_model(2)
        sizes = []

        def recording(X):
            sizes.append(len(X))
            return base.eval_fn(X)

        model = dataclasses.replace(base, eval_fn=recording)
        fit_surrogate_kernel(model, Binning(-3.0, 3.0, 6), 3,
                             initial_design=20, gamma=0.01, beta_max=0.05,
                             p=2, prop=Proposal(0.5), ledger=EvalLedger())
        assert sizes == [20]

    def test_exponent_checked_before_any_evaluation(self):
        ledger = EvalLedger()
        with pytest.raises(ValueError, match="exponent"):
            fit_surrogate_kernel(_identity_model(2), Binning(-3.0, 3.0, 6), 3,
                                 initial_design=20, gamma=0.01,
                                 beta_max=0.05, p=3,
                                 prop=Proposal(0.5), ledger=ledger)
        assert ledger.true_evals == 0
