import collections
import copy
import dataclasses
import math

import numpy as np
import pytest

import gpmmc.gp
import gpmmc.surrogate
from conftest import ScriptedRng, engine_steps
from gpmmc import (Binning, EvalLedger, EvaluationStore, ExactKernel,
                   MmcConfig, SurrogateError, SurrogateKernel,
                   fit_surrogate_kernel, gaussian_model, log_prior_density,
                   misassignment_probability, run_mmc, sample_prior)
from gpmmc.benchmarks import min_distance_model
from gpmmc.gp import local_size
from gpmmc.mcmc import accepts, log_bias_density

SERVED = SurrogateKernel.SERVED


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _identity_model(d=1):
    return gaussian_model("identity", lambda X: X[:, 0],
                          np.zeros(d), np.ones(d))


def _flat(binning):
    """The flat table: log theta = 0 in every bin."""
    return [0.0] * binning.m


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
        good = dict(gamma=0.1, beta_max=0.05)

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


def _make_kernel(model, binning, store, gamma, beta_max=0.05):
    return SurrogateKernel(model, store, binning, gamma, beta_max,
                           EvalLedger())


def _walk(kernel, scale, rng, x, y, log_theta, steps):
    """The count of each cause over steps engine steps of kernel at
    proposal scale scale from the state (x, y)."""
    _, _, _, records = engine_steps(kernel, scale, rng, x, y, log_theta,
                                    steps)
    return collections.Counter(rec.cause for rec in records)


def _support(store, x):
    """The support rows of the 1-D store's local model at x, in store
    order, as the points' coordinates."""
    idx, _, _ = store.nearest(np.array([x]), local_size(store.dimension))
    return store.points[idx, 0]


def _record_builds(monkeypatch):
    """Route the stores' local-model builds through a recorder; returns
    the list it appends (support key, build succeeded) to, one per build."""
    calls = []
    build = gpmmc.gp.build_local_surrogate

    def recorded(store, idx):
        try:
            gp = build(store, idx)
        except SurrogateError:
            calls.append((idx.tobytes(), False))
            raise
        calls.append((idx.tobytes(), True))
        return gp

    monkeypatch.setattr(gpmmc.gp, "build_local_surrogate", recorded)
    return calls


class TestSurrogateKernel:
    def test_bootstraps_from_empty_store(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 8)
        store = _unit_store()
        kernel = _make_kernel(model, binning, store, gamma=0.0)
        rng = np.random.default_rng(0)
        _, _, _, (rec,) = engine_steps(kernel, 0.5, rng, np.zeros(1), 0.0,
                                       _flat(binning), 1)
        assert rec.cause == "refine_fallback"
        assert store.size == 1

    def test_counters_partition_steps(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        store = _unit_store()
        for v in np.linspace(-4.0, 4.0, 41):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.2)
        rng = np.random.default_rng(1)
        c = _walk(kernel, 0.5, rng, np.zeros(1), 0.0, _flat(binning), 300)
        assert set(c) <= {"served", "screened", "refine_random",
                          "refine_beta", "refine_fallback"}
        assert (c["served"] + c["screened"] + c["refine_random"]
                + c["refine_beta"] + c["refine_fallback"]) == 300
        assert c["refine_random"] > 0
        assert c["served"] + c["screened"] > 0

    def test_surrogate_steps_respect_beta_threshold(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        store = _unit_store()
        for v in np.linspace(-4.5, 4.5, 91):  # dense support: tiny sigma
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.0,
                              beta_max=0.05)
        rng = np.random.default_rng(2)
        _, _, _, records = engine_steps(kernel, 0.5, rng, np.zeros(1), 0.0,
                                        _flat(binning), 400)
        causes = collections.Counter()
        for rec in records:
            causes[rec.cause] += 1
            if rec.cause in SERVED:
                assert rec.beta is not None and rec.beta <= 0.05
            elif rec.beta is not None:
                assert rec.beta > 0.05
        # dense design: mostly surrogate
        assert causes["served"] + causes["screened"] > 200
        assert causes["refine_random"] == 0

    def test_every_refinement_grows_the_store(self):
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 8)
        store = _unit_store()
        store.insert(np.array([0.0]), 0.0)
        kernel = _make_kernel(model, binning, store, gamma=0.3)
        rng = np.random.default_rng(3)
        before = store.size
        c = _walk(kernel, 0.5, rng, np.zeros(1), 0.0, _flat(binning), 200)
        refined = c["refine_random"] + c["refine_beta"] + c["refine_fallback"]
        assert store.size == before + refined
        assert kernel.ledger.true_evals == refined

    def test_gamma_one_replays_exact_kernel(self, monkeypatch):
        """gamma = 1 forces a true evaluation every step, so the surrogate
        kernel must walk the exact kernel's trajectory from the same seed."""
        model = _identity_model()
        binning = Binning(-4.0, 4.0, 16)
        log_theta = _flat(binning)

        store = _unit_store()
        for v in np.linspace(-4.0, 4.0, 9):
            store.insert(np.array([v]), v)
        sk = _make_kernel(model, binning, store, gamma=1.0)
        ek = ExactKernel(model, binning, EvalLedger())
        builds = _record_builds(monkeypatch)

        walks = [engine_steps(kernel, 0.7, np.random.default_rng([99, 0]),
                              np.zeros(1), 0.0, log_theta, 500)
                 for kernel in (sk, ek)]
        (xs, _, ys_s, recs_s), (xe, _, ys_e, recs_e) = walks
        # y = x: the outputs after every step are the positions
        np.testing.assert_array_equal(ys_s, ys_e)
        assert xs[0] == xe[0]
        assert ([r.accepted for r in recs_s]
                == [r.accepted for r in recs_e])
        causes = collections.Counter(r.cause for r in recs_s)
        assert causes["served"] + causes["screened"] == 0
        assert causes["refine_random"] + causes["refine_fallback"] == 500
        assert sk.ledger.true_evals == ek.ledger.true_evals
        # the gate refines before any local model is built
        assert builds == []

    def test_rejected_step_returns_same_object(self):
        model = _identity_model()
        binning = Binning(-0.5, 0.5, 2)  # narrow range: frequent rejections
        store = _unit_store()
        for v in np.linspace(-1.0, 1.0, 21):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.0)
        rng = np.random.default_rng(4)
        x, y = np.zeros(1), 0.0
        saw = False
        for _ in range(50):
            new_x, new_y, _, (rec,) = engine_steps(kernel, 2.0, rng, x, y,
                                                   _flat(binning), 1)
            if not rec.accepted:
                assert new_x is x and new_y == y
                saw = True
            x, y = new_x, new_y
        assert saw

    def test_surrogate_never_moves_chain_out_of_range(self):
        model = _identity_model()
        binning = Binning(-1.0, 1.0, 4)
        store = _unit_store()
        for v in np.linspace(-2.0, 2.0, 41):
            store.insert(np.array([v]), v)
        kernel = _make_kernel(model, binning, store, gamma=0.05)
        rng = np.random.default_rng(5)
        _, _, ys, _ = engine_steps(kernel, 1.0, rng, np.zeros(1), 0.0,
                                   _flat(binning), 500)
        assert all(binning.index(y) is not None for y in ys)

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
                                      ledger=ledger)
        builds = _record_builds(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_mmc(kernel, MmcConfig(
                iterations=2, samples_per_iteration=300, proposal_scale=0.5,
                seed=1))
        causes = collections.Counter(res.causes)
        assert sum(causes.values()) == 2 * (300 + 30)
        assert causes["refine_fallback"] > 0
        assert ledger.true_evals == (20 + res.start_draws
                                     + causes["refine_random"]
                                     + causes["refine_beta"]
                                     + causes["refine_fallback"])
        assert np.all(np.isfinite(res.pdf))
        # a failed build is never cached: each fallback is a build that
        # raised, also for a support that failed before
        failed = [key for key, ok in builds if not ok]
        assert causes["refine_fallback"] == len(failed)
        assert len(set(failed)) < len(failed)
        assert not set(failed) & kernel.store._keys.keys()


class _Fixed(ExactKernel):
    """A step kernel whose candidate output is always y."""

    CAUSES = ("fixed",)

    def __init__(self, model, binning, y):
        super().__init__(model, binning, EvalLedger())
        self.y = y

    def step(self, x_new, gate, u, log_q, log_theta):
        return self.y, "fixed", None


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
        """The kernel's part of one step from (x, y) = (0.5, 0.5) to the
        candidate x = 0.5 with the prediction (mu, sigma), gate uniform 0.9
        and accept uniform u, called as the engine calls it. Returns the
        kernel, the step's (y, cause, beta) and the number of true
        evaluations it made."""
        evals = []

        def identity(X):
            evals.append(len(X))
            return X[:, 0]

        model = gaussian_model("identity", identity, np.zeros(1), np.ones(1))
        kernel = _make_kernel(model, RULE_BINS, _unit_store(), gamma=0.0,
                              beta_max=beta_max)
        kernel.store.local_model = lambda x: (_Prediction(mu, sigma**2),
                                              None)
        x = np.array([0.5])
        log_q = log_bias_density(RULE_LOG_THETA, RULE_BINS, model, x, 0.5)
        out = kernel.step(x, 0.9, u, log_q, RULE_LOG_THETA)
        return kernel, out, sum(evals)

    @staticmethod
    def _accepting_mass(mu, sigma):
        return _phi((2.0 - mu) / sigma) - _phi((0.0 - mu) / sigma)

    def test_predicted_acceptance_above_beta_max_refines(self):
        mu, sigma = 1.0 + 1e-3, 0.5  # in bin 1, on its lower edge
        bin_beta = misassignment_probability(mu, sigma, RULE_BINS)
        assert bin_beta > 0.4
        kernel, (y, cause, beta), evals = self._step(mu, sigma)
        assert beta == bin_beta
        assert cause == "refine_beta" and kernel.ledger.true_evals == 1
        # the refinement's output is the true value at the candidate
        assert evals == 1 and y == 0.5

    @pytest.mark.parametrize("mu", [3.0, 4.05])
    def test_predicted_rejection_with_small_accepting_mass_is_served(self,
                                                                     mu):
        # on the edge between two rejecting bins, or just above the range:
        # the bin beta is large, but little mass reaches an accepting bin
        sigma = 0.3
        assert misassignment_probability(mu, sigma, RULE_BINS) > 0.4
        mass = self._accepting_mass(mu, sigma)
        assert mass <= 0.05
        kernel, (y, cause, beta), evals = self._step(mu, sigma)
        # the served prediction lands in a rejecting bin, or out of range
        assert cause == "screened" and y == mu
        assert RULE_BINS.index(y) in (None, 2, 3)
        assert beta == pytest.approx(mass, rel=1e-9)
        assert kernel.ledger.true_evals == 0 and evals == 0
        assert kernel.store.size == 0

    def test_predicted_rejection_with_large_accepting_mass_refines(self):
        mu, sigma = 2.2, 0.3  # in rejecting bin 2, near accepting bin 1
        mass = self._accepting_mass(mu, sigma)
        assert 0.05 < mass < misassignment_probability(mu, sigma, RULE_BINS)
        kernel, (y, cause, beta), evals = self._step(mu, sigma)
        assert beta == pytest.approx(mass, rel=1e-9)
        assert cause == "refine_beta" and evals == 1

    def test_beta_max_bounds_the_accepting_mass(self):
        mu, sigma = 2.2, 0.3
        mass = self._accepting_mass(mu, sigma)
        _, (_, served, _), _ = self._step(mu, sigma, beta_max=mass * 1.001)
        _, (_, refined, _), _ = self._step(mu, sigma, beta_max=mass * 0.999)
        assert (served, refined) == ("screened", "refine_beta")

    def test_zero_uniform_makes_every_bin_accept(self):
        # from a state of log q 0
        log_q_new = 0.0 - np.array([0.0, 1e6, 1e300, 50.0])
        assert not accepts(0.5, 0.0, log_q_new)[1:].any()
        assert accepts(0.0, 0.0, log_q_new).all()
        # at u = 0 the prediction that rejects at u = 0.5 accepts: refined
        kernel, (y, cause, beta), evals = self._step(3.0, 0.3, u=0.0)
        assert cause == "refine_beta" and beta == (
            misassignment_probability(3.0, 0.3, RULE_BINS))
        assert evals == 1

    def test_accepting_set_matches_the_engine_rule(self):
        """The engine's step, given a candidate output in each bin in turn,
        accepts exactly in the bins where mcmc.accepts, on the array the
        screening builds (log prior density less log theta), does, also for
        u placed on a bin's acceptance threshold."""
        model = _identity_model()
        binning = Binning(-3.0, 3.0, 12)
        rng = np.random.default_rng(11)
        on_edge = 0
        for _ in range(300):
            log_theta = list(rng.normal(scale=3.0, size=binning.m))
            x0 = rng.normal(size=1)
            y0 = float(rng.uniform(-3.0, 3.0))
            log_q = log_bias_density(log_theta, binning, model, x0, y0)
            z = rng.normal(size=1)
            x_new = x0 + z  # the engine's candidate at proposal scale 1
            lp = log_prior_density(model, x_new)
            log_qs = [log_bias_density(log_theta, binning, model, x_new, y)
                      for y in binning.centers]
            u = float(rng.random())
            j = int(rng.integers(binning.m))
            if log_qs[j] - log_q < 0.0:
                u = math.exp(log_qs[j] - log_q)
                on_edge += 1
            accepting = accepts(u, log_q, lp - np.asarray(log_theta))
            brute = [engine_steps(_Fixed(model, binning, y), 1.0,
                                  ScriptedRng(z, [0.5, u]), x0, y0,
                                  log_theta, 1)[3][0].accepted
                     for y in binning.centers]
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
                                    ledger=EvalLedger())

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
        x = np.zeros(2)
        y = float(model.eval_fn(x[None, :])[0])
        rng = np.random.default_rng(6)
        screened = recorded_screened = 0
        for _ in range(2000):
            bin_betas.clear()
            before = x
            x, y, _, (rec,) = engine_steps(kernel, 1.0, rng, x, y, log_theta,
                                           1)
            recorded_screened += rec.cause == "screened"
            if rec.cause in SERVED and bin_betas[0] > kernel.beta_max:
                screened += 1
                assert not rec.accepted and x is before
        assert screened > 20
        assert recorded_screened == screened

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
            log_q = log_bias_density(log_theta, binning, model, x0, y0)
            z = rng.normal(size=2)
            gp, dist = kernel.store.local_model(x0 + z)
            mu, var = gp.posterior(x0 + z, dist)
            old = misassignment_probability(mu, math.sqrt(var),
                                            binning) > kernel.beta_max
            _, cause, _ = kernel.step(x0 + z, 0.5, rng.random(), log_q,
                                      log_theta)
            assert not cause.startswith("refine") or old
            bin_rule_refined += old
            served_instead += old and cause in SERVED
        assert bin_rule_refined > 50 and served_instead > 10


class TestModelCache:
    @pytest.mark.parametrize("p", [1, 2])
    def test_reused_models_meet_both_conditions(self, p, monkeypatch):
        """In a 2-D two-center chain, every local model served to a query
        whose support it was not built on holds the query's t(d) nearest
        evaluations and lacks no evaluation of the query's support stored
        after its build, checked on the model at the step that reuses it.
        The distances served are those to the model's own rows, and only a
        query no model serves builds one."""
        builds = _record_builds(monkeypatch)
        model = min_distance_model(2)
        binning = Binning(-1.0, 54.0, 55)
        kernel = fit_surrogate_kernel(model, binning, 17, initial_design=50,
                                      gamma=1e-2, beta_max=0.075, p=p,
                                      ledger=EvalLedger())
        store = kernel.store
        serve = store.local_model
        served = collections.Counter()

        def checked(x):
            idx, dist, _ = store.nearest(x, local_size(2))
            core, _, _ = store.nearest(x, gpmmc.gp._trend_terms(2))
            built = store.models_built
            gp, gp_dist = serve(x)
            slot = next(s for s, m in enumerate(store._models) if m is gp)
            np.testing.assert_array_equal(
                store._held[:, slot].nonzero()[0], gp.idx)
            np.testing.assert_array_equal(gp_dist, dist[gp.idx])
            if np.array_equal(gp.idx, idx):
                served["built" if store.models_built > built
                       else "cached"] += 1
                return gp, gp_dist
            assert np.isin(core, gp.idx).all()
            assert (np.setdiff1d(idx, gp.idx) < store._born[slot]).all()
            served["reused"] += 1
            return gp, gp_dist

        monkeypatch.setattr(store, "local_model", checked)
        x0 = store.points[0].copy()
        rng = np.random.default_rng([17, 0])
        causes = _walk(kernel, 1.0, rng, x0, float(store.values[0]),
                       _flat(binning), 400)
        assert served["built"] == len(builds) == store.models_built
        assert sum(served.values()) == 400 - causes["refine_random"]
        assert served["reused"] > 10 and served["cached"] > 50

    def test_same_support_set_shares_one_model(self):
        store = _unit_store()
        for v in (0.0, 1.0, 2.0, 3.0, 4.0):
            store.insert(np.array([v]), v * v)
        # both supports are the points 0, 1 and 2: nearest first, 1, 0, 2
        # from 0.9 and 1, 2, 0 from 1.1
        gp, dist = store.local_model(np.array([0.9]))
        again, dist_again = store.local_model(np.array([1.1]))
        assert again is gp
        np.testing.assert_array_equal(_support(store, 0.9), [0.0, 1.0, 2.0])
        assert dist[0] < dist[2] and dist_again[2] < dist_again[0]
        # a new point that enters the support makes a new model
        assert store.insert(np.array([1.05]), 1.05**2)
        moved, _ = store.local_model(np.array([0.9]))
        assert moved is not gp
        np.testing.assert_array_equal(_support(store, 0.9), [0.0, 1.0, 1.05])

    def test_memory_bound_at_209_point_supports(self):
        d = 10
        rng = np.random.default_rng(8)
        store = EvaluationStore(d, np.full(d, 4.0), 2)
        for x in rng.normal(size=(260, d)):
            store.insert(x, float(np.sin(x).sum()))
        bound = 2**18 // 209**2
        # far out along distinct axes, so every cached model lacks more
        # than t(d) // 16 = 4 of a query's nearest evaluations: no query is
        # served or grown from a cached model, and each one builds
        queries = 8.0 * np.vstack([np.eye(d), -np.eye(d)])[
            [0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 5, 15, 6]]
        models = []
        for q in queries[:12]:
            models.append(store.local_model(q)[0])
        assert len({id(gp) for gp in models}) == 12
        assert store.models_built == 12
        assert len(store._models) == bound == 6
        # the cache holds the six most recent models, and only their keys
        assert ([id(gp) for gp in store._models]
                == [id(gp) for gp in models[6:]])
        assert len(store._keys) == 6
        # least recently used goes first: after a hit on the oldest model
        # held, the next miss evicts the one after it
        assert store.local_model(queries[6])[0] is models[6]
        store.local_model(queries[12])
        assert store.local_model(queries[6])[0] is models[6]
        assert store.local_model(queries[7])[0] is not models[7]


class TestFitSurrogateKernel:
    def test_design_store_and_ledger(self):
        model = gaussian_model("plane", lambda X: X[:, 0] + 2.0 * X[:, 1],
                               np.zeros(2), np.ones(2))
        binning = Binning(-6.0, 6.0, 12)
        ledger = EvalLedger()
        kernel = fit_surrogate_kernel(model, binning, 3, initial_design=20,
                                      gamma=0.01, beta_max=0.05, p=2,
                                      ledger=ledger)
        design = sample_prior(model, np.random.default_rng([3, 1]), 20)
        np.testing.assert_array_equal(kernel.store.points, design)
        np.testing.assert_array_equal(kernel.store.values,
                                      design[:, 0] + 2.0 * design[:, 1])
        assert kernel.ledger is ledger
        assert ledger.true_evals == 20
        assert (kernel.gamma, kernel.beta_max, kernel.store.p) == (
            0.01, 0.05, 2)
        lengths = kernel.store.lengths
        assert lengths.shape == (2,) and np.all(lengths > 0)
        again = fit_surrogate_kernel(model, binning, 3, initial_design=20,
                                     gamma=0.01, beta_max=0.05, p=2,
                                     ledger=EvalLedger())
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
                             p=2, ledger=EvalLedger())
        assert sizes == [20]

    def test_exponent_checked_before_any_evaluation(self):
        ledger = EvalLedger()
        with pytest.raises(ValueError, match="exponent"):
            fit_surrogate_kernel(_identity_model(2), Binning(-3.0, 3.0, 6), 3,
                                 initial_design=20, gamma=0.01,
                                 beta_max=0.05, p=3, ledger=ledger)
        assert ledger.true_evals == 0

    @pytest.mark.parametrize("bad, match", [
        (dict(gamma=2.0), "gamma"),
        (dict(beta_max=1.0), "beta_max"),
        (dict(initial_design=1), "two points"),
        (dict(initial_design=20.5), "integer"),
    ], ids=["gamma", "beta_max", "initial_design", "fractional_design"])
    def test_settings_checked_before_any_evaluation(self, bad, match):
        ledger = EvalLedger()
        settings = dict(initial_design=20, gamma=0.01, beta_max=0.05) | bad
        with pytest.raises(ValueError, match=match):
            fit_surrogate_kernel(_identity_model(2), Binning(-3.0, 3.0, 6), 3,
                                 p=2, ledger=ledger, **settings)
        assert ledger.true_evals == 0
