import math

import numpy as np
import pytest

from gpmmc import (ChainState, EvalLedger, ExactKernel, Proposal, StepRecord,
                   gaussian_model, metropolis_accept, propose)


def _normal_model(d=1, mean=0.0, std=1.0):
    return gaussian_model("n", lambda x: float(x[0]),
                          np.full(d, mean), np.full(d, std))


def _log_target(model):
    def target(x, y):
        return model.log_prior_fn(x)
    return target


class TestProposal:
    def test_isotropic(self):
        p = Proposal.isotropic(0.4, 3)
        np.testing.assert_array_equal(p.scale, [0.4, 0.4, 0.4])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Proposal(np.array([0.5, 0.0]))

    def test_propose_distribution(self):
        rng = np.random.default_rng(9)
        p = Proposal(np.array([0.5, 2.0]))
        x = np.array([1.0, -1.0])
        steps = np.array([propose(rng, x, p) - x for _ in range(20_000)])
        np.testing.assert_allclose(steps.mean(axis=0), [0.0, 0.0], atol=0.03)
        np.testing.assert_allclose(steps.std(axis=0), [0.5, 2.0], rtol=0.03)


class TestMetropolisAccept:
    def test_draws_one_uniform_and_decides_on_it(self):
        state = ChainState(np.zeros(1), 0.0, 0.0)
        x_new = np.ones(1)
        for seed in range(20):
            u = np.random.default_rng(seed).random()
            rng = np.random.default_rng(seed)
            new = metropolis_accept(rng, state, x_new, 1.0, -0.5)
            assert rng.random() == np.random.default_rng(seed).random(2)[1]
            if math.log(u) < -0.5:
                assert new.x is x_new and (new.y, new.log_q) == (1.0, -0.5)
            else:
                assert new is state

    def test_zero_density_rejected_after_the_draw(self):
        state = ChainState(np.zeros(1), 0.0, 0.0)
        rng = np.random.default_rng(1)
        assert metropolis_accept(rng, state, np.ones(1), 1.0,
                                 -math.inf) is state
        assert rng.random() == np.random.default_rng(1).random(2)[1]


class TestMhStep:
    def test_rejection_returns_same_object(self):
        model = _normal_model()
        target = _log_target(model)
        # big enough to see both outcomes
        kernel = ExactKernel(model, Proposal.isotropic(2.5, 1), EvalLedger())
        rng = np.random.default_rng(0)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        saw_reject = saw_accept = False
        for _ in range(200):
            new, _ = kernel.step(rng, state, target)
            if new is state:
                saw_reject = True
            else:
                saw_accept = True
            state = new
        assert saw_reject and saw_accept

    def test_exact_kernel_records_decision(self):
        model = _normal_model()
        target = _log_target(model)
        kernel = ExactKernel(model, Proposal.isotropic(50.0, 1), EvalLedger())
        rng = np.random.default_rng(0)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        for _ in range(50):
            new, rec = kernel.step(rng, state, target)
            assert isinstance(rec, StepRecord)
            assert rec.used_surrogate is False
            assert rec.refined is False
            assert rec.accepted == (new is not state)
            state = new

    def test_ledger_counts_every_step(self):
        model = _normal_model()
        target = _log_target(model)
        ledger = EvalLedger()
        kernel = ExactKernel(model, Proposal.isotropic(1.0, 1), ledger)
        rng = np.random.default_rng(4)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        for _ in range(200):
            state, _ = kernel.step(rng, state, target)
        assert ledger.true_evals == 200

    def test_uphill_always_accepted(self):
        """A move with higher target density is accepted regardless of the
        accept uniform, so a chain started in the tail drifts inward."""
        model = _normal_model()
        target = _log_target(model)
        kernel = ExactKernel(model, Proposal.isotropic(0.1, 1), EvalLedger())
        rng = np.random.default_rng(11)
        x0 = np.array([8.0])
        state = ChainState(x0, 8.0, target(x0, 8.0))
        for _ in range(3000):
            state, _ = kernel.step(rng, state, target)
        assert abs(state.x[0]) < 4.0

    def test_minus_inf_target_never_accepted(self):
        model = _normal_model()

        def target(x, y):
            return -math.inf if x[0] > 0.5 else 0.0

        kernel = ExactKernel(model, Proposal.isotropic(1.0, 1), EvalLedger())
        rng = np.random.default_rng(3)
        state = ChainState(np.zeros(1), 0.0, 0.0)
        for _ in range(500):
            state, _ = kernel.step(rng, state, target)
            assert state.x[0] <= 0.5

    def test_finite_log_q_required(self):
        with pytest.raises(ValueError):
            ChainState(np.zeros(1), 0.0, -math.inf)


class TestErgodicAverages:
    def test_standard_normal_moments(self):
        model = _normal_model()
        target = _log_target(model)
        ledger = EvalLedger()
        kernel = ExactKernel(model, Proposal.isotropic(1.0, 1), ledger)
        rng = np.random.default_rng(123)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        n = 100_000
        xs = np.empty(n)
        for _ in range(1000):
            state, _ = kernel.step(rng, state, target)
        for t in range(n):
            state, _ = kernel.step(rng, state, target)
            xs[t] = state.x[0]
        assert xs.mean() == pytest.approx(0.0, abs=0.05)
        assert xs.var() == pytest.approx(1.0, rel=0.05)

    def test_three_state_occupancy_matches_quadrature(self):
        """Occupancy of three disjoint y-intervals under a skewed target
        matches mass ratios computed by fine-grid quadrature."""
        model = _normal_model()

        def log_density(x):
            # an asymmetric, bimodal-ish density on the real line
            return math.log(math.exp(-0.5 * (x - 1.2) ** 2)
                            + 0.3 * math.exp(-2.0 * (x + 1.0) ** 2))

        def target(x, y):
            return log_density(float(x[0]))

        # quadrature oracle for interval masses
        grid = np.linspace(-8.0, 8.0, 200_001)
        dens = np.exp([log_density(g) for g in grid])
        dens /= np.trapezoid(dens, grid)
        cuts = (-0.25, 0.75)
        masses = [
            np.trapezoid(np.where(grid < cuts[0], dens, 0.0), grid),
            np.trapezoid(np.where((grid >= cuts[0]) & (grid < cuts[1]),
                                  dens, 0.0), grid),
            np.trapezoid(np.where(grid >= cuts[1], dens, 0.0), grid),
        ]

        kernel = ExactKernel(model, Proposal.isotropic(1.5, 1), EvalLedger())
        rng = np.random.default_rng(42)
        state = ChainState(np.zeros(1), 0.0, target(np.zeros(1), 0.0))
        for _ in range(2000):
            state, _ = kernel.step(rng, state, target)
        occ = np.zeros(3)
        n = 150_000
        for _ in range(n):
            state, _ = kernel.step(rng, state, target)
            v = state.x[0]
            occ[0 if v < cuts[0] else (1 if v < cuts[1] else 2)] += 1
        occ /= n
        np.testing.assert_allclose(occ, masses, rtol=0.05)
