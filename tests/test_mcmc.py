import dataclasses
import math

import numpy as np
import pytest

from gpmmc import (Binning, ChainState, EvalLedger, ExactKernel, Proposal,
                   StepRecord, gaussian_model, log_bias_density,
                   metropolis_accept, propose)

# One bin wider than any chain below walks, under log theta = 0: the target
# log q is the model's log prior.
WIDE = Binning(-1e6, 1e6, 1)
FLAT = [0.0]


def _normal_model(d=1, mean=0.0, std=1.0):
    return gaussian_model("n", lambda X: X[:, 0],
                          np.full(d, mean), np.full(d, std))


def _start(model, x0):
    """Chain state at x0 (where y = x0[0]) under the flat table."""
    y0 = float(x0[0])
    return ChainState(x0, y0, log_bias_density(FLAT, WIDE, model, x0, y0))


class TestProposal:
    def test_isotropic(self):
        # one scale serves every coordinate, with the same bits as a vector
        # of that scale repeated
        x = np.array([1.0, -2.0, 0.5])
        a = propose(np.random.default_rng(7), x, Proposal(0.4))
        b = propose(np.random.default_rng(7), x, Proposal(np.full(3, 0.4)))
        assert a.shape == (3,)
        np.testing.assert_array_equal(a, b)

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
        """The caller draws one uniform, slot 3; the rule decides on it and
        draws nothing itself."""
        state = ChainState(np.zeros(1), 0.0, 0.0)
        x_new = np.ones(1)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            u = rng.random()
            new = metropolis_accept(u, state, x_new, 1.0, -0.5)
            assert rng.random() == np.random.default_rng(seed).random(2)[1]
            if math.log(u) < -0.5:
                assert new.x is x_new and (new.y, new.log_q) == (1.0, -0.5)
            else:
                assert new is state

    def test_zero_density_rejected_after_the_draw(self):
        state = ChainState(np.zeros(1), 0.0, 0.0)
        rng = np.random.default_rng(1)
        assert metropolis_accept(rng.random(), state, np.ones(1), 1.0,
                                 -math.inf) is state
        assert rng.random() == np.random.default_rng(1).random(2)[1]
        # not even u == 0, which accepts every finite log q
        assert metropolis_accept(0.0, state, np.ones(1), 1.0,
                                 -math.inf) is state
        assert metropolis_accept(0.0, state, np.ones(1), 1.0,
                                 -1e300).log_q == -1e300


class TestMhStep:
    def test_rejection_returns_same_object(self):
        model = _normal_model()
        # big enough to see both outcomes
        kernel = ExactKernel(model, WIDE, Proposal(2.5), EvalLedger())
        rng = np.random.default_rng(0)
        state = _start(model, np.zeros(1))
        saw_reject = saw_accept = False
        for _ in range(200):
            new, _ = kernel.step(rng, state, FLAT)
            if new is state:
                saw_reject = True
            else:
                saw_accept = True
            state = new
        assert saw_reject and saw_accept

    def test_exact_kernel_records_decision(self):
        model = _normal_model()
        kernel = ExactKernel(model, WIDE, Proposal(50.0), EvalLedger())
        rng = np.random.default_rng(0)
        state = _start(model, np.zeros(1))
        for _ in range(50):
            new, rec = kernel.step(rng, state, FLAT)
            assert isinstance(rec, StepRecord)
            assert rec.cause == "chain" and rec.beta is None
            assert [f.name for f in dataclasses.fields(rec)] == [
                "cause", "beta", "accepted"]
            assert rec.accepted == (new is not state)
            state = new

    def test_ledger_counts_every_step(self):
        model = _normal_model()
        ledger = EvalLedger()
        kernel = ExactKernel(model, WIDE, Proposal(1.0), ledger)
        rng = np.random.default_rng(4)
        state = _start(model, np.zeros(1))
        for _ in range(200):
            state, _ = kernel.step(rng, state, FLAT)
        assert ledger.true_evals == 200

    def test_uphill_always_accepted(self):
        """A move with higher target density is accepted regardless of the
        accept uniform, so a chain started in the tail drifts inward."""
        model = _normal_model()
        kernel = ExactKernel(model, WIDE, Proposal(0.1), EvalLedger())
        rng = np.random.default_rng(11)
        x0 = np.array([8.0])
        state = _start(model, x0)
        for _ in range(3000):
            state, _ = kernel.step(rng, state, FLAT)
        assert abs(state.x[0]) < 4.0

    def test_minus_inf_target_never_accepted(self):
        # log q = 0 up to y = x = 0.5, the top edge of the one bin, and
        # -inf above it
        model = dataclasses.replace(_normal_model(),
                                    log_prior_fn=lambda x: 0.0)
        cut = Binning(-1e6, 0.5, 1)
        kernel = ExactKernel(model, cut, Proposal(1.0), EvalLedger())
        rng = np.random.default_rng(3)
        state = ChainState(np.zeros(1), 0.0, 0.0)
        for _ in range(500):
            state, _ = kernel.step(rng, state, FLAT)
            assert state.x[0] <= 0.5

    def test_finite_log_q_required(self):
        with pytest.raises(ValueError):
            ChainState(np.zeros(1), 0.0, -math.inf)


class TestErgodicAverages:
    def test_standard_normal_moments(self):
        model = _normal_model()
        ledger = EvalLedger()
        kernel = ExactKernel(model, WIDE, Proposal(1.0), ledger)
        rng = np.random.default_rng(123)
        state = _start(model, np.zeros(1))
        n = 100_000
        xs = np.empty(n)
        for _ in range(1000):
            state, _ = kernel.step(rng, state, FLAT)
        for t in range(n):
            state, _ = kernel.step(rng, state, FLAT)
            xs[t] = state.x[0]
        assert xs.mean() == pytest.approx(0.0, abs=0.05)
        assert xs.var() == pytest.approx(1.0, rel=0.05)

    def test_three_state_occupancy_matches_quadrature(self):
        """Occupancy of three disjoint y-intervals under a skewed target
        matches mass ratios computed by fine-grid quadrature."""
        def log_density(x):
            # an asymmetric, bimodal-ish density on the real line
            return math.log(math.exp(-0.5 * (x - 1.2) ** 2)
                            + 0.3 * math.exp(-2.0 * (x + 1.0) ** 2))

        # the density as the model's log prior, so log q is log_density
        model = dataclasses.replace(
            _normal_model(), log_prior_fn=lambda x: log_density(float(x[0])))

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

        kernel = ExactKernel(model, WIDE, Proposal(1.5), EvalLedger())
        rng = np.random.default_rng(42)
        state = _start(model, np.zeros(1))
        for _ in range(2000):
            state, _ = kernel.step(rng, state, FLAT)
        occ = np.zeros(3)
        n = 150_000
        for _ in range(n):
            state, _ = kernel.step(rng, state, FLAT)
            v = state.x[0]
            occ[0 if v < cuts[0] else (1 if v < cuts[1] else 2)] += 1
        occ /= n
        np.testing.assert_allclose(occ, masses, rtol=0.05)
