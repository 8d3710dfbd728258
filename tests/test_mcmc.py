import dataclasses
import math

import numpy as np
import pytest

from conftest import ScriptedRng, engine_steps
from gpmmc import Binning, EvalLedger, ExactKernel, evaluate, gaussian_model
from gpmmc.mcmc import accepts

# One bin wider than any chain below walks, under log theta = 0: the target
# log q is the model's log prior.
WIDE = Binning(-1e6, 1e6, 1)
FLAT = [0.0]


def _normal_model(d=1, mean=0.0, std=1.0):
    return gaussian_model("n", lambda X: X[:, 0],
                          np.full(d, mean), np.full(d, std))


class TestProposal:
    def test_isotropic(self):
        # one scale serves every coordinate, with the same bits as a vector
        # of that scale repeated
        model = _normal_model(3)
        x = np.array([1.0, -2.0, 0.5])
        walks = [engine_steps(ExactKernel(model, WIDE, EvalLedger()), scale,
                              np.random.default_rng(7), x, 1.0, FLAT, 50)
                 for scale in (0.4, np.full(3, 0.4))]
        (xa, _, ya, _), (xb, _, yb, _) = walks
        assert xa.shape == (3,)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)

    def test_propose_distribution(self):
        # the output is in range only at the start, so the chain never moves
        # and every candidate is one proposal step from it
        x0 = np.array([1.0, -1.0])
        model = gaussian_model(
            "start", lambda X: np.where((X == x0).all(axis=1), 0.0, 9.0),
            np.zeros(2), np.ones(2))
        seen = []

        class Recording(ExactKernel):
            def step(self, x_new, *rest):
                seen.append(x_new)
                return super().step(x_new, *rest)

        kernel = Recording(model, Binning(-1.0, 1.0, 1), EvalLedger())
        x, _, _, records = engine_steps(kernel, (0.5, 2.0),
                                        np.random.default_rng(9), x0, 0.0,
                                        FLAT, 20_000)
        assert x is x0 and not any(rec.accepted for rec in records)
        steps = np.array(seen) - x0
        np.testing.assert_allclose(steps.mean(axis=0), [0.0, 0.0], atol=0.03)
        np.testing.assert_allclose(steps.std(axis=0), [0.5, 2.0], rtol=0.03)


def _sloped_model():
    """y = x on a 1-D input whose log prior is -x / 2: from x = 0 to x = 1
    the log target falls by 0.5 in the wide bin."""
    return dataclasses.replace(_normal_model(),
                               log_prior_fn=lambda x: -0.5 * float(x[0]))


class TestAcceptRule:
    """mcmc.accepts, the one accept rule: the engine's step asks it for one
    candidate, the surrogate's screening for one log q per bin."""

    def test_zero_uniform_accepts_every_finite_target(self):
        for log_q_new in (0.0, -1e300, 1e300, -5e-324, 7.5):
            assert accepts(0.0, 0.0, log_q_new) is True
        assert accepts(0.0, 0.0, -math.inf) is False
        assert accepts(0.0, -1e300, -math.inf) is False

    def test_positive_uniform_compares_strictly(self):
        exact = 0
        for u in (0.5, math.exp(-3.0), 1e-300, 1.0 - 2**-53):
            for log_q in (0.0, -2.0, 40.0):
                assert accepts(u, log_q, -math.inf) is False
                edge = log_q + math.log(u)
                if edge - log_q != math.log(u):
                    continue  # the sum rounded: not on the threshold
                exact += 1
                assert accepts(u, log_q, edge) is False
                assert accepts(u, log_q, math.nextafter(edge, math.inf))
                assert not accepts(u, log_q, math.nextafter(edge, -math.inf))
        assert exact >= 4
        # an uphill move accepts at any u in (0, 1)
        assert accepts(1.0 - 2**-53, 0.0, 1e-15) is True

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.999])
    def test_array_matches_the_scalar_rule(self, u):
        rng = np.random.default_rng(5)
        log_q_new = np.concatenate([rng.normal(scale=2.0, size=40),
                                    [-math.inf, math.nan, math.inf, 0.0,
                                     math.log(u) if u else -1.0]])
        rng.shuffle(log_q_new)
        out = accepts(u, 0.0, log_q_new)
        assert out.dtype == bool and out.shape == log_q_new.shape
        assert out.tolist() == [accepts(u, 0.0, float(v)) for v in log_q_new]
        assert out[np.isneginf(log_q_new)].tolist() == [False]
        # NaN: a state the engine refuses, taken only where u == 0
        assert out[np.isnan(log_q_new)].tolist() == [u == 0.0]


class TestMetropolisAccept:
    def test_draws_one_uniform_and_decides_on_it(self):
        """The engine decides on the step's third draw, the accept uniform
        u: it accepts exactly when log u < log_q_new - log_q."""
        kernel = ExactKernel(_sloped_model(), WIDE, EvalLedger())
        x0 = np.zeros(1)
        for seed in range(20):
            u = np.random.default_rng(seed).random()
            rng = ScriptedRng(1.0, [0.25, u])
            x, y, _, (rec,) = engine_steps(kernel, 1.0, rng, x0, 0.0, FLAT,
                                           1)
            assert not rng.uniforms
            if math.log(u) < -0.5:
                assert rec.accepted and (x[0], y) == (1.0, 1.0)
            else:
                assert not rec.accepted and x is x0 and y == 0.0

    def test_zero_density_rejected_after_the_draw(self):
        # the candidate's output, 1.0, is above the one bin's top edge
        cut = Binning(-1.0, 0.5, 1)
        kernel = ExactKernel(_sloped_model(), cut, EvalLedger())
        x0 = np.zeros(1)
        for u in (0.3, 0.0):
            # not even u == 0, which accepts every finite log q
            rng = ScriptedRng(1.0, [0.9, u])
            x, _, _, (rec,) = engine_steps(kernel, 1.0, rng, x0, 0.0, FLAT,
                                           1)
            assert not rng.uniforms and not rec.accepted and x is x0
        # a log target of -1e300 is finite, and u == 0 accepts it
        steep = dataclasses.replace(
            _normal_model(), log_prior_fn=lambda x: -1e300 * float(x[0]))
        kernel = ExactKernel(steep, WIDE, EvalLedger())
        x, _, _, (rec,) = engine_steps(kernel, 1.0,
                                       ScriptedRng(1.0, [0.9, 0.0]), x0, 0.0,
                                       FLAT, 1)
        assert rec.accepted and x[0] == 1.0


class TestMhStep:
    def test_rejection_returns_same_object(self):
        model = _normal_model()
        # big enough to see both outcomes
        kernel = ExactKernel(model, WIDE, EvalLedger())
        rng = np.random.default_rng(0)
        x, y = np.zeros(1), 0.0
        saw_reject = saw_accept = False
        for _ in range(200):
            new_x, new_y, _, (rec,) = engine_steps(kernel, 2.5, rng, x, y,
                                                   FLAT, 1)
            if rec.accepted:
                saw_accept = True
                assert new_x is not x
            else:
                saw_reject = True
                assert new_x is x and new_y == y
            x, y = new_x, new_y
        assert saw_reject and saw_accept

    def test_exact_kernel_records_decision(self):
        model = _normal_model()
        kernel = ExactKernel(model, WIDE, EvalLedger())
        rng = np.random.default_rng(0)
        x, y = np.zeros(1), 0.0
        for _ in range(50):
            new_x, y, _, (rec,) = engine_steps(kernel, 50.0, rng, x, y,
                                               FLAT, 1)
            assert rec.cause == "chain" and rec.beta is None
            assert rec.accepted is (new_x is not x)
            x = new_x

    def test_exact_kernel_step_is_one_true_evaluation(self):
        """The kernel's part of a step: the true output at the candidate,
        cause "chain" and no beta, whatever the step's uniforms and log q."""
        model = _normal_model(2)
        ledger = EvalLedger()
        kernel = ExactKernel(model, WIDE, ledger)
        x_new = np.array([0.3, -1.2])
        for gate, u, log_q in ((0.0, 0.0, 0.0), (0.99, 0.5, -7.0)):
            assert kernel.step(x_new, gate, u, log_q, FLAT) == (
                evaluate(model, x_new), "chain", None)
        assert ledger.true_evals == 2

    def test_ledger_counts_every_step(self):
        model = _normal_model()
        ledger = EvalLedger()
        kernel = ExactKernel(model, WIDE, ledger)
        engine_steps(kernel, 1.0, np.random.default_rng(4), np.zeros(1),
                     0.0, FLAT, 200)
        assert ledger.true_evals == 200

    def test_uphill_always_accepted(self):
        """A move with higher target density is accepted regardless of the
        accept uniform, so a chain started in the tail drifts inward."""
        model = _normal_model()
        kernel = ExactKernel(model, WIDE, EvalLedger())
        x, _, _, _ = engine_steps(kernel, 0.1, np.random.default_rng(11),
                                  np.array([8.0]), 8.0, FLAT, 3000)
        assert abs(x[0]) < 4.0

    def test_minus_inf_target_never_accepted(self):
        # log q = 0 up to y = x = 0.5, the top edge of the one bin, and
        # -inf above it
        model = dataclasses.replace(_normal_model(),
                                    log_prior_fn=lambda x: 0.0)
        cut = Binning(-1e6, 0.5, 1)
        kernel = ExactKernel(model, cut, EvalLedger())
        _, _, ys, _ = engine_steps(kernel, 1.0, np.random.default_rng(3),
                                   np.zeros(1), 0.0, FLAT, 500)
        assert np.all(ys <= 0.5)

    def test_finite_log_q_required(self):
        # a start out of range has log q -inf
        kernel = ExactKernel(_normal_model(), Binning(-1.0, 1.0, 1),
                             EvalLedger())
        with pytest.raises(ValueError, match="finite log density"):
            engine_steps(kernel, 1.0, np.random.default_rng(0), np.zeros(1),
                         5.0, FLAT, 1)
        # an accepted candidate of log q +inf
        model = dataclasses.replace(
            _normal_model(), log_prior_fn=lambda x: math.inf * float(x[0]))
        kernel = ExactKernel(model, WIDE, EvalLedger())
        with pytest.raises(ValueError, match="finite log density"):
            engine_steps(kernel, 1.0, ScriptedRng(1.0, [0.5, 0.5]),
                         np.zeros(1), 0.0, FLAT, 1)


class TestErgodicAverages:
    def test_standard_normal_moments(self):
        model = _normal_model()
        ledger = EvalLedger()
        kernel = ExactKernel(model, WIDE, ledger)
        rng = np.random.default_rng(123)
        x, y, _, _ = engine_steps(kernel, 1.0, rng, np.zeros(1), 0.0, FLAT,
                                  1000)
        # y = x, so the outputs are the chain's positions
        _, _, xs, _ = engine_steps(kernel, 1.0, rng, x, y, FLAT, 100_000)
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

        kernel = ExactKernel(model, WIDE, EvalLedger())
        rng = np.random.default_rng(42)
        x, y, _, _ = engine_steps(kernel, 1.5, rng, np.zeros(1), 0.0, FLAT,
                                  2000)
        occ = np.zeros(3)
        n = 150_000
        # y = x, so the outputs are the chain's positions
        _, _, vs, _ = engine_steps(kernel, 1.5, rng, x, y, FLAT, n)
        for v in vs:
            occ[0 if v < cuts[0] else (1 if v < cuts[1] else 2)] += 1
        occ /= n
        np.testing.assert_allclose(occ, masses, rtol=0.05)
