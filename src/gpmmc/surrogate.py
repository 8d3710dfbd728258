"""Metropolis kernel that answers most candidate evaluations from a local
surrogate and falls back to the true model only when the surrogate cannot be
trusted to bin the candidate correctly.

A candidate's surrogate prediction (mu, sigma) is accepted as a stand-in for
the true value only when the predictive probability of landing outside the
bin that mu falls in,

    beta = Phi(lo_edge; mu, sigma) + 1 - Phi(hi_edge; mu, sigma),

stays at or below the configured threshold. Otherwise the true model is
evaluated and the result feeds the evaluation store, shrinking the surrogate's
uncertainty exactly where the chain visits. An independent gate evaluates the
true model with small probability gamma regardless of beta, so the store keeps
growing even where the surrogate is confident; gamma = 1 degenerates to the
exact kernel and replays its trajectory from the same seed, which is what the
fixed per-step RNG layout in mcmc.py exists for.

The target density only sees which bin a value lands in (through the weight
lookup), so a surrogate value that bins correctly leaves the chain's law
unchanged; beta bounds the per-step probability of getting that bin wrong.
"""

from __future__ import annotations

import math

import numpy as np

from .binning import Binning
from .errors import SurrogateError
from .gp import (EvaluationStore, _check_exponent, _check_kernel,
                 build_local_surrogate, calibrate_lengthscales)
from .mcmc import (ChainState, Proposal, StepRecord, Target,
                   metropolis_accept, propose)
from .problem import EvalLedger, PerformanceModel, evaluate, sample_prior

__all__ = ["misassignment_probability", "SurrogateKernel",
           "fit_surrogate_kernel"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z * _INV_SQRT2))


def _check_settings(gamma: float, beta_max: float, p: int) -> None:
    """ValueError unless gamma lies in [0, 1], beta_max in (0, 1) and the
    kernel exponent p is 1 or 2. SurrogateKernel runs these checks when it
    is built, and a run config runs them when it is parsed, before the run
    spends a true evaluation."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if not 0.0 < beta_max < 1.0:
        raise ValueError(f"beta_max must lie in (0, 1), got {beta_max}")
    _check_exponent(p)


def misassignment_probability(mu: float, sigma: float,
                              binning: Binning) -> float:
    """Probability beta that a Gaussian prediction lands outside its assigned
    cell.

    An in-range prediction is assigned to its bin and beta is the posterior
    mass outside that bin. A prediction outside the binned range is assigned
    to the rejection region, so beta is the posterior mass back inside the
    range: a confidently out-of-range prediction is a certain rejection and
    needs no true evaluation. sigma = 0 means a point prediction, which
    assigns exactly: beta = 0.
    """
    if sigma < 0 or not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if sigma == 0.0:
        return 0.0
    i = binning.index(mu)
    if i is None:
        return (_phi((binning.hi - mu) / sigma)
                - _phi((binning.lo - mu) / sigma))
    lo = binning.lo + i * binning.delta
    hi = lo + binning.delta
    return _phi((lo - mu) / sigma) + 1.0 - _phi((hi - mu) / sigma)


class SurrogateKernel:
    """Step kernel with per-candidate local surrogates and audited refinement.

    gamma is the per-step probability of an unconditional true evaluation;
    beta_max the largest tolerated bin-misassignment probability; lengths and
    p the frozen correlation kernel, checked here once for the whole run;
    prop the random-walk proposal.

    Tracks how every true evaluation was triggered (random gate, beta above
    threshold, or surrogate construction failure) so a run's cost can be
    reconciled exactly from the counters.
    """

    def __init__(self, model: PerformanceModel, store: EvaluationStore,
                 binning: Binning, gamma: float, beta_max: float,
                 lengths: np.ndarray, p: int, prop: Proposal,
                 ledger: EvalLedger):
        _check_settings(gamma, beta_max, p)
        self.model = model
        self.store = store
        self.binning = binning
        self.gamma = gamma
        self.beta_max = beta_max
        self.lengths = _check_kernel(lengths, p)
        self.p = p
        self.prop = prop
        self.ledger = ledger
        self.steps = 0
        self.refine_random = 0
        self.refine_beta = 0
        self.refine_fallback = 0
        self.surrogate_steps = 0

    def step(self, rng: np.random.Generator, state: ChainState,
             target: Target) -> tuple[ChainState, StepRecord]:
        x_new = propose(rng, state.x, self.prop)
        beta = None
        used_surrogate = False
        # the gate comes first: building the local model draws no random
        # numbers, so a step the gate refines needs no model at all
        if rng.random() < self.gamma:
            self.refine_random += 1
        else:
            try:
                gp = build_local_surrogate(self.store, x_new, self.lengths,
                                           self.p)
                mu, var = gp.posterior(x_new)
            except SurrogateError:
                self.refine_fallback += 1
            else:
                self.ledger.surrogate_evals += 1
                beta = misassignment_probability(mu, math.sqrt(var),
                                                 self.binning)
                used_surrogate = beta <= self.beta_max
                if used_surrogate:
                    self.surrogate_steps += 1
                else:
                    self.refine_beta += 1
        if used_surrogate:
            y_new = mu
        else:
            y_new = evaluate(self.model, x_new, self.ledger)
            self.store.insert(x_new, y_new)

        new = metropolis_accept(rng, state, x_new, y_new, target(x_new, y_new))
        self.steps += 1
        return new, StepRecord(used_surrogate=used_surrogate, beta=beta,
                               refined=not used_surrogate,
                               accepted=new is not state)

    def counters(self) -> dict:
        return {
            "steps": self.steps,
            "surrogate_steps": self.surrogate_steps,
            "refine_random": self.refine_random,
            "refine_beta": self.refine_beta,
            "refine_fallback": self.refine_fallback,
        }


def fit_surrogate_kernel(model: PerformanceModel, binning: Binning, seed: int,
                         initial_design: int, gamma: float, beta_max: float,
                         p: int, prop: Proposal,
                         ledger: EvalLedger) -> SurrogateKernel:
    """Surrogate set-up of a run: evaluate initial_design prior draws from
    the RNG stream [seed, 1] into a fresh store, calibrate the lengthscales
    on them once, and return the kernel over that store. The design's true
    evaluations are charged to ledger, which the kernel then keeps."""
    rng = np.random.default_rng([seed, 1])
    store = EvaluationStore(model.dimension)
    for x in sample_prior(model, rng, initial_design):
        store.insert(x, evaluate(model, x, ledger))
    lengths = calibrate_lengthscales(store.points, store.values, p)
    return SurrogateKernel(model, store, binning, gamma, beta_max, lengths, p,
                           prop, ledger)
