"""Metropolis kernel that answers most candidate evaluations from a local
surrogate and refines, with a true evaluation, only when serving the
prediction could make the wrong transition with probability above beta_max.

The target sees a value only through its bin (the log_theta lookup in
mcmc.log_bias_density). A prediction (mu, sigma) is served when its bin beta,

    beta = Phi(lo_edge; mu, sigma) + 1 - Phi(hi_edge; mu, sigma),

the predictive mass outside the bin mu falls in, is at most beta_max. Above
that, the kernel screens the candidate as delayed-acceptance MCMC does
(Christen & Fox 2005), with the accept uniform u already drawn: it refines
a predicted acceptance, since a wrong bin would be kept, and a predicted
rejection only if the predictive mass in the bins that accept at u exceeds
beta_max; else the rejection is served. The bins that accept at u are the
engine's own rule, mcmc.accepts, asked for every bin at once. So every state
kept from a prediction has bin beta <= beta_max. Refinements feed the store,
shrinking the surrogate's uncertainty exactly where the chain visits. An
independent gate evaluates the true model with small probability gamma
regardless of beta, so the store keeps growing even where the surrogate is
confident; gamma = 1 degenerates to the exact kernel and replays its
trajectory from the same seed, since the engine draws every step's randoms
in one layout for both kernels (see engine.py). The kernel draws nothing and
counts nothing; the engine hands it the step's gate and accept uniforms, and
counts each step under the cause the kernel returns, one of
SurrogateKernel.CAUSES.

Chains revisit the same regions, so most candidates share their support set
with an earlier one (in the 2-D two-center run over 90% of them). In 10-D
few do, but most candidates' nearest evaluations lie in the support of a
model already built for an earlier candidate, not always the last one, and
most of the rest lack only one or two of them from some cached model. The
kernel asks its store for each local model (EvaluationStore.local_model),
which caches its models, grows a cached one by the few nearest evaluations
it lacks when none serves the candidate as it is (in 10-D, not in 2-D), and
builds one only when neither will do; gp.py says when.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .binning import Binning
from .errors import SurrogateError
from .gp import EvaluationStore, _check_exponent, calibrate_lengthscales
from .mcmc import accepts
from .problem import (EvalLedger, PerformanceModel, evaluate,
                      log_prior_density, sample_prior)

__all__ = ["misassignment_probability", "SurrogateKernel",
           "fit_surrogate_kernel"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z * _INV_SQRT2))


def _check_settings(gamma: float, beta_max: float) -> None:
    """ValueError unless gamma lies in [0, 1] and beta_max in (0, 1).
    SurrogateKernel runs these checks when it is built, fit_surrogate_kernel
    before its design, and a run config when it is parsed, so a bad setting
    costs no true evaluation."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if not 0.0 < beta_max < 1.0:
        raise ValueError(f"beta_max must lie in (0, 1), got {beta_max}")


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
    beta_max the per-step bound on a wrong transition of a served step. The
    frozen correlation kernel is the store's. A step's beta is what the rule
    compared with beta_max: the bin beta, or on a screened rejection the
    mass in the accepting bins.

    Each step's cause, one of CAUSES, says what it did: "served" its
    prediction, "screened" (served a prediction as a rejection although its
    bin beta exceeds beta_max), or refine, by the random gate
    ("refine_random"), by beta above threshold ("refine_beta") or after a
    surrogate build failure ("refine_fallback"). Only the three refine
    causes evaluate the true model; SERVED names the other two. Each local
    posterior made ends served, screened or refine_beta. The kernel itself
    keeps only the policy and its store; run_mmc tallies the causes, which
    a run's summary.json lists.

    Local models come from the store (EvaluationStore.local_model), which
    caches them. A growth that raises SurrogateError falls back to a
    build; a build that raises SurrogateError is not cached, so a step
    that meets it again, with no cached model to serve it, refines with
    cause refine_fallback.
    """

    CAUSES = ("served", "screened", "refine_random", "refine_beta",
              "refine_fallback")
    SERVED = ("served", "screened")

    def __init__(self, model: PerformanceModel, store: EvaluationStore,
                 binning: Binning, gamma: float, beta_max: float,
                 ledger: EvalLedger):
        _check_settings(gamma, beta_max)
        self.model = model
        self.store = store
        self.binning = binning
        self.gamma = gamma
        self.beta_max = beta_max
        self.ledger = ledger

    def step(self, x_new: np.ndarray, gate: float, u: float, log_q: float,
             log_theta: list[float]) -> tuple[float, str, float | None]:
        """The output at the candidate x_new for the engine's Metropolis step,
        with the step's cause and beta. gate is the step's refinement-gate
        uniform and u its accept uniform, both drawn by the engine before
        any local model is built, so a step the gate refines needs no model
        and the refinement rule sees u; log_q is the current state's log
        target and log_theta the iteration's log weights. A served or
        screened step returns the prediction mu; a refinement evaluates the
        true model, charges the ledger and stores the evaluation."""
        beta = None
        if gate < self.gamma:
            cause = "refine_random"
        else:
            try:
                gp, dist = self.store.local_model(x_new)
                mu, var = gp.posterior(x_new, dist)
            except SurrogateError:
                cause = "refine_fallback"
            else:
                sigma = math.sqrt(var)
                beta = misassignment_probability(mu, sigma, self.binning)
                if beta <= self.beta_max:
                    return mu, "served", beta
                beta = self._flip_probability(u, log_q, x_new, log_theta,
                                              mu, sigma, beta)
                if beta <= self.beta_max:
                    return mu, "screened", beta
                cause = "refine_beta"
        y_new = evaluate(self.model, x_new, self.ledger)
        self.store.insert(x_new, y_new)
        return y_new, cause, beta

    def _flip_probability(self, u: float, log_q: float, x_new: np.ndarray,
                          log_theta: list[float], mu: float, sigma: float,
                          beta: float) -> float:
        """Probability that serving (mu, sigma), whose bin beta exceeds
        beta_max, makes the wrong transition: beta for a predicted
        acceptance, else the predictive mass in the bins where
        mcmc.accepts, at this u, takes the candidate's log q in that bin."""
        accepting = accepts(u, log_q, log_prior_density(self.model, x_new)
                            - np.asarray(log_theta))
        i = self.binning.index(mu)
        if i is not None and accepting[i]:
            return beta
        cdf = ndtr((self.binning.edges - mu) / sigma)
        return float(np.diff(cdf)[accepting].sum())


def fit_surrogate_kernel(model: PerformanceModel, binning: Binning, seed: int,
                         initial_design: int, gamma: float, beta_max: float,
                         p: int, ledger: EvalLedger) -> SurrogateKernel:
    """Surrogate set-up of a run: evaluate initial_design prior draws from
    the RNG stream [seed, 1] as one block, calibrate the lengthscales on
    them, and return the kernel over a fresh store of them in that metric.
    The design's true evaluations are charged to ledger, which the kernel
    then keeps. The exponent p, gamma, beta_max and initial_design >= 2 are
    checked before any evaluation."""
    _check_exponent(p)
    _check_settings(gamma, beta_max)
    if initial_design < 2:
        raise ValueError("need at least two points to calibrate lengthscales")
    rng = np.random.default_rng([seed, 1])
    X = sample_prior(model, rng, initial_design)
    y = evaluate(model, X, ledger)
    store = EvaluationStore(model.dimension,
                            calibrate_lengthscales(X, y, p), p)
    for xi, yi in zip(X, y):
        store.insert(xi, yi)
    return SurrogateKernel(model, store, binning, gamma, beta_max, ledger)
