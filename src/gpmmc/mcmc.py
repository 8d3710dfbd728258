"""Random-walk Metropolis-Hastings over the biased target density
q(x) = p(x) / theta_i(y(x)), zero where y(x) leaves the binned range.

Both step kernels in this package, ExactKernel below and SurrogateKernel in
``surrogate.py``, hold the model and the binning and are handed the
iteration's log weights log_theta at every step. They build the candidate
with ``propose``, score it with ``log_bias_density`` (the one definition of
log q) and decide with ``metropolis_accept``; they differ only in where the
candidate's output comes from, which each step's StepRecord names as its
cause. Both consume the identical per-step RNG layout:

    1. one standard-normal vector for the proposal,
    2. one uniform for the refinement gate,
    3. one uniform u for the accept decision.

The exact kernel has no refinement gate, so it draws and discards slot 2.
The surrogate kernel draws slot 3 right after slot 2, before it decides
whether to refine, because its rule asks which bins would accept at this u.
Nothing between the two draws consumes random numbers, so the stream is the
same as drawing u at the decision, and ``metropolis_accept`` takes u itself.
Keeping the layout fixed makes a surrogate run with refine probability 1
replay the exact kernel's trajectory step for step from the same seed, which
is the cheapest end-to-end correctness check the surrogate machinery has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binning import Binning
from .problem import EvalLedger, PerformanceModel, evaluate, log_prior_density

__all__ = ["ChainState", "Proposal", "StepRecord", "propose",
           "log_bias_density", "metropolis_accept", "ExactKernel"]


@dataclass(slots=True)
class ChainState:
    """Current chain position with its model value and log target density."""

    x: np.ndarray
    y: float
    log_q: float

    def __post_init__(self):
        if not math.isfinite(self.log_q):
            raise ValueError("chain state must have finite log density")


@dataclass(frozen=True)
class Proposal:
    """Symmetric Gaussian random-walk proposal. scale is one value for every
    coordinate, kept as a 0-d array (numpy multiplies that into a vector
    faster than a length-1 one), or one value per coordinate."""

    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        if np.any(self.scale <= 0) or not np.all(np.isfinite(self.scale)):
            raise ValueError("proposal scales must be positive and finite")


@dataclass(slots=True)
class StepRecord:
    """What one kernel step did. cause, the one record of where the
    candidate's output came from, is "chain" (ExactKernel) or one of
    SurrogateKernel's causes; run_mmc counts them into MmcResult.causes."""

    cause: str
    beta: float | None
    accepted: bool


def propose(rng: np.random.Generator, x: np.ndarray, prop: Proposal) -> np.ndarray:
    """Candidate point x + scale * z with z standard normal."""
    return x + prop.scale * rng.standard_normal(x.size)


def log_bias_density(log_theta: list[float], binning: Binning,
                     model: PerformanceModel, x: np.ndarray, y: float) -> float:
    """log q(x) = log p(x) - log_theta[i] at output bin i of y, or -inf when
    y falls outside the binned range: the chain never enters such a state."""
    i = binning.index(y)
    if i is None:
        return -math.inf
    return log_prior_density(model, x) - log_theta[i]


def metropolis_accept(u: float, state: ChainState, x_new: np.ndarray,
                      y_new: float, log_q_new: float) -> ChainState:
    """The accept decision of both step kernels on the uniform u, RNG slot 3:
    accept when log u < log_q_new - state.log_q.

    Returns a new ChainState on acceptance and the input object unchanged on
    rejection, so callers can detect the decision by identity. Candidates
    whose target density is zero (log_q of -inf, e.g. output outside the
    binned range) are always rejected; the chain never occupies such a state.
    """
    if log_q_new == -math.inf:
        return state
    # u == 0.0 cannot fail the comparison: log(0) is -inf < finite ratio.
    if u == 0.0 or math.log(u) < log_q_new - state.log_q:
        return ChainState(x=x_new, y=y_new, log_q=log_q_new)
    return state


class ExactKernel:
    """Step kernel that evaluates the true model at every candidate."""

    def __init__(self, model: PerformanceModel, binning: Binning,
                 prop: Proposal, ledger: EvalLedger):
        self.model = model
        self.binning = binning
        self.prop = prop
        self.ledger = ledger

    def step(self, rng: np.random.Generator, state: ChainState,
             log_theta: list[float]) -> tuple[ChainState, StepRecord]:
        """One Metropolis step with a true model evaluation at the candidate;
        see metropolis_accept for the decision."""
        x_new = propose(rng, state.x, self.prop)
        y_new = evaluate(self.model, x_new, self.ledger)
        rng.random()  # refinement-gate slot, unused here; see module docstring
        new = metropolis_accept(rng.random(), state, x_new, y_new,
                                log_bias_density(log_theta, self.binning,
                                                 self.model, x_new, y_new))
        return new, StepRecord(cause="chain", beta=None,
                               accepted=new is not state)
