"""Random-walk Metropolis-Hastings over the biased target density.

Both step kernels in this package (the exact one below and the surrogate one
in ``surrogate.py``) consume the identical per-step RNG layout:

    1. one standard-normal vector for the proposal,
    2. one uniform for the refinement gate,
    3. one uniform for the accept decision.

The exact kernel has no refinement gate, so it draws and discards slot 2.
Keeping the layout fixed makes a surrogate run with refine probability 1
replay the exact kernel's trajectory step for step from the same seed, which
is the cheapest end-to-end correctness check the surrogate machinery has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import EvalLedger, PerformanceModel, evaluate

__all__ = ["ChainState", "Proposal", "StepRecord", "propose",
           "metropolis_accept", "mh_step", "ExactKernel"]

Target = Callable[[np.ndarray, float], float]


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
    """Symmetric Gaussian random-walk proposal with per-coordinate scale."""

    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale",
                           np.atleast_1d(np.asarray(self.scale, dtype=float)))
        if np.any(self.scale <= 0) or not np.all(np.isfinite(self.scale)):
            raise ValueError("proposal scales must be positive and finite")

    @staticmethod
    def isotropic(scale: float, dimension: int) -> "Proposal":
        return Proposal(np.full(dimension, float(scale)))


@dataclass(slots=True)
class StepRecord:
    """What one kernel step did, for diagnostics and run logs."""

    used_surrogate: bool
    beta: float | None
    refined: bool
    accepted: bool


def propose(rng: np.random.Generator, x: np.ndarray, prop: Proposal) -> np.ndarray:
    """Candidate point x + scale * z with z standard normal."""
    return x + prop.scale * rng.standard_normal(x.size)


def metropolis_accept(rng: np.random.Generator, state: ChainState,
                      x_new: np.ndarray, y_new: float,
                      log_q_new: float) -> ChainState:
    """The accept decision of both step kernels, drawing RNG slot 3.

    Returns a new ChainState on acceptance and the input object unchanged on
    rejection, so callers can detect the decision by identity. Candidates
    whose target density is zero (log_q of -inf, e.g. output outside the
    binned range) are always rejected; the chain never occupies such a state.
    """
    u = rng.random()
    if log_q_new == -math.inf:
        return state
    # u == 0.0 cannot fail the comparison: log(0) is -inf < finite ratio.
    if u == 0.0 or math.log(u) < log_q_new - state.log_q:
        return ChainState(x=x_new, y=y_new, log_q=log_q_new)
    return state


def mh_step(rng: np.random.Generator, state: ChainState, target: Target,
            model: PerformanceModel, prop: Proposal,
            ledger: EvalLedger | None = None) -> ChainState:
    """One Metropolis step with a true model evaluation at the candidate;
    see metropolis_accept for the decision and the return value."""
    x_new = propose(rng, state.x, prop)
    y_new = evaluate(model, x_new, ledger)
    rng.random()  # refinement-gate slot, unused here; see module docstring
    return metropolis_accept(rng, state, x_new, y_new, target(x_new, y_new))


class ExactKernel:
    """Step kernel that evaluates the true model at every candidate."""

    def __init__(self, model: PerformanceModel, prop: Proposal,
                 ledger: EvalLedger):
        self.model = model
        self.prop = prop
        self.ledger = ledger

    def step(self, rng: np.random.Generator, state: ChainState,
             target: Target) -> tuple[ChainState, StepRecord]:
        new = mh_step(rng, state, target, self.model, self.prop, self.ledger)
        rec = StepRecord(used_surrogate=False, beta=None, refined=False,
                         accepted=new is not state)
        return new, rec

    def counters(self) -> dict:
        """Cost breakdown beyond the ledger; the exact kernel has none."""
        return {}
