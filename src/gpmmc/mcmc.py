"""The pieces of a random-walk Metropolis step on the biased target density
q(x) = p(x) / theta_i(y(x)), zero where y(x) leaves the binned range.

The engine's iteration loop (engine.py) runs the step itself: it draws the
candidate with a kernel's Proposal, asks the kernel for the candidate's
output, scores it with ``log_bias_density`` (the one definition of log q)
and applies the accept rule. A step kernel supplies only the output:
ExactKernel below evaluates the true model, SurrogateKernel in
``surrogate.py`` serves a local prediction where it can. Each step's
StepRecord names where the output came from as its cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binning import Binning
from .problem import EvalLedger, PerformanceModel, evaluate, log_prior_density

__all__ = ["Proposal", "StepRecord", "log_bias_density", "ExactKernel"]


@dataclass(frozen=True)
class Proposal:
    """Symmetric Gaussian random-walk proposal: the candidate is x + scale * z
    with z standard normal. scale is one value for every coordinate, kept as
    a 0-d array (numpy multiplies that into a vector faster than a length-1
    one), or one value per coordinate."""

    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        if np.any(self.scale <= 0) or not np.all(np.isfinite(self.scale)):
            raise ValueError("proposal scales must be positive and finite")


@dataclass(slots=True)
class StepRecord:
    """What one step did. cause, the one record of where the candidate's
    output came from, is "chain" (ExactKernel) or one of SurrogateKernel's
    causes; run_mmc counts them into MmcResult.causes."""

    cause: str
    beta: float | None
    accepted: bool


def log_bias_density(log_theta: list[float], binning: Binning,
                     model: PerformanceModel, x: np.ndarray, y: float) -> float:
    """log q(x) = log p(x) - log_theta[i] at output bin i of y, or -inf when
    y falls outside the binned range: the chain never enters such a state."""
    i = binning.index(y)
    if i is None:
        return -math.inf
    return log_prior_density(model, x) - log_theta[i]


class ExactKernel:
    """Step kernel that evaluates the true model at every candidate."""

    def __init__(self, model: PerformanceModel, binning: Binning,
                 prop: Proposal, ledger: EvalLedger):
        self.model = model
        self.binning = binning
        self.prop = prop
        self.ledger = ledger

    def step(self, x_new: np.ndarray, gate: float, u: float, log_q: float,
             log_theta: list[float]) -> tuple[float, str, None]:
        """The output at the candidate x_new for the engine's Metropolis
        step: one true evaluation, charged to the ledger, with cause "chain"
        and no beta. The step's gate and accept uniforms, the state's log q
        and the log weights are the engine's; this kernel needs none."""
        return evaluate(self.model, x_new, self.ledger), "chain", None
