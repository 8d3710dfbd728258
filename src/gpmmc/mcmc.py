"""The pieces of a random-walk Metropolis step on the biased target density
q(x) = p(x) / theta_i(y(x)), zero where y(x) leaves the binned range.

The engine's iteration loop (engine.py) runs the step itself: it draws the
candidate with the run's proposal scale (MmcConfig.proposal_scale), asks the
kernel for the candidate's output, scores it with ``log_bias_density`` (the
one definition of log q) and applies ``accepts`` (the one accept rule). A
step kernel supplies only the output and names where it came from, its
cause: ExactKernel below evaluates the true model, SurrogateKernel in
``surrogate.py`` serves a local prediction where it can. Each kernel class
declares its causes (CAUSES) and those that cost no true evaluation (SERVED).
"""

from __future__ import annotations

import math

import numpy as np

from .binning import Binning
from .problem import EvalLedger, PerformanceModel, evaluate, log_prior_density

__all__ = ["log_bias_density", "accepts", "ExactKernel"]


def log_bias_density(log_theta: list[float], binning: Binning,
                     model: PerformanceModel, x: np.ndarray, y: float) -> float:
    """log q(x) = log p(x) - log_theta[i] at output bin i of y, or -inf when
    y falls outside the binned range: the chain never enters such a state."""
    i = binning.index(y)
    if i is None:
        return -math.inf
    return log_prior_density(model, x) - log_theta[i]


def accepts(u: float, log_q: float,
            log_q_new: float | np.ndarray) -> bool | np.ndarray:
    """The Metropolis accept rule at uniform u, from a state of log target
    log_q: log_q_new - log_q > log u, and at u == 0 (log u = -inf) every
    log_q_new but -inf. A float log_q_new gives a bool, an array of them
    (one per candidate bin, say) a bool array of the same decisions."""
    if u == 0.0:
        return log_q_new != -math.inf
    return log_q_new - log_q > math.log(u)


class ExactKernel:
    """Step kernel that evaluates the true model at every candidate: its one
    cause, "chain", costs a true evaluation."""

    CAUSES = ("chain",)
    SERVED = ()

    def __init__(self, model: PerformanceModel, binning: Binning,
                 ledger: EvalLedger):
        self.model = model
        self.binning = binning
        self.ledger = ledger

    def step(self, x_new: np.ndarray, gate: float, u: float, log_q: float,
             log_theta: list[float]) -> tuple[float, str, None]:
        """The output at the candidate x_new for the engine's Metropolis
        step: one true evaluation, charged to the ledger, with cause "chain"
        and no beta. The step's gate and accept uniforms, the state's log q
        and the log weights are the engine's; this kernel needs none."""
        return evaluate(self.model, x_new, self.ledger), "chain", None
