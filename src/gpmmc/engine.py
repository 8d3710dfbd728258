"""Multicanonical iteration: reweighted sampling, weight updates, and the
final density estimate.

The engine samples the biased density q(x) = p(x) / theta_i(y(x)) restricted
to inputs whose output falls in the binned range (see mcmc.log_bias_density)
by random-walk Metropolis. A run's record is two (iterations, bins) arrays:
row k of weights is the table iteration k sampled with, row k of counts its
tally of in-range samples. After every iteration it pools the rows so far
into one estimate of the bin probabilities (the multiple histogram method of
Ferrenberg and Swendsen); that estimate sets the next row of weights and,
after the last iteration and divided by the bin width, is the output
density. The weights converge toward the bin probabilities, which makes the
sampled histogram flat and spreads samples evenly across the whole output
range instead of concentrating them near the mode.

The Metropolis step is written once, in the iteration loop _sample, for
both step kernels, which supply only the candidate's output (kernel.step);
it decides with mcmc.accepts. The engine owns the rest of the step: the
proposal scale comes from the run's MmcConfig, and the step's cause, beta
and decision go to on_step as arguments. Each step draws from the chain's
generator, before it asks the kernel:

    1. one standard-normal vector for the proposal,
    2. one uniform for the surrogate kernel's refinement gate,
    3. one uniform u for the accept decision.

The exact kernel ignores slot 2; the surrogate kernel's refinement rule
needs u: it asks mcmc.accepts which bins accept at this u. No kernel draws,
so a surrogate run with refine probability 1 replays the exact kernel's
trajectory step for step from the same seed, the cheapest end-to-end check
of the surrogate machinery.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .binning import Binning, tally
from .mcmc import accepts, log_bias_density
from .problem import EvalLedger, PerformanceModel, evaluate, sample_prior

__all__ = ["MmcConfig", "MmcResult", "combined_probability", "update_weights",
           "estimate_moments", "flatness_cv", "run_mmc", "run_plain_mc"]

MAX_START_DRAWS = 1000
# Fixed-point iteration of the multiple-histogram estimate: stop once no bin
# probability moves by more than this relative amount, or after the cap.
COMBINE_RTOL = 1e-13
COMBINE_MAX_SWEEPS = 100_000
# Prior draws run_plain_mc holds at once.
PLAIN_MC_CHUNK = 2**16


@dataclass(frozen=True)
class MmcConfig:
    """Run parameters for the multicanonical iteration.

    proposal_scale is the random-walk step: a candidate is x + scale * z
    with z standard normal. A float is one scale for every coordinate; a
    vector, one per coordinate, is kept as a tuple of floats so the config
    stays hashable. Every scale must be positive and finite. burn_in steps
    are discarded at the start of every iteration; None becomes a tenth of
    the per-iteration sample count when the config is made; seed must be
    nonnegative. The counts and the seed must be integers, Python or numpy
    ones, so a bad one is refused before a run draws anything.
    """

    iterations: int
    samples_per_iteration: int
    proposal_scale: float | tuple[float, ...]
    burn_in: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "samples_per_iteration", "burn_in",
                     "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) and not (
                    name == "burn_in" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.samples_per_iteration < 1:
            raise ValueError("need at least one sample per iteration")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in",
                               self.samples_per_iteration // 10)
        if self.burn_in < 0 or self.burn_in >= self.samples_per_iteration:
            raise ValueError("burn_in must lie in [0, samples_per_iteration)")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        scale = np.asarray(self.proposal_scale, dtype=float)
        if scale.ndim > 1 or scale.size < 1:
            raise ValueError("proposal_scale must be one value or a "
                             f"non-empty vector, got shape {scale.shape}")
        if np.any(scale <= 0) or not np.all(np.isfinite(scale)):
            raise ValueError("proposal scales must be positive and finite")
        object.__setattr__(self, "proposal_scale", float(scale)
                           if scale.ndim == 0 else tuple(scale.tolist()))


@dataclass
class MmcResult:
    """Everything a run produced, in iteration order.

    weights and counts are float and integer (iterations, bins) arrays:
    row k of weights is the table iteration k sampled with, all ones for
    k = 0 and update_weights of rows 0..k-1 after that; row k of counts is
    its tally, which sums to samples_per_iteration. pdf is
    combined_probability of the two over the bin width (pdf * delta gives
    the bin probabilities) and moments are its moments. causes counts every
    step, burn-in included, by its cause: one entry per cause of
    kernel.CAUSES, in that order, zeros kept. The run's true-evaluation
    count stays on the kernel's ledger.
    """

    weights: np.ndarray
    counts: np.ndarray
    flatness: list[float]
    acceptance: list[float]
    pdf: np.ndarray
    moments: dict
    start_draws: int
    causes: dict


def combined_probability(weights: np.ndarray,
                         counts: np.ndarray) -> np.ndarray:
    """Bin probabilities pooled from every iteration's counts.

    weights and counts are (iterations, bins) arrays: row k of weights is
    the table theta_k iteration k sampled with, row k of counts its in-range
    tally H_k. Iteration k sampled bin i in proportion to P_i / theta_ki, so
    its share of N_k in-range samples estimates P_i / (theta_ki Z_k), with
    Z_k = sum_j P_j / theta_kj. The multiple-histogram estimate (Ferrenberg
    and Swendsen 1989) pools all of them,

        P_i = sum_k H_ki / sum_k N_k / (theta_ki Z_k),

    and is solved for P and the Z_k by fixed-point iteration from a uniform
    start. Bins no iteration visited get zero; the result sums to one. With
    one row each this is H_i theta_i / sum_j H_j theta_j. Arrays of other
    shapes, a weight that is not positive and finite, or a negative count
    raise ValueError; a row of counts with no samples, RuntimeError.
    """
    weights = np.asarray(weights, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if weights.ndim != 2 or weights.shape != counts.shape or not weights.size:
        raise ValueError("need weights and counts of one non-empty "
                         f"(iterations, bins) shape, got {weights.shape} "
                         f"and {counts.shape}")
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")
    if not np.all(counts >= 0):
        raise ValueError("counts must be nonnegative")
    n_k = counts.sum(axis=1)
    if np.any(n_k <= 0):
        raise RuntimeError("cannot estimate from an empty histogram")
    inv_theta = 1.0 / weights
    pooled = counts.sum(axis=0)
    p = (pooled > 0) / np.count_nonzero(pooled)
    for _ in range(COMBINE_MAX_SWEEPS):
        z = inv_theta @ p
        new = pooled / ((n_k / z) @ inv_theta)
        new /= new.sum()
        done = np.all(np.abs(new - p) <= COMBINE_RTOL * new)
        p = new
        if done:
            break
    return p


def update_weights(weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Multicanonical weight update from every iteration sampled so far:
    the next row of weights.

    weights and counts are the (iterations, bins) record combined_probability
    takes. Bins visited in any iteration move to their pooled probability
    estimate. Bins never visited drop to the smallest of those: nothing is
    known about them beyond "rarer than everything seen", and a larger
    weight would suppress the sampler's only route into them. The row is
    then rescaled to the total of the last row, pinning the sum to its
    iteration-zero value for the life of the run.
    """
    p = combined_probability(weights, counts)
    visited = p > 0
    pre = np.where(visited, p, np.min(p[visited]))
    return pre * (weights[-1].sum() / pre.sum())


def estimate_moments(pdf: np.ndarray, binning: Binning) -> dict:
    """Mean and central moments 2..5 by midpoint quadrature over the bins.

    Accepts any finite nonnegative density table (ValueError otherwise);
    the bin masses are renormalized before integrating, so an unnormalized
    estimate gains no bias here. A moment that is not finite (a power of the
    bin centres overflowed) is reported as None, so the result is valid
    JSON.
    """
    pdf = np.asarray(pdf, dtype=float)
    if pdf.shape != (binning.m,):
        raise ValueError("pdf length does not match the binning")
    if not np.all(np.isfinite(pdf)):
        raise ValueError("pdf entries must be finite")
    if np.any(pdf < 0):
        raise ValueError("pdf entries must be nonnegative")
    mass = pdf * binning.delta
    total = mass.sum()
    if total <= 0:
        raise RuntimeError("cannot take moments of an all-zero density")
    mass = mass / total
    centers = binning.centers
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(centers @ mass)
        dev = centers - mean
        out = {"mean": mean}
        out["variance"] = float((dev**2) @ mass)
        out["central3"] = float((dev**3) @ mass)
        out["central4"] = float((dev**4) @ mass)
        out["central5"] = float((dev**5) @ mass)
    return {k: v if math.isfinite(v) else None for k, v in out.items()}


def flatness_cv(counts: np.ndarray) -> float:
    """Coefficient of variation of the nonzero entries of one row of
    counts."""
    nz = counts[counts > 0]
    if nz.size == 0:
        return 0.0
    return float(nz.std() / nz.mean())


def _find_start(kernel, rng: np.random.Generator) -> tuple[np.ndarray, float, int]:
    """Prior draw of kernel.model whose output lands in kernel.binning's
    range, charged to kernel.ledger, with the number of draws it took. Gives
    up after MAX_START_DRAWS."""
    for attempt in range(1, MAX_START_DRAWS + 1):
        x = sample_prior(kernel.model, rng, 1)[0]
        y = evaluate(kernel.model, x, kernel.ledger)
        if kernel.binning.index(y) is not None:
            return x, y, attempt
    raise RuntimeError(
        f"no prior draw landed in the binned range after {MAX_START_DRAWS} tries; "
        "the range is likely far from the prior mass")


def _sample(kernel, scale: np.ndarray, rng: np.random.Generator,
            x: np.ndarray, y: float, log_theta: list[float], burn: int,
            ys: np.ndarray, causes: dict[str, int],
            on_step: Callable[[int, str, float | None, bool], None] | None,
            step_index: int) -> tuple[np.ndarray, float, int]:
    """Run burn + ys.size steps of kernel from the in-range state (x, y)
    under log_theta; return the last x and y and how many of the steps
    after the burn-in accepted, whose y values fill ys.

    A step's candidate is x + scale * z, accepted as mcmc.accepts decides:
    never at log_q_new = -inf (output out of range). A start or accepted
    state without a finite log q is a ValueError. Each step adds one to its
    cause's entry of causes, which must hold every cause the kernel returns
    (a KeyError otherwise), and on_step gets the step's index, numbered on
    from step_index, its cause, its beta and whether it moved.
    """
    model, binning, step = kernel.model, kernel.binning, kernel.step
    d = x.size
    normal, uniform = rng.standard_normal, rng.random
    target, accept, isfinite = log_bias_density, accepts, math.isfinite
    log_q = target(log_theta, binning, model, x, y)
    if not isfinite(log_q):
        raise ValueError("chain state must have finite log density")
    accepted = 0
    for t in range(-burn, ys.size):  # t < 0: burn-in, discarded
        x_new = x + scale * normal(d)
        gate = uniform()
        u = uniform()
        y_new, cause, beta = step(x_new, gate, u, log_q, log_theta)
        log_q_new = target(log_theta, binning, model, x_new, y_new)
        moved = accept(u, log_q, log_q_new)
        if moved:
            if not isfinite(log_q_new):
                raise ValueError("chain state must have finite log density")
            x, y, log_q = x_new, y_new, log_q_new
        causes[cause] += 1
        if on_step is not None:
            on_step(step_index, cause, beta, moved)
        step_index += 1
        if t >= 0:
            accepted += moved
            ys[t] = y
    return x, y, accepted


def run_mmc(kernel, config: MmcConfig,
            on_step: Callable[[int, str, float | None, bool], None]
            | None = None) -> MmcResult:
    """Run the full multicanonical iteration with the given step kernel.

    The kernel must expose step(x_new, gate, u, log_q, log_theta) -> (y,
    cause, beta), the output at a candidate for the engine's Metropolis
    step (_sample), and the model, binning and ledger it steps with, which
    the run uses too: to draw the start, tally the samples and charge every
    true evaluation. Its class must declare CAUSES, every cause its step
    returns, in the order MmcResult.causes lists them; a step with any
    other cause raises KeyError. log_theta is the iteration's log weights,
    as a list taken once per iteration. Candidates are formed with
    config.proposal_scale, as an array made once per run (0-d for one
    scale); a scale vector whose length is not the model's dimension is a
    ValueError before the first draw. The chain starts from an in-range
    prior draw, keeps its state across iterations, and discards
    config.burn_in steps at the start of each one. Samples are tallied from
    the y values the kernel reports into the rows of MmcResult.counts, so
    nothing is ever re-evaluated, and every step is counted by its cause.
    on_step, if given, is called after every step, burn-in included, as
    on_step(index, cause, beta, accepted). A fixed seed makes the result
    bit-identical across runs.
    """
    binning, d = kernel.binning, kernel.model.dimension
    scale = np.asarray(config.proposal_scale, dtype=float)
    if scale.size not in (1, d):
        raise ValueError(f"proposal_scale has {scale.size} entries, "
                         f"model dimension is {d}")
    if binning.m > config.samples_per_iteration:
        warnings.warn(
            f"samples per iteration ({config.samples_per_iteration}) below bin "
            f"count ({binning.m}); histograms will be sparse", stacklevel=2)
    rng = np.random.default_rng([config.seed, 0])
    x, y, start_draws = _find_start(kernel, rng)

    burn = config.burn_in
    n = config.samples_per_iteration
    weights = np.ones((config.iterations, binning.m))
    counts = np.zeros((config.iterations, binning.m), dtype=np.int64)
    flatness: list[float] = []
    acceptance: list[float] = []
    causes = dict.fromkeys(kernel.CAUSES, 0)
    ys = np.empty(n)

    for k in range(config.iterations):
        if k:
            weights[k] = update_weights(weights[:k], counts[:k])
        log_theta = [math.log(t) for t in weights[k]]
        # from the start point, or the last state under the new weights
        x, y, accepted = _sample(kernel, scale, rng, x, y, log_theta, burn,
                                 ys, causes, on_step, k * (burn + n))
        counts[k] = tally(binning, ys)
        flatness.append(flatness_cv(counts[k]))
        acceptance.append(accepted / n)

    pdf = combined_probability(weights, counts) / binning.delta
    return MmcResult(
        weights=weights,
        counts=counts,
        flatness=flatness,
        acceptance=acceptance,
        pdf=pdf,
        moments=estimate_moments(pdf, binning),
        start_draws=start_draws,
        causes=causes,
    )


def run_plain_mc(model: PerformanceModel, binning: Binning, n: int,
                 seed: int, ledger: EvalLedger) -> np.ndarray:
    """In-range counts (tally) of n independent prior draws.

    Draws, evaluates and tallies PLAIN_MC_CHUNK draws at a time, each chunk
    one block for the true model; the RNG stream [seed, 0] yields the same
    draws in chunks as in one block, so the summed counts equal one tally
    of all n. Draws outside the range are not counted; the caller knows n.
    The density is combined_probability of the counts under all-one
    weights over the bin width, the one a run's histogram.csv holds.
    n must be an integer, a Python or a numpy one.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"need an integer n >= 1 samples, got {n!r}")
    rng = np.random.default_rng([seed, 0])
    counts = np.zeros(binning.m, dtype=np.int64)
    for start in range(0, n, PLAIN_MC_CHUNK):
        xs = sample_prior(model, rng, min(PLAIN_MC_CHUNK, n - start))
        counts += tally(binning, evaluate(model, xs, ledger))
    return counts
