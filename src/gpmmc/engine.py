"""Multicanonical iteration: reweighted sampling, weight updates, and the
final density estimate.

The engine samples the biased density q(x) = p(x) / theta_i(y(x)) restricted
to inputs whose output falls in the binned range, handing the step kernel
each iteration's log theta table (see mcmc.log_bias_density). After every
iteration it pools the histograms of all iterations so far, each under the
weights it was sampled with, into one estimate of the bin probabilities (the
multiple histogram method of Ferrenberg and Swendsen); that estimate sets
the next weights and, after the last iteration and divided by the bin width,
is the output density. The weights converge toward the bin probabilities,
which makes the sampled histogram flat and spreads samples evenly across the
whole output range instead of concentrating them near the mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .binning import Binning, Histogram, tally
from .mcmc import ChainState, StepRecord, log_bias_density
from .problem import EvalLedger, PerformanceModel, evaluate, sample_prior

__all__ = ["WeightTable", "MmcConfig", "MmcResult", "PlainMcResult",
           "combined_probability", "update_weights", "estimate_moments",
           "flatness_cv", "run_mmc", "run_plain_mc"]

MAX_START_DRAWS = 1000
# Fixed-point iteration of the multiple-histogram estimate: stop once no bin
# probability moves by more than this relative amount, or after the cap.
COMBINE_RTOL = 1e-13
COMBINE_MAX_SWEEPS = 100_000
# Prior draws run_plain_mc holds at once.
PLAIN_MC_CHUNK = 2**16


@dataclass
class WeightTable:
    """Positive per-bin weights theta."""

    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 1 or self.theta.size < 1:
            raise ValueError("theta must be a non-empty 1-D array")
        if np.any(self.theta <= 0) or not np.all(np.isfinite(self.theta)):
            raise ValueError("weights must be positive and finite")

    @staticmethod
    def flat(m: int) -> "WeightTable":
        return WeightTable(np.ones(m))


@dataclass(frozen=True)
class MmcConfig:
    """Run parameters for the multicanonical iteration.

    burn_in defaults to a tenth of the per-iteration sample count and is
    discarded at the start of every iteration. The proposal belongs to the
    step kernel.
    """

    iterations: int
    samples_per_iteration: int
    burn_in: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.samples_per_iteration < 1:
            raise ValueError("need at least one sample per iteration")
        if self.effective_burn_in < 0 or self.effective_burn_in >= self.samples_per_iteration:
            raise ValueError("burn_in must lie in [0, samples_per_iteration)")

    @property
    def effective_burn_in(self) -> int:
        if self.burn_in is None:
            return self.samples_per_iteration // 10
        return self.burn_in


@dataclass
class MmcResult:
    """Everything a run produced, in iteration order.

    weights[k] is the table in force while iteration k sampled, the flat
    table for k = 0 and the update from iterations 0..k-1 after that. pdf is
    combined_probability over the bin width (pdf * delta gives the bin
    probabilities) and moments are its moments. The run's evaluation counts
    stay on the kernel's ledger.
    """

    weights: list[WeightTable]
    histograms: list[Histogram]
    flatness: list[float]
    acceptance: list[float]
    pdf: np.ndarray
    moments: dict
    start_draws: int


@dataclass
class PlainMcResult:
    """Baseline estimate from independent prior draws."""

    histogram: Histogram
    pdf: np.ndarray
    in_range_fraction: float


def combined_probability(tables: Sequence[WeightTable],
                         hists: Sequence[Histogram]) -> np.ndarray:
    """Bin probabilities pooled from every iteration's histogram.

    Iteration k sampled bin i in proportion to P_i / theta_ki, so its share
    of N_k in-range samples estimates P_i / (theta_ki Z_k), with
    Z_k = sum_j P_j / theta_kj. The multiple-histogram estimate (Ferrenberg
    and Swendsen 1989) pools all of them,

        P_i = sum_k H_ki / sum_k N_k / (theta_ki Z_k),

    and is solved for P and the Z_k by fixed-point iteration from a uniform
    start. Bins no iteration visited get zero; the result sums to one. With
    one table and one histogram this is H_i theta_i / sum_j H_j theta_j.
    """
    if not hists or len(tables) != len(hists):
        raise ValueError("need one weight table per histogram, and at least one")
    m = tables[0].theta.size
    if any(t.theta.size != m for t in tables) or any(
            h.counts.size != m for h in hists):
        raise ValueError("histogram and weight table sizes differ")
    if any(h.total <= 0 for h in hists):
        raise RuntimeError("cannot estimate from an empty histogram")
    counts = np.array([h.counts for h in hists], dtype=float)
    inv_theta = 1.0 / np.array([t.theta for t in tables])
    n_k = counts.sum(axis=1)
    if np.any(n_k <= 0):
        raise RuntimeError("no in-range samples; density undefined")
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


def update_weights(tables: Sequence[WeightTable],
                   hists: Sequence[Histogram]) -> WeightTable:
    """Multicanonical weight update from every histogram sampled so far.

    tables[k] is the table iteration k sampled with and hists[k] its
    histogram. Bins visited in any iteration move to their pooled
    probability estimate (combined_probability). Bins never visited drop to
    the smallest of those: nothing is known about them beyond "rarer than
    everything seen", and a larger weight would suppress the sampler's only
    route into them. The whole table is then rescaled to the total of the
    last table, pinning the sum to its iteration-zero value for the life of
    the run.
    """
    p = combined_probability(tables, hists)
    visited = p > 0
    pre = np.where(visited, p, np.min(p[visited]))
    scale = tables[-1].theta.sum() / pre.sum()
    return WeightTable(pre * scale)


def estimate_moments(pdf: np.ndarray, binning: Binning) -> dict:
    """Mean and central moments 2..5 by midpoint quadrature over the bins.

    Accepts any nonnegative density table; the bin masses are renormalized
    before integrating, so an unnormalized estimate gains no bias here. A
    moment that is not finite (a power of the bin centres overflowed) is
    reported as None, so the result is valid JSON.
    """
    pdf = np.asarray(pdf, dtype=float)
    if pdf.shape != (binning.m,):
        raise ValueError("pdf length does not match the binning")
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


def flatness_cv(hist: Histogram) -> float:
    """Coefficient of variation of the nonzero bin counts."""
    nz = hist.counts[hist.counts > 0]
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


def run_mmc(kernel, config: MmcConfig,
            on_step: Callable[[int, StepRecord], None] | None = None) -> MmcResult:
    """Run the full multicanonical iteration with the given step kernel.

    The kernel must expose step(rng, state, log_theta) -> (state, record)
    and the model, binning and ledger it steps with, which the run uses too:
    to draw the start, tally the samples and charge every true evaluation.
    log_theta is the iteration's log weights, as a list taken once per
    iteration. The chain starts from an in-range prior draw, keeps its state
    across iterations, and discards config.effective_burn_in steps at the
    start of each one. Samples are tallied from the y values the kernel
    reports, so nothing is ever re-evaluated. A fixed seed makes the result
    bit-identical across runs.
    """
    model, binning = kernel.model, kernel.binning
    if binning.m > config.samples_per_iteration:
        warnings.warn(
            f"samples per iteration ({config.samples_per_iteration}) below bin "
            f"count ({binning.m}); histograms will be sparse", stacklevel=2)
    rng = np.random.default_rng([config.seed, 0])
    x0, y0, start_draws = _find_start(kernel, rng)

    weights = WeightTable.flat(binning.m)
    tables: list[WeightTable] = []
    hists: list[Histogram] = []
    flatness: list[float] = []
    acceptance: list[float] = []
    burn = config.effective_burn_in
    n = config.samples_per_iteration
    step_index = 0
    state: ChainState | None = None

    for k in range(config.iterations):
        if k:
            weights = update_weights(tables, hists)
        log_theta = [math.log(t) for t in weights.theta]
        # the start point, or the same point under new weights
        x, y = (x0, y0) if state is None else (state.x, state.y)
        state = ChainState(x, y, log_bias_density(log_theta, binning, model,
                                                  x, y))

        accepted = 0
        ys = np.empty(n)
        for t in range(-burn, n):  # t < 0: burn-in, discarded
            state, rec = kernel.step(rng, state, log_theta)
            if on_step is not None:
                on_step(step_index, rec)
            step_index += 1
            if t >= 0:
                accepted += rec.accepted
                ys[t] = state.y

        hist = tally(binning, ys)
        tables.append(weights)
        hists.append(hist)
        flatness.append(flatness_cv(hist))
        acceptance.append(accepted / n)

    pdf = combined_probability(tables, hists) / binning.delta
    return MmcResult(
        weights=tables,
        histograms=hists,
        flatness=flatness,
        acceptance=acceptance,
        pdf=pdf,
        moments=estimate_moments(pdf, binning),
        start_draws=start_draws,
    )


def run_plain_mc(model: PerformanceModel, binning: Binning, n: int,
                 seed: int, ledger: EvalLedger) -> PlainMcResult:
    """Histogram density from n independent prior draws.

    Draws, evaluates and tallies PLAIN_MC_CHUNK draws at a time, each chunk
    one block for the true model; the RNG stream [seed, 0] yields the same
    draws in chunks as in one block, so the summed histogram equals one
    tally of all n. The pdf is counts / (n * delta), so it integrates to the
    in-range fraction rather than one; with a binned range that covers
    essentially all the output mass the two coincide.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng([seed, 0])
    chunks = []
    for start in range(0, n, PLAIN_MC_CHUNK):
        xs = sample_prior(model, rng, min(PLAIN_MC_CHUNK, n - start))
        chunks.append(tally(binning, evaluate(model, xs, ledger)))
    hist = Histogram(counts=sum(h.counts for h in chunks), total=n,
                     overflow_low=sum(h.overflow_low for h in chunks),
                     overflow_high=sum(h.overflow_high for h in chunks))
    pdf = hist.counts / (n * binning.delta)
    return PlainMcResult(histogram=hist, pdf=pdf,
                         in_range_fraction=hist.in_range / n)
