"""End-to-end acceptance checklist.

Each test here is one numbered entry of the acceptance checklist in
README.md: oracle checks with independently computable answers (1-4, 9) and
benchmark reproductions at pinned seeds with pinned tolerances (5-8, 10).
One summary line per criterion is printed at the end of the run; see
conftest.record_criterion. Checks 7 and 8 are full-scale runs, enabled with
--runslow.
"""

import math

import numpy as np
import pytest

from conftest import engine_steps, record_criterion
from gpmmc.benchmarks import (beam_model, interpolate_bilinear,
                              min_distance_model, poisson_kl_model,
                              solve_poisson)
from gpmmc.engine import Binning, MmcConfig, run_mmc, run_plain_mc
from gpmmc.gp import EvaluationStore, build_local_surrogate, local_size
from gpmmc.mcmc import ExactKernel
from gpmmc.problem import EvalLedger, gaussian_model
from gpmmc.surrogate import fit_surrogate_kernel


def _check(number: int, ok: bool, detail: str) -> None:
    record_criterion(number, bool(ok), detail)
    assert ok, f"criterion {number}: {detail}"


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _line_model():
    return gaussian_model("line_1d", lambda X: X[:, 0],
                          np.zeros(1), np.ones(1))


# --------------------------------------------------------------- criterion 1

def test_local_gp_interpolates_its_support():
    """100 random local models: the posterior mean reproduces every stored
    value to 1e-6 relative, with posterior variance at most 1e-6 times the
    kernel amplitude."""
    rng = np.random.default_rng(20260819)
    worst_rel = 0.0
    worst_var = 0.0
    for case in range(100):
        d = (1, 2, 5)[case % 3]
        p = 1 if case % 2 == 0 else 2
        n = local_size(d)
        store = EvaluationStore(d, np.full(d, 1.0), p)
        X = rng.normal(0.0, 2.0, size=(n, d))
        y = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        for xi, yi in zip(X, y):
            store.insert(xi, float(yi))
        # n covers the whole store, so every query's support is idx itself
        idx, _, _ = store.nearest(X[0], n)
        gp = build_local_surrogate(store, idx)
        support = store.points[idx]
        for xi, yi in zip(support, store.values[idx]):
            mu, var = gp.posterior(xi, store.nearest(xi, n)[1])
            worst_rel = max(worst_rel, abs(mu - yi) / abs(yi))
            worst_var = max(worst_var, var / gp.a)
    ok = worst_rel <= 1e-6 and worst_var <= 1e-6
    _check(1, ok, f"interpolation rel err {worst_rel:.2e} <= 1e-6, "
                  f"var/amplitude {worst_var:.2e} <= 1e-6")


# --------------------------------------------------------------- criterion 2

def test_random_walk_chain_recovers_gaussian_moments():
    """Exact-model random walk targeting the 1-D standard normal prior:
    1e5 steps reproduce mean 0 within 0.05 and variance 1 within 5%."""
    model = _line_model()
    ledger = EvalLedger()
    # one bin wider than the chain walks, under log theta = 0: log q is the
    # log prior
    wide, log_theta = Binning(-1e6, 1e6, 1), [0.0]
    kernel = ExactKernel(model, wide, ledger)
    rng = np.random.default_rng(20260819)

    # the engine's own steps; y = x, so the outputs are the positions
    _, _, xs, _ = engine_steps(kernel, 2.4, rng, np.zeros(1), 0.0, log_theta,
                               100_000)
    mean, var = float(xs.mean()), float(xs.var())
    ok = abs(mean) <= 0.05 and abs(var - 1.0) <= 0.05
    _check(2, ok, f"chain mean {mean:+.4f} (|.| <= 0.05), "
                  f"variance {var:.4f} (within 5% of 1)")


# --------------------------------------------------------------- criterion 3

def test_flat_histogram_run_recovers_gaussian_bin_masses():
    """Identity map on a standard normal: the final bin-probability table
    matches the normal CDF mass of every significant bin within 10%, and the
    sampled histogram flattens across the iterations."""
    model = _line_model()
    binning = Binning(-4.0, 4.0, 40)
    cfg = MmcConfig(iterations=10, samples_per_iteration=100_000,
                    proposal_scale=1.5, burn_in=10_000, seed=20260819)
    kernel = ExactKernel(model, binning, EvalLedger())
    res = run_mmc(kernel, cfg)

    edges = np.linspace(-4.0, 4.0, 41)
    true_mass = np.array([_phi(edges[i + 1]) - _phi(edges[i])
                          for i in range(40)])
    sig = true_mass >= 1e-6
    prob = res.pdf * binning.delta
    rel = np.abs(prob[sig] - true_mass[sig]) / true_mass[sig]
    flattened = res.flatness[-1] < res.flatness[0]
    ok = rel.max() <= 0.10 and flattened
    _check(3, ok, f"bin mass rel err max {rel.max():.4f} <= 0.10 over "
                  f"{int(sig.sum())} bins, flatness CV {res.flatness[0]:.3f} "
                  f"-> {res.flatness[-1]:.3f}")


# --------------------------------------------------------------- criterion 4

def test_always_refining_kernel_matches_exact_kernel():
    """With the refinement gate fully open (gamma = 1) the surrogate kernel
    must reproduce the exact kernel's trajectory step for step."""
    model = min_distance_model()
    binning = Binning(-1.0, 54.0, 55)
    seed = 99
    cfg = MmcConfig(iterations=2, samples_per_iteration=5_000,
                    proposal_scale=1.0, burn_in=0, seed=seed)

    exact = run_mmc(ExactKernel(model, binning, EvalLedger()), cfg)
    kernel = fit_surrogate_kernel(model, binning, seed, initial_design=10,
                                  gamma=1.0, beta_max=0.05, p=1,
                                  ledger=EvalLedger())
    surro = run_mmc(kernel, cfg)

    same_hists = np.array_equal(exact.counts, surro.counts)
    same_pdf = np.array_equal(exact.pdf, surro.pdf)
    ok = same_hists and same_pdf
    _check(4, ok, f"10000-step trajectories identical: histograms "
                  f"{same_hists}, pdf {same_pdf}")


# ------------------------------------------------- criteria 5 and 6 (shared)

REDUCED_SEED = 17
BASELINE_SEED = 4
REDUCED_BETA_MAX = 0.075
REDUCED_GAMMA = 1e-4


@pytest.fixture(scope="module")
def reduced_two_center_run():
    """One surrogate-kernel run of the two-center benchmark at reduced
    effort (10 x 1e4), shared by the audit and accuracy checks."""
    model = min_distance_model()
    binning = Binning(-1.0, 54.0, 55)
    ledger = EvalLedger()
    kernel = fit_surrogate_kernel(
        model, binning, REDUCED_SEED, initial_design=50, gamma=REDUCED_GAMMA,
        beta_max=REDUCED_BETA_MAX, p=1, ledger=ledger)
    betas = []
    accepted_betas = []

    def on_step(index, cause, beta, accepted):
        if cause in kernel.SERVED:
            betas.append(beta)
            if accepted:
                accepted_betas.append(beta)

    cfg = MmcConfig(iterations=10, samples_per_iteration=10_000,
                    proposal_scale=1.0, burn_in=1_000, seed=REDUCED_SEED)
    res = run_mmc(kernel, cfg, on_step=on_step)
    return {"result": res, "betas": betas, "accepted_betas": accepted_betas,
            "true_evals": ledger.true_evals, "binning": binning,
            "model": model}


def test_surrogate_quality_audit(reduced_two_center_run):
    """Every surrogate-served step satisfies the bound on a wrong transition,
    every accepted one (a predicted acceptance) the bin-misassignment bound,
    and the open-gate refinement count is a plausible Bernoulli(gamma)
    draw."""
    run = reduced_two_center_run
    betas = np.array(run["betas"])
    accepted_betas = np.array(run["accepted_betas"])
    causes = run["result"].causes
    T = sum(causes.values())
    gate = causes.get("refine_random", 0)
    expect = T * REDUCED_GAMMA
    slack = 4.0 * math.sqrt(T * REDUCED_GAMMA * (1.0 - REDUCED_GAMMA))
    all_within = bool((betas <= REDUCED_BETA_MAX).all()
                      and (accepted_betas <= REDUCED_BETA_MAX).all())
    gate_ok = abs(gate - expect) <= slack
    ok = all_within and gate_ok
    _check(5, ok, f"{betas.size} surrogate steps, max beta "
                  f"{betas.max():.4f} <= {REDUCED_BETA_MAX}; "
                  f"{accepted_betas.size} accepted, max beta "
                  f"{accepted_betas.max():.4f}; open-gate "
                  f"refinements {gate} within "
                  f"{expect:.1f} +- {slack:.1f}")


def test_reduced_run_matches_mc_baseline(reduced_two_center_run):
    """Reduced-effort surrogate run against a 1e6-draw plain MC baseline:
    average bin relative error <= 0.15, maximum <= 0.45, at most 3000
    true-model evaluations, and the misassignment gate refined at least
    once, so the accuracy is not bought by a kernel that stopped refining."""
    run = reduced_two_center_run
    baseline = run_plain_mc(run["model"], run["binning"], 1_000_000,
                            seed=BASELINE_SEED, ledger=EvalLedger())
    base = baseline / (1_000_000 * run["binning"].delta)
    mask = base > 0
    rel = np.abs(run["result"].pdf[mask] - base[mask]) / base[mask]
    evals = run["true_evals"]
    refine_beta = run["result"].causes.get("refine_beta", 0)
    ok = (rel.mean() <= 0.15 and rel.max() <= 0.45
          and evals <= 3000 and refine_beta > 0)
    _check(6, ok, f"avg rel err {rel.mean():.4f} <= 0.15, max "
                  f"{rel.max():.4f} <= 0.45, true evals {evals} <= 3000, "
                  f"beta refinements {refine_beta} > 0")


# --------------------------------------------------------------- criterion 7

@pytest.mark.slow
def test_full_scale_two_center_moments():
    """Full-effort two-center run (10 x 1e5): output mean within 2% of 14.21
    and variance within 5% of 43.58."""
    model = min_distance_model()
    binning = Binning(-1.0, 54.0, 55)
    ledger = EvalLedger()
    kernel = fit_surrogate_kernel(
        model, binning, 20260819, initial_design=50, gamma=1e-4,
        beta_max=0.05, p=1, ledger=ledger)
    cfg = MmcConfig(iterations=10, samples_per_iteration=100_000,
                    proposal_scale=1.0, burn_in=10_000, seed=20260819)
    res = run_mmc(kernel, cfg)
    mean = res.moments["mean"]
    var = res.moments["variance"]
    mean_ok = abs(mean - 14.21) / 14.21 <= 0.02
    var_ok = abs(var - 43.58) / 43.58 <= 0.05
    ok = mean_ok and var_ok
    _check(7, ok, f"mean {mean:.4f} (2% of 14.21), variance {var:.4f} "
                  f"(5% of 43.58), true evals {ledger.true_evals}")


# --------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_beam_sweep_accuracy_and_cost():
    """Beam displacement sweep over the misassignment budget: every run
    stays under 1e4 true evaluations, cost grows as the budget tightens
    (20% slack), and the featured run reproduces the reference mean with
    full support."""
    model = beam_model()
    binning = Binning(0.56, 0.66, 40)
    scale = 0.3 * np.sqrt(np.array([1e-3, 1e-4, 100.0, 100.0, 1.45e6]))
    evals = {}
    featured = None
    for bmax in (0.92, 0.32, 0.003):
        ledger = EvalLedger()
        kernel = fit_surrogate_kernel(
            model, binning, 20260819, initial_design=50, gamma=1e-4,
            beta_max=bmax, p=1, ledger=ledger)
        cfg = MmcConfig(iterations=10, samples_per_iteration=100_000,
                        proposal_scale=scale, burn_in=10_000, seed=20260819)
        res = run_mmc(kernel, cfg)
        evals[bmax] = ledger.true_evals
        if bmax == 0.32:
            featured = res
    mean = featured.moments["mean"]
    support = int((featured.pdf > 0).sum())
    under_budget = all(v <= 10_000 for v in evals.values())
    ordered = (evals[0.92] <= 1.2 * evals[0.32]
               and evals[0.32] <= 1.2 * evals[0.003])
    ok = (under_budget and ordered and abs(mean - 0.6024) <= 0.002
          and support == 40)
    _check(8, ok, f"true evals {evals} all <= 1e4, ordered with 20% slack "
                  f"{ordered}; featured run mean {mean:.4f} "
                  f"(0.6024 +- 0.002), support {support}/40 bins")


# --------------------------------------------------------------- criterion 9

def _series_center_value(terms: int = 200) -> float:
    """Value at (0.5, 0.5) of the solution of laplace(u) = 1 on the unit
    square with zero boundary, from the double sine series."""
    total = 0.0
    pi = math.pi
    for m in range(1, terms, 2):
        for n in range(1, terms, 2):
            sign = (-1.0) ** ((m - 1) // 2) * (-1.0) ** ((n - 1) // 2)
            total += sign * 16.0 / (pi**4 * m * n * (m * m + n * n))
    return -total


def test_poisson_solver_matches_sine_series():
    """Constant-coefficient solve matches the series value at the center
    within 1e-3, and halving the mesh width cuts the error by about 4."""
    truth = _series_center_value()
    u65 = solve_poisson(np.ones((65, 65)))
    u129 = solve_poisson(np.ones((129, 129)))
    err65 = abs(interpolate_bilinear(u65, (0.5, 0.5)) - truth)
    err129 = abs(interpolate_bilinear(u129, (0.5, 0.5)) - truth)
    factor = err65 / err129
    ok = err65 <= 1e-3 and 3.5 <= factor <= 4.5
    _check(9, ok, f"65x65 error {err65:.2e} <= 1e-3, refinement ratio "
                  f"{factor:.2f} in [3.5, 4.5]")


# -------------------------------------------------------------- criterion 10

def test_poisson_surrogate_agrees_with_exact_sampler():
    """Random-field Poisson benchmark at desk scale (33x33 grid, 5 x 2000):
    surrogate-kernel and exact-kernel runs agree on every bin holding at
    least 1e-4 probability (average relative error <= 0.25) while the
    surrogate run spends at most 20% of the exact run's evaluations."""
    model = poisson_kl_model(nodes=33)
    binning = Binning(-1.2, 0.0, 20)
    exact_seed = 7
    surrogate_seed = 20260819

    exact_ledger = EvalLedger()
    exact = run_mmc(ExactKernel(model, binning, exact_ledger),
                    MmcConfig(iterations=5, samples_per_iteration=2_000,
                              proposal_scale=0.5, burn_in=200,
                              seed=exact_seed))
    gp_ledger = EvalLedger()
    kernel = fit_surrogate_kernel(
        model, binning, surrogate_seed, initial_design=400, gamma=1e-4,
        beta_max=0.05, p=2, ledger=gp_ledger)
    surro = run_mmc(kernel,
                    MmcConfig(iterations=5, samples_per_iteration=2_000,
                              proposal_scale=0.5, burn_in=200,
                              seed=surrogate_seed))

    mask = exact.pdf * binning.delta >= 1e-4
    rel = np.abs(surro.pdf[mask] - exact.pdf[mask]) / exact.pdf[mask]
    ratio = gp_ledger.true_evals / exact_ledger.true_evals
    # A collapsed final iteration would shrink the comparison mask to a
    # couple of bins and make the relative-error average vacuous; demand a
    # healthy support before trusting it.
    ok = mask.sum() >= 10 and rel.mean() <= 0.25 and ratio <= 0.20
    _check(10, ok, f"avg rel err {rel.mean():.4f} <= 0.25 over "
                   f"{int(mask.sum())} bins (>= 10), eval ratio "
                   f"{ratio:.3f} <= 0.20 "
                   f"({gp_ledger.true_evals}/{exact_ledger.true_evals})")
