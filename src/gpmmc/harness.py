"""Experiment harness: config files in, result files out.

A run writes into the output directory its caller names:

  histogram.csv   one row per (iteration, bin) with the weights in force,
                  the tallied in-range counts, H_hat (count over the samples
                  the row tallied: samples_per_iteration for mmc and gpmmc,
                  every draw, out of range or not, for mc's one row), and
                  that iteration's own density estimate; the run's density
                  pools the counts and weights of all iterations
                  (read_histogram_csv recomputes it)
  summary.json    scalar results and diagnostics, among them the moments of
                  the run's density and its steps by cause (every cause the
                  kernel declares, in its order, zeros kept), and for a
                  surrogate run the store's frozen lengthscales
                  (lengthscales, one per coordinate) and the local models
                  it built and grew (local_models_built,
                  local_models_grown), deterministic for a fixed config and
                  seed but for runtime_seconds
  steps.csv       per-step log: step,cause,beta,accepted (on request)
  store.csv       the exact-evaluation store (surrogate runs only)

Config files are flat ``key = value`` text with ``#`` comments, each key at
most once. CONFIG_KEYS maps each run key to its parser; each model's own keys
come from its entry in benchmarks.MODELS, and a key the config leaves out
takes the default of the model's factory. Run keys are checked at parse time by the objects they become
(Binning, MmcConfig with its proposal scale, the surrogate settings), whatever
the method, so a bad value is a ConfigError before any true evaluation; a
model key value its factory rejects is a ConfigError naming the model, before
the output directory is made. Identical config and seed reproduce identical
output files byte for byte, runtime_seconds aside.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binning import Binning
from .engine import (MmcConfig, combined_probability, estimate_moments,
                     run_mmc, run_plain_mc)
from .errors import ConfigError
from .gp import _check_exponent
from .mcmc import ExactKernel
from .problem import EvalLedger
from .surrogate import _check_settings, fit_surrogate_kernel
from .benchmarks import MODELS, pilot_output_range

__all__ = ["RunConfig", "parse_config", "run_experiment", "ComparisonReport",
           "compare_pdfs", "read_histogram_csv", "CONFIG_KEYS"]

HISTOGRAM_HEADER = "iter,bin,center,lo,hi,count,H_hat,theta,P_i,pdf"
_OUTPUT_FILES = ("histogram.csv", "summary.json", "steps.csv", "store.csv")


def _vector(raw: str) -> float | tuple[float, ...]:
    parts = [float(p) for p in raw.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


CONFIG_KEYS = {
    # what to run
    "model": str,                   # a name in benchmarks.MODELS
    "method": str,                  # mc | mmc | gpmmc
    "seed": int,                    # required
    # output binning
    "bins": int,
    "range_lo": float,
    "range_hi": float,
    "range": str,                   # "auto": pilot-sample the output range
    # sampling effort
    "iterations": int,
    "samples_per_iteration": int,
    "burn_in": int,                 # default: samples_per_iteration // 10
    "proposal_scale": _vector,      # scalar or one value per coordinate
    # surrogate policy (gpmmc)
    "gamma": float,
    "beta_max": float,
    "kernel_p": int,
    "initial_design": int,
}


@dataclass
class RunConfig:
    """Parsed, validated run description. model_params holds the model
    factory's keywords."""

    model: str
    method: str
    seed: int
    bins: int
    iterations: int
    samples_per_iteration: int
    range_lo: float | None = None
    range_hi: float | None = None
    auto_range: bool = False
    burn_in: int | None = None
    proposal_scale: float | tuple[float, ...] = 0.5
    gamma: float = 1e-4
    beta_max: float = 0.05
    kernel_p: int = 1
    initial_design: int = 50
    model_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("mc", "mmc", "gpmmc"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.auto_range:
            if self.range_lo is not None or self.range_hi is not None:
                raise ConfigError("give range_lo and range_hi, or "
                                  "range = auto, not both")
        elif self.range_lo is None or self.range_hi is None:
            raise ConfigError("give range_lo and range_hi, or range = auto")
        if self.initial_design < 2:
            raise ConfigError("initial_design must be at least 2")
        # fail here, not after the pilot and the design's true evaluations;
        # an auto range is not known yet, so only its bin count is checked
        try:
            Binning(*((0.0, 1.0) if self.auto_range
                      else (self.range_lo, self.range_hi)), self.bins)
            self._mmc_config()
            _check_settings(self.gamma, self.beta_max)
            _check_exponent(self.kernel_p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _mmc_config(self) -> MmcConfig:
        return MmcConfig(iterations=self.iterations,
                         samples_per_iteration=self.samples_per_iteration,
                         proposal_scale=self.proposal_scale,
                         burn_in=self.burn_in, seed=self.seed)


def _model(name: str) -> tuple:
    """MODELS[name]: the model's factory and its config keys."""
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}; known: "
                          f"{', '.join(sorted(MODELS))}")
    return MODELS[name]


def _convert(key: str, raw: str, parse):
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None


def parse_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read a flat key = value config file into a RunConfig.

    A key given twice in the file is a ConfigError naming both lines.
    overrides (already-typed values keyed like the file) win over the file;
    the CLI uses this for --seed.
    """
    overrides = overrides or {}
    known = set(CONFIG_KEYS).union(*(keys for _, keys in MODELS.values()))
    values: dict = {}
    line_of: dict = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r} "
                                  f"(known: {', '.join(sorted(known))})")
            if key in line_of:
                raise ConfigError(f"{path}:{line_no}: key {key!r} given "
                                  f"twice, on lines {line_of[key]} and "
                                  f"{line_no}")
            line_of[key] = line_no
            values[key] = raw
    parsers = dict(CONFIG_KEYS)
    model = overrides.get("model", values.get("model"))
    if model is not None:
        parsers.update((k, parse) for k, (_, parse)
                       in _model(model)[1].items())
    # a key of another model stays text; _config_from_values rejects it
    values = {k: _convert(k, v, parsers[k]) if k in parsers else v
              for k, v in values.items()}
    values.update(overrides)
    return _config_from_values(values, source=str(path))


def _config_from_values(values: dict, source: str) -> RunConfig:
    for req in ("model", "method", "seed", "bins", "iterations",
                "samples_per_iteration"):
        if req not in values:
            raise ConfigError(f"{source}: missing required key {req!r}")
    range_mode = values.pop("range", None)
    if range_mode not in (None, "auto"):
        raise ConfigError(f"{source}: range must be 'auto' "
                          f"(or use range_lo / range_hi)")
    model = values.pop("model")
    model_keys = _model(model)[1]
    model_params = {}
    for key in [k for k in values if k not in CONFIG_KEYS]:
        if key not in model_keys:
            raise ConfigError(f"{source}: key {key!r} does not apply to "
                              f"model {model!r}")
        model_params[model_keys[key][0]] = values.pop(key)
    return RunConfig(model=model, auto_range=range_mode == "auto",
                     model_params=model_params, **values)


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_histogram_csv(path: Path, binning: Binning, weights: np.ndarray,
                         counts: np.ndarray, n: int) -> None:
    """Row k of weights and counts is iteration k's weights and in-range
    counts; n is the number of samples each row tallied, out-of-range ones
    included, so a row's H_hat is its counts over n."""
    centers = binning.centers
    edges = binning.edges
    with open(path, "w") as fh:
        fh.write(HISTOGRAM_HEADER + "\n")
        for k, (theta, count) in enumerate(zip(weights, counts)):
            h = count / n
            raw = h * theta
            total = raw.sum()
            p = raw / total if total > 0 else raw
            pdf = p / binning.delta
            for i in range(binning.m):
                row = [str(k), str(i), _fmt(centers[i]), _fmt(edges[i]),
                       _fmt(edges[i + 1]), str(int(count[i])),
                       _fmt(h[i]), _fmt(theta[i]), _fmt(p[i]), _fmt(pdf[i])]
                fh.write(",".join(row) + "\n")


def read_histogram_csv(path: str | Path) -> dict:
    """Parse a histogram.csv back into binning, counts, and the run's density.

    Returns a dict with the reconstructed Binning, the run's counts and
    thetas as (iterations, bins) arrays, and its bin probabilities (final_p)
    and density (final_pdf): combined_probability of those arrays, the
    estimate the run's summary.json moments come from. A file
    with no in-range counts reports zero density. A malformed row or number,
    a missing or repeated (iteration, bin) row, a negative count, a theta
    that is not positive and finite, or an iteration with no counts beside
    one with some raises ConfigError naming the file.
    """
    rows = []
    with open(path) as fh:
        if fh.readline().strip() != HISTOGRAM_HEADER:
            raise ConfigError(f"{path}: not a histogram file")
        for line_no, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != 10:
                raise ConfigError(f"{path}:{line_no}: expected 10 fields, "
                                  f"got {len(fields)}")
            try:
                rows.append((int(fields[0]), int(fields[1]), float(fields[3]),
                             float(fields[4]), int(fields[5]),
                             float(fields[7])))
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: empty histogram file")
    iters = sorted({r[0] for r in rows})
    m = max(r[1] for r in rows) + 1
    rows.sort()
    if [r[:2] for r in rows] != [(k, i) for k in iters for i in range(m)]:
        raise ConfigError(f"{path}: need exactly one row per (iteration, "
                          f"bin), for {len(iters)} iterations of {m} bins")
    counts = np.array([r[4] for r in rows], dtype=np.int64).reshape(-1, m)
    thetas = np.array([r[5] for r in rows]).reshape(-1, m)
    try:
        binning = Binning(min(r[2] for r in rows), max(r[3] for r in rows), m)
        p_i = combined_probability(thetas, counts)
    except RuntimeError as exc:  # an iteration with no counts
        if counts.any():
            raise ConfigError(f"{path}: {exc}") from None
        p_i = np.zeros(m)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {"binning": binning, "iterations": iters,
            "counts": counts, "thetas": thetas,
            "final_p": p_i, "final_pdf": p_i / binning.delta}


def run_experiment(cfg: RunConfig, out_dir: str | Path,
                   log_steps: bool = False) -> dict:
    """Execute one configured run and write its result files into out_dir,
    which is created if missing, after removing those an earlier run left
    there; log_steps also writes steps.csv for an mmc or gpmmc run.

    Returns the summary dict (also written to summary.json).
    """
    out = Path(out_dir)
    t0 = time.perf_counter()
    factory = _model(cfg.model)[0]
    try:
        model = factory(**cfg.model_params)
    except ValueError as exc:
        raise ConfigError(f"model {cfg.model!r}: {exc}") from None
    n_scales = np.size(cfg.proposal_scale)
    if n_scales not in (1, model.dimension):
        raise ConfigError(f"proposal_scale has {n_scales} entries, "
                          f"model dimension is {model.dimension}")
    out.mkdir(parents=True, exist_ok=True)
    for name in _OUTPUT_FILES:
        (out / name).unlink(missing_ok=True)
    ledger = EvalLedger()
    if cfg.auto_range:
        lo, hi = pilot_output_range(model, cfg.seed, ledger)
    else:
        lo, hi = cfg.range_lo, cfg.range_hi
    binning = Binning(lo, hi, cfg.bins)
    breakdown = {"pilot": ledger.true_evals}
    causes, local_models_built, local_models_grown = {}, 0, 0

    summary = {
        "method": cfg.method,
        "model": cfg.model,
        "seed": cfg.seed,
        "binning": {"lo": lo, "hi": hi, "bins": cfg.bins},
        "iterations": cfg.iterations,
        "samples_per_iteration": cfg.samples_per_iteration,
    }

    if cfg.method == "mc":
        n = cfg.iterations * cfg.samples_per_iteration
        weights = np.ones((1, binning.m))
        counts = run_plain_mc(model, binning, n, cfg.seed, ledger)[None]
        in_range = int(counts.sum())
        breakdown["samples"] = n
        burn_in = 0
        # the density read_histogram_csv recomputes from the file
        results = {"in_range_fraction": in_range / n,
                   "moments": estimate_moments(
                       combined_probability(weights, counts) / binning.delta,
                       binning) if in_range > 0 else None}
    else:
        mmc_cfg = cfg._mmc_config()
        n, burn_in = mmc_cfg.samples_per_iteration, mmc_cfg.burn_in
        if cfg.method == "mmc":
            kernel = ExactKernel(model, binning, ledger)
            breakdown["initial_design"] = 0
        else:
            kernel = fit_surrogate_kernel(
                model, binning, cfg.seed, initial_design=cfg.initial_design,
                gamma=cfg.gamma, beta_max=cfg.beta_max, p=cfg.kernel_p,
                ledger=ledger)
            breakdown["initial_design"] = cfg.initial_design

        step_file = None
        on_step = None
        if log_steps:
            step_file = open(out / "steps.csv", "w")
            step_file.write("step,cause,beta,accepted\n")

            def on_step(index, cause, beta, accepted, _fh=step_file):
                beta = "" if beta is None else repr(beta)
                _fh.write(f"{index},{cause},{beta},{int(accepted)}\n")

        try:
            result = run_mmc(kernel, mmc_cfg, on_step=on_step)
        finally:
            if step_file is not None:
                step_file.close()

        weights, counts = result.weights, result.counts
        breakdown["start_draws"] = result.start_draws
        # every step by cause, zero counts included; the chain's true
        # evaluations are the causes that are not served predictions
        causes = result.causes
        breakdown.update((k, n) for k, n in causes.items()
                         if k not in kernel.SERVED)
        results = {"acceptance": result.acceptance,
                   "flatness": result.flatness, "moments": result.moments}
        if cfg.method == "gpmmc":
            kernel.store.save_csv(out / "store.csv")
            results["store_size"] = kernel.store.size
            results["lengthscales"] = kernel.store.lengths.tolist()
            local_models_built = kernel.store.models_built
            local_models_grown = kernel.store.models_grown

    _write_histogram_csv(out / "histogram.csv", binning, weights, counts, n)

    # each breakdown term counts the true evaluations of one cause, so the
    # terms must add up to the ledger
    if ledger.true_evals != sum(breakdown.values()):
        raise RuntimeError(
            f"ledger mismatch: {ledger.true_evals} true evaluations, "
            f"breakdown accounts for {sum(breakdown.values())}")
    summary.update(burn_in=burn_in, true_evals=ledger.true_evals,
                   local_models_built=local_models_built,
                   local_models_grown=local_models_grown, causes=causes,
                   eval_breakdown=breakdown, **results)

    summary["runtime_seconds"] = time.perf_counter() - t0
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return summary


@dataclass
class ComparisonReport:
    """Per-bin relative error of a candidate density against a baseline.

    Bins where the baseline reports zero density carry no information about
    relative error and are left out; compared_bins counts the rest. A
    candidate with no in-range counts has no moments (None)."""

    compared_bins: int
    max_rel_err: float
    avg_rel_err: float
    baseline_moments: dict
    candidate_moments: dict | None


def compare_pdfs(baseline_path: str | Path,
                 candidate_path: str | Path) -> ComparisonReport:
    """Compare two histogram.csv files bin by bin.

    Both files must use the identical binning; the comparison uses each
    run's density as read_histogram_csv reports it."""
    base = read_histogram_csv(baseline_path)
    cand = read_histogram_csv(candidate_path)
    b1, b2 = base["binning"], cand["binning"]
    if (b1.lo, b1.hi, b1.m) != (b2.lo, b2.hi, b2.m):
        raise ConfigError(
            f"binnings differ: [{b1.lo}, {b1.hi}] x {b1.m} vs "
            f"[{b2.lo}, {b2.hi}] x {b2.m}")
    p_base = base["final_pdf"]
    p_cand = cand["final_pdf"]
    mask = p_base > 0
    if not mask.any():
        raise ConfigError(f"{baseline_path}: baseline density is all zero")
    rel = np.abs(p_cand[mask] - p_base[mask]) / p_base[mask]
    return ComparisonReport(
        compared_bins=int(mask.sum()),
        max_rel_err=float(rel.max()),
        avg_rel_err=float(rel.mean()),
        baseline_moments=estimate_moments(p_base, b1),
        candidate_moments=estimate_moments(p_cand, b1) if p_cand.any()
        else None,
    )
