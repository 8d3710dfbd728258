"""Outside-in benchmark for gpmmc: run one workload (or all) and check it.

    python3 perfbench/run.py --workload two_center_gp --seed 17 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/results/NAME.json

Every repetition is a fresh `python3 perfbench/worker.py` process that calls
gpmmc.harness.parse_config / run_experiment on the workload's frozen config
in perfbench/workloads/, with BLAS and OpenMP threads pinned and no on-disk
KL cache. A run first makes one repetition for each of the workload's
distinct seeds (derived from --seed), then repeats those seeds in turn until
--seconds have passed; every repeat must reproduce its first run's output
files byte for byte. Every metric is a mean over the distinct seeds: counts
and accuracy of each seed's first run, so they repeat exactly for a fixed
--seed and thread setting, and timings and memory of the median over each
seed's repetitions. Timings are scaled to the reference host speed by the
calibration kernels sampled during each repetition (calibrate.py).

With --trace 1 the distinct-seed repetitions run with every layer callable
wrapped (tracing.py), the repeats run untraced, and the per-layer metrics
are reported instead of the end-to-end ones. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import envinfo  # noqa: E402
from reference import MASS_CUT, NORM_TOL, read_final, reference_masses  # noqa: E402

RUN_LIMIT_S = 170.0     # never start a repetition that could end past this
# Distinct seeds per run at the bench effort: two halve the seed-to-seed
# spread of the counts on the *_gp workloads at the cost of one repetition.
DISTINCT_SEEDS = 2


@dataclass(frozen=True)
class Workload:
    config: str           # file in perfbench/workloads/
    reference: str        # reference.reference_masses kind
    seed: int             # default workload seed
    calibration: tuple    # calibrate.KERNELS that mirror its hot path
    effort: dict = field(default_factory=dict)   # bench-effort overrides


# Why each workload is here: see README.md. The bench effort keeps one run
# within --seconds; --effort full runs the frozen configs as they are.
WORKLOADS = {
    "two_center_gp": Workload("two_center_gp.cfg", "two_center", 17,
                              ("local_gp",),
                              {"samples_per_iteration": 2000,
                               "burn_in": 200}),
    "poisson_gp": Workload("poisson_gp.cfg", "poisson", 20260819,
                           ("interpreter", "local_gp", "dense"),
                           {"samples_per_iteration": 300, "burn_in": 30}),
    "two_center_exact": Workload("two_center_exact.cfg", "two_center",
                                 20260819, ("interpreter",),
                                 {"samples_per_iteration": 10000,
                                  "burn_in": 1000}),
    "two_center_mc": Workload("two_center_mc.cfg", "two_center", 4,
                              ("interpreter",),
                              {"samples_per_iteration": 200000}),
}

END_TO_END = [  # (name, unit)
    ("run_s", "s"), ("setup_s", "s"), ("steps_per_s", "steps/s"),
    ("true_evals", "count"), ("avg_rel_err", "ratio"),
    ("bins_resolved", "count"), ("peak_rss_mb", "MB"),
    ("failed_runs", "fraction"),
    # recorded, not gated: the unscaled timings and the host speed
    ("run_s_raw", "s"), ("setup_s_raw", "s"), ("steps_per_s_raw", "steps/s"),
    ("host_speed", "ratio"),
]
# The end-to-end metrics in the JSON line and BENCHMARK.json. At the bench
# effort avg_rel_err and bins_resolved spread across seeds far beyond any
# usable bound on the *_gp workloads (README.md), so they are printed and
# recorded, and reported with the per-layer metrics, but not gated;
# failed_runs is the JSON line's failed / attempted.
GATED = ("run_s", "setup_s", "steps_per_s", "true_evals", "peak_rss_mb")


def derived_seeds(seed: int, n: int) -> list[int]:
    """The workload seed itself, then n - 1 seeds drawn from it."""
    extra = [int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
             for k in range(1, n)]
    return [seed] + extra


def read_config(path: Path) -> dict:
    values = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, raw = (p.strip() for p in line.split("=", 1))
            values[key] = raw
    return values


def chain_steps(summary: dict) -> int:
    """Chain steps including burn-in; draws for plain MC (burn_in 0)."""
    return summary["iterations"] * (summary["samples_per_iteration"]
                                    + summary["burn_in"])


def check_outputs(out: Path, summary: dict) -> list[str]:
    """Output checks of one run; returns the failures found."""
    problems = []
    final = read_final(out / "histogram.csv")
    rows = final["rows"]
    m = summary["binning"]["bins"]
    n = summary["samples_per_iteration"]
    mc = summary["method"] == "mc"
    pdf = final["pdf"]
    delta = float(np.diff(final["edges"]).mean())
    if not np.all(np.isfinite(pdf)) or np.any(pdf < 0):
        problems.append("final density is negative or non-finite")
    elif abs(pdf.sum() * delta - 1.0) > NORM_TOL:
        problems.append(f"final density integrates to {pdf.sum() * delta!r}")
    n_iter = 1 if mc else summary["iterations"]
    total = chain_steps(summary) if mc else n
    if len(rows) != n_iter * m:
        problems.append(f"{len(rows)} histogram rows, expected {n_iter * m}")
    for k in range(n_iter):
        counts = np.array([int(r[5]) for r in rows if int(r[0]) == k])
        h_hat = np.array([float(r[6]) for r in rows if int(r[0]) == k])
        tallied = round(summary["in_range_fraction"] * total) if mc else n
        if np.any(counts < 0) or counts.sum() != tallied or tallied > total:
            problems.append(f"iteration {k}: counts sum to {counts.sum()}, "
                            f"tallied {tallied} of {total}")
        elif not np.allclose(h_hat, counts / total, rtol=1e-12, atol=0):
            problems.append(f"iteration {k}: H_hat is not count / {total}")
    return problems


def comparable_files(out: Path) -> dict:
    """Output bytes that must repeat exactly at a fixed seed."""
    files = {name: (out / name).read_bytes()
             for name in ("histogram.csv", "store.csv")
             if (out / name).exists()}
    summary = json.loads((out / "summary.json").read_text())
    summary.pop("runtime_seconds")
    files["summary.json"] = json.dumps(summary, sort_keys=True).encode()
    return files


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, name: str, args):
        self.name = name
        self.wl = WORKLOADS[name]
        self.args = args
        self.cfg_path = HERE / "workloads" / self.wl.config
        self.cfg = read_config(self.cfg_path)
        self.overrides = {} if args.effort == "full" else dict(self.wl.effort)
        self.cfg.update({k: str(v) for k, v in self.overrides.items()})
        n_seeds = 1 if args.effort == "full" else DISTINCT_SEEDS
        seed = self.wl.seed if args.seed is None else args.seed
        self.seeds = derived_seeds(seed, n_seeds)
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        for var in envinfo.THREAD_VARS:
            self.env[var] = str(args.threads)
        self.env.pop("PYTHONPATH", None)
        edges = (float(self.cfg["range_lo"])
                 + np.arange(int(self.cfg["bins"]) + 1)
                 * (float(self.cfg["range_hi"]) - float(self.cfg["range_lo"]))
                 / int(self.cfg["bins"]))
        self.ref = reference_masses(self.wl.reference, edges)
        self.reps: list[dict] = []
        self.t0 = time.perf_counter()

    def _launch(self, seed: int, trace: bool, tag: str) -> dict:
        out = self.work / tag
        result_path = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.cfg_path),
               str(seed), str(out), "1" if trace else "0", str(result_path),
               ",".join(self.wl.calibration)]
        cmd += [f"{k}={v}" for k, v in self.overrides.items()]
        rep = {"seed": seed, "trace": trace, "tag": tag, "problems": []}
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.t0)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            rep["problems"].append("timed out")
            return rep
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            rep["problems"].append(f"exit {proc.returncode}: {tail[0]}")
            return rep
        rep.update(json.loads(result_path.read_text()))
        rep["problems"] += check_outputs(out, rep["summary"])
        p = read_final(out / "histogram.csv")["p"]
        mask = self.ref >= MASS_CUT
        rep["avg_rel_err"] = float(np.mean(np.abs(p[mask] - self.ref[mask])
                                           / self.ref[mask]))
        rep["bins_resolved"] = int(np.count_nonzero(p > 0))
        rep["files"] = comparable_files(out)
        return rep

    def run(self) -> None:
        trace = self.args.trace == 1
        firsts = []
        for k, seed in enumerate(self.seeds):
            rep = self._launch(seed, trace, f"seed{k}")
            firsts.append(rep)
            self.reps.append(rep)
        j = 0
        while True:
            first = firsts[j % len(firsts)]
            rep = self._launch(first["seed"], False, f"repeat{j}")
            if "files" in rep and "files" in first:
                for name, data in first["files"].items():
                    if rep["files"].get(name) != data:
                        rep["problems"].append(
                            f"{name} differs from the first run at seed "
                            f"{first['seed']}")
            rep["repeat_of"] = j % len(firsts)
            self.reps.append(rep)
            j += 1
            elapsed = time.perf_counter() - self.t0
            per_rep = elapsed / len(self.reps)
            if (elapsed + per_rep > self.args.seconds
                    or elapsed + 2 * per_rep > RUN_LIMIT_S):
                break
        for rep in self.reps:
            rep.pop("files", None)

    # ----------------------------------------------------------- metrics

    def _ok(self, reps):
        return [r for r in reps if not r["problems"]]

    def failed(self) -> int:
        return sum(1 for r in self.reps if r["problems"])

    def end_to_end(self) -> dict:
        ok = self._ok(self.reps)
        distinct = self._ok([r for r in self.reps if "repeat_of" not in r])
        if not ok or not distinct:
            return {}
        mean = lambda key: statistics.fmean(r[key] for r in distinct)  # noqa: E731

        def per_seed(value) -> float:
            """Mean over the distinct seeds of the median of each seed's
            repetitions, so that every seed weighs the same."""
            by_seed: dict[int, list[float]] = {}
            for r in ok:
                by_seed.setdefault(r["seed"], []).append(value(r))
            return statistics.fmean(statistics.median(v)
                                    for v in by_seed.values())

        def rate(r) -> float:
            return chain_steps(r["summary"]) / r["sampling_s"]

        # Timings at the reference host speed: a slow phase of the host
        # (speed < 1) lengthens the raw time by 1 / speed.
        return {
            "run_s": per_seed(lambda r: r["run_s"] * host_speed(r, "run")),
            "setup_s": per_seed(lambda r: r["setup_s"]
                                * host_speed(r, "setup")),
            "steps_per_s": per_seed(lambda r: rate(r)
                                    / host_speed(r, "sampling")),
            "true_evals": statistics.fmean(r["summary"]["true_evals"]
                                           for r in distinct),
            "avg_rel_err": mean("avg_rel_err"),
            "bins_resolved": mean("bins_resolved"),
            "peak_rss_mb": per_seed(lambda r: r["peak_rss_mb"]),
            "failed_runs": self.failed() / len(self.reps),
            "run_s_raw": per_seed(lambda r: r["run_s"]),
            "setup_s_raw": per_seed(lambda r: r["setup_s"]),
            "steps_per_s_raw": per_seed(rate),
            "host_speed": per_seed(lambda r: host_speed(r, "run")),
        }

    def per_layer(self) -> dict:
        traced = self._ok([r for r in self.reps if r["trace"]])
        if not traced:
            return {}
        per_rep = [layer_metrics(r) for r in traced]
        out = {k: statistics.median(m[k] for m in per_rep)
               for k in per_rep[0]}
        # each untraced repeat against the traced first run of its seed
        ratios = [self.reps[r["repeat_of"]]["run_s"] / r["run_s"]
                  for r in self._ok(self.reps) if "repeat_of" in r
                  and not self.reps[r["repeat_of"]]["problems"]]
        out["trace.overhead"] = (statistics.median(ratios) - 1.0
                                 if ratios else 0.0)
        return out


def host_speed(rep: dict, interval: str) -> float:
    """Host speed during one interval of a repetition, relative to the
    reference host (calibrate.py); from the whole run where no calibration
    kernel fell in the interval."""
    return calibrate.host_speed(rep["kernel_s"][interval]
                                or rep["kernel_s"]["run"])


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    layers = rep["layers"]
    summary = rep["summary"]
    bd = summary["eval_breakdown"]
    steps = chain_steps(summary)
    method = summary["method"]

    def span(name, key="self_s"):
        return layers.get(name, {}).get(key, 0)

    refinements = sum(bd.get(k, 0) for k in
                      ("refine_random", "refine_beta", "refine_fallback"))
    surrogate_steps = steps - refinements if method == "gpmmc" else 0
    calls = span("problem.evaluate", "calls")
    mcmc_calls = span("mcmc.step", "calls")
    acceptance = summary.get("acceptance") or [0.0]
    flatness = summary.get("flatness") or [0.0]
    return {
        "gp.nearest.self_s": span("gp.nearest"),
        "gp.trend_fit.self_s": span("gp.trend_fit"),
        "gp.trend_eval.self_s": span("gp.trend_eval"),
        "gp.factor.self_s": span("gp.factor"),
        "gp.posterior.self_s": span("gp.posterior"),
        "gp.insert.self_s": span("gp.insert"),
        "gp.builds": span("gp.factor", "calls"),
        "gp.store_size": summary.get("store_size", 0),
        "gp.calibrate_s": span("gp.calibrate", "total_s"),
        "surrogate.step.self_s": span("surrogate.step"),
        "surrogate.misassignment.self_s": span("surrogate.misassignment"),
        "surrogate.steps": span("surrogate.step", "calls"),
        "surrogate.surrogate_steps": surrogate_steps,
        "surrogate.refine_random": bd.get("refine_random", 0),
        "surrogate.refine_beta": bd.get("refine_beta", 0),
        "surrogate.refine_fallback": bd.get("refine_fallback", 0),
        "surrogate.hit_share": (surrogate_steps / steps
                                if method == "gpmmc" else 0.0),
        "problem.evaluate.calls": calls,
        "problem.evaluate.self_s": span("problem.evaluate"),
        "problem.evaluate.us_per_call": (span("problem.evaluate", "total_s")
                                         / calls * 1e6 if calls else 0.0),
        "benchmarks.solve_poisson.self_s": span("benchmarks.solve_poisson"),
        "benchmarks.realize_field.self_s": span("benchmarks.realize_field"),
        "benchmarks.kl_decompose_s": span("benchmarks.kl_decompose",
                                          "total_s"),
        "mcmc.step.self_s": span("mcmc.step"),
        "mcmc.us_per_step": (span("mcmc.step", "total_s") / mcmc_calls * 1e6
                             if mcmc_calls else 0.0),
        "engine.loop.self_s": span("engine.loop"),
        "engine.plain_mc.self_s": span("engine.plain_mc"),
        "engine.target.self_s": span("engine.target"),
        "engine.update_weights_s": span("engine.update_weights", "total_s"),
        "engine.acceptance_mean": statistics.fmean(acceptance),
        "engine.flatness_last": flatness[-1],
        "engine.start_draws": bd.get("start_draws", 0),
        "binning.tally_s": span("binning.tally", "total_s"),
        "phase.setup_s": rep["phase_setup_s"],
        "phase.sampling_s": rep["sampling_s"],
        "phase.output_s": rep["output_s"],
        "harness.write_s": span("harness.write", "total_s"),
        "trace.coverage": layers["coverage"],
        "accuracy.avg_rel_err": rep["avg_rel_err"],
        "accuracy.bins_resolved": rep["bins_resolved"],
    }


def unit_of(metric: str) -> str:
    """Unit of an end-to-end or per-layer metric, workload prefix or not."""
    last = metric.rsplit(".", 1)[-1]
    if last in dict(END_TO_END):
        return dict(END_TO_END)[last]
    if last.endswith("_s"):
        return "s"
    if last.startswith("us_per_"):
        return "us"
    if last in ("hit_share", "acceptance_mean", "flatness_last", "coverage",
                "overhead"):
        return "ratio"
    return "count"


def run_workload(name: str, args) -> tuple[Bench, dict]:
    bench = Bench(name, args)
    bench.run()
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    print(f"workload {name}: effort {args.effort}, seeds {bench.seeds}, "
          f"threads {args.threads}, {len(bench.reps)} runs, "
          f"{bench.failed()} failed, "
          f"{time.perf_counter() - bench.t0:.1f} s")
    for key, value in metrics.items():
        shown = f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"
        print(f"  {key:34s} {shown:>14s} {unit_of(key)}")
    for rep in bench.reps:
        for problem in rep["problems"]:
            print(f"  FAIL {rep['tag']} (seed {rep['seed']}): {problem}")
    verdict = "PASS" if bench.failed() == 0 and metrics else "FAIL"
    print(f"  output checks: {verdict}")
    return bench, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS/OpenMP threads in every run (<= nproc)")
    parser.add_argument("--effort", choices=("bench", "full"),
                        default="bench",
                        help="full runs the frozen configs unscaled")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full record to this JSON file")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running repetition instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gpmmc" / "__init__.py").is_file():
        print(f"no gpmmc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        parser.error("--threads must lie in [1, nproc]")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = envinfo.collect(ROOT)
    env["threads"] = {v: str(args.threads) for v in envinfo.THREAD_VARS}
    print("environment:", json.dumps(env))
    record = {"environment": env, "args": {**vars(args), "out": str(args.out)},
              "workloads": {}}
    attempted = failed = 0
    metrics = {}
    for name in names:
        bench, wl_metrics = run_workload(name, args)
        attempted += len(bench.reps)
        failed += bench.failed()
        record["workloads"][name] = {"seeds": bench.seeds,
                                     "config": bench.cfg,
                                     "metrics": wl_metrics,
                                     "runs": bench.reps}
        if len(names) == 1:
            metrics = wl_metrics
        else:
            metrics.update({f"{name}.{k}": v for k, v in wl_metrics.items()})
    if args.trace == 0:
        metrics = {k: v for k, v in metrics.items()
                   if k.rsplit(".", 1)[-1] in GATED}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
