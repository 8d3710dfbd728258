"""Command-line entry points: run an experiment, compare two results, or
print the moments of a stored density estimate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .engine import estimate_moments
from .errors import ConfigError
from .harness import compare_pdfs, parse_config, read_histogram_csv, run_experiment

_MOMENT_KEYS = ("mean", "variance", "central3", "central4", "central5")


def _fmt(value, width: int = 0) -> str:
    """A moment as text; None (not finite, see estimate_moments) is n/a."""
    return f"{'n/a':>{width}}" if value is None else f"{value:>{width}.6g}"


def _moments_lines(moments: dict, prefix: str = "") -> list[str]:
    return [f"{prefix}{key:<10} {_fmt(moments[key])}" for key in _MOMENT_KEYS]


def _cmd_run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = parse_config(args.config, overrides)
    summary = run_experiment(cfg, args.out, args.log_steps)
    print(f"method            {summary['method']}")
    print(f"model             {summary['model']}")
    print(f"seed              {summary['seed']}")
    print(f"true evaluations  {summary['true_evals']}")
    if summary["causes"]:
        print("steps by cause    " + "  ".join(
            f"{k} {n}" for k, n in summary["causes"].items()))
    if summary.get("flatness"):
        flat = summary["flatness"]
        print(f"flatness          first {flat[0]:.4f}  last {flat[-1]:.4f}")
    if summary.get("moments"):
        print("moments")
        for line in _moments_lines(summary["moments"], prefix="  "):
            print(line)
    print(f"runtime           {summary['runtime_seconds']:.2f} s")
    print(f"results in        {args.out}")
    return 0


def _cmd_compare(args) -> int:
    report = compare_pdfs(args.baseline, args.candidate)
    print(f"compared bins     {report.compared_bins}")
    print(f"max relative err  {report.max_rel_err:.6g}")
    print(f"avg relative err  {report.avg_rel_err:.6g}")
    print(f"{'moment':<10} {'baseline':>14} {'candidate':>14}")
    candidate = report.candidate_moments or {}
    for key in _MOMENT_KEYS:
        b = report.baseline_moments[key]
        print(f"{key:<10} {_fmt(b, 14)} {_fmt(candidate.get(key), 14)}")
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(asdict(report), fh, indent=2, allow_nan=False)
            fh.write("\n")
        print(f"report written to {args.json}")
    return 0


def _cmd_moments(args) -> int:
    data = read_histogram_csv(args.pdf)
    if not data["final_pdf"].any():
        raise ConfigError(f"{args.pdf}: no in-range counts, so the density "
                          "has no moments")
    moments = estimate_moments(data["final_pdf"], data["binning"])
    for line in _moments_lines(moments):
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpmmc",
        description="Estimate the full distribution of a scalar model output "
                    "by multicanonical sampling, optionally accelerated with "
                    "local Gaussian-process surrogates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", required=True,
                       help="output directory, created if missing")
    p_run.add_argument("--log-steps", action="store_true",
                       help="write a per-step kernel log (steps.csv)")
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="relative error of one result against another")
    p_cmp.add_argument("baseline", help="histogram.csv of the baseline run")
    p_cmp.add_argument("candidate", help="histogram.csv of the candidate run")
    p_cmp.add_argument("--json", default=None,
                       help="also write the report as JSON")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_mom = sub.add_parser("moments",
                           help="print the moments of a stored density")
    p_mom.add_argument("pdf", help="histogram.csv of a run")
    p_mom.set_defaults(fn=_cmd_moments)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
