"""Regenerate the committed Poisson reference density.

Runs workloads/poisson_reference.cfg (exact-kernel MMC, about 20 minutes on
one core) and writes reference/poisson_gp.csv (the run's histogram.csv) and
reference/poisson_gp.json (method, seed, effort, run summary, environment).

    python3 perfbench/make_reference.py
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

from gpmmc.harness import parse_config, run_experiment  # noqa: E402

import envinfo  # noqa: E402


def main() -> None:
    cfg_path = HERE / "workloads" / "poisson_reference.cfg"
    with tempfile.TemporaryDirectory() as tmp:
        summary = run_experiment(parse_config(cfg_path), tmp)
        shutil.copy(Path(tmp) / "histogram.csv",
                    HERE / "reference" / "poisson_gp.csv")
    meta = {
        "method": "exact-kernel MMC (gpmmc.harness.run_experiment), "
                  "final-iteration density",
        "config": cfg_path.read_text(),
        "seed": summary["seed"],
        "effort": {"iterations": summary["iterations"],
                   "samples_per_iteration": summary["samples_per_iteration"],
                   "burn_in": summary["burn_in"],
                   "true_evals": summary["true_evals"]},
        "runtime_seconds": summary["runtime_seconds"],
        "summary": summary,
        "environment": envinfo.collect(),
    }
    with open(HERE / "reference" / "poisson_gp.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
