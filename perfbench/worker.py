"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py CONFIG SEED OUT_DIR TRACE RESULT_JSON KERNELS [KEY=VALUE ...]

Runs gpmmc.harness.parse_config / run_experiment on CONFIG with the seed and
any integer KEY=VALUE overrides, writing the run's files to OUT_DIR, and
writes its timings to RESULT_JSON. The clock starts before numpy, scipy or
gpmmc are imported, so setup_s includes the imports a user of the command
line pays on every run. With TRACE=1 every layer callable in
tracing.LAYER_SPANS is wrapped, the spans are saved to OUT_DIR/spans.npz and
per-layer totals are added to the result.

Untraced, the worker runs a calibrate.Sampler of the comma-separated
calibration KERNELS from parse_config to the end of run_experiment. Each
interval's time excludes the kernels' time, and the result holds the mean
kernel times sampled in it, with which run.py scales the timings to the
reference host speed. Traced runs are not sampled, so the kernels do not
enter the layers' self times.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> int:
    cfg_path, seed, out_dir, trace, result_path, kernels = argv[:6]
    overrides = {k: int(v) for k, v in (a.split("=", 1) for a in argv[6:])}
    overrides["seed"] = int(seed)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gpmmc.harness as harness
    from calibrate import Sampler
    from tracing import LAYER_SPANS, PHASE_SPANS, Tracer

    if Path(harness.__file__).resolve().parent != SRC / "gpmmc":
        raise RuntimeError(f"gpmmc imported from {harness.__file__}, "
                           f"not from {SRC}")
    tracer = Tracer()
    tracer.install(LAYER_SPANS if trace == "1" else PHASE_SPANS)

    cal = Sampler(kernels.split(","))
    with cal if trace == "0" else contextlib.nullcontext():
        cfg = harness.parse_config(cfg_path, overrides)
        summary = harness.run_experiment(cfg, out_dir)

    run_start, run_end = tracer.first("harness.run")
    sampler = tracer.first("engine.loop") or tracer.first("engine.plain_mc")
    intervals = {"run": (run_start, run_end), "setup": (T_START, sampler[0]),
                 "phase_setup": (run_start, sampler[0]), "sampling": sampler,
                 "output": (sampler[1], run_end)}
    result = {"summary": summary, "kernel_s": {}}
    for name, (t0, t1) in intervals.items():
        spent, result["kernel_s"][name] = cal.within(t0, t1)
        result[f"{name}_s"] = t1 - t0 - spent
    result |= {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if trace == "1":
        result["layers"] = tracer.summarize()
        tracer.save(Path(out_dir) / "spans.npz", run_id=f"{cfg_path}:{seed}")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
