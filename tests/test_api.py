"""The public surface: at most 38 names at the top level, every exported
name resolves, in the package and in each of its modules, the layer
internals kept out of the top level resolve in their modules, and so does
every callable the benchmark's tracer (perfbench/tracing.py, imported by its
path) wraps by module and name, and the tracer installs over a run;
importing the package leaves the sparse solvers unloaded and BLAS at one
thread unless the caller chose otherwise."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gpmmc

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


# Layer internals and the benchmark models' parts: importable from their
# modules, not exported from the package.
MODULE_ONLY = [
    "benchmarks.KLBasis", "benchmarks.kl_decompose",
    "benchmarks.realize_field", "benchmarks.solve_poisson",
    "benchmarks.interpolate_bilinear", "benchmarks.beam_eval",
    "gp.local_size", "gp.QuadraticMean", "gp.build_local_surrogate",
    "mcmc.log_bias_density", "mcmc.accepts",
]


def test_every_exported_name_resolves():
    assert len(gpmmc.__all__) == len(set(gpmmc.__all__))
    assert len(gpmmc.__all__) <= 38
    for name in gpmmc.__all__:
        assert getattr(gpmmc, name) is not None, name


@pytest.mark.parametrize("path", MODULE_ONLY)
def test_module_only_name_resolves(path):
    module, name = path.split(".")
    mod = importlib.import_module(f"gpmmc.{module}")
    assert name in mod.__all__
    assert getattr(mod, name) is not None
    assert name not in gpmmc.__all__ and not hasattr(gpmmc, name)


@pytest.mark.parametrize("name", ["Proposal", "StepRecord",
                                  "_accepting_bins", "WeightTable",
                                  "Histogram"])
def test_removed_name_is_gone(name):
    """The engine owns the proposal scale (MmcConfig.proposal_scale) and
    hands on_step its arguments, so neither type exists anywhere; the
    surrogate's screening asks mcmc.accepts, the one accept rule, so no
    module keeps its own copy; a run's weights are rows of one array
    (MmcResult.weights), so no weight-table type exists; a tally is a
    counts array (binning.tally), so no histogram type exists."""
    modules = [importlib.import_module(f"gpmmc.{m.name}")
               for m in pkgutil.iter_modules(gpmmc.__path__)]
    for mod in [gpmmc, *modules]:
        assert not hasattr(mod, name), f"{mod.__name__}.{name}"


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(gpmmc.__path__)))
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"gpmmc.{module}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"gpmmc.{module}.__all__ names missing: {missing}"


def _tracing():
    """perfbench/tracing.py, imported by its path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_spans():
    return _tracing().LAYER_SPANS


@pytest.mark.parametrize("span", _layer_spans(),
                         ids=lambda s: f"{s[1]}.{s[2]}")
def test_traced_callable_resolves(span):
    _, module, attr = span
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


TRACED_RUNS = """
import importlib.util, sys
sys.path.insert(0, {src!r})
import numpy as np
import gpmmc.engine as engine
from gpmmc import (Binning, EvalLedger, ExactKernel, MmcConfig,
                   fit_surrogate_kernel)
from gpmmc.benchmarks import min_distance_model
spec = importlib.util.spec_from_file_location("tracing", {tracing!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install(tracing.LAYER_SPANS)
model, binning = min_distance_model(2), Binning(-1.0, 54.0, 55)
cfg = MmcConfig(iterations=2, samples_per_iteration=200, proposal_scale=1.0,
                burn_in=20, seed=5)
engine.run_mmc(ExactKernel(model, binning, EvalLedger()), cfg)
engine.run_mmc(fit_surrogate_kernel(model, binning, 5, initial_design=20,
                                    gamma=0.05, beta_max=0.05, p=2,
                                    ledger=EvalLedger()),
               cfg)
ids = np.frombuffer(tracer.name_id, dtype=np.int32)
for name in ("engine.loop", "engine.target", "mcmc.step", "surrogate.step"):
    print(name, int((ids == tracer.names.index(name)).sum()))
"""


def test_tracer_installs_and_counts_one_kernel_step_per_step():
    """perfbench's Tracer, installed over every layer span as a traced
    bench run installs it, runs an exact and a surrogate chain and sees
    each run's loop once, each kernel's step once per step, and the log
    target once per step and once per iteration start. In a fresh process,
    because installing replaces package attributes for good."""
    code = TRACED_RUNS.format(src=str(ROOT / "src"),
                              tracing=str(PERFBENCH / "tracing.py"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    calls = dict(line.split() for line in out.stdout.splitlines())
    steps = 2 * (200 + 20)
    assert calls == {"engine.loop": "2",
                     "engine.target": str(2 * (steps + 2)),
                     "mcmc.step": str(steps), "surrogate.step": str(steps)}


def test_import_leaves_sparse_solvers_unloaded():
    # the Poisson solve is a banded LAPACK call; scipy.sparse.linalg would
    # add ~50 ms to every process that imports gpmmc
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import gpmmc; print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
])
def test_import_defaults_blas_to_one_thread(preset, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(preset)
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import os, gpmmc; "
            f"print(*(os.environ[k] for k in {BLAS_THREADS!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == want
