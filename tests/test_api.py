"""The public surface: every exported name resolves, in the package and in
each of its modules, and so does every callable the benchmark's tracer wraps
by module and name; importing the package leaves the sparse solvers
unloaded and BLAS at one thread unless the caller chose otherwise."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gpmmc

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_exported_name_resolves():
    assert len(gpmmc.__all__) == len(set(gpmmc.__all__))
    for name in gpmmc.__all__:
        assert getattr(gpmmc, name) is not None, name


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(gpmmc.__path__)))
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"gpmmc.{module}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"gpmmc.{module}.__all__ names missing: {missing}"


def _layer_spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing").LAYER_SPANS
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("span", _layer_spans(),
                         ids=lambda s: f"{s[1]}.{s[2]}")
def test_traced_callable_resolves(span):
    _, module, attr = span
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


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
