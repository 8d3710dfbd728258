"""The public surface: every exported name resolves, and so does every
callable the benchmark's tracer wraps by module and name."""

import importlib
import sys
from pathlib import Path

import pytest

import gpmmc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_exported_name_resolves():
    assert len(gpmmc.__all__) == len(set(gpmmc.__all__))
    for name in gpmmc.__all__:
        assert getattr(gpmmc, name) is not None, name


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
