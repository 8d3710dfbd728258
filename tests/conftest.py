import os
from typing import NamedTuple

# One BLAS thread unless the caller chose otherwise: the dense solves in the
# Poisson checks run several times slower on two threads than on one. This
# must run before numpy is imported, which pytest has not done yet here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

# Criterion results recorded by tests/test_acceptance.py: number -> (ok, detail).
# The terminal summary prints one line per criterion so a full run reads as a
# checklist.
_criteria: dict[int, tuple[bool, str]] = {}
_SLOW_CRITERIA = {7, 8}
_ALL_CRITERIA = range(1, 11)


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _criteria[number] = (ok, detail)


class ScriptedRng:
    """Stands in for the chain's generator: the proposal draws z, and the
    uniforms come from a list."""

    def __init__(self, z, uniforms):
        self.z = np.atleast_1d(np.asarray(z, dtype=float))
        self.uniforms = list(uniforms)

    def standard_normal(self, n):
        assert n == self.z.size
        return self.z

    def random(self):
        return self.uniforms.pop(0)


class Step(NamedTuple):
    """The arguments run_mmc's on_step gets for one step, after its index."""

    cause: str
    beta: float | None
    accepted: bool


def engine_steps(kernel, scale, rng, x, y, log_theta, steps):
    """steps Metropolis steps of kernel at proposal scale scale from the
    in-range state (x, y) under log_theta, run by the engine's iteration
    loop as run_mmc runs them, with the cause table kernel.CAUSES declares:
    the last state's x and y, the y after each step and each step's Step.
    """
    from gpmmc.engine import _sample

    ys = np.empty(steps)
    records = []
    x, y, _ = _sample(kernel, np.asarray(scale, dtype=float), rng, x, y,
                      log_theta, 0, ys, dict.fromkeys(kernel.CAUSES, 0),
                      lambda index, *rec: records.append(Step(*rec)), 0)
    return x, y, ys, records


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the full-scale slow acceptance checks")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; use --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.section("acceptance checks")
    for num in _ALL_CRITERIA:
        if num in _criteria:
            ok, detail = _criteria[num]
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"criterion {num:2d}: {status} - {detail}")
        elif num in _SLOW_CRITERIA:
            terminalreporter.write_line(
                f"criterion {num:2d}: SKIPPED - slow suite, enable with --runslow")
        else:
            terminalreporter.write_line(f"criterion {num:2d}: NOT RUN")
