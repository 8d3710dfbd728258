"""Performance-model abstraction: a black-box map from a random input vector
to a scalar output, together with the input's prior density and a cost ledger.

Input points are plain 1-D numpy arrays of length ``model.dimension``. The
true model takes blocks: its eval_fn maps an (n, d) array of points to the
n outputs, and evaluate passes one point as a block of one. Models are pure:
evaluating the same point twice, alone or inside any block, returns
bit-identical results. The package's own models, and the config keys each
takes, are listed in benchmarks.MODELS.
The ledger is a plain counter; the samplers and engines in this package
run sequentially, so increments need no locking. Callers who evaluate from
several threads must serialize access themselves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError

__all__ = [
    "EvalLedger",
    "PerformanceModel",
    "evaluate",
    "log_prior_density",
    "sample_prior",
    "gaussian_model",
]


@dataclass
class EvalLedger:
    """Count of true-model evaluations, taken inside evaluate. Monotone.
    Kept apart from the causes run_mmc counts from the step records
    (MmcResult.causes), so a run's accounting compares two sources."""

    true_evals: int = 0


@dataclass(frozen=True)
class PerformanceModel:
    """A scalar performance map y = g(x) with a prior on x.

    Parameters
    ----------
    name : str
        Model name, informational.
    dimension : int
        Input dimension d; every x must be a length-d vector.
    eval_fn : callable
        (n, d) array -> (n,) array, one output per row. Deterministic, and
        row i's output depends on row i alone. A model with only a scalar
        form loops over the rows.
    log_prior_fn : callable
        x -> float, the log prior density. The additive constant is fixed
        per instance so density ratios between points are exact.
    prior_sampler : callable
        (rng, n) -> (n, d) array of independent prior draws.
    """

    name: str
    dimension: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    log_prior_fn: Callable[[np.ndarray], float]
    prior_sampler: Callable[[np.random.Generator, int], np.ndarray]


def evaluate(model: PerformanceModel, x: np.ndarray,
             ledger: EvalLedger | None = None) -> float | np.ndarray:
    """Run the true model at one point x of shape (d,), returning a float,
    or at each row of a block x of shape (n, d), returning n floats. The
    ledger is charged once per point, in one step.

    Raises ValueError on any other shape, or when the model does not return
    one value per point, and EvaluationError (carrying the first point whose
    value is not finite) if an output is not finite.
    """
    x = np.asarray(x, dtype=float)
    one = x.shape == (model.dimension,)
    if not (one or x.ndim == 2 and x.shape[1] == model.dimension):
        raise ValueError(
            f"model {model.name!r} expects shape ({model.dimension},) or "
            f"(n, {model.dimension}), got {x.shape}")
    block = x[None, :] if one else x
    n = len(block)
    if ledger is not None:
        ledger.true_evals += n
    y = np.asarray(model.eval_fn(block), dtype=float)
    if y.shape != (n,):
        raise ValueError(f"model {model.name!r} returned shape {y.shape} "
                         f"for {n} points")
    # One point per chain step: a Python float test costs far less there
    # than np.isfinite(y).all(), which would dominate the rest of this call.
    if one:
        v = float(y[0])
        if math.isfinite(v):
            return v
    elif np.isfinite(y).all():
        return y
    i = int(np.argmin(np.isfinite(y)))
    raise EvaluationError(
        f"model {model.name!r} returned non-finite value {float(y[i])!r}",
        point=block[i])


def log_prior_density(model: PerformanceModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dimension,):
        raise ValueError(
            f"model {model.name!r} expects shape ({model.dimension},), "
            f"got {x.shape}")
    return float(model.log_prior_fn(x))


def sample_prior(model: PerformanceModel, rng: np.random.Generator,
                 n: int) -> np.ndarray:
    """Draw n independent prior samples as an (n, d) array. n must be an
    integer, a Python or a numpy one."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"need an integer n >= 1 prior draws, got n={n!r}")
    xs = np.asarray(model.prior_sampler(rng, n), dtype=float)
    if xs.shape != (n, model.dimension):
        raise ValueError(f"prior sampler returned shape {xs.shape}, "
                         f"expected ({n}, {model.dimension})")
    return xs


def gaussian_model(name: str, eval_fn: Callable[[np.ndarray], np.ndarray],
                   mean: np.ndarray, std: np.ndarray) -> PerformanceModel:
    """Model with an independent-Gaussian prior N(mean, diag(std^2)).
    eval_fn takes an (n, d) block; see PerformanceModel."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.ndim != 1 or mean.size == 0 or mean.shape != std.shape:
        raise ValueError("mean and std must be non-empty 1-D arrays of equal "
                         "length")
    if np.any(std <= 0):
        raise ValueError("prior standard deviations must be positive")
    d = mean.size
    log_norm = -0.5 * d * math.log(2.0 * math.pi) - float(np.log(std).sum())

    if not mean.any() and np.all(std == 1.0):
        # standard normal: (x - 0) / 1 leaves every |x_i| as it is, so the
        # chains, which take the log prior on every step, skip both ufuncs
        def log_prior(x: np.ndarray) -> float:
            return log_norm - 0.5 * float(x @ x)
    else:
        def log_prior(x: np.ndarray) -> float:
            z = (x - mean) / std
            return log_norm - 0.5 * float(z @ z)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return mean + std * rng.standard_normal((n, d))

    return PerformanceModel(name=name, dimension=d, eval_fn=eval_fn,
                            log_prior_fn=log_prior, prior_sampler=sampler)
