"""Performance-model abstraction: a black-box map from a random input vector
to a scalar output, together with the input's prior density and a cost ledger.

Input points are plain 1-D numpy arrays of length ``model.dimension``. Models
are pure: evaluating the same point twice returns bit-identical results.
The ledger is a plain counter pair; the samplers and engines in this package
run sequentially, so increments need no locking. Callers who evaluate from
several threads must serialize access themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, EvaluationError

__all__ = [
    "EvalLedger",
    "PerformanceModel",
    "evaluate",
    "log_prior_density",
    "sample_prior",
    "gaussian_model",
    "register_model",
    "build_model",
    "model_config_keys",
    "registered_models",
]


@dataclass
class EvalLedger:
    """Counts of true-model and surrogate evaluations. Monotone."""

    true_evals: int = 0
    surrogate_evals: int = 0


@dataclass(frozen=True)
class PerformanceModel:
    """A scalar performance map y = g(x) with a prior on x.

    Parameters
    ----------
    name : str
        Registry name, informational.
    dimension : int
        Input dimension d; every x must be a length-d vector.
    eval_fn : callable
        x -> float. Deterministic.
    log_prior_fn : callable
        x -> float, the log prior density. The additive constant is fixed
        per instance so density ratios between points are exact.
    prior_sampler : callable
        (rng, n) -> (n, d) array of independent prior draws.
    """

    name: str
    dimension: int
    eval_fn: Callable[[np.ndarray], float]
    log_prior_fn: Callable[[np.ndarray], float]
    prior_sampler: Callable[[np.random.Generator, int], np.ndarray]


def evaluate(model: PerformanceModel, x: np.ndarray,
             ledger: EvalLedger | None = None) -> float:
    """Run the true model at x, incrementing the ledger exactly once.

    Raises ValueError on dimension mismatch and EvaluationError (carrying x)
    if the model output is not finite.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dimension,):
        raise ValueError(
            f"model {model.name!r} expects shape ({model.dimension},), "
            f"got {x.shape}")
    if ledger is not None:
        ledger.true_evals += 1
    y = float(model.eval_fn(x))
    if not math.isfinite(y):
        raise EvaluationError(
            f"model {model.name!r} returned non-finite value {y!r}", point=x)
    return y


def log_prior_density(model: PerformanceModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dimension,):
        raise ValueError(
            f"model {model.name!r} expects shape ({model.dimension},), "
            f"got {x.shape}")
    return float(model.log_prior_fn(x))


def sample_prior(model: PerformanceModel, rng: np.random.Generator,
                 n: int) -> np.ndarray:
    """Draw n independent prior samples as an (n, d) array."""
    if n < 1:
        raise ValueError(f"need n >= 1 prior draws, got n={n}")
    xs = np.asarray(model.prior_sampler(rng, n), dtype=float)
    if xs.shape != (n, model.dimension):
        raise ValueError(f"prior sampler returned shape {xs.shape}, "
                         f"expected ({n}, {model.dimension})")
    return xs


def gaussian_model(name: str, eval_fn: Callable[[np.ndarray], float],
                   mean: np.ndarray, std: np.ndarray) -> PerformanceModel:
    """Model with an independent-Gaussian prior N(mean, diag(std^2))."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.ndim != 1 or mean.shape != std.shape:
        raise ValueError("mean and std must be 1-D arrays of equal length")
    if np.any(std <= 0):
        raise ValueError("prior standard deviations must be positive")
    d = mean.size
    log_norm = -0.5 * d * math.log(2.0 * math.pi) - float(np.log(std).sum())

    def log_prior(x: np.ndarray) -> float:
        z = (x - mean) / std
        return log_norm - 0.5 * float(z @ z)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return mean + std * rng.standard_normal((n, d))

    return PerformanceModel(name=name, dimension=d, eval_fn=eval_fn,
                            log_prior_fn=log_prior, prior_sampler=sampler)


# config-file key -> (factory keyword, parser of the key's text value)
ConfigKeys = dict[str, tuple[str, Callable[[str], Any]]]

_REGISTRY: dict[str, tuple[Callable[..., PerformanceModel], ConfigKeys]] = {}


def register_model(name: str, factory: Callable[..., PerformanceModel],
                   config_keys: ConfigKeys) -> None:
    """Make factory buildable by name. config_keys declares the config-file
    keys the model takes, each as (factory keyword, parser); a key a config
    leaves out takes the factory's default."""
    _REGISTRY[name] = (factory, dict(config_keys))


def _registered(name: str) -> tuple[Callable[..., PerformanceModel], ConfigKeys]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigError(f"unknown model {name!r}; registered: {known}") from None


def build_model(name: str, **params) -> PerformanceModel:
    """Instantiate a registered model by name with keyword parameters."""
    return _registered(name)[0](**params)


def model_config_keys(name: str) -> ConfigKeys:
    """The config keys a registered model declared; see register_model."""
    return dict(_registered(name)[1])


def registered_models() -> list[str]:
    return sorted(_REGISTRY)
