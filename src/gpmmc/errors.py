"""Exception types shared across the package.

Argument validation failures raise plain ValueError; the classes here mark
failures that callers may want to catch and handle differently (fall back to
the true model, abort a run, reject a config file).
"""


class EvaluationError(RuntimeError):
    """The performance model returned a non-finite value.

    Carries the offending input point so a failed run can be diagnosed.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SurrogateError(RuntimeError):
    """A local surrogate cannot serve a query: its correlation matrix did not
    factor even at the maximum jitter level, or its amplitude, posterior mean
    or posterior variance is not finite. The surrogate kernel answers such a
    step with a true evaluation."""


class ConfigError(ValueError):
    """A run config, CLI argument or histogram file cannot be interpreted."""
