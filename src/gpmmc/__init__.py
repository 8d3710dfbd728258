"""Full-distribution estimation of scalar model outputs by multicanonical
Monte Carlo, optionally accelerated with local Gaussian-process surrogates
that true evaluations refine where the chain needs them."""

import os

# One BLAS thread unless the caller set a count: the local-GP algebra is many
# small dense solves, which two threads made about 4x slower on the Poisson
# runs. BLAS reads these when numpy is first imported, so this has no effect
# if numpy was imported before gpmmc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .binning import Binning, tally
from .engine import (MmcConfig, MmcResult, combined_probability,
                     estimate_moments, flatness_cv, run_mmc, run_plain_mc,
                     update_weights)
from .errors import ConfigError, EvaluationError, SurrogateError
from .gp import (EvaluationStore, LocalGP, calibrate_lengthscales,
                 fit_quadratic_mean)
from .mcmc import ExactKernel
from .problem import (EvalLedger, PerformanceModel, evaluate, gaussian_model,
                      log_prior_density, sample_prior)
from .surrogate import (SurrogateKernel, fit_surrogate_kernel,
                        misassignment_probability)
from . import benchmarks
from .benchmarks import (beam_model, min_distance_model, pilot_output_range,
                         poisson_kl_model)
from .harness import (ComparisonReport, RunConfig, compare_pdfs, parse_config,
                      read_histogram_csv, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "Binning", "tally",
    "MmcConfig", "MmcResult",
    "combined_probability", "update_weights", "estimate_moments",
    "flatness_cv", "run_mmc", "run_plain_mc",
    "ExactKernel",
    "EvaluationStore", "LocalGP", "fit_quadratic_mean",
    "calibrate_lengthscales",
    "SurrogateKernel", "misassignment_probability", "fit_surrogate_kernel",
    "EvalLedger", "PerformanceModel", "evaluate", "log_prior_density",
    "sample_prior", "gaussian_model",
    "min_distance_model", "beam_model", "poisson_kl_model",
    "pilot_output_range",
    "RunConfig", "ComparisonReport", "parse_config", "run_experiment",
    "compare_pdfs", "read_histogram_csv",
    "EvaluationError", "SurrogateError", "ConfigError",
    "benchmarks",
]
