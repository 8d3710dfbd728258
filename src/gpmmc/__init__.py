"""Full-distribution estimation of scalar model outputs by multicanonical
Monte Carlo, optionally accelerated with adaptively refined local
Gaussian-process surrogates."""

from .binning import Binning, Histogram, tally
from .engine import (MmcConfig, MmcResult, PlainMcResult, WeightTable,
                     combined_probability, estimate_moments, flatness_cv,
                     run_mmc, run_plain_mc, update_weights)
from .errors import ConfigError, EvaluationError, SurrogateError
from .gp import (EvaluationStore, LocalGP, QuadraticMean,
                 build_local_surrogate, calibrate_lengthscales,
                 fit_quadratic_mean, local_size)
from .mcmc import (ChainState, ExactKernel, Proposal, StepRecord,
                   log_bias_density, metropolis_accept, propose)
from .problem import (EvalLedger, PerformanceModel, evaluate, gaussian_model,
                      log_prior_density, sample_prior)
from .surrogate import (SurrogateKernel, fit_surrogate_kernel,
                        misassignment_probability)
from . import benchmarks
from .benchmarks import (KLBasis, beam_eval, beam_model, interpolate_bilinear,
                         kl_decompose, min_distance_model, pilot_output_range,
                         poisson_kl_model, realize_field, solve_poisson)
from .harness import (ComparisonReport, RunConfig, compare_pdfs, parse_config,
                      read_histogram_csv, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "Binning", "Histogram", "tally",
    "WeightTable", "MmcConfig", "MmcResult", "PlainMcResult",
    "log_bias_density", "combined_probability", "update_weights",
    "estimate_moments",
    "flatness_cv", "run_mmc", "run_plain_mc",
    "ChainState", "Proposal", "StepRecord", "propose", "metropolis_accept",
    "ExactKernel",
    "EvaluationStore", "QuadraticMean", "LocalGP", "local_size",
    "fit_quadratic_mean", "calibrate_lengthscales", "build_local_surrogate",
    "SurrogateKernel", "misassignment_probability", "fit_surrogate_kernel",
    "EvalLedger", "PerformanceModel", "evaluate", "log_prior_density",
    "sample_prior", "gaussian_model",
    "KLBasis", "min_distance_model", "beam_eval",
    "beam_model", "kl_decompose", "realize_field", "solve_poisson",
    "interpolate_bilinear", "poisson_kl_model", "pilot_output_range",
    "RunConfig", "ComparisonReport", "parse_config", "run_experiment",
    "compare_pdfs", "read_histogram_csv",
    "EvaluationError", "SurrogateError", "ConfigError",
    "benchmarks",
]
