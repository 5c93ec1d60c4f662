"""GP regression on 3D fields with rotationally anisotropic covariance metrics.

The covariance metric is parameterised by three principal length-scales and
an SO(3) orientation in axis-angle coordinates, with ARD and generic-SPD
baselines, posterior inference by random-walk Metropolis-Hastings, and an
experiment harness for synthetic recovery and plane-holdout studies.
"""

from .data import (DataFormatError, SplitDataset, SyntheticConfig,
                   generate_synthetic, holdout_planes, load_csv,
                   sample_gp_outputs, save_csv, standardize)
from .gp import (Dataset, GPModel, PredictiveResult, log_marginal_likelihood,
                 log_marginal_likelihood_and_grad, predict)
from .kernels import (GramFactorizationError, GramMatrix, KernelProfile,
                      Matern, SquaredExponential, cross_gram, gram,
                      profile_slope, radial_profile)
from .mcmc import (Chain, ChainConfig, ChainInitError, PosteriorSummary,
                   Priors, ProposalScales, SamplerState,
                   effective_sample_size, initial_state, load_chain_csv,
                   log_prior, mh_step, run_chain, summarize)
from .metric import (AnisotropySummary, Ard, CholeskySpd, InvalidParamsError,
                     MetricParams, NotSpdError, Rotational, build_metric,
                     eigen_summary, misalignment_angles)
from .metrics import Metrics, compute_metrics
from .so3 import exp_so3, geodesic_angle, skew

__version__ = "0.1.0"

__all__ = [
    "AnisotropySummary", "Ard", "Chain", "ChainConfig", "ChainInitError",
    "CholeskySpd", "DataFormatError", "Dataset", "GPModel",
    "GramFactorizationError", "GramMatrix", "InvalidParamsError",
    "KernelProfile", "Matern", "Metrics", "MetricParams", "NotSpdError",
    "PosteriorSummary", "PredictiveResult", "Priors", "ProposalScales",
    "Rotational", "SamplerState", "SplitDataset", "SquaredExponential",
    "SyntheticConfig", "build_metric", "compute_metrics", "cross_gram",
    "effective_sample_size", "eigen_summary", "exp_so3", "generate_synthetic",
    "geodesic_angle", "gram", "holdout_planes", "initial_state",
    "load_chain_csv", "load_csv", "log_marginal_likelihood",
    "log_marginal_likelihood_and_grad", "log_prior", "mh_step",
    "misalignment_angles", "predict", "profile_slope", "radial_profile",
    "run_chain", "sample_gp_outputs", "save_csv", "skew", "standardize",
    "summarize",
]
