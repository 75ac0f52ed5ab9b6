"""Nonparametric drift and variance estimation for integrated jump-diffusions.

The observable process Y integrates a latent state X that follows a
jump-diffusion.  From discrete observations of Y the package builds the
difference-quotient proxy for X, runs local linear regressions with Gamma
asymmetric (or Gaussian) kernels to recover the drift and the conditional
second, fourth and sixth moments, selects bandwidths, builds asymptotic
confidence bands, separates the jump component from the diffusion, and
tests for the presence of jumps.  A Monte Carlo harness reproduces the
estimator's sampling behavior on simulated paths.
"""

from .bandwidth import (
    BandwidthChoice,
    BandwidthMethod,
    asymptotic_h_opt,
    block_cv,
    default_h_grid,
    mse_grid_search,
    rule_of_thumb,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateDesignError,
    JdsmoothError,
    NotIdentifiableError,
    SparseRegionError,
)
from .inference import (
    AsymptoticMoments,
    BandCompanions,
    ConfidenceBand,
    JumpComponents,
    JumpTestResult,
    asymptotic_moments,
    band_companions,
    bs_jump_test,
    confidence_band,
    identify_jump_components,
)
from .kernels import (
    KernelFamily,
    KernelSpec,
    PointRegime,
    RegimeKind,
    boundary_variance_constant,
    classify_point,
    gamma_kernel,
    gamma_kernel_moments,
    gaussian_kernel,
)
from .locallinear import (
    CurveEstimate,
    LocalFit,
    Target,
    estimate_curve,
    estimate_density,
    estimate_drift_curve,
    estimate_m_curve,
    estimate_moment_curve,
    estimate_second_derivative,
    local_linear_fit,
)
from .mc import (
    BandwidthSetting,
    McConfig,
    McReport,
    qq_data,
    run_adjusted_length_experiment,
    run_coverage_experiment,
    run_mse_experiment,
)
from .proxy import (
    ProxySeries,
    RegressionTriples,
    build_log_proxy,
    build_proxy,
    build_regression_triples,
)
from .simulate import ModelSpec, SamplePath, baseline_model, replicate_seed, simulate_path, true_moments

from ._version import VERSION as __version__

__all__ = [
    "AsymptoticMoments",
    "BandCompanions",
    "BandwidthChoice",
    "BandwidthMethod",
    "BandwidthSetting",
    "ConfidenceBand",
    "ConfigError",
    "CurveEstimate",
    "DataError",
    "DegenerateDesignError",
    "JdsmoothError",
    "JumpComponents",
    "JumpTestResult",
    "KernelFamily",
    "KernelSpec",
    "LocalFit",
    "McConfig",
    "McReport",
    "ModelSpec",
    "NotIdentifiableError",
    "PointRegime",
    "ProxySeries",
    "RegimeKind",
    "RegressionTriples",
    "SamplePath",
    "SparseRegionError",
    "Target",
    "asymptotic_h_opt",
    "asymptotic_moments",
    "band_companions",
    "baseline_model",
    "block_cv",
    "boundary_variance_constant",
    "bs_jump_test",
    "build_log_proxy",
    "build_proxy",
    "build_regression_triples",
    "classify_point",
    "confidence_band",
    "default_h_grid",
    "estimate_curve",
    "estimate_density",
    "estimate_drift_curve",
    "estimate_m_curve",
    "estimate_moment_curve",
    "estimate_second_derivative",
    "gamma_kernel",
    "gamma_kernel_moments",
    "gaussian_kernel",
    "identify_jump_components",
    "local_linear_fit",
    "mse_grid_search",
    "qq_data",
    "replicate_seed",
    "rule_of_thumb",
    "run_adjusted_length_experiment",
    "run_coverage_experiment",
    "run_mse_experiment",
    "simulate_path",
    "true_moments",
]
