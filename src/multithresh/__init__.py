"""Adaptive wavelet estimation by aggregation of thresholded estimators.

Builds term-by-term thresholded wavelet estimators on a training subsample,
one per level offset, and combines them on a learning subsample with
exponential weights (or selects by empirical risk minimization), for the
density model and bounded regression with uniform design on [0, 1].
"""

from .aggregation import (
    AggregationDiagnostics,
    CandidateEstimator,
    LossSpec,
    MixtureEstimator,
    TheoryConstants,
    aew_weights,
    aggregate_mixture,
    beta_constants,
    candidate_grid,
    empirical_risk,
    erm_select,
    multi_threshold_candidates,
    multi_threshold_estimate,
    split_sample,
    theory_constants,
    universal_threshold_estimate,
)
from .coefficients import (
    DensitySample,
    RegressionSample,
    density_coeffs,
    j1_level,
    js_level,
    loss_difference_bound,
    margin_constant,
    min_rho,
    regression_coeffs,
)
from .evaluate import (
    DeviationReport,
    ExperimentResult,
    MomentReport,
    MonteCarloConfig,
    OracleReport,
    check_deviation,
    check_moment,
    mean_risk_by_n,
    monte_carlo,
    oracle_report,
    rate_slope,
)
from .simulate import (
    TargetFunction,
    derive_rng,
    get_target,
    sample_density,
    sample_regression,
    target_library,
)
from .thresholding import (
    OngleReport,
    ThresholdPlan,
    ThresholdRule,
    apply_rule,
    flat_plan,
    make_plan,
    threshold_expansion,
    verify_ongle,
)
from .wavelets import (
    SUPPORTED_FAMILIES,
    WaveletExpansion,
    WaveletFamily,
    analyze,
    build_family,
    eval_periodized,
    midpoint_grid,
    synthesize_at,
)

__version__ = "0.1.0"
