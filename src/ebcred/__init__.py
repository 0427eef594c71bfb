"""Adaptive empirical-Bayes credible balls for sequence-space inverse problems."""

from .credible_set import (
    CredibleBall,
    RadiusEstimate,
    build_credible_ball,
    contains,
    l2_distance,
    radius_builtin,
    radius_precise,
)
from .experiments import (
    CoverageReport,
    CurveSet,
    ExperimentConfig,
    FpFnReport,
    RateReport,
    count_fp_fn,
    coverage_experiment,
    export_curves,
    fpfn_experiment,
    make_truth,
    rate_experiment,
    simulate_data,
)
from .function_space import reconstruct, uniform_grid
from .samplers import (
    HeadTailSplit,
    ProposalExhausted,
    RngSeed,
    draw_gaussian_sequence,
    draw_lawmu,
    draw_posterior,
    head_tail_split,
    lawmu_scales,
    make_rng,
    recentered_radii,
    squared_normals,
)
from .sequence_model import (
    CoefficientSequence,
    EBFitResult,
    ObservationSequence,
    OperatorSpectrum,
    PosteriorSpec,
    PriorFamily,
    TruncationWarning,
    adequate_i_max,
    eb_fit,
    identity_spectrum,
    make_spectrum,
    marginal_log_likelihood,
    posterior_spec,
    posterior_variances,
    prior_variance,
    truncation_tail_bound,
    volterra_spectrum,
)

__version__ = "0.1.0"
