"""Real-valued truth discovery with shrink-toward-mean post-processing.

Aggregate noisy numeric answers from several workers (inverse-variance
weighting when competence is known, black-box baselines when it is not),
then shrink the aggregated answer vector toward its own mean with a
data-driven weight.  Includes Monte Carlo tooling that verifies the risk
identities and improvement conditions the shrinkage step relies on, a
synthetic additive-white-Gaussian data generator, and a CSV-reporting CLI.
"""

from .analysis import (
    AggregateStream,
    AwgGenerator,
    ConditionReport,
    ConditionTerms,
    IrResult,
    McResult,
    MEAN_SQUARED,
    RiskReport,
    SUM_SQUARED,
    blue_risks,
    estimate_alpha_star,
    sufficient_conditions,
    improvement_ratio,
    improvement_ratios,
    loss,
    mc_risk,
    pipeline_base,
    pipeline_blue,
    pipeline_eb_blue,
    pipeline_eb_wrap,
    pipeline_stein_blue,
    sample_aggregate_stream,
    sample_condition_terms,
    improvement_condition,
    risk_decomposition,
    write_reports_csv,
    write_reports_jsonl,
)
from .baselines import (
    CATD,
    CRH,
    Blue,
    DistanceWeighted,
    Mean,
    Median,
    TdAlgorithm,
    blue_aggregate,
    run_td,
    run_td_batch,
)
from .data import (
    ConstantGT,
    Dataset,
    ExplicitSigmas,
    GaussianGT,
    GaussianSqSigmas,
    GROUND_TRUTH_ID,
    GtSpec,
    IndexedSigmas,
    SigmaSpec,
    SyntheticSpec,
    concat_questions,
    gen_synthetic,
    load_csv,
    partition_questions,
    save_csv,
    stream,
    stream_keys,
    streams,
    subsample,
    subsample_indices,
)
from .errors import (
    DuplicateGroundTruthError,
    EbtruthError,
    EmptyMatrixError,
    InsufficientDataError,
    InsufficientReplicatesError,
    InsufficientSignalError,
    IterationDivergenceError,
    LengthMismatchError,
    NoGroundTruthError,
    NonFiniteError,
    NonFiniteParameterError,
    NonPositiveVarianceError,
    ParseError,
    RequestTooLargeError,
    UnreachableFloorError,
    ValidationError,
    ZeroNormInputError,
)
from .estimators import (
    ShrinkageResult,
    ebe,
    shrink_batch,
    stein,
)
from .model import (
    DispersionStats,
    ObservationMatrix,
    as_answer_vector,
    dispersion,
    validate_matrix,
    validate_variances,
)
from .pipelines import eb_blue, eb_wrap, shrink_aggregate
from .variance import (
    Constant,
    HeuristicH,
    OracleReduced,
    SampleScaled,
    VarianceEstimator,
    finite_difference,
    is_mean_adjusted,
    psi_derivative,
    psi_value,
)

__version__ = "0.1.0"
