"""Counterfactual what-if KPI analysis for simulated wireless systems.

Quantile regressors estimate per-KPI intervals for the app that was not
run; weighted conformal calibration corrects those intervals for the
covariate shift introduced by context-dependent app selection, yielding
prediction sets with a finite-sample coverage guarantee.
"""

from .conformal import (
    CalibrationScores,
    ContractViolationError,
    CorrectionQuantile,
    DegeneratePolicyError,
    IntervalSet,
    PredictionSet,
    PreconditionError,
    WeightedScoreDistribution,
    ccke_prediction_set,
    cke_prediction_set,
    compute_score,
    compute_weight_probabilities,
    nccke_prediction_set,
    weighted_corrections,
    weighted_quantile,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    LoggedSample,
    MacEnvironment,
    NoiseSpec,
    PhyEnvironment,
    SyntheticEnvironment,
    build_environment,
    counterfactual_truth,
    evaluate_coverage,
    evaluate_inefficiency,
    log_dataset,
    rng_for,
    run_experiment,
    select_and_split,
)
from .quantile_net import (
    AttentionArch,
    FeedforwardArch,
    QuantileModel,
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    pinball_gradient,
    pinball_loss,
    save_checkpoint,
    train,
)
from .reporting import emit_report

__version__ = "0.1.0"
