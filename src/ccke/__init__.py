"""Counterfactual what-if KPI analysis for simulated wireless systems.

Quantile regressors estimate per-KPI intervals for the app that was not
run; weighted conformal calibration corrects those intervals for the
covariate shift introduced by context-dependent app selection, yielding
prediction sets with a finite-sample coverage guarantee.
"""

from .conformal import (
    ContractViolationError,
    DegeneratePolicyError,
    PreconditionError,
    weighted_corrections,
    weighted_quantile,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    MacEnvironment,
    NoiseSpec,
    PhyEnvironment,
    SyntheticEnvironment,
    build_environment,
    rng_for,
    run_experiment,
)
from .quantile_net import (
    ATTENTION,
    FEEDFORWARD,
    QuantileModel,
    TrainConfig,
    TrainingDivergedError,
    pinball_loss,
    train,
)
from .reporting import emit_report

__version__ = "0.1.0"
