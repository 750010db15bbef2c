"""The benchmark's four experiment workloads, as plain configuration data.

This module imports nothing from ``ccke``, so the set-up probe can load
it before it starts timing ``import ccke``.

Every workload runs at alpha=0.2 with the acceptance-scale data sizes
(3000 training samples, batch 64, 50 calibration and 100 test points per
trial) and all three methods.  Epochs and trials are cut so that one
experiment takes a few seconds (phy: about 20 s) on a 2-core box, which
lets a run time several experiments.  phy keeps 60 trials because its
discrete ARQ KPI makes per-trial coverage spread widely (sd about 0.07)
and some seeds sit near 0.80 (seed 9 read 0.7997 over 40 trials): with
fewer trials their mean CCKE coverage can fall below the 0.78 floor by
chance alone.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"

COMMON = dict(alpha=0.2, n_train=3000, train_batch=64, n_cal=50, n_test=100,
              methods=("CCKE", "NCCKE", "CKE"))

WORKLOADS = {
    # the acceptance config: attention training dominates
    "mac-k8": dict(environment="mac", n_users=8, temperature=1.0,
                   actual_app="PFCA", target_app="RR",
                   train_epochs=6, n_trials=30),
    # target PFCA: the only workload whose rollouts run PFCA's per-RB loop
    "mac-k32-pfca": dict(environment="mac", n_users=32, temperature=1.0,
                         actual_app="RR", target_app="PFCA",
                         train_epochs=2, n_trials=10),
    # default SER table built in set-up; Alamouti ARQ rollouts in the run
    "phy": dict(environment="phy", temperature=1.0,
                actual_app="multiplexing_qpsk", target_app="alamouti_qpsk",
                train_epochs=40, n_trials=60),
    # exact model and weights: no training, calibration and metrics only
    "synthetic": dict(environment="synthetic", selection_temperature=1.0,
                      actual_app="base", target_app="alt", n_trials=100),
}

# the acceptance suite's floor on mean CCKE coverage at alpha=0.2
COVERAGE_FLOOR = 0.78


def config_kwargs(name: str, seed: int) -> dict:
    """Keyword arguments of ``ccke.harness.ExperimentConfig`` for a workload."""
    return {**COMMON, **WORKLOADS[name], "base_seed": seed}
