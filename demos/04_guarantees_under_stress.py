"""Coverage guarantees, stress-tested in a synthetic oracle environment.

The synthetic environment knows its conditional quantiles and density
ratios in closed form, so model error is zero and the calibration layer
can be tested in isolation:

  * exact weights          -> coverage >= 1 - alpha
  * weights off by E|dw|   -> coverage >= 1 - alpha - E|dw| / 2
  * symmetric KPI noise    -> coverage >= 1 - 2 alpha

Run:  python demos/04_guarantees_under_stress.py
"""

import numpy as np

from ccke.harness import (
    ExperimentConfig,
    NoiseSpec,
    SyntheticEnvironment,
    rng_for,
    run_experiment,
)

ALPHA = 0.2
TRIALS = 1000


def run(label, floor, **kw):
    cfg = ExperimentConfig(environment="synthetic", actual_app="alt",
                           target_app="base", alpha=ALPHA, n_cal=50, n_test=1,
                           n_trials=TRIALS, methods=("CCKE",), **kw)
    report = run_experiment(cfg)
    cov = report.mean_coverage("CCKE")
    extra = ""
    if report.weight_error_mean is not None:
        extra = f"  measured E|dw| = {report.weight_error_mean:.3f}"
    print(f"{label:34s} coverage {cov:.3f}  (floor {floor:.2f}){extra}")


print(f"{TRIALS} independent calibration/test trials per row\n")
run("exact density-ratio weights", 1 - ALPHA, base_seed=1)

# calibrate the perturbation so the average weight error is 0.2
env = SyntheticEnvironment()
contexts = env.sample_contexts_given_app("base", 20_000, rng_for(2, 0))
mean_w = float(np.mean(env.weight(contexts, "alt", "base")))
delta = min(0.4 / mean_w, 1.0)
run("weights with ~0.2 average error", 1 - ALPHA - 0.1,
    base_seed=2, weight_perturbation=delta)

run("symmetric KPI observation noise", 1 - 2 * ALPHA,
    base_seed=3, kpi_noise=NoiseSpec(sigma=1.0))
