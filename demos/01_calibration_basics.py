"""Walk through the calibration layer on a hand-sized example.

A quantile model hands us per-KPI intervals; calibration data tells us
how wrong those intervals tend to be; density-ratio weights tell us how
much each calibration point resembles the test point.  The corrected
interval widens by a weighted quantile of the observed errors.

Run:  python demos/01_calibration_basics.py
"""

import numpy as np

from ccke import weighted_corrections

rng = np.random.default_rng(0)

# A scalar KPI whose true law is y = x + Uniform(-1, 1).  Pretend the
# model's 10%/90% quantile estimates are slightly too narrow and biased.
def model_interval(x):
    return x - 0.55, x + 0.45

# The score: how far y falls outside the interval (negative inside).  A
# set widened by a correction q contains y iff its score is at most q.
def score(x, y):
    lo, hi = model_interval(x)
    return np.maximum(lo - y, y - hi)

# Calibration contexts lean negative (they were logged under the target
# app); the test context leans positive (the other app ran there).
cal_x = rng.normal(-0.5, 0.8, size=40)
cal_y = cal_x + rng.uniform(-1, 1, size=40)
scores = score(cal_x, cal_y)

print("calibration scores: min %.3f  median %.3f  max %.3f"
      % (np.min(scores), np.median(scores), np.max(scores)))

# Weights mimic a logistic selection policy: contexts near the test
# point count more.  (In the simulators this ratio comes straight from
# the controller's selection probabilities.)  Unit weights ignore the
# shift; no correction at all is the uncalibrated baseline.
test_x = 0.9
alpha = 0.2
corrections = {
    "CKE": 0.0,
    "NCCKE": weighted_corrections(scores, np.ones(scores.size), [1.0], alpha)[0],
    "CCKE": weighted_corrections(scores, np.exp(cal_x), [np.exp(test_x)], alpha)[0],
}

lo, hi = model_interval(test_x)
for name, label in (("CKE", "CKE (no calibration)"),
                    ("NCCKE", "NCCKE (unweighted)"),
                    ("CCKE", "CCKE (weighted)")):
    q = corrections[name]
    if np.isinf(q):
        print(f"{label:22s} -> unbounded set (correction +inf)")
    else:
        print(f"{label:22s} -> [{lo - q:+.3f}, {hi + q:+.3f}]  correction {q:+.3f}")

# Empirical check: how often does each set contain the true KPI at the
# test context?
n = 20_000
test_scores = score(test_x, test_x + rng.uniform(-1, 1, size=n))
print("\nempirical coverage at the test context over %d draws:" % n)
for name, q in corrections.items():
    print(f"  {name:6s} {np.count_nonzero(test_scores <= q) / n:.3f}   (target {1 - alpha})")
