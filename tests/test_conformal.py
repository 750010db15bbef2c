"""Calibration-layer unit and property tests.

The weighted quantile is checked against an exhaustive cumulative-sum
oracle that re-evaluates the defining indicator inequality from scratch
for every candidate score, independent of the production sort/cumsum
path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccke.conformal import (
    CalibrationScores,
    ContractViolationError,
    CorrectionQuantile,
    DegeneratePolicyError,
    IntervalSet,
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


def oracle_quantile(scores, probs, p_inf, alpha):
    """Brute-force sweep of the defining inequality over the sorted scores."""
    n = len(scores)
    threshold = (1 - alpha) * (n + 1) / n
    for s in sorted(set(scores)):
        mass = sum(p for sc, p in zip(scores, probs) if sc <= s)
        if mass >= threshold:
            return float(s)
    return math.inf


def uniform_dist(scores):
    n = len(scores)
    return WeightedScoreDistribution(scores=np.asarray(scores, dtype=float),
                                     point_probs=np.full(n, 1.0 / (n + 1)),
                                     infinity_prob=1.0 / (n + 1))


# ---------------------------------------------------------------------------
# compute_score


def test_score_outside_above():
    assert compute_score(IntervalSet(lo=[2.0], hi=[5.0]), [6.0]) == 1.0


def test_score_degenerate_interval():
    assert compute_score(IntervalSet(lo=[3.0], hi=[3.0]), [3.0]) == 0.0


def test_score_max_over_kpis():
    assert compute_score(IntervalSet(lo=[0, 1], hi=[4, 3]), [2, 2]) == -1.0


def test_score_positive_iff_outside():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = rng.integers(1, 5)
        lo = rng.normal(size=k)
        hi = lo + rng.uniform(0, 2, size=k)
        y = rng.normal(scale=2, size=k)
        outside = np.any((y < lo) | (y > hi))
        assert (compute_score(IntervalSet(lo=lo, hi=hi), y) > 0) == outside


def test_score_length_mismatch():
    with pytest.raises(ContractViolationError):
        compute_score(IntervalSet(lo=[0.0], hi=[1.0]), [1.0, 2.0])


# ---------------------------------------------------------------------------
# compute_weight_probabilities


def test_weights_uniform_policy():
    dist = compute_weight_probabilities(lambda c: 1.0, [0, 1, 2, 3], 9)
    assert np.allclose(dist.point_probs, 0.2)
    assert dist.infinity_prob == pytest.approx(0.2)


def test_weights_all_mass_on_test_point():
    dist = compute_weight_probabilities(lambda c: 1.0 if c == "test" else 0.0,
                                        ["a", "b"], "test")
    assert dist.infinity_prob == 1.0
    assert np.all(dist.point_probs == 0.0)


def test_weights_hand_normalization():
    values = {"a": 1.0, "b": 3.0, "t": 1.0}
    dist = compute_weight_probabilities(lambda c: values[c], ["a", "b"], "t")
    assert np.allclose(dist.point_probs, [0.2, 0.6])
    assert dist.infinity_prob == pytest.approx(0.2)


def test_weights_degenerate_policy():
    with pytest.raises(DegeneratePolicyError):
        compute_weight_probabilities(lambda c: 0.0, [1, 2, 3], 4)


def test_weights_reject_negative_and_nonfinite():
    with pytest.raises(ContractViolationError):
        compute_weight_probabilities(lambda c: -1.0, [1], 2)
    with pytest.raises(ContractViolationError):
        compute_weight_probabilities(lambda c: math.inf, [1], 2)


def test_distribution_normalization_validated():
    with pytest.raises(ContractViolationError):
        WeightedScoreDistribution(scores=[1.0], point_probs=[0.5], infinity_prob=0.4)


# ---------------------------------------------------------------------------
# weighted_quantile


def test_quantile_uniform_example():
    # threshold 0.8 * 10 / 9 ~ 0.888; reached at the 9th smallest score
    assert weighted_quantile(uniform_dist(range(1, 10)), 0.2).value == 9.0


def test_quantile_all_mass_at_infinity():
    dist = WeightedScoreDistribution(scores=[7.0], point_probs=[0.0], infinity_prob=1.0)
    assert weighted_quantile(dist, 0.5).is_infinite


def test_quantile_single_score_frozen_by_oracle():
    # oracle sweep: cumulative mass at s=5 is 0.9 < threshold 1.0 -> INFINITE
    dist = WeightedScoreDistribution(scores=[5.0], point_probs=[0.9], infinity_prob=0.1)
    assert oracle_quantile([5.0], [0.9], 0.1, 0.5) == math.inf
    assert weighted_quantile(dist, 0.5).is_infinite


def test_quantile_alpha_precondition_message():
    dist = uniform_dist([1.0, 2.0, 3.0])
    with pytest.raises(PreconditionError) as err:
        weighted_quantile(dist, 0.1)
    assert str(1.0 / 4.0) in str(err.value)
    # boundary alpha is feasible
    weighted_quantile(dist, 0.25)


def test_quantile_nan_alpha_rejected():
    with pytest.raises(PreconditionError):
        weighted_quantile(uniform_dist([1.0, 2.0, 3.0]), math.nan)


def test_quantile_order_statistic_readings_differ():
    # For 9 uniform scores at alpha=0.2 the indicator formula selects the
    # 9th smallest value while the ceil((1-alpha)(N+1)) reading gives the
    # 8th; the indicator formula is the normative one.
    scores = list(range(1, 10))
    ceil_rank = math.ceil((1 - 0.2) * (9 + 1))
    assert ceil_rank == 8 and sorted(scores)[ceil_rank - 1] == 8.0
    assert weighted_quantile(uniform_dist(scores), 0.2).value == 9.0


@settings(max_examples=400, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1),
       tie_scores=st.booleans())
def test_quantile_matches_bruteforce_oracle(n, seed, tie_scores):
    # Continuous random weights: exact threshold ties have measure zero,
    # so the production path and the independent sweep must agree exactly.
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if tie_scores and n >= 2:
        scores[rng.integers(0, n)] = scores[0]  # repeated score values are fine
    raw = rng.uniform(0.0, 1.0, size=n + 1)
    raw[rng.uniform(size=n + 1) < 0.2] = 0.0  # zero weights allowed
    if raw.sum() == 0.0:
        raw[:] = 1.0
    probs = raw[:-1] / raw.sum()
    p_inf = raw[-1] / raw.sum()
    alpha = float(rng.uniform(1.0 / (n + 1), 0.95))
    dist = WeightedScoreDistribution(scores=scores, point_probs=probs,
                                     infinity_prob=p_inf)
    got = weighted_quantile(dist, alpha).value
    assert got == oracle_quantile(scores.tolist(), probs.tolist(), p_inf, alpha)


def test_quantile_monotone_in_coverage_level():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        scores = rng.normal(size=n)
        w = rng.uniform(0, 1, size=n + 1)
        w /= w.sum()
        dist = WeightedScoreDistribution(scores=scores, point_probs=w[:-1],
                                         infinity_prob=w[-1])
        alphas = np.sort(rng.uniform(1.0 / (n + 1), 0.9, size=5))[::-1]
        values = [weighted_quantile(dist, a).value for a in alphas]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# weighted_corrections (batch)


def test_batch_corrections_equal_per_point_sets():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        cal = cal_from(rng.normal(size=n))
        w_cal = rng.lognormal(size=n)
        w_test = rng.lognormal(size=7)
        alpha = float(rng.uniform(1.0 / (n + 1), 0.9))
        iv = IntervalSet(lo=[0.0], hi=[1.0])
        got = weighted_corrections(cal.scores, w_cal, w_test, alpha)
        want = [ccke_prediction_set(iv, cal, lambda c: w_cal[c] if c != "t" else w, "t",
                                    alpha).correction.value for w in w_test]
        assert got.tobytes() == np.array(want).tobytes()
        unit = weighted_corrections(cal.scores, np.ones(n), np.ones(3), alpha)
        assert unit.tobytes() == np.full(3, nccke_prediction_set(iv, cal, alpha)
                                         .correction.value).tobytes()


def test_stacked_corrections_equal_per_set_calls():
    # T calibration sets in one call: each row of the result is the call on
    # that set alone, bit for bit, with tied scores and zero weights too
    rng = np.random.default_rng(7)
    for t, n, m in ((1, 1, 1), (3, 5, 4), (25, 50, 100)):
        scores = np.round(rng.normal(size=(t, n)), 1)
        w_cal = rng.lognormal(sigma=2.0, size=(t, n))
        w_cal[rng.uniform(size=(t, n)) < 0.1] = 0.0
        w_test = rng.lognormal(sigma=2.0, size=(t, m))
        alpha = max(0.2, 1.0 / (n + 1))
        got = weighted_corrections(scores, w_cal, w_test, alpha)
        want = np.stack([weighted_corrections(scores[i], w_cal[i], w_test[i], alpha)
                         for i in range(t)])
        assert got.shape == (t, m) and got.tobytes() == want.tobytes()
    with pytest.raises(ContractViolationError):  # one row of test weights per set
        weighted_corrections(scores, w_cal, w_test[:-1], 0.2)


@pytest.mark.parametrize("w_cal, w_test, error", [
    ([1.0, -1.0], [1.0], ContractViolationError),
    ([1.0, 1.0], [-1.0], ContractViolationError),
    ([1.0, math.nan], [1.0], ContractViolationError),
    ([1.0, 1.0], [math.inf], ContractViolationError),
    ([0.0, 0.0], [1.0, 0.0], DegeneratePolicyError),
    ([1e308, 1e308], [1.0], ContractViolationError),  # the sum overflows: masses do not sum to 1
    ([1.0], [1.0], ContractViolationError),  # one weight per score
])
def test_batch_corrections_reject_bad_weights(w_cal, w_test, error):
    with np.errstate(over="ignore"), pytest.raises(error):
        weighted_corrections([0.5, 1.5], w_cal, w_test, 0.5)


@pytest.mark.parametrize("alpha", [math.nan, 0.1, 1.0])
def test_batch_corrections_reject_infeasible_alpha(alpha):
    with pytest.raises(PreconditionError):
        weighted_corrections([0.5, 1.5, 2.5], [1.0] * 3, [1.0], alpha)


@pytest.mark.parametrize("scores", [[], [0.0, math.nan]])
def test_batch_corrections_reject_bad_scores(scores):
    with pytest.raises(ContractViolationError):
        weighted_corrections(scores, [1.0] * len(scores), [1.0], 0.5)


# ---------------------------------------------------------------------------
# prediction sets


def cal_from(scores):
    return CalibrationScores(scores=np.asarray(scores, dtype=float),
                             contexts=list(range(len(scores))))


def test_ccke_zero_correction_equals_naive():
    iv = IntervalSet(lo=[2.0], hi=[5.0])
    cal = cal_from([0.0] * 9)
    ps = ccke_prediction_set(iv, cal, lambda c: 1.0, "x", alpha=0.2)
    assert ps.correction.value == 0.0
    assert np.array_equal(ps.lo, iv.lo) and np.array_equal(ps.hi, iv.hi)


def test_ccke_infinite_correction_unbounded():
    iv = IntervalSet(lo=[2.0], hi=[5.0])
    cal = cal_from([1.0])
    ps = ccke_prediction_set(iv, cal, lambda c: 1.0, "x", alpha=0.5)
    assert ps.unbounded and ps.contains([1e12])


def test_ccke_hand_widening():
    iv = IntervalSet(lo=[2.0], hi=[5.0])
    cal = cal_from([1.5] * 9)
    ps = ccke_prediction_set(iv, cal, lambda c: 1.0, "x", alpha=0.2)
    assert ps.correction.value == 1.5
    assert ps.lo[0] == 0.5 and ps.hi[0] == 6.5


def test_nccke_equals_ccke_under_uniform_weights():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        cal = cal_from(rng.normal(size=n))
        iv = IntervalSet(lo=rng.normal(size=3), hi=rng.normal(size=3))
        alpha = float(rng.uniform(1.0 / (n + 1), 0.9))
        a = ccke_prediction_set(iv, cal, lambda c: 1.0, "t", alpha)
        b = nccke_prediction_set(iv, cal, alpha)
        assert a.correction.value == b.correction.value
        if not a.unbounded:
            assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)


def test_nccke_uniform_quantile_example():
    iv = IntervalSet(lo=[0.0], hi=[0.0])
    ps = nccke_prediction_set(iv, cal_from(range(1, 10)), alpha=0.2)
    assert ps.correction.value == 9.0


def test_empty_calibration_rejected():
    with pytest.raises(ContractViolationError):
        cal_from([])


def test_cke_identity_and_shapes():
    ps = cke_prediction_set(IntervalSet(lo=[2.0], hi=[5.0]))
    assert ps.lo[0] == 2.0 and ps.hi[0] == 5.0 and ps.correction.value == 0.0
    ps3 = cke_prediction_set(IntervalSet(lo=[0, 0, 0], hi=[1, 2, 3]))
    assert ps3.kpi_count == 3 and ps3.widths().shape == (3,)


def test_cke_crossed_interval_is_empty():
    ps = cke_prediction_set(IntervalSet(lo=[5.0], hi=[2.0]))
    assert ps.widths()[0] == 0.0
    assert not ps.contains([3.5])  # nothing is inside an empty interval


def test_widening_monotonicity():
    from ccke.conformal import PredictionSet

    rng = np.random.default_rng(3)
    for _ in range(50):
        iv = IntervalSet(lo=rng.normal(size=4), hi=rng.normal(size=4))
        q1, q2 = np.sort(rng.uniform(-1, 3, size=2))
        a = PredictionSet(naive=iv, correction=CorrectionQuantile(float(q1)))
        b = PredictionSet(naive=iv, correction=CorrectionQuantile(float(q2)))
        assert np.all(b.lo <= a.lo) and np.all(b.hi >= a.hi)
        y = rng.normal(size=4)
        assert not a.contains(y) or b.contains(y)  # containment nests


def test_score_coverage_duality():
    from ccke.conformal import PredictionSet

    rng = np.random.default_rng(4)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        iv = IntervalSet(lo=rng.normal(size=k), hi=rng.normal(size=k))
        q = float(rng.uniform(-0.5, 2.0))
        ps = PredictionSet(naive=iv, correction=CorrectionQuantile(q))
        y = rng.normal(scale=1.5, size=k)
        member = bool(np.all((iv.lo - q <= y) & (y <= iv.hi + q)))
        assert ps.contains(y) == member
        assert (compute_score(iv, y) <= q) == member


def test_correction_at_least_min_score_when_finite():
    rng = np.random.default_rng(5)
    for _ in range(80):
        n = int(rng.integers(1, 25))
        scores = rng.normal(size=n)
        w = rng.uniform(0.05, 1, size=n + 1)
        w /= w.sum()
        dist = WeightedScoreDistribution(scores=scores, point_probs=w[:-1],
                                         infinity_prob=w[-1])
        q = weighted_quantile(dist, float(rng.uniform(1.0 / (n + 1), 0.9)))
        if not q.is_infinite:
            assert q.value >= scores.min()
