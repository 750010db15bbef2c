"""Calibration-layer unit and property tests: scores, weight
normalization, the weighted quantile and the corrections built on it.

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
    ContractViolationError,
    DegeneratePolicyError,
    PreconditionError,
    _denominators,
    weighted_corrections,
    weighted_quantile,
)
from ccke.harness import _coverage, _inefficiency, _scores
from test_harness import reference_ccke_correction


def oracle_quantile(scores, probs, p_inf, alpha):
    """Brute-force sweep of the defining inequality over the sorted scores."""
    n = len(scores)
    threshold = (1 - alpha) * (n + 1) / n
    for s in sorted(set(scores)):
        mass = sum(p for sc, p in zip(scores, probs) if sc <= s)
        if mass >= threshold:
            return float(s)
    return math.inf


def uniform_probs(n):
    """NCCKE's masses: 1 / (N + 1) on every score and on the atom at +inf."""
    return np.full(n, 1.0 / (n + 1))


def score(lo, hi, y):
    """The score of one KPI vector against one interval set."""
    rows = [np.asarray(v, dtype=float)[None] for v in (lo, hi, y)]
    return float(_scores(*rows)[0])


# ---------------------------------------------------------------------------
# scores


def test_score_outside_above():
    assert score([2.0], [5.0], [6.0]) == 1.0


def test_score_degenerate_interval():
    assert score([3.0], [3.0], [3.0]) == 0.0


def test_score_max_over_kpis():
    assert score([0, 1], [4, 3], [2, 2]) == -1.0


def test_score_positive_iff_outside():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = rng.integers(1, 5)
        lo = rng.normal(size=k)
        hi = lo + rng.uniform(0, 2, size=k)
        y = rng.normal(scale=2, size=k)
        outside = np.any((y < lo) | (y > hi))
        assert (score(lo, hi, y) > 0) == outside


# ---------------------------------------------------------------------------
# weight normalization


def masses(w_cal, w_test):
    """The calibration masses and the +inf atom's mass of one test point."""
    w_cal, w_test, denom = _denominators(w_cal, [w_test])
    return w_cal / denom, float(w_test[0] / denom[0])


def test_weights_uniform_policy():
    probs, p_inf = masses([1.0] * 4, 1.0)
    assert np.allclose(probs, 0.2)
    assert p_inf == pytest.approx(0.2)


def test_weights_all_mass_on_test_point():
    probs, p_inf = masses([0.0, 0.0], 1.0)
    assert p_inf == 1.0
    assert np.all(probs == 0.0)


def test_weights_hand_normalization():
    probs, p_inf = masses([1.0, 3.0], 1.0)
    assert np.allclose(probs, [0.2, 0.6])
    assert p_inf == pytest.approx(0.2)


def test_weights_degenerate_policy():
    with pytest.raises(DegeneratePolicyError):
        masses([0.0] * 3, 0.0)


def test_weights_reject_negative_and_nonfinite():
    with pytest.raises(ContractViolationError):
        masses([-1.0], -1.0)
    with pytest.raises(ContractViolationError):
        masses([math.inf], math.inf)


# ---------------------------------------------------------------------------
# weighted_quantile


def test_quantile_uniform_example():
    # threshold 0.8 * 10 / 9 ~ 0.888; reached at the 9th smallest score
    assert weighted_quantile(range(1, 10), uniform_probs(9), 0.2) == 9.0


def test_quantile_all_mass_at_infinity():
    assert weighted_quantile([7.0], [0.0], 0.5) == math.inf


def test_quantile_single_score_frozen_by_oracle():
    # oracle sweep: cumulative mass at s=5 is 0.9 < threshold 1.0 -> +inf
    assert oracle_quantile([5.0], [0.9], 0.1, 0.5) == math.inf
    assert weighted_quantile([5.0], [0.9], 0.5) == math.inf


def test_quantile_alpha_precondition_message():
    with pytest.raises(PreconditionError) as err:
        weighted_quantile([1.0, 2.0, 3.0], uniform_probs(3), 0.1)
    assert str(1.0 / 4.0) in str(err.value)
    # boundary alpha is feasible
    weighted_quantile([1.0, 2.0, 3.0], uniform_probs(3), 0.25)


def test_quantile_nan_alpha_rejected():
    with pytest.raises(PreconditionError):
        weighted_quantile([1.0, 2.0, 3.0], uniform_probs(3), math.nan)


def test_quantile_rejects_a_mass_vector_of_another_length():
    # all N + 1 masses, the +inf atom's included, is a caller's slip
    with pytest.raises(ContractViolationError):
        weighted_quantile([1.0, 2.0], [0.3, 0.3, 0.4], 0.5)


def test_quantile_order_statistic_readings_differ():
    # For 9 uniform scores at alpha=0.2 the indicator formula selects the
    # 9th smallest value while the ceil((1-alpha)(N+1)) reading gives the
    # 8th; the indicator formula is the normative one.
    scores = list(range(1, 10))
    ceil_rank = math.ceil((1 - 0.2) * (9 + 1))
    assert ceil_rank == 8 and sorted(scores)[ceil_rank - 1] == 8.0
    assert weighted_quantile(scores, uniform_probs(9), 0.2) == 9.0


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
    got = weighted_quantile(scores, probs, alpha)
    assert got == oracle_quantile(scores.tolist(), probs.tolist(), p_inf, alpha)


def test_quantile_monotone_in_coverage_level():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        scores = rng.normal(size=n)
        w = rng.uniform(0, 1, size=n + 1)
        w /= w.sum()
        alphas = np.sort(rng.uniform(1.0 / (n + 1), 0.9, size=5))[::-1]
        values = [weighted_quantile(scores, w[:-1], a) for a in alphas]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# weighted_corrections (batch)


def test_batch_corrections_equal_per_point_sets():
    # each test point's correction is the one its own score distribution
    # gives, against the sort/cumsum/searchsorted reference bit for bit and
    # the brute-force oracle for NCCKE's uniform masses
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        scores = rng.normal(size=n)
        w_cal = rng.lognormal(size=n)
        w_test = rng.lognormal(size=7)
        alpha = float(rng.uniform(1.0 / (n + 1), 0.9))
        got = weighted_corrections(scores, w_cal, w_test, alpha)
        want = [reference_ccke_correction(scores, w_cal, float(w), alpha) for w in w_test]
        assert got.tobytes() == np.array(want).tobytes()
        unit = weighted_corrections(scores, np.ones(n), np.ones(3), alpha)
        nccke = oracle_quantile(scores.tolist(), uniform_probs(n).tolist(), 1.0 / (n + 1), alpha)
        assert unit.tobytes() == np.full(3, nccke).tobytes()


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
# prediction sets: bounds (lo, hi) widened by a correction q


def test_ccke_zero_correction_equals_naive():
    q = weighted_corrections(np.zeros(9), np.ones(9), [1.0], alpha=0.2)
    assert q.tolist() == [0.0]


def test_ccke_infinite_correction_unbounded():
    q = weighted_corrections([1.0], [1.0], [1.0], alpha=0.5)
    assert q.tolist() == [math.inf]
    far = _scores(np.array([[2.0]]), np.array([[5.0]]), np.array([[1e12]]))
    assert _coverage(far[None], q[None]) == [1.0]


def test_ccke_hand_widening():
    q = float(weighted_corrections(np.full(9, 1.5), np.ones(9), [1.0], alpha=0.2)[0])
    assert q == 1.5
    # [2, 5] widens to [0.5, 6.5]
    width = _inefficiency(np.full((1, 1, 1), 2.0), np.full((1, 1, 1), 5.0), np.array([[q]]),
                          np.ones((1, 1)), np.zeros((1, 1, 2)))[0]
    assert width == [6.0]


def test_nccke_equals_ccke_under_uniform_weights():
    # unit density ratios give every mass, the +inf atom's too, 1 / (N + 1)
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        scores = rng.normal(size=n)
        alpha = float(rng.uniform(1.0 / (n + 1), 0.9))
        got = weighted_corrections(scores, np.ones(n), [1.0], alpha)
        assert got.tolist() == [weighted_quantile(scores, uniform_probs(n), alpha)]


def test_nccke_uniform_quantile_example():
    assert weighted_corrections(np.arange(1.0, 10.0), np.ones(9), [1.0], 0.2).tolist() == [9.0]


def test_empty_calibration_rejected():
    # no alpha is feasible for an empty calibration set
    with pytest.raises(PreconditionError):
        weighted_quantile([], [], 0.5)


def test_cke_identity_and_shapes():
    # CKE's zero correction keeps the bounds: coverage is plain membership
    lo, hi = np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 2.0, 3.0]])
    inside, outside = np.array([[0.5, 2.0, 3.0]]), np.array([[0.5, 2.5, 3.0]])
    assert _scores(lo, hi, inside).shape == (1,)
    assert _coverage(_scores(lo, hi, np.concatenate([inside, outside]))[None],
                     np.zeros((1, 2))) == [0.5]


def test_cke_crossed_interval_is_empty():
    s = _scores(np.array([[5.0]]), np.array([[2.0]]), np.array([[3.5]]))
    assert s[0] > 0.0  # nothing is inside an empty interval
    assert _coverage(s[None], np.zeros((1, 1))) == [0.0]


def test_widening_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lo, hi = rng.normal(size=(1, 1, 4)), rng.normal(size=(1, 1, 4))
        q1, q2 = np.sort(rng.uniform(-1, 3, size=2))
        widths = [_inefficiency(lo, hi, np.array([[q]]), np.ones((1, 1)),
                                 np.zeros((1, 1, 2)))[0][0]
                  for q in (q1, q2)]
        assert widths[0] <= widths[1]
        s = _scores(lo[0], hi[0], rng.normal(size=(1, 4)))[None]
        covered = [_coverage(s, np.array([[q]]))[0] for q in (q1, q2)]
        assert covered[0] <= covered[1]  # containment nests


def test_score_coverage_duality():
    rng = np.random.default_rng(4)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        lo, hi = rng.normal(size=k), rng.normal(size=k)
        q = float(rng.uniform(-0.5, 2.0))
        y = rng.normal(scale=1.5, size=k)
        member = bool(np.all((lo - q <= y) & (y <= hi + q)))
        s = _scores(lo[None], hi[None], y[None])
        assert _coverage(s[None], np.array([[q]])) == [float(member)]


def test_correction_at_least_min_score_when_finite():
    rng = np.random.default_rng(5)
    for _ in range(80):
        n = int(rng.integers(1, 25))
        scores = rng.normal(size=n)
        w = rng.uniform(0.05, 1, size=n + 1)
        w /= w.sum()
        q = weighted_quantile(scores, w[:-1], float(rng.uniform(1.0 / (n + 1), 0.9)))
        if not math.isinf(q):
            assert q >= scores.min()
