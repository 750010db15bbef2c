"""Split-conformal calibration of quantile intervals under covariate shift.

The calibration pipeline turns per-KPI quantile intervals into prediction
sets with finite-sample coverage: score the calibration points, reweight
the scores by a density ratio that accounts for context-dependent app
selection, take a weighted quantile of the score distribution, and widen
the intervals by the resulting correction.  Three set constructors are
provided:

* :func:`ccke_prediction_set` - weighted calibration (shift-aware),
* :func:`nccke_prediction_set` - unweighted calibration (shift-blind),
* :func:`cke_prediction_set` - no calibration at all.

:func:`weighted_corrections` computes the corrections of a whole test
set at once (one sort and one cumulative sum per calibration set), bit
for bit equal to the per-point constructors.

All functions are pure; every value object is immutable after
construction and safe to share across parallel experiment trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "IntervalSet",
    "CalibrationScores",
    "WeightedScoreDistribution",
    "CorrectionQuantile",
    "PredictionSet",
    "ContractViolationError",
    "PreconditionError",
    "DegeneratePolicyError",
    "compute_score",
    "compute_weight_probabilities",
    "weighted_quantile",
    "weighted_corrections",
    "ccke_prediction_set",
    "nccke_prediction_set",
    "cke_prediction_set",
]

PROB_TOL = 1e-9


class ContractViolationError(ValueError):
    """An argument violates an operation's stated contract."""


class PreconditionError(ValueError):
    """A numeric precondition (e.g. minimum feasible alpha) is not met."""


class DegeneratePolicyError(RuntimeError):
    """Every weight is zero: the target app is never selected under any
    observed context, so the density-ratio distribution is undefined."""


@dataclass(frozen=True)
class IntervalSet:
    """Per-KPI lower/upper quantile estimates for one context.

    Quantile crossing (``lo[k] > hi[k]``) is permitted: the regressor's
    outputs are unconstrained and the score below stays well defined.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 1:
            raise ContractViolationError(
                f"lo/hi must be 1-d vectors of equal length, got {lo.shape} and {hi.shape}"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def kpi_count(self) -> int:
        return self.lo.size


@dataclass(frozen=True)
class CalibrationScores:
    """Nonconformity scores of the calibration split, with the contexts
    that produced them (opaque here; only the weight function reads them)."""

    scores: np.ndarray
    contexts: Sequence

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.scores, dtype=float))
        if s.size < 1:
            raise ContractViolationError("calibration set must contain at least one score")
        if not np.all(np.isfinite(s)):
            raise ContractViolationError("calibration scores must be finite")
        if len(self.contexts) != s.size:
            raise ContractViolationError(
                f"{len(self.contexts)} contexts for {s.size} scores"
            )
        object.__setattr__(self, "scores", s)

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class WeightedScoreDistribution:
    """Discrete distribution over calibration scores plus an atom at +inf.

    ``point_probs[n]`` is the mass on ``scores[n]``; ``infinity_prob`` is
    the mass the test point itself claims.  Masses sum to one.
    """

    scores: np.ndarray
    point_probs: np.ndarray
    infinity_prob: float

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.scores, dtype=float))
        p = np.atleast_1d(np.asarray(self.point_probs, dtype=float))
        if s.shape != p.shape:
            raise ContractViolationError("scores and point_probs must have equal length")
        if np.any(p < 0.0) or self.infinity_prob < 0.0:
            raise ContractViolationError("probabilities must be nonnegative")
        total = float(p.sum()) + float(self.infinity_prob)
        if abs(total - 1.0) > PROB_TOL:
            raise ContractViolationError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "point_probs", p)

    @property
    def n_cal(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class CorrectionQuantile:
    """The calibration correction.  ``math.inf`` marks the distinguished
    INFINITE value (prediction sets become unbounded)."""

    value: float

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @classmethod
    def infinite(cls) -> "CorrectionQuantile":
        return cls(math.inf)


@dataclass(frozen=True)
class PredictionSet:
    """Corrected per-KPI prediction intervals for one test context.

    The set keeps the uncorrected interval plus the correction rather
    than pre-widened endpoints so that membership can be decided through
    the score itself: ``y`` is covered iff ``score(naive, y) <= correction``.
    This makes the score/coverage duality exact in floating point.

    A finite correction with ``hi[k] + q < lo[k] - q`` yields the empty
    set for KPI k (width 0).  An infinite correction covers everything.
    """

    naive: IntervalSet
    correction: CorrectionQuantile
    target_app: object = None
    actual_app: object = None

    @property
    def kpi_count(self) -> int:
        return self.naive.kpi_count

    @property
    def unbounded(self) -> bool:
        return self.correction.is_infinite

    @property
    def lo(self) -> np.ndarray:
        """Corrected lower endpoints (-inf when unbounded)."""
        if self.unbounded:
            return np.full(self.kpi_count, -math.inf)
        return self.naive.lo - self.correction.value

    @property
    def hi(self) -> np.ndarray:
        """Corrected upper endpoints (+inf when unbounded)."""
        if self.unbounded:
            return np.full(self.kpi_count, math.inf)
        return self.naive.hi + self.correction.value

    def contains(self, y) -> bool:
        """True iff every KPI of ``y`` lies in its corrected interval."""
        if self.unbounded:
            return True
        return compute_score(self.naive, y) <= self.correction.value

    def widths(self) -> np.ndarray:
        """Per-KPI interval widths; empty intervals count 0, unbounded inf."""
        if self.unbounded:
            return np.full(self.kpi_count, math.inf)
        return np.maximum(self.hi - self.lo, 0.0)

    def clipped_widths(self, domain_lo: float, domain_hi: float) -> np.ndarray:
        """Widths after intersecting each interval with a KPI domain.

        Used for inefficiency reporting when sets are unbounded; the raw
        widths are always reported alongside.
        """
        if domain_hi < domain_lo:
            raise ContractViolationError("empty clipping domain")
        if self.unbounded:
            return np.full(self.kpi_count, domain_hi - domain_lo)
        lo = np.maximum(self.lo, domain_lo)
        hi = np.minimum(self.hi, domain_hi)
        return np.maximum(hi - lo, 0.0)


def compute_score(intervals: IntervalSet, y) -> float:
    """Worst-case signed interval violation across KPIs.

    Returns ``max_k max(lo[k] - y[k], y[k] - hi[k])``: positive iff at
    least one KPI falls outside its interval, increasingly negative the
    deeper every KPI sits inside.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != intervals.lo.shape:
        raise ContractViolationError(
            f"KPI vector of length {y.size} against {intervals.kpi_count} intervals"
        )
    return float(np.max(np.maximum(intervals.lo - y, y - intervals.hi)))


def _weight_masses(w_cal, w_test):
    """Point and infinity masses for each test weight against one
    calibration weight vector: rows ``w_cal / (W + w_test[i])`` and
    ``w_test / (W + w_test)``, with ``W`` summed in calibration order."""
    w_cal = np.asarray(w_cal, dtype=float)
    w_test = np.asarray(w_test, dtype=float)
    if np.any(w_cal < 0.0) or np.any(w_test < 0.0):
        raise ContractViolationError("weights must be nonnegative")
    if not (np.all(np.isfinite(w_cal)) and np.all(np.isfinite(w_test))):
        raise ContractViolationError("weights must be finite")
    denom = float(w_cal.sum()) + w_test
    if np.any(denom <= 0.0):
        raise DegeneratePolicyError(
            "all density-ratio weights are zero: the actual app is never "
            "selected under any observed context"
        )
    return w_cal / denom[:, None], w_test / denom


def compute_weight_probabilities(
    weight_fn: Callable[[object], float],
    cal_contexts: Sequence,
    test_context,
    scores: np.ndarray | None = None,
) -> WeightedScoreDistribution:
    """Normalize density-ratio weights into score-distribution masses.

    ``point_probs[n] = w(x_n) / (sum_m w(x_m) + w(x))`` and
    ``infinity_prob = w(x) / (sum_m w(x_m) + w(x))``.  When ``scores`` is
    omitted the distribution carries placeholder scores (useful for
    testing the normalization alone).
    """
    w = np.array([weight_fn(c) for c in cal_contexts], dtype=float)
    probs, p_inf = _weight_masses(w, [float(weight_fn(test_context))])
    if scores is None:
        scores = np.zeros_like(w)
    return WeightedScoreDistribution(
        scores=scores, point_probs=probs[0], infinity_prob=float(p_inf[0])
    )


def _quantiles(scores: np.ndarray, point_probs: np.ndarray, alpha: float) -> np.ndarray:
    """The quantile rule of :func:`weighted_quantile` for each row of
    ``point_probs`` (masses on ``scores``; the rest of a row sits at +inf).

    One stable sort of the scores serves every row; each row's cumulative
    mass is searched, ``side="left"``, for the threshold.
    """
    n = scores.size
    min_alpha = 1.0 / (n + 1)
    if not min_alpha <= alpha < 1.0:  # NaN fails too
        raise PreconditionError(
            f"alpha={alpha} infeasible for {n} calibration points; "
            f"smallest feasible alpha is {min_alpha}"
        )
    threshold = (1.0 - alpha) * (n + 1) / n
    order = np.argsort(scores, kind="stable")
    cum = np.cumsum(point_probs[:, order], axis=1)
    # cum rows never decrease, so this count is searchsorted(row, threshold, "left")
    idx = np.count_nonzero(cum < threshold, axis=1)
    return np.append(scores[order], math.inf)[idx]


def weighted_quantile(dist: WeightedScoreDistribution, alpha: float) -> CorrectionQuantile:
    """Quantile of the weighted score distribution used as the correction.

    Returns the infimum ``s`` over the sorted scores and +inf such that

        sum_n p_n * 1(s_n <= s) + p_inf * 1(inf <= s)
            >= (1 - alpha) * (N + 1) / N,

    with the convention that ``1(inf <= inf) = 1``.  When only the atom
    at infinity reaches the threshold the result is INFINITE.
    """
    q = _quantiles(dist.scores, dist.point_probs[None, :], alpha)[0]
    return CorrectionQuantile(float(q))


def weighted_corrections(scores, w_cal, w_test, alpha: float) -> np.ndarray:
    """CCKE corrections of many test points against one calibration set.

    ``scores`` and ``w_cal`` are the calibration scores and density-ratio
    weights; ``w_test`` holds one weight per test point.  Entry ``i`` is
    ``weighted_quantile`` of the distribution that
    :func:`compute_weight_probabilities` builds for test weight
    ``w_test[i]``, bit for bit, and ``+inf`` where the set is unbounded.
    Unit weights give the NCCKE correction.
    """
    scores = np.atleast_1d(np.asarray(scores, dtype=float))
    if scores.ndim != 1 or scores.size < 1:
        raise ContractViolationError("calibration set must contain at least one score")
    if not np.all(np.isfinite(scores)):
        raise ContractViolationError("calibration scores must be finite")
    w_test = np.atleast_1d(np.asarray(w_test, dtype=float))
    if np.shape(w_cal) != scores.shape or w_test.ndim != 1:
        raise ContractViolationError("one weight per score and a vector of test weights required")
    probs, p_inf = _weight_masses(w_cal, w_test)
    if np.any(np.abs(probs.sum(axis=1) + p_inf - 1.0) > PROB_TOL):
        raise ContractViolationError("probabilities do not sum to 1")
    return _quantiles(scores, probs, alpha)


def ccke_prediction_set(
    model_intervals: IntervalSet,
    cal: CalibrationScores,
    weight_fn: Callable[[object], float],
    test_context,
    alpha: float,
    target_app=None,
    actual_app=None,
) -> PredictionSet:
    """Shift-aware calibrated prediction set.

    Composes the weight normalization, the weighted quantile, and the
    interval widening.  With the exact density ratio as ``weight_fn``
    the set covers the counterfactual KPI vector with probability at
    least ``1 - alpha``.
    """
    dist = compute_weight_probabilities(weight_fn, cal.contexts, test_context, cal.scores)
    q = weighted_quantile(dist, alpha)
    return PredictionSet(
        naive=model_intervals, correction=q, target_app=target_app, actual_app=actual_app
    )


def nccke_prediction_set(
    model_intervals: IntervalSet,
    cal: CalibrationScores,
    alpha: float,
    target_app=None,
    actual_app=None,
) -> PredictionSet:
    """Calibrated set that ignores covariate shift (uniform weights).

    Identical pipeline with every atom, including the one at infinity,
    carrying mass ``1 / (N + 1)``.
    """
    n = len(cal)
    dist = WeightedScoreDistribution(
        scores=cal.scores,
        point_probs=np.full(n, 1.0 / (n + 1)),
        infinity_prob=1.0 / (n + 1),
    )
    q = weighted_quantile(dist, alpha)
    return PredictionSet(
        naive=model_intervals, correction=q, target_app=target_app, actual_app=actual_app
    )


def cke_prediction_set(
    model_intervals: IntervalSet,
    target_app=None,
    actual_app=None,
) -> PredictionSet:
    """Uncalibrated set: the quantile intervals unchanged (correction 0)."""
    return PredictionSet(
        naive=model_intervals,
        correction=CorrectionQuantile(0.0),
        target_app=target_app,
        actual_app=actual_app,
    )
