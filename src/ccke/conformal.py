"""Split-conformal calibration of quantile intervals under covariate shift.

Calibration turns per-KPI quantile intervals into prediction sets with
finite-sample coverage.  A set is an interval's bounds plus a correction
``q``: it covers a KPI vector iff the vector's score (its worst-case
interval violation) is at most ``q``, and it is unbounded where ``q`` is
+inf.  The correction is a weighted quantile of the calibration scores
(Tibshirani et al. 2019, *Conformal Prediction under Covariate Shift*):
each calibration point carries its density-ratio weight, normalized
together with the test point's own weight, which sits as an atom at +inf.

:func:`weighted_corrections` computes the corrections of a whole test
set at once, or of a stack of calibration and test sets (one sort per
calibration set and one cumulative sum over the stack).  Unit weights
give the shift-blind NCCKE correction; CCKE uses the density ratios, and
CKE no correction at all.  :func:`weighted_quantile` is the quantile of
one score distribution.

All functions are pure and safe to share across parallel experiment
trials.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ContractViolationError",
    "PreconditionError",
    "DegeneratePolicyError",
    "clipped_exp",
    "rng_segments",
    "weighted_quantile",
    "weighted_corrections",
]

PROB_TOL = 1e-9


class ContractViolationError(ValueError):
    """An argument violates an operation's stated contract."""


class PreconditionError(ValueError):
    """A numeric precondition (e.g. minimum feasible alpha) is not met."""


class DegeneratePolicyError(RuntimeError):
    """Every weight is zero: the target app is never selected under any
    observed context, so the density-ratio distribution is undefined."""


def _denominators(w_cal, w_test):
    """Checked calibration and test weights, as float arrays, and the
    mass denominators ``W + w_test``, with ``W`` summed in calibration
    order; ``w_cal`` is (..., N) and ``w_test`` (..., m), one set per
    leading index."""
    w_cal = np.asarray(w_cal, dtype=float)
    w_test = np.asarray(w_test, dtype=float)
    if np.any(w_cal < 0.0) or np.any(w_test < 0.0):
        raise ContractViolationError("weights must be nonnegative")
    if not (np.all(np.isfinite(w_cal)) and np.all(np.isfinite(w_test))):
        raise ContractViolationError("weights must be finite")
    denom = w_cal.sum(axis=-1, keepdims=True) + w_test
    if np.any(denom <= 0.0):
        raise DegeneratePolicyError(
            "all density-ratio weights are zero: the actual app is never "
            "selected under any observed context"
        )
    return w_cal, w_test, denom


def clipped_exp(z) -> np.ndarray:
    """Density ratios exp(z) from (n,) log ratios, each exponent clipped to
    [-700, 700] so the ratio stays finite.

    ``math.exp`` per element, mapped straight into the result with
    ``np.fromiter``: numpy's vectorized exp differs from it in the last
    bit on some inputs, which would move the CCKE corrections.
    """
    z = np.clip(z, -700.0, 700.0)
    return np.fromiter(map(math.exp, z.tolist()), dtype=float, count=z.size)


def rng_segments(rng, n: int) -> list:
    """The generators of a batch of ``n`` simulator rows, as a list of
    (generator, row count) segments in row order.  A single ``Generator``
    is one segment of all ``n`` rows; a sequence of pairs must cover the
    rows exactly.  Each segment's draws come from its own generator, as a
    call on that segment alone would make them."""
    if isinstance(rng, np.random.Generator):
        return [(rng, n)]
    segments = [(g, int(count)) for g, count in rng]
    if any(count < 0 for _, count in segments) or sum(c for _, c in segments) != n:
        raise ContractViolationError(
            f"segments of {[c for _, c in segments]} rows for a batch of {n}")
    return segments


def _level(n: int, alpha: float) -> float:
    """The mass level ``(1 - alpha)(N + 1) / N`` a correction must reach
    over ``n`` calibration points; an infeasible alpha raises."""
    min_alpha = 1.0 / (n + 1)
    if not min_alpha <= alpha < 1.0:  # NaN fails too
        raise PreconditionError(
            f"alpha={alpha} infeasible for {n} calibration points; "
            f"smallest feasible alpha is {min_alpha}"
        )
    return (1.0 - alpha) * (n + 1) / n


def _pick(sorted_scores: np.ndarray, cum: np.ndarray, level: float) -> np.ndarray:
    """The quantile rule of :func:`weighted_quantile`: for each row of the
    cumulative masses ``cum``, (..., m, N) over the sorted scores (..., N),
    the first score whose cumulative mass reaches ``level``, else +inf."""
    # cum rows never decrease, so this count is searchsorted(row, level, "left")
    idx = np.count_nonzero(cum < level, axis=-1)
    inf = np.full(sorted_scores.shape[:-1] + (1,), math.inf)
    return np.take_along_axis(np.concatenate([sorted_scores, inf], axis=-1), idx, axis=-1)


def weighted_quantile(scores, point_probs, alpha: float) -> float:
    """Quantile of one weighted score distribution, used as the correction.

    ``point_probs[n]`` is the mass on ``scores[n]``; the rest of the unit
    mass sits on an atom at +inf.  Returns the infimum ``s`` over the
    sorted scores and +inf such that

        sum_n p_n * 1(s_n <= s) + p_inf * 1(inf <= s)
            >= (1 - alpha) * (N + 1) / N,

    with the convention that ``1(inf <= inf) = 1``: +inf when only the
    atom at infinity reaches the threshold.
    """
    scores = np.atleast_1d(np.asarray(scores, dtype=float))
    point_probs = np.atleast_1d(np.asarray(point_probs, dtype=float))
    if point_probs.shape != scores.shape or scores.ndim != 1:
        raise ContractViolationError("one mass per score, as vectors, required")
    level = _level(scores.size, alpha)
    order = np.argsort(scores, kind="stable")
    return float(_pick(scores[order], np.cumsum(point_probs[order])[None, :], level)[0])


def weighted_corrections(scores, w_cal, w_test, alpha: float) -> np.ndarray:
    """CCKE corrections of many test points against one calibration set,
    or against each of a stack of them.

    ``scores`` and ``w_cal`` are the calibration scores and density-ratio
    weights, (N,) or stacked (..., N); ``w_test`` holds one weight per
    test point, (m,) or (..., m) with the same leading shape.  Entry ``i``
    of a set is :func:`weighted_quantile` of the masses
    ``w_cal / (W + w_test[i])``, with ``W`` the sum of ``w_cal``, bit for
    bit, and ``+inf`` where the set is unbounded.  Unit weights give the
    NCCKE correction.

    Each set's scores are sorted once and its weights gathered into that
    order before they are divided by ``W + w_test`` (``W`` summed in
    calibration order); the divide is elementwise, so the masses keep
    their bits, and one cumulative sum runs over the (..., m, N) masses.
    """
    scores = np.atleast_1d(np.asarray(scores, dtype=float))
    if scores.shape[-1] < 1:
        raise ContractViolationError("calibration set must contain at least one score")
    if not np.all(np.isfinite(scores)):
        raise ContractViolationError("calibration scores must be finite")
    w_test = np.atleast_1d(np.asarray(w_test, dtype=float))
    if np.shape(w_cal) != scores.shape or w_test.shape[:-1] != scores.shape[:-1]:
        raise ContractViolationError("one weight per score and a vector of test weights required")
    w_cal, w_test, denom = _denominators(w_cal, w_test)
    order = np.argsort(scores, axis=-1, kind="stable")
    cum = np.take_along_axis(w_cal, order, axis=-1)[..., None, :] / denom[..., None]
    np.cumsum(cum, axis=-1, out=cum)
    if np.any(np.abs(cum[..., -1] + w_test / denom - 1.0) > PROB_TOL):
        raise ContractViolationError("probabilities do not sum to 1")
    return _pick(np.take_along_axis(scores, order, axis=-1), cum, _level(scores.shape[-1], alpha))
