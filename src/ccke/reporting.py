"""CSV emission for experiment reports.

Two files per run: a per-trial table (one row per method and trial) and
an aggregate table with box-plot statistics (median, mean, quartiles,
Tukey whiskers at 1.5 IQR, outlier count).  Floats are written with
``repr`` so parsing recovers every value bit-exactly.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import ContractViolationError
from .harness import ExperimentReport

__all__ = ["emit_report", "read_trial_rows", "aggregate_rows", "write_aggregate"]

TRIAL_COLUMNS = ["environment", "method", "T", "K", "alpha", "trial", "coverage",
                 "inefficiency_raw", "inefficiency_clipped", "n_unbounded", "seed"]
AGGREGATE_COLUMNS = ["environment", "method", "metric", "T", "K", "alpha", "median",
                     "mean", "q1", "q3", "whisker_lo", "whisker_hi", "outlier_count"]


@dataclass(frozen=True)
class BoxStats:
    """Box-plot statistics of one metric; all +inf when any value is not finite."""

    median: float
    mean: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outlier_count: int

    @classmethod
    def from_values(cls, values) -> "BoxStats":
        v = np.asarray(values, dtype=float)
        if v.size == 0 or not np.all(np.isfinite(v)):
            inf = math.inf
            return cls(median=inf, mean=inf, q1=inf, q3=inf,
                       whisker_lo=inf, whisker_hi=inf, outlier_count=0)
        q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = v[(v >= lo_fence) & (v <= hi_fence)]
        return cls(median=float(med), mean=float(v.mean()), q1=float(q1), q3=float(q3),
                   whisker_lo=float(inside.min()), whisker_hi=float(inside.max()),
                   outlier_count=int(np.sum((v < lo_fence) | (v > hi_fence))))


def _kpi_count(cfg) -> int:
    return cfg.n_users if cfg.environment == "mac" else 1


def emit_report(report: ExperimentReport, out_dir) -> tuple:
    """Write ``trials.csv`` and ``aggregate.csv`` under ``out_dir``.

    Rows are fully materialized before any file is opened, so a failed
    run never leaves a partial report behind.
    """
    cfg = report.config
    env, temp, k, alpha = (cfg.environment, float(cfg.temperature), _kpi_count(cfg),
                           float(cfg.alpha))
    rows = [(env, t.method, temp, k, alpha, t.trial, float(t.coverage),
             float(t.inefficiency_raw), float(t.inefficiency_clipped), t.n_unbounded, t.seed)
            for t in report.trials]
    agg_rows = _aggregate(rows)
    os.makedirs(out_dir, exist_ok=True)
    trials_path = os.path.join(out_dir, "trials.csv")
    agg_path = os.path.join(out_dir, "aggregate.csv")
    _write_rows(trials_path, TRIAL_COLUMNS, rows)
    _write_rows(agg_path, AGGREGATE_COLUMNS, agg_rows)
    return trials_path, agg_path


def read_trial_rows(path) -> list:
    """Parse a per-trial CSV back into typed dicts."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRIAL_COLUMNS:
            raise ContractViolationError(
                f"{path}: expected columns {TRIAL_COLUMNS}, found {reader.fieldnames}")
        for r in reader:
            rows.append({
                "environment": r["environment"], "method": r["method"],
                "T": float(r["T"]), "K": int(r["K"]), "alpha": float(r["alpha"]),
                "trial": int(r["trial"]), "coverage": float(r["coverage"]),
                "inefficiency_raw": float(r["inefficiency_raw"]),
                "inefficiency_clipped": float(r["inefficiency_clipped"]),
                "n_unbounded": int(r["n_unbounded"]), "seed": int(r["seed"]),
            })
    return rows


def aggregate_rows(rows: Sequence[dict]) -> list:
    """Box statistics per (environment, method, T, K, alpha) and metric."""
    return _aggregate([[r[c] for c in TRIAL_COLUMNS] for r in rows])


def _aggregate(rows) -> list:
    """``aggregate_rows`` of rows held as sequences in ``TRIAL_COLUMNS``
    order, whose first five columns are the group key."""
    groups = {}
    for r in rows:
        groups.setdefault(tuple(r[:5]), []).append(r)
    out = []
    for key in sorted(groups):
        env, method, temp, k, alpha = key
        members = groups[key]
        for metric in ("coverage", "inefficiency_clipped", "inefficiency_raw"):
            col = TRIAL_COLUMNS.index(metric)
            values = [m[col] for m in members]
            if metric == "inefficiency_raw":
                finite = [v for v in values if math.isfinite(v)]
                values = finite if finite else [math.inf]
            stats = BoxStats.from_values(values)
            out.append([env, method, metric, repr(temp), k, repr(alpha),
                        repr(stats.median), repr(stats.mean), repr(stats.q1),
                        repr(stats.q3), repr(stats.whisker_lo), repr(stats.whisker_hi),
                        stats.outlier_count])
    return out


def write_aggregate(rows: Sequence[dict], path) -> None:
    _write_rows(path, AGGREGATE_COLUMNS, aggregate_rows(rows))


def _write_rows(path, columns, rows) -> None:
    """A header of ``columns``, then ``rows``; floats go out as ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
