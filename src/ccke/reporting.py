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
from typing import Sequence

from .conformal import ContractViolationError
from .harness import BoxStats, ExperimentReport

__all__ = ["emit_report", "read_trial_rows", "aggregate_rows", "write_aggregate"]

TRIAL_COLUMNS = ["environment", "method", "T", "K", "alpha", "trial", "coverage",
                 "inefficiency_raw", "inefficiency_clipped", "n_unbounded", "seed"]
AGGREGATE_COLUMNS = ["environment", "method", "metric", "T", "K", "alpha", "median",
                     "mean", "q1", "q3", "whisker_lo", "whisker_hi", "outlier_count"]


def _kpi_count(cfg) -> int:
    return cfg.n_users if cfg.environment == "mac" else 1


def emit_report(report: ExperimentReport, out_dir) -> tuple:
    """Write ``trials.csv`` and ``aggregate.csv`` under ``out_dir``.

    Rows are fully materialized before any file is opened, so a failed
    run never leaves a partial report behind.
    """
    cfg = report.config
    k = _kpi_count(cfg)
    trial_rows = [[cfg.environment, t.method, repr(float(cfg.temperature)), k,
                   repr(float(cfg.alpha)), t.trial, repr(float(t.coverage)),
                   repr(float(t.inefficiency_raw)), repr(float(t.inefficiency_clipped)),
                   t.n_unbounded, t.seed]
                  for t in report.trials]
    agg_rows = []
    for (method, metric), stats in sorted(report.aggregates().items()):
        agg_rows.append([cfg.environment, method, metric, repr(float(cfg.temperature)),
                         k, repr(float(cfg.alpha)), repr(stats.median), repr(stats.mean),
                         repr(stats.q1), repr(stats.q3), repr(stats.whisker_lo),
                         repr(stats.whisker_hi), stats.outlier_count])
    os.makedirs(out_dir, exist_ok=True)
    trials_path = os.path.join(out_dir, "trials.csv")
    agg_path = os.path.join(out_dir, "aggregate.csv")
    with open(trials_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        writer.writerows(trial_rows)
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        writer.writerows(agg_rows)
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
    groups = {}
    for r in rows:
        groups.setdefault(
            (r["environment"], r["method"], r["T"], r["K"], r["alpha"]), []).append(r)
    out = []
    for key in sorted(groups):
        env, method, temp, k, alpha = key
        members = groups[key]
        for metric in ("coverage", "inefficiency_clipped", "inefficiency_raw"):
            values = [m[metric] for m in members]
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
    agg = aggregate_rows(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        writer.writerows(agg)
