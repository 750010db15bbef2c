"""Command-line entry points.

Subcommands:
  ser-table   build and persist the link-level SER grid
  run         execute an experiment configuration, emit report CSVs and
              print the wall seconds of each experiment stage and of
              writing the report
  report      aggregate one or more per-trial CSVs into box statistics

``run`` reads a plain-text key-value config file (``key = value`` per
line, ``#`` comments) whose keys mirror the experiment configuration
fields; every field can also be overridden with a ``--set key=value``
flag.  Exit status is 0 on success, 1 with a one-line diagnostic
otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import harness, phy_sim, reporting
from .harness import ExperimentConfig, NoiseSpec


def _parse_value(name: str, raw: str, current):
    if name == "methods":
        return tuple(m.strip().upper() for m in raw.split(",") if m.strip())
    if name == "kpi_noise":
        return None if raw.lower() in ("", "none") else NoiseSpec(sigma=float(raw))
    if name == "weight_perturbation":
        return None if raw.lower() in ("", "none") else float(raw)
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


def load_config(path=None, overrides=()) -> ExperimentConfig:
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    defaults = ExperimentConfig()
    values = {}
    pairs = []
    if path:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, _, raw = line.partition("=")
                pairs.append((key.strip(), raw.strip()))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like key=value")
        key, _, raw = item.partition("=")
        pairs.append((key.strip(), raw.strip()))
    for key, raw in pairs:
        if key not in fields:
            raise ValueError(f"unknown configuration field {key!r}")
        values[key] = _parse_value(key, raw, getattr(defaults, key))
    return ExperimentConfig(**values)


def _cmd_ser_table(args) -> int:
    table = phy_sim.SerTable.build(n_mc=args.n_mc, seed=args.seed)
    table.save(args.out)
    print(f"wrote SER table ({table.values.size} cells) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.set or [])
    report = harness.run_experiment(cfg, progress=args.progress)
    start = time.perf_counter()
    trials_path, agg_path = reporting.emit_report(report, args.out_dir)
    report_seconds = time.perf_counter() - start
    for method in cfg.methods:
        print(f"{method}: coverage {report.mean_coverage(method):.4f}, "
              f"inefficiency {report.mean_inefficiency(method):.4f}")
    print("stage seconds: " + ", ".join(f"{stage} {seconds:.3f}"
                                        for stage, seconds in report.stage_seconds.items()))
    print(f"report seconds: {report_seconds:.3f}")
    print(f"wrote {trials_path} and {agg_path}")
    return 0


def _cmd_report(args) -> int:
    rows = []
    for path in args.per_trial:
        rows.extend(reporting.read_trial_rows(path))
    reporting.write_aggregate(rows, args.out)
    print(f"aggregated {len(rows)} trial rows into {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccke",
                                     description="counterfactual KPI analysis experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ser-table", help="build and persist the SER grid")
    p.add_argument("--out", required=True)
    p.add_argument("--n-mc", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=20139)
    p.set_defaults(fn=_cmd_ser_table)

    p = sub.add_parser("run", help="execute an experiment configuration")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("report", help="aggregate per-trial CSVs")
    p.add_argument("per_trial", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
