"""Run the benchmark over many seeds and summarise its spread.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads phy,synthetic]
                               [--trace 1] [--out summary.json]
                               [--baseline earlier_summary.json]

For each workload it runs ``run.py`` once per seed, sequentially, and
reports for every metric the median of the per-run values and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  An
end-to-end metric is steady when its spread is below a third of its
bound in BENCHMARK.json.  With ``--baseline`` it also flags every
metric whose median is worse than the baseline's by more than its bound,
and every seed whose output hashes differ.  Exits 1 if any run failed
or anything was flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr[-2000:]}
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["record"] = next(json.loads(line[len("record "):]) for line in lines
                            if line.startswith("record "))
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(spec, runs: list, trace: int) -> dict:
    metrics = spec["per_layer" if trace else "end_to_end"]
    good = [r for r in runs if "metrics" in r]
    out = {"runs": len(runs), "correct": all(r["correct"] for r in runs),
           "failed_ops": sum(r.get("failed", 0) for r in good),
           "hashes": {str(r["record"]["seed"]): r["record"]["hashes"] for r in good},
           "metrics": {}, "records": [r["record"] for r in good]}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in good]
        entry = {"unit": m["unit"], "values": values}
        if values:
            entry["median"] = statistics.median(values)
        if len(values) >= 2 and entry["median"]:
            entry["spread"] = spread(values)
            if "bound" in m:
                entry["bound"] = m["bound"]
                entry["steady"] = entry["spread"] < m["bound"] / 3
        out["metrics"][m["name"]] = entry
    return out


def compare(spec, summary: dict, baseline: dict) -> list:
    """Regressions beyond a bound, and seeds whose outputs changed."""
    problems = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, now in summary.items():
        before = baseline.get(workload)
        if before is None:
            continue
        for name, entry in now["metrics"].items():
            m, old = bounds.get(name), before["metrics"].get(name, {}).get("median")
            if m is None or not old or "median" not in entry:
                continue
            change = (entry["median"] - old) / old
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                problems.append(f"{workload} {name}: {change:+.1%} against bound {m['bound']}")
        for seed, hashes in now["hashes"].items():
            if seed in before["hashes"] and before["hashes"][seed] != hashes:
                problems.append(f"{workload} seed {seed}: output hashes changed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    summary = {}
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_one(spec, workload, seed, args.trace))
            status = "ok" if runs[-1]["correct"] else "FAILED " + runs[-1].get("error", "")
            print(f"{workload} seed {seed}: {status}", file=sys.stderr, flush=True)
        summary[workload] = summarise(spec, runs, args.trace)
        for name, entry in summary[workload]["metrics"].items():
            if "spread" in entry:
                flag = {True: "", False: "  NOT STEADY"}.get(entry.get("steady"), "")
                print(f"{workload:13s} {name:34s} median {entry['median']:.6g} "
                      f"{entry['unit']}  spread {entry['spread']:.3f}{flag}", flush=True)
        if args.out:
            Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    problems = []
    if args.baseline:
        problems = compare(spec, summary, json.loads(Path(args.baseline).read_text()))
        for line in problems:
            print("REGRESSION " + line)
    return 0 if all(s["correct"] for s in summary.values()) and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
