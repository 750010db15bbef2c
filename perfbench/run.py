"""ccke benchmark: time one experiment workload end to end, or trace it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the ``ccke`` package under ``src/`` of the checkout this file sits
in, through its public API (``build_environment`` -> ``run_experiment``
-> ``reporting.emit_report``), in one process with one BLAS thread.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of ``import ccke`` +
  ``build_environment`` + the first context draw (see setup_probe.py).
  Set-up repeats up to five times while under 4 s of wall time in total,
  so phy, whose default SER-table build takes about 20 s, sets up once.
* ``run_s`` / ``run_cpu_s``: median wall / process CPU time of one
  experiment (``run_experiment`` + ``emit_report``) on the environment
  built once in this process.  Experiments repeat while the next one
  should end within ``--seconds``.  Lazy imports finish before the clock
  starts: this process makes the same first context draw as the probe,
  so they count in ``setup_s`` and in no ``run_s``.
* ``peak_rss_mb``: peak resident memory of this process.

Times are in reference seconds (see speed.py); the raw wall and CPU
seconds are on the ``record`` line.

``--trace 1`` alternates untraced and traced experiments and reports the
per-layer metrics of layers.py (medians over traced experiments, set-up
layers from one traced probe) and ``trace_overhead_s``.

Every experiment is checked; a raise or a failed check counts it as
failed.  Its ``trials.csv`` and ``aggregate.csv`` must hash like the
first experiment of the run (same seed, same bytes; traced runs too),
it must have one row per method and trial, and CCKE's mean coverage must
reach the acceptance floor.  The hashes and the machine are printed on
the ``record`` line; the last line is the JSON result.
"""

import os

# pinned before numpy is imported, here and in the set-up probes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from importlib import metadata
from pathlib import Path

import workloads
from speed import SpeedProbe
from tracer import Tracer

PROBE = Path(__file__).with_name("setup_probe.py")
PROBE_TIMEOUT_S = 170
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 4.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    """name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit():
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"), "blas": blas,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "commit": git_commit()}


def measure_setup(name: str, seed: int, trace: bool, table_out) -> list:
    """Set-up probes in fresh interpreters; the first one saves the SER table."""
    samples = []
    while (not samples or not trace and len(samples) < SETUP_SAMPLES
           and sum(s["setup_wall_s"] for s in samples) < SETUP_BUDGET_S):
        cmd = [sys.executable, str(PROBE), name, str(seed), str(int(trace))]
        if table_out and not samples:
            cmd.append(str(table_out))
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workloads.ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if not Path(sample["ccke_file"]).is_relative_to(workloads.SRC):
            raise RuntimeError(f"set-up probe imported ccke from {sample['ccke_file']}")
        samples.append(sample)
    return samples


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Experiments:
    """Runs and checks experiments of one workload on one environment."""

    def __init__(self, cfg, env, out_dir):
        self.cfg, self.env, self.out_dir = cfg, env, out_dir
        self.reference = None  # hashes of the first experiment
        self.coverage = None   # its CCKE mean coverage
        self.attempted = 0
        self.failed = 0

    def run(self):
        """One timed experiment: a dict of its times, or None if it failed."""
        from ccke import harness, reporting

        self.attempted += 1
        try:
            with SpeedProbe() as probe:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                report = harness.run_experiment(self.cfg, self.env)
                paths = reporting.emit_report(report, self.out_dir)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            hashes = {os.path.basename(p): sha256(p) for p in paths}
            problems = self.check(report, hashes)
        except Exception:  # a raising experiment is a failed operation
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            print(f"experiment {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            return None
        return {"run_s": probe.normalize(wall), "run_cpu_s": probe.normalize(cpu),
                "wall_s": wall, "cpu_s": cpu, "scale": probe.scale()}

    def check(self, report, hashes) -> list:
        cfg, problems = self.cfg, []
        if len(report.trials) != cfg.n_trials * len(cfg.methods):
            problems.append(f"{len(report.trials)} trial rows")
        coverage = report.mean_coverage("CCKE")
        if not coverage >= workloads.COVERAGE_FLOOR:
            problems.append(f"CCKE mean coverage {coverage} < {workloads.COVERAGE_FLOOR}")
        if self.reference is None:
            self.reference, self.coverage = hashes, coverage
        elif hashes != self.reference:
            problems.append(f"outputs {hashes} differ from first run {self.reference}")
        return problems


def column(outcomes, key) -> list:
    return [o[key] for o in outcomes]


def median_of(values):
    """Median; counts stay whole numbers (they repeat exactly per seed)."""
    if isinstance(values[0], int):
        return statistics.median_low(values)
    return statistics.median(values)


def benchmark(args, work: Path) -> tuple:
    import layers
    from ccke import harness

    name, seed, trace = args.workload, args.seed, bool(args.trace)
    cfg = harness.ExperimentConfig(**workloads.config_kwargs(name, seed))
    table = work / "ser_table.csv" if cfg.environment == "phy" else None
    setups = measure_setup(name, seed, trace, table)

    env = harness.build_environment(replace(cfg, ser_table_path=str(table)) if table
                                    else cfg)
    env.sample_contexts_given_app(env.parse_app(cfg.actual_app), 1,
                                  harness.rng_for(seed, 0))
    runs = Experiments(cfg, env, work / "report")
    untraced, traced, layer_samples, restored = [], [], [], True
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            with Tracer() as tracer:
                layers.trace_run_path(tracer)
                outcome = runs.run()
            restored = restored and tracer.restored()
            if outcome:
                traced.append(outcome)
                layer_samples.append(layers.run_metrics(tracer, outcome["scale"]))
        else:
            outcome = runs.run()
            if outcome:
                untraced.append(outcome)
        done = untraced and (traced or not trace) or runs.failed
        # start another experiment only if it should end inside the window
        typical = statistics.median(column(untraced + traced, "wall_s") or [0.0])
        if done and time.perf_counter() - start + typical > args.seconds:
            break

    if not untraced or trace and not traced:
        raise RuntimeError("no experiment succeeded")
    if trace:
        metrics = {key: median_of(column(layer_samples, key)) for key in layer_samples[0]}
        metrics.update(setups[0]["layers"])
        metrics["trace_overhead_s"] = (statistics.median(column(traced, "run_s"))
                                       - statistics.median(column(untraced, "run_s")))
        restored = restored and setups[0]["restored"]
        samples = {"run_s": column(untraced, "run_s"),
                   "traced_run_s": column(traced, "run_s"),
                   "wall_s": column(untraced, "wall_s"),
                   "traced_wall_s": column(traced, "wall_s")}
    else:
        samples = {"run_s": column(untraced, "run_s"),
                   "run_cpu_s": column(untraced, "run_cpu_s"),
                   "setup_s": column(setups, "setup_s"),
                   "wall_s": column(untraced, "wall_s"),
                   "cpu_s": column(untraced, "cpu_s"),
                   "setup_wall_s": column(setups, "setup_wall_s")}
        metrics = {key: statistics.median(samples[key])
                   for key in ("run_s", "run_cpu_s", "setup_s")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = runs.failed == 0 and restored
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "hashes": runs.reference, "ccke_coverage": runs.coverage,
              "restored": restored, "samples": samples,
              "speed_scale": column(untraced + traced, "scale")}
    return metrics, correct, runs.attempted, runs.failed, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC / "ccke" / "__init__.py").is_file():
        print(f"error: no ccke package under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    import ccke

    if not Path(ccke.__file__).is_relative_to(workloads.SRC):
        print(f"error: imported ccke from {ccke.__file__}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    machine = machine_info()
    load_start = os.getloadavg()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT))
    try:
        metrics, correct, attempted, failed, record = benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    record.update(machine, loadavg_start=load_start, loadavg_end=os.getloadavg())
    for key, values in record["samples"].items():
        print(f"{key}: median {statistics.median(values):.6g} over {len(values)} samples")
    for key, unit in units.items():
        print(f"{key:34s} {metrics[key]:.6g} {unit}")
    print(f"trials.csv sha256 {record['hashes']['trials.csv']}")
    print(f"aggregate.csv sha256 {record['hashes']['aggregate.csv']}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
