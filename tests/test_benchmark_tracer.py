"""The benchmark's tracer wraps and restores every name it expects.

``perfbench/layers.py`` wraps functions and methods of the ccke modules by
name, and a traced benchmark run fails when the program no longer binds
one of them.  This test loads the tracer and the layer table from
``perfbench/`` as the benchmark does, traces a small experiment and a
set-up with them, and checks that every wrapped name is put back and that
the layer table yields exactly the per-layer metrics BENCHMARK.json
declares.
"""

import importlib.util
import json
from pathlib import Path

from ccke import harness, reporting

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_restores_and_reports_every_declared_layer(tmp_path):
    tracing, layers = _load("tracer"), _load("layers")
    cfg = harness.ExperimentConfig(environment="synthetic", actual_app="base",
                                   target_app="alt", n_cal=20, n_test=10, n_trials=3)
    with tracing.Tracer() as tracer:
        layers.trace_run_path(tracer)
        layers.trace_setup(tracer)
        env = harness.build_environment(cfg)
        reporting.emit_report(harness.run_experiment(cfg, env), tmp_path)
    assert tracer.restored()
    assert tracer.calls("harness.run_experiment") == 1
    assert tracer.calls("harness.build_environment") == 1
    names = set(layers.run_metrics(tracer, 1.0)) | set(layers.setup_metrics(tracer, 1.0))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # perfbench/run.py adds trace_overhead_s from its untraced and traced runs
    assert names | {"trace_overhead_s"} == declared
