"""Golden outputs of the benchmark workloads.

Each workload of ``perfbench/workloads.py`` runs at seed 0 through
``run_experiment`` and ``emit_report``, and its ``trials.csv`` and
``aggregate.csv`` must hash as recorded: ``mac-k8`` and ``synthetic`` in
``perfbench/reference.json``; ``phy`` in ``BENCH_11.json`` and
``mac-k32-pfca`` in ``BENCH_12.json``, the sweeps that last moved their
numbers.  A change meant to keep every number fails here as soon as one
bit of one workload moves.  The hashes were taken with numpy 2.4 on
x86-64 with AVX-512 (Skylake-X feature group); another numpy build or CPU
may round in the last bit with no fault in the program, so the test runs
only there.
"""

import hashlib
import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from ccke import harness
from ccke.reporting import emit_report

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expected_hashes(name: str) -> dict:
    if name == "phy":
        return json.loads((ROOT / "BENCH_11.json").read_text())["new_phy_hashes"]["0"]
    if name == "mac-k32-pfca":
        return json.loads((ROOT / "BENCH_12.json").read_text())["new_mac_k32_pfca_hashes"]["0"]
    return json.loads((ROOT / "perfbench" / "reference.json").read_text())[name]["hashes"]["0"]


def _on_pinned_platform():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        return False
    return (np.__version__.startswith("2.4.") and platform.machine() == "x86_64"
            and bool(__cpu_features__.get("AVX512_SKX")))


WORKLOADS = _workloads()


@pytest.mark.skipif(not _on_pinned_platform(),
                    reason="the hashes were pinned on numpy 2.4, x86-64, AVX512_SKX")
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_outputs_hash_as_recorded(name, tmp_path):
    cfg = harness.ExperimentConfig(**WORKLOADS.config_kwargs(name, 0))
    paths = emit_report(harness.run_experiment(cfg), tmp_path)
    got = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}
    assert got == _expected_hashes(name)
