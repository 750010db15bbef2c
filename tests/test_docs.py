"""The README's code runs, demo 01 prints what it printed when written, and
every public name the package lists resolves."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ccke

ROOT = Path(__file__).resolve().parent.parent

DEMO_01_STDOUT = """\
calibration scores: min -0.470  median -0.020  max 0.540
CKE (no calibration)   -> [+0.350, +1.350]  correction +0.000
NCCKE (unweighted)     -> [+0.017, +1.683]  correction +0.333
CCKE (weighted)        -> [-0.054, +1.754]  correction +0.404

empirical coverage at the test context over 20000 draws:
  CKE    0.504   (target 0.8)
  NCCKE  0.836   (target 0.8)
  CCKE   0.906   (target 0.8)
"""


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_demo_01_prints_its_documented_output(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ccke.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(ROOT / "demos" / "01_calibration_basics.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEMO_01_STDOUT


MODULES = [m.name for m in pkgutil.iter_modules(ccke.__path__) if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a stale __all__ entry makes `from ccke.<module> import *` raise
    namespace = {}
    exec(f"from ccke.{name} import *", namespace)
    assert set(getattr(importlib.import_module(f"ccke.{name}"), "__all__", ())) <= set(namespace)


def test_every_package_export_is_listed_by_its_module():
    listed = {entry for name in MODULES
              for entry in getattr(importlib.import_module(f"ccke.{name}"), "__all__", ())}
    exported = {name for name, value in vars(ccke).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported <= listed, exported - listed
