"""subgeo runs on numpy alone: scipy is a test-only oracle, so no module
under ``src`` may import it, and a suite run must not load it."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SUITE = """
import sys
import numpy as np
import subgeo, subgeo.cli, subgeo.runner
from subgeo import config, linalg
cfg = config.parse_config({"builtin": "hyperbolic:3", "sampling": {"count": 8, "seed": 0}})
report = subgeo.runner.run_suite(cfg)
assert subgeo.runner.exit_code(report) == 0
# an exactly singular row goes through the LU pivot test
assert linalg.inverse_rows(np.arange(1.0, 10.0).reshape(1, 3, 3))[1].tolist() == [True]
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_a_suite_run_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", SUITE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_source_file_imports_scipy():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    assert [str(p) for p in sources if pattern.search(p.read_text())] == []
