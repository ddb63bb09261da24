"""The benchmark's smoke run: every workload at tiny sizes, untraced and
traced, with its oracle checks on.  It exercises the package surface the
benchmark imports (``harness.run``, ``find_stabilizer``, ``SubgroupV`` and
``canonicalize_subgroup``'s return shape), which no other test reaches
through the benchmark's own calls."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
