"""The benchmark's correctness gate holds on every workload.

Each case runs one repetition of a workload with perfbench/child.py, at
the reference seed, the workload's default draw count and its thread
settings, and then gates that run's outputs: against the stored
reference in perfbench/reference/ and against the gate's independent
recomputation through the public API. Bit identity with the reference
is reported by the gate but not required here; a change that moves bits
says why in CHANGES.md.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

from run import child_env  # noqa: E402
from spec import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _child(mode, workload, out):
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), mode,
           "--workload", workload, "--seed", str(DEFAULT_SEED), "--out", str(out)]
    proc = subprocess.run(cmd, env=child_env(workload), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_its_gate(workload, tmp_path):
    run = _child("run", workload, tmp_path)
    assert run["error"] is None, run["error"]
    gate = _child("gate", workload, tmp_path)[str(DEFAULT_SEED)]
    assert gate["ok"], "\n".join(gate["problems"])
    assert gate["reference_compared"]
