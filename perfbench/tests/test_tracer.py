"""Checks of the traced benchmark run.

    python3 -m pytest perfbench/tests -q

Each test starts child.py on a reduced draw count, with the workload's
thread settings, and writes under .bench_out/tests in the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from run import ROOT, child_env  # noqa: E402
from spec import EXACT_COUNTS  # noqa: E402
from tracer import covered_length, self_time, child_index  # noqa: E402

SMALL = {"quad64": 600, "single64": 3, "lasso32": 1}
OUT = os.path.join(ROOT, ".bench_out", "tests")


def run_child(workload, name, traced, seed=7):
    out = os.path.join(OUT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "run", "--workload", workload,
           "--seed", str(seed), "--out", out, "--draws", str(SMALL[workload])]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=child_env(workload), capture_output=True, text=True,
                          timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["error"] is None
    return result, out


@pytest.mark.parametrize("workload", ["single64", "lasso32"])
def test_counts_repeat_exactly(workload):
    first, _ = run_child(workload, f"{workload}-count-a", traced=True)
    second, _ = run_child(workload, f"{workload}-count-b", traced=True)
    for name in EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    busy = {"single64": ("rules.table_builds", "accum.sum_calls"),
            "lasso32": ("lasso.iterations", "lasso.solves")}[workload]
    for name in busy:
        assert first["layers"][name] > 0, name


@pytest.mark.parametrize("workload", ["quad64", "single64"])
def test_traced_outputs_match_untraced(workload):
    plain, _ = run_child(workload, f"{workload}-plain", traced=False)
    traced, _ = run_child(workload, f"{workload}-traced", traced=True)
    assert plain["outputs_sha256"] == traced["outputs_sha256"]


@pytest.mark.parametrize("workload", ["quad64", "single64"])
def test_root_self_time_plus_children_is_traced_time(workload):
    result, out = run_child(workload, f"{workload}-spans", traced=True)
    with open(os.path.join(out, "spans.json")) as fh:
        spans = [[d["name"], d["start"], d["end"], d["parent"], d["attrs"]]
                 for d in json.load(fh)]
    root = result["root_span"]
    assert spans[root][3] is None
    children = child_index(spans)
    kids = children[root]
    child_total = sum(spans[k][2] - spans[k][1] for k in kids)
    assert self_time(spans, children, root) + child_total == pytest.approx(
        result["cpu_s"], rel=1e-9, abs=1e-9)


def test_covered_length_merges_overlaps():
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert covered_length([]) == 0.0
