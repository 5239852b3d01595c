"""regrisk benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload quad64 --seed 1 --seconds 20 --trace 0

Each repetition is a fresh child process (child.py) that runs one study
with the workload's thread settings. An untraced run is a sequence of
pairs: the same inputs once on the code in src/ and once on the pinned
copy in baseline/, back to back. A time metric is the median over the
pairs of the src/baseline ratio, times the baseline's figure in spec.py.
Pairs continue until the measuring time is used up. The outputs of every
input set go through the correctness gate (gate.py), and repetitions of
src on the same inputs must write identical outputs. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced run with --trace 1.

    python3 perfbench/run.py --workload quad64 --write-reference

stores the gate's reference for the default seed in reference/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import (  # noqa: E402
    BASELINE_CPU_S, DEFAULT_SEED, END_TO_END, EXACT_COUNTS, PER_LAYER, THREAD_VARS,
    UNPAIRED, WORKLOADS,
)

RUN_BUDGET_S = 170.0  # children still running this long after the start are killed
MIN_TRACED_REPS = 2
REP_SEED_STRIDE = 1_000_003


def child_env(workload) -> dict:
    env = dict(os.environ)
    threads = str(WORKLOADS[workload]["blas_threads"])
    for var in THREAD_VARS:
        env[var] = threads
    return env


def run_child(mode, workload, runs, deadline, kind="plain") -> dict:
    """Start child.py on (seed, output directory) pairs; return its JSON."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, "--workload", workload]
    for seed, out in runs:
        cmd += ["--seed", str(seed), "--out", out]
    cmd += {"plain": [], "baseline": ["--baseline"], "traced": ["--trace"],
            "alloc": ["--trace", "--alloc"]}[kind]
    try:
        proc = subprocess.run(cmd, env=child_env(workload), cwd=ROOT, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"{mode} child exited {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0 by level, as the kernel lists them."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        def read(name):
            with open(os.path.join(base, entry, name)) as fh:
                return fh.read().strip()
        try:
            if read("type") != "Instruction":
                sizes[f"L{read('level')}"] = read("size")
        except OSError:
            continue
    return sizes


def machine_env() -> dict:
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": cache_sizes(),
        "cpu_model": None,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name"))
            env["cpu_model"] = next(models, None)
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True)
        env["git_commit"] = proc.stdout.strip() or None
    return env


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def pairs(reps) -> list:
    """(src, baseline) repetitions on the same inputs, in run order."""
    by_seed = {}
    for rep in reps:
        if rep["kind"] in ("plain", "baseline"):
            by_seed.setdefault(rep["seed"], {})[rep["kind"]] = rep
    return [(p["plain"], p["baseline"]) for p in by_seed.values() if len(p) == 2]


def end_to_end(workload, reps) -> dict:
    """Paired medians: each time is the src/baseline ratio of a pair, times
    the baseline's figure in spec.py."""
    ref = BASELINE_CPU_S[workload]
    both = pairs(reps)

    def paired(key):
        return statistics.median(ref[key] * src[key] / base[key] for src, base in both)

    return {
        "cpu_s": paired("cpu_s"),
        "setup_s": paired("setup_cpu_s"),
        "draws_per_cpu_s": statistics.median(
            src["recorded"] / (ref["loop_cpu_s"] * src["loop_cpu_s"] / base["loop_cpu_s"])
            for src, base in both),
        "peak_rss_mb": statistics.median(src["peak_rss_mb"] for src, _ in both),
    }


def unpaired(reps) -> dict:
    src = [r for r in reps if r["kind"] == "plain"]
    base = [r for r in reps if r["kind"] == "baseline"]
    out = {
        "wall_s": median_of(src, "wall_s"),
        "setup_wall_s": median_of(src, "setup_s"),
        "draws_per_s": statistics.median(r["recorded"] / r["loop_s"] for r in src),
        "raw_cpu_s": median_of(src, "cpu_s"),
    }
    if base:
        out["baseline_cpu_s"] = median_of(base, "cpu_s")
    return out


def per_layer(reps) -> dict:
    """Medians over the traced reps, in CPU seconds of the process."""
    plain = [r for r in reps if r["kind"] == "plain"]
    traced = [r for r in reps if r["kind"] == "traced"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["study.peak_alloc_mb"] = next(
        (r["layers"]["study.peak_alloc_mb"] for r in reps if r["kind"] == "alloc"), 0.0)
    out["trace.overhead_s"] = median_of(traced, "cpu_s") - median_of(plain, "cpu_s")
    return out


def rep_seed(seed, index) -> int:
    """Study seed of a run's index-th input set; the first is the seed itself."""
    return seed + index * REP_SEED_STRIDE


def next_rep(reps, trace, time_up) -> tuple:
    """Kind and input index of the next repetition.

    An untraced run runs pairs, each on fresh inputs: src then baseline,
    then baseline then src on the next inputs, and so on, so that a steady
    drift of the host's speed favours neither. A traced run alternates
    plain and traced reps on the same inputs, for the overhead, and ends
    with one rep on the first inputs that records allocations.
    """
    index = len(reps) // 2
    if not trace:
        order = ("plain", "baseline") if index % 2 == 0 else ("baseline", "plain")
        return order[len(reps) % 2], index
    if time_up and sum(r["kind"] == "traced" for r in reps) >= MIN_TRACED_REPS:
        return "alloc", 0
    return ("traced" if len(reps) % 2 == 1 else "plain"), index


def measure(workload, seed, seconds, trace, base, deadline) -> tuple:
    """Run repetitions until the measuring time is used; returns (reps, problems)."""
    start = time.monotonic()
    reps, problems = [], []
    time_up = False
    while True:
        kind, index = next_rep(reps, trace, time_up)
        out = os.path.join(base, f"rep{len(reps)}")
        os.makedirs(out)
        began = time.monotonic()
        rep = run_child("run", workload, [(rep_seed(seed, index), out)], deadline, kind)
        rep.update(kind=kind, seed=rep_seed(seed, index), out=out)
        reps.append(rep)
        if rep["error"] is not None:
            problems.append(rep["error"])
            break
        now = time.monotonic()
        last = now - began
        if trace:
            time_up = now + last > start + seconds
            if time_up and kind == "alloc":
                break
        elif (len(reps) % 2 == 0 and len(reps) >= 2 * WORKLOADS[workload]["min_pairs"]
              and now + 2.0 * last > start + seconds):
            break
        if now + 2.0 * last > deadline - 60.0:  # leave room for the gate
            break
    return reps, problems


def gate_reps(workload, reps, deadline) -> tuple:
    """Gate one src rep per input set, in one child, and check that src reps
    on the same inputs wrote the same outputs and, when traced, counted the
    same work. The baseline's outputs are not checked."""
    by_seed = {}
    for rep in reps:
        if rep["kind"] != "baseline":
            by_seed.setdefault(rep["seed"], []).append(rep)
    result = run_child("gate", workload, [(seed, group[0]["out"]) for seed, group
                                          in by_seed.items()], deadline)
    if result.get("error"):
        return {}, [result["error"]]
    gates = {int(seed): gate for seed, gate in result.items()}
    problems = [p for gate in gates.values() for p in gate["problems"]]
    for seed, group in by_seed.items():
        if len({r["outputs_sha256"] for r in group}) != 1:
            problems.append(f"reps on seed {seed} wrote different outputs")
        traced = [r for r in group if r["kind"] != "plain"]
        for name in EXACT_COUNTS:
            if len({r["layers"][name] for r in traced}) > 1:
                problems.append(f"count {name} differs between traced reps on seed {seed}")
    return gates, problems


def main(argv=None) -> int:
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="regrisk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the gate reference for --seed and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(ROOT, "src", "regrisk", "__init__.py")):
        print(f"error: no regrisk sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    base = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    if args.write_reference:
        out = os.path.join(base, "ref")
        os.makedirs(out)
        rep = run_child("run", args.workload, [(args.seed, out)], deadline)
        if rep.get("error"):
            print(rep["error"], file=sys.stderr)
            return 1
        written = run_child("reference", args.workload, [(args.seed, out)], deadline)
        print(json.dumps(written))
        return 0

    reps, problems = measure(args.workload, args.seed, args.seconds, args.trace, base, deadline)
    good = [r for r in reps if r["error"] is None]
    if not (any(r["kind"] == "traced" for r in good) if args.trace else pairs(good)):
        print(f"error: no repetition finished: {problems}", file=sys.stderr)
        return 1
    gates, gate_problems = gate_reps(args.workload, good, deadline)
    problems += gate_problems
    if args.trace and sum(r["kind"] != "plain" for r in good) <= MIN_TRACED_REPS:
        problems.append("the run budget cut the traced repetitions short")

    src = [r for r in reps if r["kind"] != "baseline"]
    attempted = sum(r.get("attempted", WORKLOADS[args.workload]["draws"]) for r in src)
    failed = sum(r.get("failed", 0) for r in src)
    correct = not problems
    if not correct:
        failed = attempted
    if args.trace:
        values, units = per_layer(good), PER_LAYER
    else:
        values, units = end_to_end(args.workload, good), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    raw = {name: {"value": value, "unit": UNPAIRED[name]}
           for name, value in unpaired(good).items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "problems": problems,
        "failed_share": failed / attempted,
        "records_bit_identical": gates.get(args.seed, {}).get("records_bit_identical"),
        "gates": gates,
        "repetitions": [{k: v for k, v in r.items() if k not in ("env", "out")}
                        for r in reps],
        "env": {**machine_env(),
                "library": next(r["env"] for r in good if r["kind"] != "baseline"),
                "workload": WORKLOADS[args.workload]},
        "metrics": metrics,
        "unpaired": raw,
    }
    with open(os.path.join(base, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    shown = {**metrics, **raw,
             "failed_share": {"value": failed / attempted, "unit": "share"}}
    for name, m in shown.items():
        print(f"{args.workload:9s} {name:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
