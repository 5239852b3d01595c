"""One benchmark process: run a workload once, or gate a run's outputs.

    python3 perfbench/child.py run --workload quad64 --seed 1 --out DIR [--trace [--alloc]]
    python3 perfbench/child.py run --workload quad64 --seed 1 --out DIR --baseline
    python3 perfbench/child.py gate --workload quad64 --seed 1 --out DIR [--seed 2 --out D2]
    python3 perfbench/child.py reference --workload quad64 --seed 1 --out DIR

run.py starts it with the workload's thread variables. It imports regrisk
from src/, or with --baseline from the pinned copy in baseline/, and
prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CODE = os.path.join(HERE, "baseline") if "--baseline" in sys.argv else os.path.join(ROOT, "src")
sys.path.insert(0, CODE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import regrisk as rr  # noqa: E402
import gate  # noqa: E402
from spec import SETUP_CPU_BUDGET_S, THREAD_VARS, WORKLOADS  # noqa: E402
from tracer import NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import RUN, setup_cpu_s  # noqa: E402


def library_env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "regrisk": rr.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run(args) -> dict:
    tracer = Tracer(track_alloc=args.alloc) if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    try:
        res = RUN[args.workload](args.seed[0], args.out[0], tracer, args.draws)
    except rr.NumericError as exc:
        return {"error": f"NumericError: {exc}", "attempted": args.draws,
                "failed": args.draws}
    finally:
        if args.trace:
            tracer.uninstall()
    out = {
        "error": None,
        "wall_s": res.end[0] - res.start[0],
        "cpu_s": res.end[1] - res.start[1],
        "setup_s": res.setup[0],
        "setup_cpu_s": res.setup[1],
        "loop_s": res.loop[0],
        "loop_cpu_s": res.loop[1],
        "attempted": res.attempted,
        "recorded": res.recorded,
        "failed": res.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": library_env(),
    }
    if args.trace:
        root = tracer.add_root(f"bench.{args.workload}", res.start[1], res.end[1])
        out["layers"] = layer_metrics(tracer.spans, root)
        out["root_span"] = root
        with open(os.path.join(args.out[0], "spans.json"), "w") as fh:
            json.dump(tracer.as_dicts(), fh)
    if res.dump is not None:
        res.dump()
    if not args.trace:
        # more set-ups after the timed part, for a steadier setup_s
        setups = [res.setup[1]]
        while sum(setups) < SETUP_CPU_BUDGET_S:
            setups.append(setup_cpu_s(args.workload))
        out["setup_cpu_s"] = statistics.median(setups)
        out["setups"] = len(setups)
    digest = hashlib.sha256(
        json.dumps(gate.files_sha256(args.out[0]), sort_keys=True).encode())
    out["outputs_sha256"] = digest.hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "gate", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--out", action="append", required=True)
    parser.add_argument("--draws", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--alloc", action="store_true",
                        help="with --trace, also record the allocation peak of run_study")
    parser.add_argument("--baseline", action="store_true",
                        help="run the pinned copy of regrisk in baseline/")
    args = parser.parse_args(argv)
    if args.draws is None:
        args.draws = WORKLOADS[args.workload]["draws"]
    if not os.path.abspath(rr.__file__).startswith(CODE + os.sep):
        print(f"regrisk imported from {rr.__file__}, not from {CODE}", file=sys.stderr)
        return 2
    if args.mode == "run":
        result = run(args)
    elif args.mode == "gate":
        result = {seed: gate.check(args.workload, seed, args.draws, out)
                  for seed, out in zip(args.seed, args.out)}
    else:
        env = {k: os.environ.get(k) for k in THREAD_VARS}
        result = {"written": gate.write_reference(
            args.workload, args.seed[0], args.draws, args.out[0], env)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
