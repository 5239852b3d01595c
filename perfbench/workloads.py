"""The four benchmark workloads, each one study through the public API.

Every workload takes the seed, an output directory, a tracer (a
NullTracer when untraced) and a draw count. It returns a Result whose
times run from the first library call to the last output written, plus
a `dump` callable that writes what the correctness gate needs but a user
would not; the child process calls it after the timed part, with
tracing removed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import time

import numpy as np

import regrisk as rr
from spec import WORKLOADS

SIGMA = 0.1
RATE_SIZES = (16, 32, 64, 128, 256, 512)
RATE_L = 0.06
QUAD = {"m": 64, "n": 64, "l": 0.06}
LASSO = {"m": 32, "n": 32, "l": 0.04}
SINGLE_RULES = ("dp", "psure", "sure", "oracle")


@dataclasses.dataclass
class Result:
    """Times are (wall, cpu) pairs. cpu is the CPU time of the whole
    process, all threads; it leaves out time the host steals."""

    start: tuple
    end: tuple
    setup: tuple
    loop: tuple
    attempted: int
    recorded: int
    failed: int
    dump: object = None


def _now():
    return time.perf_counter(), time.process_time()


def _since(a, b):
    return b[0] - a[0], b[1] - a[1]


def _setup(m, n, l):
    problem = rr.build_problem(m, n, l, SIGMA)
    return problem, rr.decompose(problem.A)


def quad64(seed, out, tracer, draws):
    t0 = _now()
    problem, dec = _setup(**QUAD)
    t1 = _now()
    cfg = rr.StudyConfig(**QUAD, sigma=SIGMA, grid=rr.default_quadratic_grid(),
                         n_draws=draws, master_seed=seed)
    extras = {}
    records = rr.run_study(cfg, problem=problem, dec=dec,
                           workers=WORKLOADS["quad64"]["workers"], extras=extras)
    t2 = _now()
    rr.write_records_csv(records, cfg.rules, os.path.join(out, "records.csv"))
    rr.write_summary_json(rr.summary_json(cfg, records, extras["problem_hash"]),
                          os.path.join(out, "summary.json"))
    t3 = _now()
    return Result(t0, t3, _since(t0, t1), _since(t1, t2), draws, len(records),
                  draws - len(records))


def rates(seed, out, tracer, draws):
    t0 = _now()
    setup = loop = (0.0, 0.0)
    per_size = []
    by_size = {}
    for m in RATE_SIZES:
        a = _now()
        problem, dec = _setup(m, m, RATE_L)
        b = _now()
        cfg = rr.StudyConfig(m=m, n=m, l=RATE_L, sigma=SIGMA,
                             grid=rr.default_quadratic_grid(), n_draws=draws,
                             master_seed=seed + m, rules=("psure",))
        records = rr.run_study(cfg, problem=problem, dec=dec,
                               workers=WORKLOADS["rates"]["workers"])
        c = _now()
        setup = tuple(map(sum, zip(setup, _since(a, b))))
        loop = tuple(map(sum, zip(loop, _since(b, c))))
        by_size[m] = records
        per_size.append({
            "m": m,
            "cond": dec.cond,
            "mean_sup_psure": rr.mean_sup_deviation(records, "psure"),
            "mean_sup_gsure": rr.mean_sup_deviation(records, "gsure"),
        })
    triples_p = [(e["m"], e["mean_sup_psure"], e["cond"]) for e in per_size]
    triples_g = [(e["m"], e["mean_sup_gsure"], e["cond"]) for e in per_size]
    fits = {
        "psure": rr.rate_check(triples_p, "psure"),
        "gsure_cond": rr.rate_check(triples_g, "gsure_cond"),
        "gsure_plain": rr.rate_check(triples_g, "gsure_plain"),
    }
    report = {
        "per_size": per_size,
        "fits": {k: {"slope": f.slope, "intercept": f.intercept,
                     "n_points": f.n_points} for k, f in fits.items()},
    }
    path = os.path.join(out, "rate_check.json")
    with tracer.span("bench.write_rate_fits") as attrs:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        attrs["bytes"] = os.path.getsize(path)
    t3 = _now()

    def dump():
        for m, records in by_size.items():
            rr.write_records_csv(records, ("psure",),
                                 os.path.join(out, f"records_m{m}.csv"))

    n = sum(len(r) for r in by_size.values())
    total = draws * len(RATE_SIZES)
    return Result(t0, t3, setup, loop, total, n, total - n, dump)


def lasso32(seed, out, tracer, draws):
    t0 = _now()
    problem, dec = _setup(**LASSO)
    t1 = _now()
    cfg = rr.StudyConfig(**LASSO, sigma=SIGMA, grid=rr.default_lasso_grid(),
                         n_draws=draws, master_seed=seed, regularizer="lasso",
                         metric="l1", admm=rr.AdmmParams())
    extras = {}
    records = rr.run_study(cfg, problem=problem, dec=dec, extras=extras)
    t2 = _now()
    rr.write_records_csv(records, cfg.rules, os.path.join(out, "records.csv"))
    rr.write_summary_json(rr.summary_json(cfg, records, extras["problem_hash"]),
                          os.path.join(out, "summary.json"))
    path = os.path.join(out, "mean_curves.csv")
    with tracer.span("bench.write_mean_curves") as attrs:
        with open(path, "w") as fh:
            fh.write("alpha,mean_psure,mean_gsure\n")
            for a, p, g in zip(extras["grid_values"], extras["first_pass_mean_psure"],
                               extras["first_pass_mean_gsure"]):
                fh.write(f"{a:.17g},{p:.17g},{g:.17g}\n")
        attrs["bytes"] = os.path.getsize(path)
    t3 = _now()
    # a draw whose solve left a column unconverged counts as failed
    failed = draws - len(records) + int(extras["unconverged_draws"])
    return Result(t0, t3, _since(t0, t1), _since(t1, t2), draws, len(records), failed)


def single64(seed, out, tracer, draws):
    """The README "Library" path: one draw at a time, four selections each."""
    t0 = _now()
    problem, dec = _setup(**QUAD)
    grid = rr.default_quadratic_grid()
    t1 = _now()
    rows = []
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(draws)):
        eps = SIGMA * np.random.default_rng(child).standard_normal(problem.m)
        y = problem.A @ problem.x_star + eps
        coords = rr.to_spectral(dec, y, problem.x_star)
        rows.append((j, (
            rr.dp_select(dec, coords, grid, SIGMA),
            rr.psure_select(dec, coords, grid, SIGMA),
            rr.gsure_select(dec, coords, grid, SIGMA),
            rr.oracle_select(dec, coords, coords.xstar_coords, grid),
        )))
    t2 = _now()
    path = os.path.join(out, "selections.csv")
    with tracer.span("bench.write_selections") as attrs:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["draw_index"]
            for rule in SINGLE_RULES:
                header += [f"{rule}_alpha", f"{rule}_index", f"{rule}_at_boundary",
                           f"{rule}_objective"]
            writer.writerow(header)
            for j, sels in rows:
                row = [str(j)]
                for sel in sels:
                    row += [format(sel.alpha_hat, ".17g"), str(sel.index),
                            "1" if sel.at_boundary else "0",
                            format(sel.objective_value, ".17g")]
                writer.writerow(row)
        attrs["bytes"] = os.path.getsize(path)
    t3 = _now()
    return Result(t0, t3, _since(t0, t1), _since(t1, t2), draws, len(rows),
                  draws - len(rows))


RUN = {"quad64": quad64, "rates": rates, "lasso32": lasso32, "single64": single64}

SETUP_SIZES = {
    "quad64": (QUAD,),
    "rates": tuple({"m": m, "n": m, "l": RATE_L} for m in RATE_SIZES),
    "lasso32": (LASSO,),
    "single64": (QUAD,),
}


def setup_cpu_s(workload) -> float:
    """CPU seconds of one more set-up of the workload's problems."""
    start = time.process_time()
    for size in SETUP_SIZES[workload]:
        _setup(**size)
    return time.process_time() - start

