"""Correctness gate for one benchmark run's outputs.

Two kinds of check, both on the outputs the workload wrote:

- At the default seed the outputs are compared with the stored reference
  in reference/<workload>.json. Selections (every *_alpha, *_index and
  *_at_boundary column) must match exactly: all rows by digest, and the
  stored sample rows value by value. Error, sup-deviation and objective
  columns, their column sums and the rate fits must match within the
  relative tolerance VALUE_RTOL. Whether the output files are
  bit-identical to the reference is reported for information only.
- At every seed, a sample of draws is recomputed through the single-draw
  API (to_spectral and the *_select rules, tikhonov_solve,
  sup_deviation; for the l1 study admm_all_at_once with the scalar
  lasso_*_value risks and a KKT check), and the rate fits are refitted
  from the written per-size means. The discrepancy root is bisected
  to a relative width of 1e-6, so it is compared to that tolerance
  (DP_RTOL); every other selection must match exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

import regrisk as rr
from workloads import LASSO, QUAD, RATE_L, RATE_SIZES, SIGMA

VALUE_RTOL = 1e-9
DP_RTOL = 1e-6
KKT_TOL = 1e-8  # the tolerance of the repository's own KKT acceptance check
SAMPLE_EVERY = 50
SAMPLED_DRAWS = 8
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
SELECTION_SUFFIXES = ("_alpha", "_index", "_at_boundary")
TRACE_FILES = ("spans.json",)  # written by traced runs, not by the workload


def close(a, b, rtol=VALUE_RTOL) -> bool:
    a, b = float(a), float(b)
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def output_files(outdir):
    return sorted(f for f in os.listdir(outdir) if f not in TRACE_FILES)


def files_sha256(outdir) -> dict:
    out = {}
    for name in output_files(outdir):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_table(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def _num(x) -> str:
    return repr(float(x))


def load_tables(workload, outdir) -> dict:
    if workload == "rates":
        return {f"m{m}": read_table(os.path.join(outdir, f"records_m{m}.csv"))
                for m in RATE_SIZES}
    if workload == "single64":
        return {"selections": read_table(os.path.join(outdir, "selections.csv"))}
    return {"records": read_table(os.path.join(outdir, "records.csv"))}


def load_scalars(workload, outdir) -> dict:
    if workload == "rates":
        with open(os.path.join(outdir, "rate_check.json")) as fh:
            report = json.load(fh)
        out = {}
        for name, fit in report["fits"].items():
            out[f"{name}_slope"] = fit["slope"]
            out[f"{name}_intercept"] = fit["intercept"]
        for e in report["per_size"]:
            for key in ("cond", "mean_sup_psure", "mean_sup_gsure"):
                out[f"m{e['m']}_{key}"] = e[key]
        return out
    if workload == "lasso32":
        curves = read_table(os.path.join(outdir, "mean_curves.csv"))
        return {f"sum_{k}": math.fsum(v) for k, v in curves.items() if k != "alpha"}
    return {}


def _is_selection(col) -> bool:
    return col == "draw_index" or col.endswith(SELECTION_SUFFIXES)


def summarize(workload, outdir) -> dict:
    """Compact fingerprint of a run's outputs, as stored in a reference."""
    tables = {}
    for name, cols in load_tables(workload, outdir).items():
        n = len(cols["draw_index"])
        rows = list(range(0, n, SAMPLE_EVERY))
        digest = hashlib.sha256()
        for col, vals in cols.items():
            if _is_selection(col):
                digest.update(col.encode())
                digest.update(np.ascontiguousarray(vals, dtype="<f8").tobytes())
        tables[name] = {
            "n_rows": n,
            "selection_sha256": digest.hexdigest(),
            "sample_rows": rows,
            "samples": {col: vals[rows].tolist() for col, vals in cols.items()},
            "sums": {col: math.fsum(vals) for col, vals in cols.items()
                     if not _is_selection(col)},
        }
    return {
        "files_sha256": files_sha256(outdir),
        "tables": tables,
        "scalars": load_scalars(workload, outdir),
    }


def compare_reference(ref, cur) -> list:
    problems = []
    for name, rt in ref["tables"].items():
        ct = cur["tables"].get(name)
        if ct is None or ct["n_rows"] != rt["n_rows"]:
            problems.append(f"{name}: row count differs from the reference")
            continue
        if ct["selection_sha256"] != rt["selection_sha256"]:
            problems.append(f"{name}: selections differ from the reference")
        for col, want in rt["samples"].items():
            got = ct["samples"][col]
            for row, w, g in zip(rt["sample_rows"], want, got):
                ok = w == g if _is_selection(col) else close(w, g)
                if not ok:
                    problems.append(f"{name} row {row} {col}: {_num(g)} "
                                    f"!= reference {_num(w)}")
        for col, want in rt["sums"].items():
            if not close(want, ct["sums"][col]):
                problems.append(f"{name} sum of {col}: {_num(ct['sums'][col])} "
                                f"!= reference {_num(want)}")
    for key, want in ref["scalars"].items():
        if not close(want, cur["scalars"][key]):
            problems.append(f"{key}: {_num(cur['scalars'][key])} != reference {_num(want)}")
    return problems


def _noise(seed, draws, m):
    # the derivation run_study uses: one spawned child seed per draw
    children = np.random.SeedSequence(seed).spawn(draws)
    return lambda j: SIGMA * np.random.default_rng(children[j]).standard_normal(m)


SELECTORS = {
    "dp": lambda dec, c, grid: rr.dp_select(dec, c, grid, SIGMA),
    "psure": lambda dec, c, grid: rr.psure_select(dec, c, grid, SIGMA),
    "sure": lambda dec, c, grid: rr.gsure_select(dec, c, grid, SIGMA),
    "oracle": lambda dec, c, grid: rr.oracle_select(dec, c, c.xstar_coords, grid),
}


def _sample_rows(seed, draws):
    rng = np.random.default_rng([seed, 1])
    picked = rng.choice(draws, size=min(SAMPLED_DRAWS, draws), replace=False)
    return sorted({0, draws - 1, *map(int, picked)})


def _check_spectral_draws(problems, label, cols, rows, problem, dec, noise, rules):
    grid = rr.default_quadratic_grid()
    for j in rows:
        y = problem.A @ problem.x_star + noise(j)
        coords = rr.to_spectral(dec, y, problem.x_star)
        for rule in rules:
            sel = SELECTORS[rule](dec, coords, grid)
            got = cols[f"{rule}_alpha"][j]
            if rule == "dp":
                same = close(sel.alpha_hat, got, DP_RTOL)
            else:
                same = sel.alpha_hat == got
            if not same or sel.at_boundary != bool(cols[f"{rule}_at_boundary"][j]):
                problems.append(f"{label} draw {j} {rule}: selected {_num(got)}, "
                                f"single-draw API gives {_num(sel.alpha_hat)}")
            _, x_hat = rr.tikhonov_solve(dec, coords, got)
            diff = problem.x_star - x_hat
            for col, want in ((f"{rule}_error_l2", math.sqrt(diff @ diff)),
                              (f"{rule}_error_l1", float(np.sum(np.abs(diff))))):
                if not close(want, cols[col][j]):
                    problems.append(f"{label} draw {j} {col}: {_num(cols[col][j])} "
                                    f"!= recomputed {_num(want)}")
        sups = rr.sup_deviation(dec, coords, coords.xstar_coords, grid, SIGMA)
        for col, want in zip(("sup_dev_psure", "sup_dev_gsure"), sups):
            if not close(want, cols[col][j]):
                problems.append(f"{label} draw {j} {col}: {_num(cols[col][j])} "
                                f"!= recomputed {_num(want)}")


def _check_summary(problems, outdir, cols, rules):
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    if summary["n_draws"] != len(cols["draw_index"]):
        problems.append("summary.json draw count differs from records.csv")
    for rule in rules:
        mean = float(np.mean(cols[f"{rule}_error_l2"]))
        if not close(summary["stats_l2"][rule]["mean"], mean):
            problems.append(f"summary.json mean l2 error of {rule} differs from records")


def _cross_quad64(problems, seed, draws, outdir, tables):
    cols = tables["records"]
    problem = rr.build_problem(QUAD["m"], QUAD["n"], QUAD["l"], SIGMA)
    dec = rr.decompose(problem.A)
    rows = _sample_rows(seed, draws)
    _check_spectral_draws(problems, "quad64", cols, rows, problem, dec,
                          _noise(seed, draws, QUAD["m"]), rr.KNOWN_RULES)
    _check_summary(problems, outdir, cols, rr.KNOWN_RULES)
    return len(rows)


def _cross_rates(problems, seed, draws, outdir, tables):
    scalars = load_scalars("rates", outdir)
    checked = 0
    stats = {"psure": [], "gsure_cond": [], "gsure_plain": []}
    for m in RATE_SIZES:
        cols = tables[f"m{m}"]
        problem = rr.build_problem(m, m, RATE_L, SIGMA)
        dec = rr.decompose(problem.A)
        rows = [0, draws - 1]
        _check_spectral_draws(problems, f"m={m}", cols, rows, problem, dec,
                              _noise(seed + m, draws, m), ("psure",))
        checked += len(rows)
        sup_p = float(np.mean(cols["sup_dev_psure"]))
        sup_g = float(np.mean(cols["sup_dev_gsure"]))
        for key, want in (("cond", dec.cond), ("mean_sup_psure", sup_p),
                          ("mean_sup_gsure", sup_g)):
            if not close(want, scalars[f"m{m}_{key}"]):
                problems.append(f"m={m} {key}: {_num(scalars[f'm{m}_{key}'])} "
                                f"!= recomputed {_num(want)}")
        stats["psure"].append(sup_p / m)
        stats["gsure_plain"].append(sup_g / m)
        stats["gsure_cond"].append(sup_g / (m * dec.cond**2))
    x = np.log10(np.array(RATE_SIZES, dtype=float))
    for name, stat in stats.items():
        slope = float(np.polyfit(x, np.log10(stat), 1)[0])
        if not close(slope, scalars[f"{name}_slope"]):
            problems.append(f"{name} slope {_num(scalars[f'{name}_slope'])} "
                            f"!= refitted {_num(slope)}")
    return checked


def _argmin_tie_larger(vals) -> int:
    return int(vals.size - 1 - np.argmin(vals[::-1]))


def _kkt_violation(A, y, z, alpha) -> float:
    g = A.T @ (y - A @ z)
    on = z != 0.0
    worst = np.max(np.abs(g[on] - alpha * np.sign(z[on])), initial=0.0)
    return float(max(worst, np.max(np.abs(g[~on]) - alpha, initial=0.0)))


def _cross_lasso32(problems, seed, draws, outdir, tables):
    cols = tables["records"]
    problem = rr.build_problem(LASSO["m"], LASSO["n"], LASSO["l"], SIGMA)
    A, x_star, m = problem.A, problem.x_star, problem.m
    vals = rr.default_lasso_grid().values
    aux = rr.gsure_aux(A)
    noise = _noise(seed, draws, m)
    per_draw = []
    for k in range(draws):
        y = A @ x_star + noise(k)
        path = rr.admm_all_at_once(A, y, vals, rr.AdmmParams())
        if not np.all(path.converged_flags):
            problems.append(f"lasso32 draw {k}: {int(np.sum(~path.converged_flags))} "
                            "columns did not converge")
        Z = path.Z
        resid = y[:, None] - A @ Z
        diff = x_star[:, None] - Z
        per_draw.append({
            "y": y, "Z": Z,
            "res2": np.einsum("ij,ij->j", resid, resid),
            "psure": np.array([rr.lasso_psure_value(A, y, z, SIGMA) for z in Z.T]),
            "sure": np.array([rr.lasso_gsure_value(A, y, z, SIGMA, aux) for z in Z.T]),
            "err_l2": np.sqrt(np.einsum("ij,ij->j", diff, diff)),
            "err_l1": np.sum(np.abs(diff), axis=0),
        })
    mean = {rule: sum(d[rule] for d in per_draw) / draws for rule in ("psure", "sure")}
    curves = read_table(os.path.join(outdir, "mean_curves.csv"))
    for rule, col in (("psure", "mean_psure"), ("sure", "mean_gsure")):
        if not all(close(a, b) for a, b in zip(mean[rule], curves[col])):
            problems.append(f"lasso32 {col} differs from the recomputed mean curve")
    msig2 = m * SIGMA * SIGMA
    for k, d in enumerate(per_draw):
        nonneg = d["res2"] - msig2 >= 0.0
        if nonneg[0]:
            dp_idx = 0
        elif not np.any(nonneg):
            dp_idx = vals.size - 1
        else:
            dp_idx = int(np.argmax(nonneg))
        picks = {"oracle": _argmin_tie_larger(d["err_l1"]),
                 "psure": _argmin_tie_larger(d["psure"]),
                 "sure": _argmin_tie_larger(d["sure"]), "dp": dp_idx}
        for rule, idx in picks.items():
            boundary = idx in (0, vals.size - 1)
            if (cols[f"{rule}_alpha"][k] != vals[idx]
                    or bool(cols[f"{rule}_at_boundary"][k]) != boundary):
                problems.append(f"lasso32 draw {k} {rule}: selected "
                                f"{_num(cols[f'{rule}_alpha'][k])}, "
                                f"recomputed {_num(vals[idx])}")
            for col, key in ((f"{rule}_error_l2", "err_l2"),
                             (f"{rule}_error_l1", "err_l1")):
                if not close(d[key][idx], cols[col][k]):
                    problems.append(f"lasso32 draw {k} {col}: {_num(cols[col][k])} "
                                    f"!= recomputed {_num(d[key][idx])}")
            gap = _kkt_violation(A, d["y"], d["Z"][:, idx], vals[idx])
            if gap > KKT_TOL * max(1.0, vals[idx]):
                problems.append(f"lasso32 draw {k} {rule}: KKT violation {gap:.3g} "
                                f"at alpha={_num(vals[idx])}")
        for col, rule in (("sup_dev_psure", "psure"), ("sup_dev_gsure", "sure")):
            want = float(np.max(np.abs(d[rule] - mean[rule])))
            if not close(want, cols[col][k]):
                problems.append(f"lasso32 draw {k} {col}: {_num(cols[col][k])} "
                                f"!= recomputed {_num(want)}")
    _check_summary(problems, outdir, cols, rr.KNOWN_RULES)
    return draws


def _cross_single64(problems, seed, draws, outdir, tables):
    """The batched study on the same draws must pick what the single-draw
    calls picked."""
    cols = tables["selections"]
    cfg = rr.StudyConfig(**QUAD, sigma=SIGMA, grid=rr.default_quadratic_grid(),
                         n_draws=draws, master_seed=seed)
    grid_vals = cfg.grid.values
    for rec in rr.run_study(cfg):
        j = rec.draw_index
        for rule, out in rec.outcomes.items():
            got = cols[f"{rule}_alpha"][j]
            same = (close(out.alpha_hat, got, DP_RTOL) if rule == "dp"
                    else out.alpha_hat == got == grid_vals[int(cols[f"{rule}_index"][j])])
            if not same or out.at_boundary != bool(cols[f"{rule}_at_boundary"][j]):
                problems.append(f"single64 draw {j} {rule}: selected {_num(got)}, "
                                f"run_study gives {_num(out.alpha_hat)}")
    return draws


CROSS_CHECKS = {
    "quad64": _cross_quad64,
    "rates": _cross_rates,
    "lasso32": _cross_lasso32,
    "single64": _cross_single64,
}


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def check(workload, seed, draws, outdir) -> dict:
    problems = []
    tables = load_tables(workload, outdir)
    for name, cols in tables.items():
        n = len(cols["draw_index"])
        if n != draws or not np.array_equal(cols["draw_index"], np.arange(n)):
            problems.append(f"{name}: {n} rows for {draws} draws")
            return {"ok": False, "problems": problems}
    checked = CROSS_CHECKS[workload](problems, seed, draws, outdir, tables)
    result = {"cross_checked_draws": checked, "reference_compared": False,
              "records_bit_identical": None}
    path = reference_path(workload)
    if os.path.exists(path):
        with open(path) as fh:
            ref = json.load(fh)
        if ref["seed"] == seed and ref["draws"] != draws:
            problems.append(f"reference/{workload}.json holds {ref['draws']} draws "
                            f"for seed {seed}, the run {draws}: regenerate it")
        elif ref["seed"] == seed:
            cur = summarize(workload, outdir)
            problems += compare_reference(ref, cur)
            result["reference_compared"] = True
            result["records_bit_identical"] = cur["files_sha256"] == ref["files_sha256"]
    result["ok"] = not problems
    result["problems"] = problems[:20]
    return result


def write_reference(workload, seed, draws, outdir, env) -> str:
    ref = {"workload": workload, "seed": seed, "draws": draws,
           "value_rtol": VALUE_RTOL, "thread_env": env, **summarize(workload, outdir)}
    path = reference_path(workload)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
