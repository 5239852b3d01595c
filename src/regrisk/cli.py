"""Command line front end.

Subcommands cover problem construction, the repeated-draw studies for
both regularizers, the deviation rate fits, a single-draw grid
comparison demo, and offline recomputation of statistics from a records
file. Every run writes a manifest recording the resolved configuration,
the seed, the problem hash and the produced files.

Option values resolve with CLI flags taking precedence over the
optional config file, which takes precedence over built-in defaults.
Config files are flat "key = value" lines with # comments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from ._version import __version__
from .errors import NumericError
from .lasso import (
    AdmmParams,
    admm_all_at_once,
    admm_per_alpha,
    gsure_aux,
    lasso_dp_index,
    lasso_risk_curves,
)
from .problem import build_problem, load_problem, problem_hash, save_problem
from .rules import (
    AlphaGrid,
    ORACLE_METRICS,
    _argmin_larger,
    default_lasso_grid,
    default_quadratic_grid,
    dp_select,
    gsure_curve,
    oracle_error_curve,
)
from .spectral import decompose, to_spectral
from .study import (
    KNOWN_RULES,
    SCHEMA_VERSION,
    StudyConfig,
    _config_dict,
    _rule_stats,
    mean_sup_deviation,
    rate_check,
    read_records_csv,
    run_study,
    summary_json,
    write_records_csv,
    write_summary_json,
)

DEFAULT_SEED = 20240817

EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _as_int(s):
    return int(str(s).strip())


def _as_float(s):
    return float(str(s).strip())


def _as_str(s):
    return str(s).strip()


def _as_bool(s):
    if isinstance(s, bool):
        return s
    v = str(s).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _as_int_list(s):
    if isinstance(s, (list, tuple)):
        return [int(v) for v in s]
    parts = [p.strip() for p in str(s).split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return [int(p) for p in parts]


def _as_rules(s):
    if isinstance(s, (list, tuple)):
        rules = tuple(s)
    else:
        rules = tuple(p.strip() for p in str(s).split(",") if p.strip())
    unknown = set(rules) - set(KNOWN_RULES)
    if unknown:
        raise ValueError(f"unknown rules {sorted(unknown)}")
    return rules


def load_config_file(path) -> dict:
    """Flat key = value file; # starts a comment; blank lines ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _resolve(parsed, table, parser):
    """Merge CLI values, config-file values and defaults, in that order."""
    file_values = {}
    cfg_path = getattr(parsed, "config", None)
    if cfg_path:
        try:
            file_values = load_config_file(cfg_path)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    out = {}
    for dest, conv, default, required in table:
        value = getattr(parsed, dest, None)
        if value is None and dest in file_values:
            try:
                value = conv(file_values[dest])
            except ValueError as exc:
                parser.error(f"config value for {dest}: {exc}")
        elif value is not None and conv is not None:
            try:
                value = conv(value)
            except ValueError as exc:
                parser.error(f"invalid value for {dest}: {exc}")
        if value is None:
            value = default
        if value is None and required:
            parser.error(f"missing required option: {dest}")
        out[dest] = value
    unknown = set(file_values) - {row[0] for row in table}
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    return out


def _out_dir(cfg) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out_dir, command, config, outputs, started,
                    problem_hash_value=None):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "version": __version__,
        "config": config,
        "problem_hash": problem_hash_value,
        "started_unix": started,
        "finished_unix": time.time(),
        "outputs": outputs,
    }
    path = f"{out_dir}/manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def _grid_from(cfg, default_grid, allow_infinity=True):
    grid_args = (cfg["grid_log_min"], cfg["grid_log_max"], cfg["grid_step"])
    if all(v is None for v in grid_args) and cfg.get("grid_infinity") is None:
        return default_grid
    lo = cfg["grid_log_min"] if cfg["grid_log_min"] is not None else default_grid.log10_min
    hi = cfg["grid_log_max"] if cfg["grid_log_max"] is not None else default_grid.log10_max
    step = cfg["grid_step"] if cfg["grid_step"] is not None else default_grid.step
    inf = cfg.get("grid_infinity")
    if inf is None:
        inf = default_grid.includes_infinity and allow_infinity
    return AlphaGrid(lo, hi, step, includes_infinity=bool(inf))


_GRID_TABLE = [
    ("grid_log_min", _as_float, None, False),
    ("grid_log_max", _as_float, None, False),
    ("grid_step", _as_float, None, False),
    ("grid_infinity", _as_bool, None, False),
]


def _add_grid_options(sub):
    sub.add_argument("--grid-log-min", dest="grid_log_min", type=float)
    sub.add_argument("--grid-log-max", dest="grid_log_max", type=float)
    sub.add_argument("--grid-step", dest="grid_step", type=float)
    sub.add_argument(
        "--grid-infinity", dest="grid_infinity", choices=("0", "1"), default=None
    )


def _load_or_build_problem(cfg, parser):
    if cfg.get("problem"):
        problem = load_problem(cfg["problem"])
        for key, actual in (("m", problem.m), ("n", problem.n)):
            if cfg.get(key) is not None and cfg[key] != actual:
                parser.error(
                    f"{key}={cfg[key]} conflicts with the stored problem "
                    f"({key}={actual})"
                )
        sigma = cfg["sigma"] if cfg.get("sigma") is not None else problem.sigma
        return problem, problem.m, problem.n, problem.l, sigma
    for key in ("m", "n", "l", "sigma"):
        if cfg.get(key) is None:
            parser.error(f"missing required option: {key}")
    problem = build_problem(cfg["m"], cfg["n"], cfg["l"], cfg["sigma"])
    return problem, cfg["m"], cfg["n"], cfg["l"], cfg["sigma"]


# subcommand implementations


def _cmd_build_problem(parsed, parser):
    table = [
        ("m", _as_int, None, True),
        ("n", _as_int, None, True),
        ("l", _as_float, None, True),
        ("sigma", _as_float, 0.1, False),
        ("out", _as_str, ".", False),
    ]
    cfg = _resolve(parsed, table, parser)
    started = time.time()
    problem = build_problem(cfg["m"], cfg["n"], cfg["l"], cfg["sigma"])
    dec = decompose(problem.A)
    out = _out_dir(cfg)
    problem_path = f"{out}/problem.npz"
    spectrum_path = f"{out}/spectrum.npz"
    save_problem(problem, problem_path)
    np.savez(
        spectrum_path,
        U=dec.U,
        gammas=dec.gammas,
        V=dec.V,
        r=dec.r,
        cond=dec.cond,
    )
    h = problem_hash(problem)
    manifest = _write_manifest(
        out, "build-problem", cfg, [problem_path, spectrum_path], started, h
    )
    print(
        f"m={problem.m} n={problem.n} l={problem.l} sigma={problem.sigma} "
        f"r={dec.r} cond={dec.cond:.5g} gamma1={dec.gammas[0]:.9f}"
    )
    print(f"hash={h}")
    print(f"wrote {problem_path}, {spectrum_path}, {manifest}")
    return 0


_STUDY_TABLE = [
    ("m", _as_int, None, False),
    ("n", _as_int, None, False),
    ("l", _as_float, None, False),
    ("sigma", _as_float, None, False),
    ("draws", _as_int, 100, False),
    ("seed", _as_int, DEFAULT_SEED, False),
    ("rules", _as_rules, KNOWN_RULES, False),
    ("metric", _as_str, None, False),
    ("workers", _as_int, 1, False),
    ("problem", _as_str, None, False),
    ("out", _as_str, ".", False),
    ("track_loss", _as_bool, False, False),
] + _GRID_TABLE


def _run_and_export(cfg, parser, regularizer, default_grid, default_metric,
                    admm=None, command="run-study"):
    metric = cfg["metric"] if cfg["metric"] is not None else default_metric
    if metric not in ORACLE_METRICS:
        parser.error(f"unknown metric {metric!r}")
    started = time.time()
    problem, m, n, l, sigma = _load_or_build_problem(cfg, parser)
    try:
        config = StudyConfig(
            m=m,
            n=n,
            l=l,
            sigma=sigma,
            grid=_grid_from(
                cfg, default_grid, allow_infinity=regularizer == "quadratic"),
            n_draws=cfg["draws"],
            master_seed=cfg["seed"],
            rules=cfg["rules"],
            regularizer=regularizer,
            metric=metric,
            track_loss_closeness=bool(cfg["track_loss"]),
            admm=admm,
        )
    except ValueError as exc:
        parser.error(str(exc))
    extras = {}
    records = run_study(
        config, problem=problem, workers=cfg["workers"], extras=extras
    )
    out = _out_dir(cfg)
    records_path = f"{out}/records.csv"
    summary_path = f"{out}/summary.json"
    write_records_csv(records, config.rules, records_path)
    summary = summary_json(config, records, extras.get("problem_hash"))
    write_summary_json(summary, summary_path)
    outputs = [records_path, summary_path]
    if regularizer == "lasso":
        curves_path = f"{out}/mean_curves.csv"
        with open(curves_path, "w") as fh:
            fh.write("alpha,mean_psure,mean_gsure\n")
            for a, p, gv in zip(
                extras["grid_values"],
                extras["first_pass_mean_psure"],
                extras["first_pass_mean_gsure"],
            ):
                fh.write(f"{a:.17g},{p:.17g},{gv:.17g}\n")
        outputs.append(curves_path)
        if extras.get("unconverged_draws"):
            print(
                f"warning: {extras['unconverged_draws']} draws hit the "
                "iteration cap before the tolerance",
                file=sys.stderr,
            )
    manifest = _write_manifest(
        out, command, _config_dict(config), outputs, started,
        extras.get("problem_hash"),
    )
    for rule in config.rules:
        st = summary["stats_l2"][rule]
        print(
            f"{rule}: mean_l2={st['mean']:.6g} median_l2={st['median']:.6g} "
            f"max_l2={st['max']:.6g}"
        )
    print(
        f"mean sup deviation: psure={summary['mean_sup_dev']['psure']:.6g} "
        f"gsure={summary['mean_sup_dev']['gsure']:.6g}"
    )
    print(f"wrote {', '.join(outputs + [manifest])}")
    return 0


def _cmd_run_study(parsed, parser):
    cfg = _resolve(parsed, _STUDY_TABLE, parser)
    return _run_and_export(
        cfg, parser, "quadratic", default_quadratic_grid(), "l2_estimation"
    )


_LASSO_TABLE = _STUDY_TABLE + [
    ("rho", _as_float, 1.0, False),
    ("tol", _as_float, 1e-14, False),
    ("max_iter", _as_int, 10_000, False),
]


def _cmd_lasso_study(parsed, parser):
    cfg = _resolve(parsed, _LASSO_TABLE, parser)
    try:
        admm = AdmmParams(rho=cfg["rho"], tol=cfg["tol"], max_iter=cfg["max_iter"])
    except ValueError as exc:
        parser.error(str(exc))
    return _run_and_export(
        cfg, parser, "lasso", default_lasso_grid(), "l1", admm=admm,
        command="lasso-study",
    )


_RATE_TABLE = [
    ("sizes", _as_int_list, [16, 32, 64, 128, 256, 512], False),
    ("l", _as_float, 0.06, False),
    ("sigma", _as_float, 0.1, False),
    ("draws", _as_int, 1000, False),
    ("seed", _as_int, DEFAULT_SEED, False),
    ("workers", _as_int, 1, False),
    ("out", _as_str, ".", False),
]


def _cmd_rate_check(parsed, parser):
    cfg = _resolve(parsed, _RATE_TABLE, parser)
    started = time.time()
    per_size = []
    for m in cfg["sizes"]:
        problem = build_problem(m, m, cfg["l"], cfg["sigma"])
        dec = decompose(problem.A)
        config = StudyConfig(
            m=m,
            n=m,
            l=cfg["l"],
            sigma=cfg["sigma"],
            grid=default_quadratic_grid(),
            n_draws=cfg["draws"],
            master_seed=cfg["seed"] + m,
            rules=("psure",),
        )
        records = run_study(
            config, problem=problem, dec=dec, workers=cfg["workers"]
        )
        per_size.append(
            {
                "m": m,
                "cond": dec.cond,
                "mean_sup_psure": mean_sup_deviation(records, "psure"),
                "mean_sup_gsure": mean_sup_deviation(records, "gsure"),
            }
        )
        print(
            f"m={m}: cond={dec.cond:.5g} "
            f"mean_sup_psure={per_size[-1]['mean_sup_psure']:.6g} "
            f"mean_sup_gsure={per_size[-1]['mean_sup_gsure']:.6g}"
        )
    triples_p = [(e["m"], e["mean_sup_psure"], e["cond"]) for e in per_size]
    triples_g = [(e["m"], e["mean_sup_gsure"], e["cond"]) for e in per_size]
    fits = {
        "psure": rate_check(triples_p, "psure"),
        "gsure_cond": rate_check(triples_g, "gsure_cond"),
        "gsure_plain": rate_check(triples_g, "gsure_plain"),
    }
    for name, fit in fits.items():
        print(
            f"{name}: slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
            f"points={fit.n_points}"
        )
    out = _out_dir(cfg)
    report_path = f"{out}/rate_check.json"
    report = {
        "schema_version": SCHEMA_VERSION,
        "per_size": per_size,
        "fits": {
            k: {"slope": f.slope, "intercept": f.intercept, "n_points": f.n_points}
            for k, f in fits.items()
        },
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = _write_manifest(out, "rate-check", cfg, [report_path], started)
    print(f"wrote {report_path}, {manifest}")
    return 0


_DEMO_TABLE = [
    ("m", _as_int, None, True),
    ("n", _as_int, None, True),
    ("l", _as_float, None, True),
    ("sigma", _as_float, 0.1, False),
    ("seed", _as_int, DEFAULT_SEED, False),
    ("regularizer", _as_str, "quadratic", False),
    ("out", _as_str, ".", False),
]


def _demo_pick(out_rows, kind, alphas, estimates, errors):
    idx = int(_argmin_larger(estimates))
    for a, v, e in zip(alphas, estimates, errors):
        out_rows.append((kind, float(a), float(v), float(e)))
    return float(alphas[idx]), float(errors[idx]), float(estimates[idx])


def _demo_quadratic(problem, y, out_rows):
    dec = decompose(problem.A)
    coords = to_spectral(dec, y, problem.x_star)
    grid = default_quadratic_grid()
    alpha_dp = dp_select(dec, coords, grid, problem.sigma).alpha_hat

    def pick(kind, alphas):
        return _demo_pick(
            out_rows, kind, alphas,
            gsure_curve(dec, coords, alphas, problem.sigma),
            oracle_error_curve(dec, coords, coords.xstar_coords, alphas),
        )

    delta = 2.0 * alpha_dp / 50.0
    lin = pick("linear", delta * np.arange(1, 51))
    log = pick("log", grid.values[: grid.n_finite])
    return alpha_dp, lin, log


def _demo_lasso(problem, y, out_rows):
    A, sigma = problem.A, problem.sigma
    vals = default_lasso_grid().values
    aux = gsure_aux(A)
    Z_log = admm_all_at_once(A, y, vals).Z
    res2, _, gsure_log = lasso_risk_curves(A, y, Z_log, sigma, aux)
    alpha_dp = float(vals[lasso_dp_index(res2, problem.m, sigma)])

    def pick(kind, alphas, Z, gsure):
        diff = problem.x_star[:, None] - Z
        return _demo_pick(out_rows, kind, alphas, gsure,
                          np.sqrt(np.einsum("ij,ij->j", diff, diff)))

    lin_alphas = alpha_dp / 10.0 * np.arange(1, 21)
    Z_lin = admm_per_alpha(A, y, lin_alphas, n_iter=20).Z
    lin = pick("linear", lin_alphas, Z_lin,
               lasso_risk_curves(A, y, Z_lin, sigma, aux)[2])
    log = pick("log", vals, Z_log, gsure_log)
    return alpha_dp, lin, log


def _cmd_grid_demo(parsed, parser):
    cfg = _resolve(parsed, _DEMO_TABLE, parser)
    if cfg["regularizer"] not in ("quadratic", "lasso"):
        parser.error(f"unknown regularizer {cfg['regularizer']!r}")
    started = time.time()
    problem = build_problem(cfg["m"], cfg["n"], cfg["l"], cfg["sigma"])
    rng = np.random.default_rng(cfg["seed"])
    y = problem.A @ problem.x_star + cfg["sigma"] * rng.standard_normal(cfg["m"])
    draw_hash = hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()

    rows = []
    if cfg["regularizer"] == "quadratic":
        alpha_dp, lin, log = _demo_quadratic(problem, y, rows)
    else:
        alpha_dp, lin, log = _demo_lasso(problem, y, rows)

    out = _out_dir(cfg)
    csv_path = f"{out}/grid_demo.csv"
    with open(csv_path, "w") as fh:
        fh.write("grid_kind,alpha,estimate,error_l2\n")
        for kind, a, v, e in rows:
            fh.write(f"{kind},{a:.17g},{v:.17g},{e:.17g}\n")
    report = {
        "schema_version": SCHEMA_VERSION,
        "regularizer": cfg["regularizer"],
        "dp_alpha": alpha_dp,
        "linear": {
            "alpha_hat": lin[0],
            "error_l2": lin[1],
            "estimate": lin[2],
            "draw_hash": draw_hash,
        },
        "log": {
            "alpha_hat": log[0],
            "error_l2": log[1],
            "estimate": log[2],
            "draw_hash": draw_hash,
        },
        "alpha_ratio_linear_over_log": (
            lin[0] / log[0] if log[0] > 0 else float("inf")
        ),
    }
    json_path = f"{out}/grid_demo.json"
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = _write_manifest(
        out, "grid-demo", cfg, [csv_path, json_path], started
    )
    print(
        f"dp_alpha={alpha_dp:.6g} linear: alpha={lin[0]:.6g} err={lin[1]:.6g} "
        f"log: alpha={log[0]:.6g} err={log[1]:.6g}"
    )
    print(f"wrote {csv_path}, {json_path}, {manifest}")
    return 0


_STATS_TABLE = [
    ("records", _as_str, None, True),
    ("metric", _as_str, "l2", False),
    ("out", _as_str, None, False),
]


def _cmd_stats(parsed, parser):
    cfg = _resolve(parsed, _STATS_TABLE, parser)
    if cfg["metric"] not in ("l2", "l1"):
        parser.error(f"unknown error metric {cfg['metric']!r}")
    records, rules = read_records_csv(cfg["records"])
    if not records:
        parser.error(f"no rows in {cfg['records']}")
    report = _rule_stats(records, rules, cfg["metric"])
    report.update(schema_version=SCHEMA_VERSION, n_draws=len(records), rules=rules)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regrisk",
        description=(
            "Risk-estimate based choice of the regularization strength "
            "for ill-posed linear inverse problems"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--config", help="flat key = value config file")
        sub.add_argument("--out", help="output directory (default: .)")

    sp = subs.add_parser("build-problem", help="construct and store a test problem")
    common(sp)
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--l", type=float, help="kernel half width")
    sp.add_argument("--sigma", type=float)
    sp.set_defaults(func=_cmd_build_problem)

    def study_opts(sub):
        common(sub)
        sub.add_argument("--m", type=int)
        sub.add_argument("--n", type=int)
        sub.add_argument("--l", type=float)
        sub.add_argument("--sigma", type=float)
        sub.add_argument("--draws", type=int)
        sub.add_argument("--seed", type=int)
        sub.add_argument("--rules", help="comma separated subset of "
                         + ",".join(KNOWN_RULES))
        sub.add_argument("--metric", choices=ORACLE_METRICS)
        sub.add_argument("--workers", type=int)
        sub.add_argument("--problem", help="load a stored problem instead of building")
        sub.add_argument(
            "--track-loss", dest="track_loss", action="store_const", const=True,
            help="also record sup distances between scaled estimates and losses",
        )
        _add_grid_options(sub)

    sp = subs.add_parser("run-study", help="repeated-draw study, quadratic penalty")
    study_opts(sp)
    sp.set_defaults(func=_cmd_run_study)

    sp = subs.add_parser("lasso-study", help="repeated-draw study, l1 penalty")
    study_opts(sp)
    sp.add_argument("--rho", type=float, help="initial splitting weight")
    sp.add_argument("--tol", type=float, help="solver stopping tolerance")
    sp.add_argument("--max-iter", dest="max_iter", type=int)
    sp.set_defaults(func=_cmd_lasso_study)

    sp = subs.add_parser("rate-check", help="deviation rate fits across sizes")
    common(sp)
    sp.add_argument("--sizes", help="comma separated problem sizes")
    sp.add_argument("--l", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--draws", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--workers", type=int)
    sp.set_defaults(func=_cmd_rate_check)

    sp = subs.add_parser(
        "grid-demo", help="single-draw comparison of linear and log grids"
    )
    common(sp)
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--l", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--regularizer", choices=("quadratic", "lasso"))
    sp.set_defaults(func=_cmd_grid_demo)

    sp = subs.add_parser("stats", help="recompute statistics from a records file")
    common(sp)
    sp.add_argument("--records", help="records.csv produced by a study run")
    sp.add_argument("--metric", choices=("l2", "l1"))
    sp.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    parsed = parser.parse_args(argv)
    try:
        return parsed.func(parsed, parser)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
