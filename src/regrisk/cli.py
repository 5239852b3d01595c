"""Command line front end.

Subcommands cover problem construction, the repeated-draw studies for
both regularizers, the deviation rate fits, a single-draw grid
comparison demo, and offline recomputation of statistics from a records
file. Every run writes a manifest recording the resolved configuration,
the seed, the problem hash and the produced files; an l1 study adds its
solver telemetry (ADMM iterations and path kinks per draw, max and
total, and the draws left unconverged).

Each subcommand declares its options in one table. A row gives the
option's name, the converter that parses and checks its text, its
default and its help; the flag is "--" plus the name with dashes, and
the config-file key is the name itself. Option values resolve with CLI
flags taking precedence over the optional config file, which takes
precedence over the defaults. Config files are flat "key = value" lines
with # comments. A rejected configuration or an unreadable input file
is a usage error (exit status 2).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .errors import NumericError
from .lasso import (
    AdmmParams,
    admm_all_at_once,
    admm_per_alpha,
    gsure_aux,
    lasso_dp_index,
    lasso_homotopy,
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
    gsure_value,
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

EXIT_NUMERIC = 3


# option tables


class _Opt(NamedTuple):
    dest: str
    conv: Callable  # parses and checks the text of a flag or config value
    default: object
    help: str
    switch: bool = False  # a bare flag that turns the option on


_REQUIRED = object()  # default of an option that must be given


def _as_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _as_int_list(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return [int(p) for p in parts]


def _as_rules(s):
    return tuple(p.strip() for p in s.split(",") if p.strip())


def _one_of(*choices):
    def conv(s):
        if s not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return s

    return conv


def _problem_opts(default, sigma, note=""):
    return [
        _Opt("m", int, default, "number of measurements" + note),
        _Opt("n", int, default, "number of unknowns" + note),
        _Opt("l", float, default, "kernel half width, in (0, 1/2]" + note),
        _Opt("sigma", float, sigma, "noise standard deviation" + note),
    ]


def _grid_opts(grid):
    return [
        _Opt("grid_log_min", float, grid.log10_min, "log10 of the smallest penalty"),
        _Opt("grid_log_max", float, grid.log10_max,
             "log10 of the largest finite penalty"),
        _Opt("grid_step", float, grid.step, "log10 spacing of the penalties"),
        _Opt("grid_infinity", _as_bool, grid.includes_infinity,
             "close the grid by an infinite penalty"),
    ]


_OUT_DIR = _Opt("out", str, ".", "output directory, created if missing")
_SEED = _Opt("seed", int, DEFAULT_SEED, "master seed of the noise draws")
_WORKERS = _Opt("workers", int, 1, "worker threads")


def _study_opts(grid, metric):
    return _problem_opts(None, None, " (default: taken from --problem)") + [
        _Opt("problem", str, None, "stored problem.npz to use instead of building one"),
        _Opt("draws", int, 100, "number of noise draws"),
        _SEED,
        _Opt("rules", _as_rules, KNOWN_RULES, "comma separated subset of the rules"),
        _Opt("metric", _one_of(*ORACLE_METRICS), metric,
             "error the oracle rule minimizes: " + ", ".join(ORACLE_METRICS)),
        _WORKERS,
        _Opt("track_loss", _as_bool, False,
             "also record sup distances between scaled estimates and losses",
             switch=True),
        _OUT_DIR,
    ] + _grid_opts(grid)


_ADMM = AdmmParams()

_BUILD_OPTS = _problem_opts(_REQUIRED, 0.1) + [_OUT_DIR]
_STUDY_OPTS = _study_opts(default_quadratic_grid(), "l2_estimation")
_LASSO_OPTS = _study_opts(default_lasso_grid(), "l1") + [
    _Opt("rho", float, _ADMM.rho, "initial splitting weight of the solver"),
    _Opt("tol", float, _ADMM.tol, "solver stopping tolerance"),
    _Opt("max_iter", int, _ADMM.max_iter, "solver iteration cap"),
]
_RATE_OPTS = [
    _Opt("sizes", _as_int_list, [16, 32, 64, 128, 256, 512],
         "comma separated problem sizes m = n"),
    _Opt("l", float, 0.06, "kernel half width, in (0, 1/2]"),
    _Opt("sigma", float, 0.1, "noise standard deviation"),
    _Opt("draws", int, 1000, "noise draws per size"),
    _SEED,
    _WORKERS,
    _OUT_DIR,
]
_DEMO_OPTS = _problem_opts(_REQUIRED, 0.1) + [
    _SEED,
    _Opt("regularizer", _one_of("quadratic", "lasso"), "quadratic",
         "penalty: quadratic or lasso"),
    _OUT_DIR,
]
_STATS_OPTS = [
    _Opt("records", str, _REQUIRED, "records.csv produced by a study run"),
    _Opt("metric", _one_of("l2", "l1"), "l2", "error norm: l2 or l1"),
    _Opt("out", str, None, "also write the report to this JSON file"),
]


def _help(opt):
    if opt.default is _REQUIRED:
        return opt.help + " (required)"
    if opt.default is None:
        return opt.help
    d = opt.default
    if isinstance(d, bool):
        d = "on" if d else "off"
    elif isinstance(d, (list, tuple)):
        d = ",".join(map(str, d))
    return f"{opt.help} (default: {d})"


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


@contextlib.contextmanager
def _usage_errors(parser):
    """Report a rejected configuration or unreadable input as a usage
    error."""
    try:
        yield
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def _resolve(parsed, table, parser):
    """Merge CLI values, config-file values and defaults, in that order."""
    file_values = {}
    if parsed.config:
        with _usage_errors(parser):
            file_values = load_config_file(parsed.config)
    unknown = set(file_values) - {opt.dest for opt in table}
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for opt in table:
        text = getattr(parsed, opt.dest)
        if text is None:
            text = file_values.get(opt.dest)
        if text is None:
            if opt.default is _REQUIRED:
                parser.error(f"missing required option: {opt.dest}")
            out[opt.dest] = opt.default
            continue
        try:
            out[opt.dest] = opt.conv(text)
        except ValueError as exc:
            parser.error(f"invalid value {text!r} for {opt.dest}: {exc}")
    return out


def _out_dir(cfg) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out_dir, command, config, outputs, started,
                    problem_hash_value=None, **blocks):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "version": __version__,
        "config": config,
        "problem_hash": problem_hash_value,
        "started_unix": started,
        "finished_unix": time.time(),
        "outputs": outputs,
        **blocks,
    }
    path = f"{out_dir}/manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


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


def _cmd_build_problem(cfg, parser):
    started = time.time()
    with _usage_errors(parser):
        problem = build_problem(cfg["m"], cfg["n"], cfg["l"], cfg["sigma"])
        out = _out_dir(cfg)
    dec = decompose(problem.A)
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


def _run_and_export(cfg, parser, regularizer, command):
    started = time.time()
    with _usage_errors(parser):
        problem, m, n, l, sigma = _load_or_build_problem(cfg, parser)
        config = StudyConfig(
            m=m,
            n=n,
            l=l,
            sigma=sigma,
            grid=AlphaGrid(cfg["grid_log_min"], cfg["grid_log_max"], cfg["grid_step"],
                           includes_infinity=cfg["grid_infinity"]),
            n_draws=cfg["draws"],
            master_seed=cfg["seed"],
            rules=cfg["rules"],
            regularizer=regularizer,
            metric=cfg["metric"],
            track_loss_closeness=cfg["track_loss"],
            admm=(AdmmParams(rho=cfg["rho"], tol=cfg["tol"],
                             max_iter=cfg["max_iter"])
                  if regularizer == "lasso" else None),
        )
        out = _out_dir(cfg)
    extras = {}
    records = run_study(
        config, problem=problem, workers=cfg["workers"], extras=extras
    )
    records_path = f"{out}/records.csv"
    summary_path = f"{out}/summary.json"
    write_records_csv(records, config.rules, records_path)
    summary = summary_json(config, records, extras.get("problem_hash"))
    write_summary_json(summary, summary_path)
    outputs = [records_path, summary_path]
    blocks = {}
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
        blocks["solver"] = {
            "unconverged_draws": extras["unconverged_draws"],
            **{key: {"max": int(extras[key].max()), "total": int(extras[key].sum())}
               for key in ("admm_iterations", "path_kinks")},
        }
    manifest = _write_manifest(
        out, command, _config_dict(config), outputs, started,
        extras.get("problem_hash"), **blocks,
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


def _cmd_run_study(cfg, parser):
    return _run_and_export(cfg, parser, "quadratic", "run-study")


def _cmd_lasso_study(cfg, parser):
    return _run_and_export(cfg, parser, "lasso", "lasso-study")


def _cmd_rate_check(cfg, parser):
    started = time.time()
    with _usage_errors(parser):
        out = _out_dir(cfg)
    per_size = []
    for m in cfg["sizes"]:
        with _usage_errors(parser):
            problem = build_problem(m, m, cfg["l"], cfg["sigma"])
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
        dec = decompose(problem.A)
        records = run_study(
            config, problem=problem, dec=dec, workers=cfg["workers"]
        )
        per_size.append({
            "m": m,
            "cond": dec.cond,
            "mean_sup_psure": mean_sup_deviation(records, "psure"),
            "mean_sup_gsure": mean_sup_deviation(records, "gsure"),
        })
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
    report_path = f"{out}/rate_check.json"
    report = {
        "schema_version": SCHEMA_VERSION,
        "per_size": per_size,
        "fits": {k: dataclasses.asdict(f) for k, f in fits.items()},
    }
    write_summary_json(report, report_path)
    manifest = _write_manifest(out, "rate-check", cfg, [report_path], started)
    print(f"wrote {report_path}, {manifest}")
    return 0


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
            gsure_value(dec, coords, alphas, problem.sigma),
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
    # as the l1 study does: ADMM certifies the exact path
    Z_log = admm_all_at_once(A, y, vals, start=lasso_homotopy(A, y, vals).Z).Z
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


def _cmd_grid_demo(cfg, parser):
    started = time.time()
    with _usage_errors(parser):
        problem = build_problem(cfg["m"], cfg["n"], cfg["l"], cfg["sigma"])
        out = _out_dir(cfg)
    rng = np.random.default_rng(cfg["seed"])
    y = problem.A @ problem.x_star + cfg["sigma"] * rng.standard_normal(cfg["m"])
    draw_hash = hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()

    rows = []
    if cfg["regularizer"] == "quadratic":
        alpha_dp, lin, log = _demo_quadratic(problem, y, rows)
    else:
        alpha_dp, lin, log = _demo_lasso(problem, y, rows)

    csv_path = f"{out}/grid_demo.csv"
    with open(csv_path, "w") as fh:
        fh.write("grid_kind,alpha,estimate,error_l2\n")
        for kind, a, v, e in rows:
            fh.write(f"{kind},{a:.17g},{v:.17g},{e:.17g}\n")
    report = {
        "schema_version": SCHEMA_VERSION,
        "regularizer": cfg["regularizer"],
        "dp_alpha": alpha_dp,
        **{kind: {"alpha_hat": a, "error_l2": e, "estimate": v,
                  "draw_hash": draw_hash}
           for kind, (a, e, v) in (("linear", lin), ("log", log))},
        "alpha_ratio_linear_over_log": (
            lin[0] / log[0] if log[0] > 0 else float("inf")
        ),
    }
    json_path = f"{out}/grid_demo.json"
    write_summary_json(report, json_path)
    manifest = _write_manifest(
        out, "grid-demo", cfg, [csv_path, json_path], started
    )
    print(
        f"dp_alpha={alpha_dp:.6g} linear: alpha={lin[0]:.6g} err={lin[1]:.6g} "
        f"log: alpha={log[0]:.6g} err={log[1]:.6g}"
    )
    print(f"wrote {csv_path}, {json_path}, {manifest}")
    return 0


def _cmd_stats(cfg, parser):
    with _usage_errors(parser):
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


_COMMANDS = {  # name: (implementation, option table, help)
    "build-problem": (_cmd_build_problem, _BUILD_OPTS,
                      "construct and store a test problem"),
    "run-study": (_cmd_run_study, _STUDY_OPTS,
                  "repeated-draw study, quadratic penalty"),
    "lasso-study": (_cmd_lasso_study, _LASSO_OPTS,
                    "repeated-draw study, l1 penalty"),
    "rate-check": (_cmd_rate_check, _RATE_OPTS,
                   "deviation rate fits across sizes"),
    "grid-demo": (_cmd_grid_demo, _DEMO_OPTS,
                  "single-draw comparison of linear and log grids"),
    "stats": (_cmd_stats, _STATS_OPTS,
              "recompute statistics from a records file"),
}


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
    for name, (func, table, text) in _COMMANDS.items():
        sp = subs.add_parser(name, help=text, description=text)
        sp.add_argument(
            "--config",
            help="flat key = value file; a key is an option's name with "
            "underscores, e.g. grid_step = 0.05 for --grid-step 0.05",
        )
        for opt in table:
            kwargs = {"action": "store_const", "const": "on"} if opt.switch else {}
            sp.add_argument("--" + opt.dest.replace("_", "-"), dest=opt.dest,
                            help=_help(opt), **kwargs)
        sp.set_defaults(func=func, table=table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    parsed = parser.parse_args(argv)
    cfg = _resolve(parsed, parsed.table, parser)
    try:
        return parsed.func(cfg, parser)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
