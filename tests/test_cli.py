import json

import numpy as np
import pytest

from regrisk import build_problem, load_problem, read_records_csv, save_problem
from regrisk import gsure_aux, lasso_risk_curves, lasso_solve
from regrisk import cli, study
from regrisk.cli import build_parser, load_config_file, main


def run_cli(*args):
    return main([str(a) for a in args])


def test_build_problem_outputs(tmp_path, capsys):
    rc = run_cli("build-problem", "--m", 16, "--n", 16, "--l", 0.06,
                 "--out", tmp_path)
    assert rc == 0
    out = capsys.readouterr().out
    assert "cond=2.7949" in out
    assert "gamma1=1.000000000" in out
    problem = load_problem(tmp_path / "problem.npz")
    assert problem.m == 16 and problem.sigma == 0.1
    with np.load(tmp_path / "spectrum.npz") as spec:
        assert spec["gammas"].shape == (16,)
        assert int(spec["r"]) == 16
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "build-problem"
    assert manifest["schema_version"] == 1
    assert len(manifest["outputs"]) == 2
    assert manifest["problem_hash"]
    assert manifest["finished_unix"] >= manifest["started_unix"]


def test_build_problem_missing_required(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("build-problem", "--m", 16, "--out", tmp_path)
    assert exc.value.code == 2


def test_out_directory_created_when_missing(tmp_path):
    out = tmp_path / "fresh" / "nested"
    rc = run_cli("build-problem", "--m", 16, "--n", 16, "--l", 0.06,
                 "--out", out)
    assert rc == 0
    assert (out / "problem.npz").exists()
    assert (out / "manifest.json").exists()


STUDY_ARGS = (
    "--m", 16, "--n", 16, "--l", 0.06, "--sigma", 0.1,
    "--grid-log-min", -6, "--grid-log-max", 2, "--grid-step", 0.1,
    "--draws", 6,
)


def test_run_study_files_and_stats_roundtrip(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_a.mkdir()
    rc = run_cli("run-study", *STUDY_ARGS, "--out", out_a)
    assert rc == 0
    text = capsys.readouterr().out
    assert "mean sup deviation" in text

    records, rules = read_records_csv(out_a / "records.csv")
    assert len(records) == 6
    assert rules == ["oracle", "dp", "psure", "sure"]
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["config"]["n_draws"] == 6
    assert summary["config"]["grid"]["includes_infinity"] is True

    # stats recomputes the same numbers from the records file alone
    rc = run_cli("stats", "--records", out_a / "records.csv")
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"] == summary["stats_l2"]
    assert report["mean_sup_dev"] == summary["mean_sup_dev"]
    assert report["win_fractions_vs_dp"] == summary["win_fractions_vs_dp"]

    rc = run_cli("stats", "--records", out_a / "records.csv",
                 "--metric", "l1", "--out", tmp_path / "l1.json")
    assert rc == 0
    saved = json.loads((tmp_path / "l1.json").read_text())
    assert saved["stats"] == summary["stats_l1"]


def test_run_study_workers_reproducible(tmp_path):
    out_a = tmp_path / "w1"
    out_b = tmp_path / "w3"
    out_a.mkdir()
    out_b.mkdir()
    assert run_cli("run-study", *STUDY_ARGS, "--workers", 1, "--out", out_a) == 0
    assert run_cli("run-study", *STUDY_ARGS, "--workers", 3, "--out", out_b) == 0
    assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()


def test_run_study_from_stored_problem(tmp_path, capsys):
    assert run_cli("build-problem", "--m", 16, "--n", 16, "--l", 0.06,
                   "--out", tmp_path) == 0
    capsys.readouterr()
    out_dir = tmp_path / "study"
    out_dir.mkdir()
    rc = run_cli("run-study", "--problem", tmp_path / "problem.npz",
                 "--grid-log-min", -6, "--grid-log-max", 2,
                 "--grid-step", 0.1, "--draws", 3, "--out", out_dir)
    assert rc == 0
    build_manifest = json.loads((tmp_path / "manifest.json").read_text())
    study_manifest = json.loads((out_dir / "manifest.json").read_text())
    assert study_manifest["problem_hash"] == build_manifest["problem_hash"]


@pytest.mark.parametrize("option, value", [("--m", 32), ("--l", 0.2)])
def test_options_contradicting_a_stored_problem_exit_with_usage_status(
        tmp_path, capsys, option, value):
    save_problem(build_problem(16, 16, 0.06, 0.1), tmp_path / "problem.npz")
    with pytest.raises(SystemExit) as exc:
        run_cli("run-study", "--problem", tmp_path / "problem.npz",
                option, value, "--draws", 2, "--out", tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{option[2:]}={value} conflicts with the stored problem" in err
    assert "Traceback" not in err
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize("command, option, value", [
    ("lasso-study", "--grid-infinity", 1),  # the l1 path has no +inf penalty
    ("run-study", "--draws", 0),
    ("run-study", "--grid-step", 0),
    ("lasso-study", "--rho", 0),
])
def test_configuration_errors_exit_with_usage_status(tmp_path, capsys, command,
                                                     option, value):
    # a repeated option overrides the one in STUDY_ARGS
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *STUDY_ARGS, option, value, "--out", tmp_path)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "records.csv").exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# comment line\n"
        "m = 16\n"
        "n = 16\n"
        "l = 0.06\n"
        "sigma = 0.5\n"
        "draws = 4\n"
        "grid_log_min = -6\n"
        "grid_log_max = 2\n"
        "grid_step = 0.1\n"
    )
    assert load_config_file(cfg)["sigma"] == "0.5"
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    rc = run_cli("run-study", "--config", cfg, "--sigma", 0.1, "--out", out_dir)
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["sigma"] == 0.1  # flag beats file
    assert manifest["config"]["n_draws"] == 4  # file beats default


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = 16\nn = 16\nl = 0.06\nsigma = 0.1\nfrobnicate = 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("run-study", "--config", cfg, "--out", tmp_path)
    assert exc.value.code == 2


def test_config_file_syntax_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m 16\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("run-study", "--config", cfg, "--out", tmp_path)
    assert exc.value.code == 2


def test_numeric_failure_exit_code(tmp_path, capsys):
    rc = run_cli("run-study", "--m", 16, "--n", 16, "--l", 0.06,
                 "--sigma", 1e200, "--draws", 1,
                 "--grid-log-min", -2, "--grid-log-max", 2,
                 "--grid-step", 0.5, "--out", tmp_path)
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_lasso_study_writes_mean_curves(tmp_path, capsys):
    rc = run_cli("lasso-study", "--m", 16, "--n", 16, "--l", 0.06,
                 "--sigma", 0.1, "--draws", 2,
                 "--grid-log-min", -2, "--grid-log-max", 0,
                 "--grid-step", 0.2, "--max-iter", 5000, "--out", tmp_path)
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "mean_curves.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,mean_psure,mean_gsure"
    assert len(lines) == 1 + 11
    alphas = np.array([float(l.split(",")[0]) for l in lines[1:]])
    np.testing.assert_allclose(alphas, 10.0 ** np.arange(-2.0, 0.01, 0.2))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "lasso-study"
    assert manifest["config"]["regularizer"] == "lasso"
    records, rules = read_records_csv(tmp_path / "records.csv")
    assert len(records) == 2 and "sure" in rules


def test_wide_lasso_study_keeps_supports_within_rank(tmp_path, capsys, monkeypatch):
    # m < n down to alpha = 1e-4: the exact path never holds more active
    # columns than rank(A), so every gdf is defined
    supports = []
    real_curves = study.lasso_risk_curves

    def recording(A, y, Z, sigma, aux):
        supports.append(int(np.count_nonzero(Z, axis=0).max()))
        return real_curves(A, y, Z, sigma, aux)

    monkeypatch.setattr(study, "lasso_risk_curves", recording)
    rc = run_cli("lasso-study", "--m", 8, "--n", 12, "--l", 0.06,
                 "--sigma", 0.1, "--draws", 4, "--grid-log-min", -4,
                 "--grid-log-max", 1, "--grid-step", 0.05, "--out", tmp_path)
    assert rc == 0
    capsys.readouterr()
    rank = np.linalg.matrix_rank(build_problem(8, 12, 0.06, 0.1).A)
    assert len(supports) == 4 and max(supports) <= rank
    solver = json.loads((tmp_path / "manifest.json").read_text())["solver"]
    assert solver["unconverged_draws"] == 0
    for key in ("admm_iterations", "path_kinks"):
        assert 1 <= solver[key]["max"] <= solver[key]["total"] <= 4 * solver[key]["max"]


def test_rate_check_command(tmp_path, capsys):
    rc = run_cli("rate-check", "--sizes", "16,32", "--draws", 5,
                 "--out", tmp_path)
    assert rc == 0
    out = capsys.readouterr().out
    assert "m=16:" in out and "m=32:" in out
    report = json.loads((tmp_path / "rate_check.json").read_text())
    assert {e["m"] for e in report["per_size"]} == {16, 32}
    assert set(report["fits"]) == {"psure", "gsure_cond", "gsure_plain"}
    for fit in report["fits"].values():
        assert fit["n_points"] == 2
        assert np.isfinite(fit["slope"])


def test_grid_demo_quadratic(tmp_path, capsys):
    rc = run_cli("grid-demo", "--m", 16, "--n", 16, "--l", 0.06,
                 "--out", tmp_path)
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "grid_demo.json").read_text())
    assert report["regularizer"] == "quadratic"
    # both grids saw the same realization
    assert report["linear"]["draw_hash"] == report["log"]["draw_hash"]
    assert report["dp_alpha"] > 0
    assert report["alpha_ratio_linear_over_log"] > 0
    lines = (tmp_path / "grid_demo.csv").read_text().strip().splitlines()
    kinds = {l.split(",")[0] for l in lines[1:]}
    assert kinds == {"linear", "log"}
    assert sum(l.startswith("linear,") for l in lines) == 50


def test_grid_demo_lasso(tmp_path, capsys):
    rc = run_cli("grid-demo", "--m", 10, "--n", 10, "--l", 0.06,
                 "--regularizer", "lasso", "--out", tmp_path)
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "grid_demo.json").read_text())
    assert report["regularizer"] == "lasso"
    assert report["dp_alpha"] > 0
    lines = (tmp_path / "grid_demo.csv").read_text().strip().splitlines()
    assert sum(l.startswith("linear,") for l in lines) == 20


def test_grid_demo_lasso_solves_the_linear_grid_exactly(tmp_path, capsys):
    # at m = 32 the linear grid needs the certified exact path: a solve
    # stopped short of it gets supports wrong and moves the pick
    rc = run_cli("grid-demo", "--m", 32, "--n", 32, "--l", 0.04,
                 "--regularizer", "lasso", "--out", tmp_path)
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "grid_demo.json").read_text())
    rows = [line.split(",") for line in
            (tmp_path / "grid_demo.csv").read_text().splitlines()[1:]]
    alphas, estimates, errors = np.array(
        [[float(v) for v in row[1:]] for row in rows if row[0] == "linear"]).T
    np.testing.assert_array_equal(
        alphas, report["dp_alpha"] / 10.0 * np.arange(1, 21))
    problem = build_problem(32, 32, 0.04, 0.1)
    rng = np.random.default_rng(cli.DEFAULT_SEED)
    y = problem.A @ problem.x_star + 0.1 * rng.standard_normal(32)
    Z = lasso_solve(problem.A, y, alphas)[0].Z
    _, _, gsure = lasso_risk_curves(problem.A, y, Z, 0.1, gsure_aux(problem.A))
    diff = problem.x_star[:, None] - Z
    np.testing.assert_array_equal(estimates, gsure)
    np.testing.assert_array_equal(errors, np.sqrt(np.einsum("ij,ij->j", diff, diff)))
    k = len(gsure) - 1 - int(np.argmin(gsure[::-1]))  # ties go to the larger alpha
    assert report["linear"]["alpha_hat"] == alphas[k]
    assert report["linear"]["error_l2"] == errors[k]


def test_version_and_unknown_rule(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
    with pytest.raises(SystemExit) as exc:
        run_cli("run-study", "--m", 16, "--n", 16, "--l", 0.06,
                "--rules", "dp,magic")
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ("build-problem", "--m", 16, "--n", 16, "--l", 0.7),
    ("grid-demo", "--m", 16, "--n", 16, "--l", 0.06, "--sigma", -1),
    ("build-problem", "--m", 16, "--n", 16, "--l", 0.06, "--sigma", "nan"),
    ("grid-demo", "--m", 16, "--n", 16, "--l", 0.06, "--sigma", "nan"),
    ("run-study", "--m", 16, "--n", 16, "--l", 0.06, "--sigma", "nan"),
    ("run-study", "--problem", "stored.npz", "--sigma", "nan"),
    ("lasso-study", "--m", 16, "--n", 16, "--l", 0.06, "--sigma", "nan"),
    ("lasso-study", "--m", 16, "--n", 16, "--l", 0.06, "--sigma", "inf"),
    ("rate-check", "--sizes", "16,32", "--draws", 2, "--sigma", "nan"),
    ("rate-check", "--sizes", "4,8", "--draws", 2),
    ("grid-demo", "--m", 4, "--n", 4, "--l", 0.06),
    ("run-study", "--problem", "missing.npz"),
    ("stats", "--records", "missing.csv"),
    ("run-study", "--problem", "partial.npz"),
    ("run-study", "--problem", "mismatched.npz", "--draws", 4),
    ("run-study", "--problem", "empty.csv"),
    ("stats", "--records", "empty.csv"),
    ("stats", "--records", "other.csv"),
    ("run-study", "--m", 16, "--n", 16, "--l", 0.06, "--sigma", 0.1,
     "--out", "empty.csv"),  # caught before the study runs
], ids=["l-out-of-range", "negative-sigma", "nan-sigma-build", "nan-sigma-demo",
        "nan-sigma-study", "nan-sigma-stored-problem", "nan-sigma-lasso",
        "inf-sigma-lasso", "nan-sigma-rates", "sizes-too-small", "m-too-small",
        "missing-problem", "missing-records", "not-a-problem",
        "dims-contradict-arrays", "empty-problem", "empty-records",
        "not-records", "out-is-a-file"])
def test_rejected_input_exits_with_usage_status(tmp_path, capsys, monkeypatch,
                                                args):
    monkeypatch.chdir(tmp_path)
    np.savez("partial.npz", A=np.eye(3))
    small = build_problem(32, 32, 0.06, 0.1)
    save_problem(small, "stored.npz")
    np.savez("mismatched.npz", A=small.A, x_star=small.x_star,
             dims=np.array([64, 64]), params=np.array([0.06, 0.1]))
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "other.csv").write_text("draw_index,dp_alpha\n0,1.0\n")
    inputs = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run_cli(*args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert set(tmp_path.iterdir()) == inputs


# one valid text per option name
OPTION_TEXTS = {
    "m": "16", "n": "12", "l": "0.05", "sigma": "0.2", "problem": "p.npz",
    "draws": "3", "seed": "7", "rules": "dp,sure", "metric": "l1",
    "workers": "2", "track_loss": "on", "out": "elsewhere",
    "grid_log_min": "-3", "grid_log_max": "1", "grid_step": "0.5",
    "grid_infinity": "1", "rho": "2", "tol": "1e-9", "max_iter": "50",
    "sizes": "8,16", "regularizer": "lasso", "records": "r.csv",
}


def resolved(argv):
    parser = build_parser()
    parsed = parser.parse_args(argv)
    return cli._resolve(parsed, parsed.table, parser)


@pytest.mark.parametrize("command", [
    "build-problem", "run-study", "lasso-study", "rate-check", "grid-demo",
    "stats",
])
def test_flag_and_config_key_resolve_alike(tmp_path, command):
    table = cli._COMMANDS[command][1]
    argv = [command]
    for opt in table:
        flag = "--" + opt.dest.replace("_", "-")
        argv += [flag] if opt.switch else [flag, OPTION_TEXTS[opt.dest]]
    cfg_file = tmp_path / "all.cfg"
    cfg_file.write_text("".join(
        f"{opt.dest} = {OPTION_TEXTS[opt.dest]}\n" for opt in table))
    from_flags = resolved(argv)
    from_file = resolved([command, "--config", str(cfg_file)])
    assert from_flags == from_file
    assert from_flags == {opt.dest: opt.conv(OPTION_TEXTS[opt.dest])
                          for opt in table}


@pytest.mark.parametrize("command, given, key, text", [
    ("run-study", (), "metric", "bogus"),
    ("lasso-study", (), "max_iter", "many"),
    ("grid-demo", ("--m", "16", "--n", "16", "--l", "0.06"), "regularizer",
     "ridge"),
    ("stats", ("--records", "r.csv"), "metric", "l2_estimation"),
    ("rate-check", (), "sizes", ","),
    ("build-problem", ("--m", "16", "--n", "16"), "l", "wide"),
])
def test_invalid_value_exits_2_from_flag_and_file(tmp_path, capsys, command,
                                                  given, key, text):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    for argv in ([command, *given, "--" + key.replace("_", "-"), text],
                 [command, *given, "--config", str(cfg_file)]):
        with pytest.raises(SystemExit) as exc:
            resolved(argv)
        assert exc.value.code == 2
        assert f"for {key}:" in capsys.readouterr().err


def test_stats_help_names_a_json_file(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("stats", "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "output directory" not in text
    assert "--out OUT also write the report to this JSON file" in text
    assert "(default: l2)" in text
