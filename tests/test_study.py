import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import regrisk
from regrisk import lasso, study
from regrisk import (
    AdmmParams,
    AlphaGrid,
    NumericError,
    RuleOutcome,
    StudyConfig,
    StudyRecord,
    admm_all_at_once,
    build_problem,
    decompose,
    default_lasso_grid,
    default_quadratic_grid,
    dp_select,
    dp_value,
    error_stats,
    gsure_select,
    lasso_gsure_value,
    lasso_psure_value,
    loss_closeness_stats,
    loss_l,
    loss_tilde,
    mean_sup_deviation,
    oracle_select,
    gsure_aux,
    gsure_value,
    lasso_dp_index,
    lasso_homotopy,
    lasso_risk_curves,
    psure_select,
    psure_value,
    rate_check,
    rate_sweep,
    read_records_csv,
    run_study,
    summary_json,
    sup_deviation,
    tikhonov_solve,
    to_spectral,
    win_fraction,
    write_records_csv,
    c_constant,
)
from regrisk.rules import filter_table

GRID = AlphaGrid(-12.0, 12.0, 0.05, includes_infinity=True)
# 2402 columns: a chunk of more than CHUNK / 2 draws sweeps it in blocks
# of BLOCK columns, the last one ragged and holding the +inf slot
SEAM_GRID = AlphaGrid(-12.0, 12.0, 0.01, includes_infinity=True)
SEAM_DRAWS = 300


def small_config(**kw):
    base = dict(
        m=16, n=16, l=0.06, sigma=0.1, grid=GRID, n_draws=6, master_seed=404)
    base.update(kw)
    return StudyConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_draws=0)
    with pytest.raises(ValueError):
        small_config(regularizer="ridge")
    with pytest.raises(ValueError):
        small_config(rules=("dp", "cv"))
    with pytest.raises(ValueError):
        small_config(metric="linf")
    with pytest.raises(ValueError):
        small_config(regularizer="lasso")  # grid carries the +inf slot
    for sigma in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            small_config(sigma=sigma)


def test_problem_dimension_mismatch(problem16):
    # a problem whose m, n or l contradicts the config is rejected before
    # the study runs; sigma may differ, the config's is the noise level
    for kw in (dict(m=32, n=32), dict(l=0.04)):
        with pytest.raises(ValueError, match=r"\(m, n, l\)"):
            run_study(small_config(**kw), problem=problem16)
    other_sigma = dataclasses.replace(problem16, sigma=0.5)
    a = run_study(small_config(), problem=other_sigma)
    b = run_study(small_config(), problem=problem16)
    assert [r.sup_dev_gsure for r in a] == [r.sup_dev_gsure for r in b]


def _draw(problem, cfg, index):
    children = np.random.SeedSequence(cfg.master_seed).spawn(cfg.n_draws)
    rng = np.random.default_rng(children[index])
    return problem.A @ problem.x_star + cfg.sigma * rng.standard_normal(cfg.m)


def test_seam_grid_spans_several_blocks():
    spans = study._column_spans(len(SEAM_GRID), SEAM_DRAWS)
    assert len(spans) >= 3
    start, stop = spans[-1]
    assert (stop - start) % study.BLOCK != 0
    assert stop == len(SEAM_GRID) and np.isinf(SEAM_GRID.values[-1])


def _check_records_against_rule_functions(problem, dec, cfg, draws):
    extras = {}
    records = run_study(cfg, problem=problem, dec=dec, extras=extras)
    assert len(records) == cfg.n_draws
    assert "problem_hash" in extras
    xs = dec.V.T @ problem.x_star
    for j in draws:
        rec = records[j]
        assert rec.draw_index == j
        y = _draw(problem, cfg, j)
        coords = to_spectral(dec, y, problem.x_star)

        sel_psure = psure_select(dec, coords, cfg.grid, cfg.sigma)
        assert rec.outcomes["psure"].alpha_hat == pytest.approx(
            sel_psure.alpha_hat, rel=1e-12)
        sel_sure = gsure_select(dec, coords, cfg.grid, cfg.sigma)
        assert rec.outcomes["sure"].alpha_hat == pytest.approx(
            sel_sure.alpha_hat, rel=1e-12)
        sel_oracle = oracle_select(dec, coords, xs, cfg.grid)
        assert rec.outcomes["oracle"].alpha_hat == pytest.approx(
            sel_oracle.alpha_hat, rel=1e-12)
        sel_dp = dp_select(dec, coords, cfg.grid, cfg.sigma)
        assert rec.outcomes["dp"].alpha_hat == pytest.approx(
            sel_dp.alpha_hat, rel=1e-5)
        assert rec.outcomes["dp"].at_boundary == sel_dp.at_boundary

        for rule in cfg.rules:
            alpha = rec.outcomes[rule].alpha_hat
            xhat = tikhonov_solve(dec, coords, alpha)[1]
            diff = problem.x_star - xhat
            np.testing.assert_allclose(
                rec.outcomes[rule].error_l2, np.linalg.norm(diff),
                rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(
                rec.outcomes[rule].error_l1, np.sum(np.abs(diff)),
                rtol=1e-6, atol=1e-9)

        s1, s2 = sup_deviation(dec, coords, xs, cfg.grid, cfg.sigma)
        np.testing.assert_allclose(rec.sup_dev_psure, s1, rtol=1e-7)
        np.testing.assert_allclose(rec.sup_dev_gsure, s2, rtol=1e-7)


def test_quadratic_records_match_rule_functions(problem16, dec16):
    _check_records_against_rule_functions(problem16, dec16, small_config(),
                                          (0, 3, 5))


def test_blocked_records_match_rule_functions(problem16, dec16):
    # selections and sups across block seams, with the ragged last block
    cfg = small_config(grid=SEAM_GRID, n_draws=SEAM_DRAWS)
    _check_records_against_rule_functions(problem16, dec16, cfg,
                                          (0, 3, 5, 150, 299))


def test_quadratic_workers_bit_identical(problem16, dec16, monkeypatch):
    # chunking and seed derivation are fixed, so threads cannot change
    # a single bit of the output
    pools = []

    class SpyPool(study.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(study, "ThreadPoolExecutor", SpyPool)
    cfg = small_config(n_draws=2 * study.CHUNK + 37)
    a = run_study(cfg, problem=problem16, dec=dec16, workers=1)
    assert not pools
    b = run_study(cfg, problem=problem16, dec=dec16, workers=4)
    assert len(pools) == 1
    assert [dataclasses.asdict(r) for r in a] == [dataclasses.asdict(r) for r in b]


@pytest.mark.parametrize("chunk", [64, 200])
def test_chunk_size_keeps_selections_and_errors(problem16, dec16, monkeypatch,
                                                chunk):
    # CHUNK sets the GEMM shapes, so the sup deviations may move in their
    # last bits; selections and errors come from the same per-draw
    # expressions whatever the chunk
    cfg = small_config(grid=default_quadratic_grid(), n_draws=600)
    a = run_study(cfg, problem=problem16, dec=dec16)
    monkeypatch.setattr(study, "CHUNK", chunk)
    b = run_study(cfg, problem=problem16, dec=dec16)
    assert [r.outcomes for r in a] == [r.outcomes for r in b]
    for ra, rb in zip(a, b):
        for sup in ("sup_dev_psure", "sup_dev_gsure"):
            assert getattr(rb, sup) == pytest.approx(
                getattr(ra, sup), rel=1e-13, abs=0.0)


def test_study_records_do_not_depend_on_a_warm_memo(problem16):
    # the study takes W1, df and gdf from the memo that single-draw calls
    # fill, and gets the bits of a run that builds them itself
    cfg = small_config(grid=default_quadratic_grid(), n_draws=600)
    warm = decompose(problem16.A)
    rng = np.random.default_rng(11)
    for _ in range(2):
        y = problem16.A @ problem16.x_star + 0.1 * rng.standard_normal(16)
        coords = to_spectral(warm, y, problem16.x_star)
        grid = default_quadratic_grid()
        dp_select(warm, coords, grid, 0.1)
        psure_select(warm, coords, grid, 0.1)
        gsure_select(warm, coords, grid, 0.1)
        sup_deviation(warm, coords, coords.xstar_coords, grid, 0.1)
    a = run_study(cfg, problem=problem16, dec=warm, workers=2)
    b = run_study(cfg, problem=problem16, dec=decompose(problem16.A), workers=2)
    assert [dataclasses.asdict(r) for r in a] == [dataclasses.asdict(r) for r in b]


def test_threads_sharing_a_decomposition_select_alike(problem16):
    # two threads may build the same table at once; they select what
    # serial calls on a decomposition of their own select
    rng = np.random.default_rng(12)
    ys = [problem16.A @ problem16.x_star + 0.1 * rng.standard_normal(16)
          for _ in range(8)]

    def picker(dec):
        def pick(y):
            coords = to_spectral(dec, y, problem16.x_star)
            return psure_select(dec, coords, default_quadratic_grid(), 0.1)
        return pick

    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(picker(decompose(problem16.A)), ys))
    assert threaded == list(map(picker(decompose(problem16.A)), ys))


def _study_rows_with_blas_threads(tmp_path, threads):
    out = tmp_path / f"blas{threads}"
    out.mkdir()
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(regrisk.__file__)), env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from regrisk.cli import main; sys.exit(main(sys.argv[1:]))",
         "run-study", "--m", "64", "--n", "64", "--l", "0.06", "--sigma", "0.1",
         "--draws", "600", "--seed", "7", "--workers", "1", "--out", str(out)],
        env=env, capture_output=True, check=True, timeout=600)
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_blas_thread_count_keeps_selections_and_errors(tmp_path):
    # Selections and errors do not depend on the BLAS thread count. The
    # sup deviations may differ in their last bits: the exact-risk curve
    # e2 @ W1 is a BLAS product whose summation order follows the threads.
    header, one = _study_rows_with_blas_threads(tmp_path, 1)
    header2, two = _study_rows_with_blas_threads(tmp_path, 2)
    assert header == header2 and len(one) == len(two) == 600
    sups = [header.index("sup_dev_psure"), header.index("sup_dev_gsure")]
    exact = [k for k in range(len(header)) if k not in sups]
    for a, b in zip(one, two):
        assert [a[k] for k in exact] == [b[k] for k in exact]
        for k in sups:
            assert float(a[k]) == pytest.approx(float(b[k]), rel=1e-12, abs=0.0)

def test_blocked_pass_equals_whole_grid_matrices(problem16, dec16):
    # The evaluator without column blocks: every (draws x grid) matrix
    # built whole. The blocked pass must give the same bits; 150 draws at
    # m = 16 is a chunk for which a narrow last block of 322 columns went
    # to another OpenBLAS kernel and changed the sums at the +inf end.
    cfg = small_config(grid=default_quadratic_grid(), n_draws=150)
    records = run_study(cfg, problem=problem16, dec=dec16)

    T = study._quadratic_tables(cfg, problem16, dec16)
    children = np.random.SeedSequence(cfg.master_seed).spawn(cfg.n_draws)
    eps = study._draw_noise_block(children, cfg.sigma, 16)
    Yc = T.signal[:, None] + dec16.U.T @ eps
    Y2 = Yc * Yc
    Y2r_t = Y2[: dec16.r].T
    res = Y2.T @ T.W1
    gfit = Y2r_t @ T.W2
    psure = res - 16 * (cfg.sigma * cfg.sigma) + T.psure_shift
    gsure = gfit - T.s2s1 + T.gsure_shift
    cross = (Yc[: dec16.r] * T.xs_r[:, None]).T @ T.F
    err2 = np.maximum(T.c0_est - 2.0 * cross + Y2r_t @ (T.F * T.F), 0.0)
    K = len(cfg.grid)
    for rule, mat in (("psure", psure), ("sure", gsure), ("oracle", err2)):
        idx = K - 1 - np.argmin(mat[:, ::-1], axis=1)
        alphas = cfg.grid.values[idx]
        assert [r.outcomes[rule].alpha_hat for r in records] == list(alphas)
        # the recorded error is the expansion at the pick's filter factors
        coeffs = study._filter(T.g[:, None], alphas) * Yc[: dec16.r]
        e2 = (T.c0_est - 2.0 * np.sum(T.xs_r[:, None] * coeffs, axis=0)
              + np.sum(coeffs * coeffs, axis=0))
        assert [r.outcomes[rule].error_l2 for r in records] == list(
            np.sqrt(np.maximum(e2, 0.0)))
    assert [r.sup_dev_psure for r in records] == list(
        np.max(np.abs(res - T.e2w1), axis=1))
    assert [r.sup_dev_gsure for r in records] == list(
        np.max(np.abs(gfit - T.e2w2), axis=1))


def _dp_root_reference(dec, coords, grid, sigma, rel_tol=1e-6):
    # one draw at a time: bracket from the count of negative grid values,
    # then bisection with the per-draw stopping rule
    vals = grid.values
    nf = grid.n_finite
    k = int(np.sum(dp_value(dec, coords, grid, sigma)[:nf] < 0.0))
    if k == 0:
        return vals[0]
    if k == nf:
        return vals[-1]
    r = dec.r
    g2 = dec.gammas[:r] ** 2
    y2 = coords.y_coords**2
    tail = float(np.sum(y2[r:]))
    msig2 = dec.m * sigma * sigma
    lo, hi = float(vals[k - 1]), float(vals[k])
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if float(((mid / (g2 + mid)) ** 2) @ y2[:r]) + tail - msig2 >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_batched_dp_roots_equal_one_draw_bisection(problem16, dec16):
    cfg = small_config(grid=SEAM_GRID, n_draws=SEAM_DRAWS, rules=("dp",))
    records = run_study(cfg, problem=problem16, dec=dec16)
    inside = 0
    for j in range(0, cfg.n_draws, 7):
        coords = to_spectral(dec16, _draw(problem16, cfg, j), problem16.x_star)
        want = _dp_root_reference(dec16, coords, cfg.grid, cfg.sigma)
        assert records[j].outcomes["dp"].alpha_hat == want
        inside += not records[j].outcomes["dp"].at_boundary
    assert inside > 30


def test_constant_rows_pick_the_largest_alpha(problem16, dec16):
    # with x* = 0 and no noise every risk curve is identically zero, so
    # each row is constant across every block seam
    problem = dataclasses.replace(problem16, x_star=np.zeros(16))
    cfg = small_config(grid=SEAM_GRID, n_draws=SEAM_DRAWS, sigma=0.0)
    for rec in run_study(cfg, problem=problem, dec=dec16)[::50]:
        for rule in ("oracle", "psure", "sure"):
            assert rec.outcomes[rule].alpha_hat == np.inf
            assert rec.outcomes[rule].at_boundary


def test_running_argmin_matches_whole_rows():
    c, K = 9, 2402
    rng = np.random.default_rng(3)
    mat = rng.integers(5, 50, size=(c, K)).astype(float)
    mat[0] = 1.0  # constant row
    mat[1, 500:530] = 0.0  # minimum plateau across the first seam
    mat[2, [7, 1100, 1500]] = 0.0  # equal minima in three blocks
    mat[3, 2401] = 0.0  # minimum at the +inf slot
    mat[4, [10, 2000]] = np.nan  # NaN wins, the last one
    mat[5, :] = np.inf
    mat[6, 512] = -np.inf  # first column of the second block
    spans = study._column_spans(K, 300)
    assert len(spans) > 3
    pick = study._RunningArgmin(c)
    for a, b in spans:
        blk = mat[:, a:b]
        local, value = study._block_argmin(blk, np.empty_like(blk))
        pick.update(local, value, a)
    want = [K - 1 - int(np.argmin(row[::-1])) for row in mat]
    np.testing.assert_array_equal(pick.index, want)
    assert list(pick.index[:7]) == [K - 1, 529, 1500, K - 1, 2000, K - 1, 512]


def test_first_non_finite_named_after_the_sweep(problem16, dec16):
    # scaling x* and sigma together scales y^2: draws whose sum of y^2
    # exceeds the largest double overflow the residual sums at large
    # alpha only, which lie past the first column block
    grid = SEAM_GRID
    n = SEAM_DRAWS
    children = np.random.SeedSequence(11).spawn(n)
    z2 = []
    for child in children:
        eps = 0.1 * np.random.default_rng(child).standard_normal(16)
        z = problem16.A @ problem16.x_star + eps
        z2.append(float(z @ z))
    scale = float(np.sqrt(np.finfo(float).max / np.quantile(z2, 0.97)))
    problem = dataclasses.replace(
        problem16, x_star=scale * problem16.x_star, sigma=0.1 * scale)
    cfg = small_config(grid=grid, n_draws=n, sigma=0.1 * scale, master_seed=11)

    # the first draw, then the first alpha, with a non-finite psure value
    # of the single-draw curve
    want = None
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            y = problem.A @ problem.x_star + cfg.sigma * np.random.default_rng(
                children[j]).standard_normal(16)
            curve = psure_value(dec16, to_spectral(dec16, y, problem.x_star),
                                grid, cfg.sigma)
            bad = np.flatnonzero(~np.isfinite(curve))
            if bad.size:
                want = (j, int(bad[0]))
                break
    assert want is not None
    assert want[0] > 0
    assert want[1] >= study._column_spans(len(grid), n)[1][0]
    # the study reports the overflow as a NumericError and warns nowhere,
    # whether or not it runs the true-error sweep
    j, k = want
    for rules in (study.KNOWN_RULES, ("psure",)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError) as info:
                run_study(dataclasses.replace(cfg, rules=rules),
                          problem=problem, dec=dec16)
        assert str(info.value) == (
            f"prediction-risk estimate is not finite at draw {j}, "
            f"alpha={grid.values[k]!r}")


def test_non_finite_error_at_a_pick_is_named(problem16, dec16, monkeypatch):
    # without the sweep the true error is checked at each rule's pick
    cfg = small_config(rules=("psure",))
    alpha = run_study(cfg, problem=problem16, dec=dec16)[3].outcomes[
        "psure"].alpha_hat
    real_filter = study._filter

    def poisoned(g, a, out=None):
        f = real_filter(g, a, out=out)
        f[0, 3] = np.nan
        return f

    monkeypatch.setattr(study, "_filter", poisoned)
    with pytest.raises(NumericError) as info:
        run_study(cfg, problem=problem16, dec=dec16)
    assert str(info.value) == (
        f"true error is not finite at draw 3, alpha={np.float64(alpha)!r}")


def test_rules_without_the_oracle_record_the_same_study(problem16, dec16):
    # psure-only and dp/psure/sure studies skip the true-error sweep;
    # every study computes each pick's errors from its filter factors, so
    # across a chunk boundary and several column blocks they record what
    # the all-rules study records, bit for bit
    cfg = small_config(grid=SEAM_GRID, n_draws=study.CHUNK + 37)
    full = run_study(cfg, problem=problem16, dec=dec16)
    for rules in (("psure",), ("dp", "psure", "sure")):
        part = run_study(dataclasses.replace(cfg, rules=rules),
                         problem=problem16, dec=dec16)
        for a, b in zip(full, part, strict=True):
            assert (a.sup_dev_psure, a.sup_dev_gsure) == (
                b.sup_dev_psure, b.sup_dev_gsure)
            for rule in rules:
                fa, fb = a.outcomes[rule], b.outcomes[rule]
                assert fa == fb
    threaded = run_study(dataclasses.replace(cfg, rules=("dp", "psure", "sure")),
                         problem=problem16, dec=dec16, workers=3)
    assert [dataclasses.asdict(r) for r in part] == [
        dataclasses.asdict(r) for r in threaded]


@pytest.mark.parametrize("kw, builds", [
    (dict(rules=("psure",)), 0),
    (dict(rules=("dp", "psure", "sure")), 0),
    (dict(metric="l2_estimation"), 1),
    (dict(metric="l2_prediction"), 1),
    (dict(metric="l1"), 1),
    (dict(rules=("psure",), track_loss_closeness=True), 1),
])
def test_filter_table_built_only_for_the_sweep(problem16, dec16, monkeypatch,
                                               kw, builds):
    calls = []

    def counted(dec, grid):
        calls.append(grid)
        return filter_table(dec, grid)

    monkeypatch.setattr(study, "filter_table", counted)
    run_study(small_config(n_draws=study.CHUNK + 3, **kw), problem=problem16,
              dec=dec16)
    assert len(calls) == builds


def test_study_memory_stays_below_one_chunk_matrix():
    # A whole-grid evaluator holds about ten (512 x 8002) float64 matrices
    # per chunk, 33 MB each (a peak of 267 MiB at this size). The blocked
    # pass holds the three 4 MB weight tables and a few (512 x 834)
    # blocks, so all of run_study stays below one such matrix (24.5 MiB).
    problem = build_problem(64, 64, 0.06, 0.1)
    dec = decompose(problem.A)
    cfg = StudyConfig(m=64, n=64, l=0.06, sigma=0.1,
                      grid=default_quadratic_grid(), n_draws=512,
                      master_seed=7)
    tracemalloc.start()
    try:
        run_study(cfg, problem=problem, dec=dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < study.CHUNK * len(cfg.grid) * 8


def test_oracle_metric_changes_selection(problem16, dec16):
    cfg_est = small_config(metric="l2_estimation", n_draws=12)
    cfg_l1 = small_config(metric="l1", n_draws=12)
    recs_est = run_study(cfg_est, problem=problem16, dec=dec16)
    recs_l1 = run_study(cfg_l1, problem=problem16, dec=dec16)
    # the l1 oracle must actually optimize the l1 error
    mean_l1_est = np.mean([r.outcomes["oracle"].error_l1 for r in recs_est])
    mean_l1_l1 = np.mean([r.outcomes["oracle"].error_l1 for r in recs_l1])
    assert mean_l1_l1 <= mean_l1_est + 1e-12


def test_track_loss_closeness_fields(problem16, dec16):
    cfg = small_config(track_loss_closeness=True, n_draws=4)
    records = run_study(cfg, problem=problem16, dec=dec16)
    xs = dec16.V.T @ problem16.x_star
    assert all(r.sup_loss_psure is not None for r in records)
    y = _draw(problem16, cfg, 0)
    coords = to_spectral(dec16, y, problem16.x_star)
    pc = psure_value(dec16, coords, cfg.grid, cfg.sigma)
    lc = loss_l(dec16, coords, xs, cfg.grid)
    want_p = float(np.max(np.abs(pc / cfg.m - lc)))
    np.testing.assert_allclose(records[0].sup_loss_psure, want_p, rtol=1e-7)
    gc = gsure_value(dec16, coords, cfg.grid, cfg.sigma)
    tc = loss_tilde(dec16, coords, xs, cfg.grid)
    want_g = float(np.max(np.abs(c_constant(dec16) * gc - tc)))
    np.testing.assert_allclose(records[0].sup_loss_gsure, want_g, rtol=1e-7)


def test_sup_deviation_vanishes_without_noise(problem16, dec16):
    # noiseless data equals its own expectation, so only the rounding
    # disagreement between U^T(Ax*) and gamma*(V^T x*) survives
    y = problem16.A @ problem16.x_star
    coords = to_spectral(dec16, y, problem16.x_star)
    xs = dec16.V.T @ problem16.x_star
    s1, s2 = sup_deviation(dec16, coords, xs, GRID, sigma=0.0)
    scale = float(np.max(coords.y_coords**2))
    assert s1 < 1e-12 * dec16.m * scale
    assert s2 < 1e-12 * dec16.m * scale


def test_sup_deviation_requires_closed_grid(dec16, problem16, draw16):
    coords = to_spectral(dec16, draw16, problem16.x_star)
    xs = dec16.V.T @ problem16.x_star
    open_grid = AlphaGrid(-2.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        sup_deviation(dec16, coords, xs, open_grid, 0.1)


# lasso branch


def test_lasso_records_match_direct_computation(problem16):
    grid = AlphaGrid(-2.0, 0.0, 0.05)
    cfg = StudyConfig(
        m=16, n=16, l=0.06, sigma=0.1, grid=grid, n_draws=2,
        master_seed=77, regularizer="lasso", metric="l1",
        admm=AdmmParams(max_iter=4000),
    )
    extras = {}
    records = run_study(cfg, problem=problem16, extras=extras)
    vals = grid.values
    dec = decompose(problem16.A)

    # replay both draws by hand
    curves = []
    paths = []
    for j in range(2):
        y = _draw(problem16, cfg, j)
        path = admm_all_at_once(problem16.A, y, vals, cfg.admm)
        psure_c = np.array([
            lasso_psure_value(problem16.A, y, path.Z[:, k], cfg.sigma)
            for k in range(len(vals))])
        curves.append(psure_c)
        paths.append((y, path))
    mean_psure = 0.5 * (curves[0] + curves[1])
    np.testing.assert_allclose(
        extras["first_pass_mean_psure"], mean_psure, rtol=1e-9)

    for j in range(2):
        y, path = paths[j]
        rec = records[j]
        err_l1 = np.sum(np.abs(problem16.x_star[:, None] - path.Z), axis=0)
        k_or = len(vals) - 1 - int(np.argmin(err_l1[::-1]))
        assert rec.outcomes["oracle"].alpha_hat == pytest.approx(vals[k_or])
        k_ps = len(vals) - 1 - int(np.argmin(curves[j][::-1]))
        assert rec.outcomes["psure"].alpha_hat == pytest.approx(vals[k_ps])
        res2 = np.einsum(
            "ij,ij->j", y[:, None] - problem16.A @ path.Z,
            y[:, None] - problem16.A @ path.Z)
        crossing = res2 - 16 * cfg.sigma**2 >= 0
        k_dp = int(np.argmax(crossing)) if crossing.any() else len(vals) - 1
        assert rec.outcomes["dp"].alpha_hat == pytest.approx(vals[k_dp])
        np.testing.assert_allclose(
            rec.sup_dev_psure,
            float(np.max(np.abs(curves[j] - mean_psure))), rtol=1e-9)


LASSO_GRID = AlphaGrid(-2.0, 0.0, 0.05)


def lasso_config(**kw):
    base = dict(
        m=16, n=16, l=0.06, sigma=0.1, grid=LASSO_GRID, n_draws=4,
        master_seed=78, regularizer="lasso", metric="l1",
        admm=AdmmParams(max_iter=4000))
    base.update(kw)
    return StudyConfig(**base)


def _lasso_solution(problem, cfg, j):
    """Draw j's solutions as the study computes them: ADMM warm-started
    from the exact path."""
    y = _draw(problem, cfg, j)
    vals = cfg.grid.values
    return admm_all_at_once(problem.A, y, vals, cfg.admm,
                            start=lasso_homotopy(problem.A, y, vals).Z).Z


def test_lasso_study_solves_each_draw_once(problem16, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return admm_all_at_once(*args, **kwargs)

    monkeypatch.setattr(lasso, "admm_all_at_once", counting)
    cfg = lasso_config(n_draws=3)
    assert len(run_study(cfg, problem=problem16)) == 3
    assert len(calls) == cfg.n_draws


def test_lasso_extras_carry_solver_telemetry(problem16):
    cfg = lasso_config(n_draws=3)
    extras = {}
    run_study(cfg, problem=problem16, extras=extras)
    vals = LASSO_GRID.values
    for j in range(cfg.n_draws):
        y = _draw(problem16, cfg, j)
        path = lasso_homotopy(problem16.A, y, vals)
        solve = admm_all_at_once(problem16.A, y, vals, cfg.admm, start=path.Z)
        assert extras["path_kinks"][j] == path.kinks.size
        assert extras["admm_iterations"][j] == solve.iterations_used
    assert extras["unconverged_draws"] == 0


@pytest.mark.parametrize("metric", ["l1", "l2_prediction"])
def test_lasso_one_pass_equals_two_pass_reference(problem16, metric):
    cfg = lasso_config(metric=metric)
    extras = {}
    records = run_study(cfg, problem=problem16, extras=extras)
    A, x_star, vals, K = problem16.A, problem16.x_star, LASSO_GRID.values, len(LASSO_GRID)
    aux = gsure_aux(A)

    def solve(j):
        y = _draw(problem16, cfg, j)
        Z = _lasso_solution(problem16, cfg, j)
        return Z, lasso_risk_curves(A, y, Z, cfg.sigma, aux)

    # first pass: the sums of the curves, in draw order
    sum_p, sum_g = np.zeros(K), np.zeros(K)
    for j in range(cfg.n_draws):
        _, (_, p, g) = solve(j)
        sum_p += p
        sum_g += g
    mean_p, mean_g = sum_p / cfg.n_draws, sum_g / cfg.n_draws
    assert np.array_equal(extras["first_pass_mean_psure"], mean_p)
    assert np.array_equal(extras["first_pass_mean_gsure"], mean_g)

    # second pass: solve again, select and compare every field
    for j, rec in enumerate(records):
        Z, (res2, p, g) = solve(j)
        diff = x_star[:, None] - Z
        err_l2 = np.sqrt(np.einsum("ij,ij->j", diff, diff))
        err_l1 = np.sum(np.abs(diff), axis=0)
        if metric == "l1":
            oracle = err_l1
        else:
            pr = (A @ x_star)[:, None] - A @ Z
            oracle = np.sqrt(np.einsum("ij,ij->j", pr, pr))
        picks = {
            "oracle": K - 1 - int(np.argmin(oracle[::-1])),
            "dp": lasso_dp_index(res2, cfg.m, cfg.sigma),
            "psure": K - 1 - int(np.argmin(p[::-1])),
            "sure": K - 1 - int(np.argmin(g[::-1])),
        }
        assert rec.draw_index == j
        assert list(rec.outcomes) == list(cfg.rules)
        for rule, k in picks.items():
            assert rec.outcomes[rule] == RuleOutcome(
                float(vals[k]), float(err_l2[k]), float(err_l1[k]), k in (0, K - 1))
        assert rec.sup_dev_psure == float(np.max(np.abs(p - mean_p)))
        assert rec.sup_dev_gsure == float(np.max(np.abs(g - mean_g)))
        assert rec.sup_loss_psure is None and rec.sup_loss_gsure is None


@pytest.mark.parametrize("m, l, n_draws, seed, metric, records_digest, curves_digest", [
    (32, 0.04, 8, 20240817, "l1",
     "cad8fa3580080d2991eef808201d62013fcc1c152c5a77fa5b7319483ba748e1",
     "baff068542f6ba1748cbdae67b4de343348a7c71295001e09ff528d7d0ab6e67"),
    (16, 0.06, 6, 77, "l2_estimation",
     "f62fe2383f3d68eacfec9214821542c0d2a30927274ae87bb715ae5229efa1b2",
     "44c907d930de3473ad8e0d339c1dcd6863ddae7b47ce31a3b05677d0f8afa1b4"),
])
def test_lasso_study_bits_pinned(tmp_path, m, l, n_draws, seed, metric,
                                 records_digest, curves_digest):
    # the l1 study's records and mean curves, bit for bit, under any
    # BLAS thread count: a refactor of the l1 solve must keep them
    cfg = StudyConfig(
        m=m, n=m, l=l, sigma=0.1, grid=default_lasso_grid(), n_draws=n_draws,
        master_seed=seed, regularizer="lasso", metric=metric)
    extras = {}
    path = tmp_path / "records.csv"
    write_records_csv(run_study(cfg, extras=extras), cfg.rules, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == records_digest
    curves = np.stack([extras["first_pass_mean_psure"],
                       extras["first_pass_mean_gsure"]])
    assert hashlib.sha256(curves.tobytes()).hexdigest() == curves_digest


def test_lasso_finite_checks_run_in_draw_order(problem16, monkeypatch):
    # every draw is solved first; then draw by draw, psure before sure
    vals = LASSO_GRID.values
    poison = {}
    calls = []

    def poisoned(*args):
        curves = lasso_risk_curves(*args)
        for which, col in poison.get(len(calls), ()):
            curves[which][col] = np.nan
        calls.append(1)
        return curves

    monkeypatch.setattr(study, "lasso_risk_curves", poisoned)
    cfg = lasso_config(n_draws=3)
    for bad, rules, message in (
        ({1: [(2, 7)], 2: [(1, 3)]}, cfg.rules,
         f"estimation-risk estimate is not finite at draw 1, alpha={vals[7]!r}"),
        ({1: [(2, 7), (1, 9)]}, cfg.rules,
         f"prediction-risk estimate is not finite at draw 1, alpha={vals[9]!r}"),
        ({1: [(2, 7)], 2: [(1, 3)]}, ("dp", "psure"),
         f"prediction-risk estimate is not finite at draw 2, alpha={vals[3]!r}"),
    ):
        poison, calls[:] = bad, []
        with pytest.raises(NumericError, match=re.escape(message)):
            run_study(dataclasses.replace(cfg, rules=rules), problem=problem16)
        assert len(calls) == cfg.n_draws


def test_lasso_solver_failure_names_draw_and_alpha():
    # data around 1e155 overflow the solver's residual norms at once
    grid = AlphaGrid(-10.0, 10.0, 0.01)
    cfg = lasso_config(m=8, n=8, sigma=1e155, grid=grid, n_draws=1)
    with pytest.raises(NumericError, match=re.escape(
            f"at iteration 1 at draw 0, alpha={grid.values[0]!r}")):
        run_study(cfg)


def test_lasso_gdf_failure_names_draw_and_alpha(problem16, monkeypatch):
    # a stubbed gdf fails on the first support of draw 1 that draw 0
    # does not have; the study names draw 1 and that support's first alpha
    cfg = lasso_config(n_draws=2)
    supports = [[tuple(np.flatnonzero(z)) for z in _lasso_solution(problem16, cfg, j).T]
                for j in range(cfg.n_draws)]
    col = next(k for k, sup in enumerate(supports[1]) if sup not in supports[0])
    real_gdf = lasso.lasso_gdf

    def failing(A, support, projector=None):
        if tuple(support) == supports[1][col]:
            raise NumericError("stub gdf failure")
        return real_gdf(A, support, projector=projector)

    monkeypatch.setattr(lasso, "lasso_gdf", failing)
    with pytest.raises(NumericError, match=re.escape(
            f"stub gdf failure at draw 1, alpha={LASSO_GRID.values[col]!r}")):
        run_study(cfg, problem=problem16)


# rate fits


def test_rate_check_exact_power_laws():
    # constant sup statistic: normalizing by m gives slope exactly -1
    per_m = [(m, 3.7, 1.0) for m in (16, 32, 64, 128)]
    fit = rate_check(per_m, "psure")
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)
    assert fit.n_points == 4
    # cond growing like sqrt(m) turns the cond-normalized slope into -2
    per_m = [(m, 5.0, np.sqrt(m)) for m in (16, 32, 64, 128)]
    fit = rate_check(per_m, "gsure_cond")
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)
    fit = rate_check(per_m, "gsure_plain")
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)


def test_rate_check_validation():
    with pytest.raises(ValueError):
        rate_check([(16, 1.0, 1.0)], "psure")
    with pytest.raises(ValueError):
        rate_check([(16, 1.0, 1.0), (32, 0.5, 1.0)], "weird")


def test_rate_sweep_matches_explicit_studies():
    sweep = rate_sweep([32, 16], 0.06, 0.1, 7, 11, workers=2)
    assert [e["m"] for e in sweep["per_size"]] == [32, 16]
    full, noise = [], []
    for entry in sweep["per_size"]:
        m = entry["m"]
        problem = build_problem(m, m, 0.06, 0.1)
        dec = decompose(problem.A)
        cfg = StudyConfig(m=m, n=m, l=0.06, sigma=0.1,
                          grid=default_quadratic_grid(), n_draws=7,
                          master_seed=11 + m, rules=("psure",))
        records = run_study(cfg, problem=problem, dec=dec)
        zero = run_study(
            cfg, problem=dataclasses.replace(problem, x_star=np.zeros(m)),
            dec=dec)
        assert entry["cond"] == dec.cond
        for key, recs, which in (("psure", records, "psure"),
                                 ("gsure", records, "gsure"),
                                 ("gsure_noise", zero, "gsure")):
            assert entry[f"mean_sup_{key}"] == mean_sup_deviation(recs, which)
            sups = [getattr(rec, f"sup_dev_{which}") for rec in recs]
            assert entry[f"se_sup_{key}"] == pytest.approx(
                np.std(sups, ddof=1) / np.sqrt(7), rel=1e-12)
        full.append((m, entry["mean_sup_psure"], entry["mean_sup_gsure"], dec.cond))
        noise.append((m, entry["mean_sup_gsure_noise"], dec.cond))
    fits = sweep["fits"]
    assert fits["psure"] == rate_check([(m, p, c) for m, p, _, c in full], "psure")
    trip_g = [(m, g, c) for m, _, g, c in full]
    assert fits["gsure_cond"] == rate_check(trip_g, "gsure_cond")
    assert fits["gsure_plain"] == rate_check(trip_g, "gsure_plain")
    assert fits["gsure_cond_noise"] == rate_check(noise, "gsure_cond")


@pytest.mark.parametrize("sizes", [[16, 4], [16], [16, 16]])
def test_rate_sweep_rejects_sizes_before_any_study(monkeypatch, sizes):
    def no_study(*args, **kwargs):
        raise AssertionError("a study ran")

    monkeypatch.setattr(study, "run_study", no_study)
    with pytest.raises(ValueError):
        rate_sweep(sizes, 0.06, 0.1, 2, 1)


# aggregation over synthetic records


def _fake_record(i, dp_err, ps_err):
    return StudyRecord(
        draw_index=i,
        outcomes={
            "dp": RuleOutcome(1.0, dp_err, 2 * dp_err, False),
            "psure": RuleOutcome(0.5, ps_err, 2 * ps_err, False),
        },
        sup_dev_psure=0.1 * (i + 1),
        sup_dev_gsure=0.2 * (i + 1),
    )


def test_error_stats_and_win_fraction():
    records = [
        _fake_record(0, 2.0, 1.0),
        _fake_record(1, 1.0, 1.0),
        _fake_record(2, 1.0, 3.0),
        _fake_record(3, 4.0, 2.0),
    ]
    st = error_stats(records, "dp")
    assert st["min"] == 1.0 and st["max"] == 4.0
    assert st["mean"] == pytest.approx(2.0)
    assert st["median"] == pytest.approx(1.5)
    assert st["std"] == pytest.approx(np.std([2.0, 1.0, 1.0, 4.0]))
    # one win, one tie, one loss, one win: (2 + 0.5) / 4
    assert win_fraction(records, "psure", "dp") == pytest.approx(0.625)
    assert win_fraction(records, "psure", "dp", metric="l1") == pytest.approx(0.625)
    assert mean_sup_deviation(records, "psure") == pytest.approx(0.25)
    with pytest.raises(ValueError):
        mean_sup_deviation(records, "nope")


def test_loss_closeness_stats_layout():
    rng = np.random.default_rng(9)
    per_m = [
        (64, rng.uniform(0, 1, 50), rng.uniform(0, 1, 50), 0.2),
        (16, rng.uniform(0, 2, 50), rng.uniform(0, 2, 50), 0.4),
    ]
    out = loss_closeness_stats(per_m)
    np.testing.assert_array_equal(out["m"], [16, 64])
    assert out["psure_quantiles"].shape == (3, 2)
    np.testing.assert_allclose(out["overlay_inv_sqrt_m"], [0.25, 0.125])
    np.testing.assert_allclose(out["overlay_d"], [0.4, 0.2])
    with pytest.raises(ValueError):
        loss_closeness_stats([])


# serialization


def test_csv_round_trip_exact(problem16, dec16, tmp_path):
    cfg = small_config(n_draws=5, track_loss_closeness=True)
    records = run_study(cfg, problem=problem16, dec=dec16)
    # force an infinite selection into the file as well
    records[2].outcomes["dp"].alpha_hat = float("inf")
    path = tmp_path / "records.csv"
    write_records_csv(records, cfg.rules, path)
    back, rules = read_records_csv(path)
    assert tuple(rules) == cfg.rules
    for rec, got in zip(records, back):
        assert got.draw_index == rec.draw_index
        assert got.sup_dev_psure == rec.sup_dev_psure
        assert got.sup_dev_gsure == rec.sup_dev_gsure
        assert got.sup_loss_psure == rec.sup_loss_psure
        for rule in cfg.rules:
            a, b = rec.outcomes[rule], got.outcomes[rule]
            assert (a.alpha_hat, a.error_l2, a.error_l1, a.at_boundary) == (
                b.alpha_hat, b.error_l2, b.error_l1, b.at_boundary)


def test_summary_json_serializable(problem16, dec16):
    cfg = small_config(n_draws=4)
    records = run_study(cfg, problem=problem16, dec=dec16)
    summary = summary_json(cfg, records, "deadbeef")
    text = json.dumps(summary, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["schema_version"] == 1
    assert parsed["problem_hash"] == "deadbeef"
    assert set(parsed["win_fractions_vs_dp"]) == {"oracle", "psure", "sure"}
    assert parsed["config"]["grid"]["step"] == pytest.approx(0.05)
