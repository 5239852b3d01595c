"""Study-level checks, one printed verdict line per numbered item.

Each test prints its verdict before asserting, so the terminal log shows
the full scoreboard even when an item fails. Printing happens with
capture suspended so the lines reach the real stdout.
"""

import math
import time

import numpy as np
import pytest

from helpers import alpha_span, make_lasso_instance
from oracles import kkt_gap, lasso_enum_path, lasso_objective
from regrisk import (
    AlphaGrid,
    StudyConfig,
    admm_all_at_once,
    build_problem,
    decompose,
    default_quadratic_grid,
    df,
    dp_select,
    edp_true,
    error_stats,
    gdf,
    gsure_aux,
    gsure_value,
    lasso_gdf,
    lasso_gsure_value,
    lasso_psure_value,
    lasso_solve,
    msee_true,
    mspe_true,
    psure_alpha_bounds,
    rate_check,
    rate_sweep,
    run_study,
    to_spectral,
    trace_pinv_gram,
    win_fraction,
)

SIGMA = 0.1


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num}: {verdict} ({detail})", flush=True)


@pytest.fixture(scope="module")
def paper_problem():
    problem = build_problem(64, 64, 0.06, SIGMA)
    return problem, decompose(problem.A)


@pytest.fixture(scope="module")
def study64(paper_problem):
    problem, dec = paper_problem
    cfg = StudyConfig(
        m=64, n=64, l=0.06, sigma=SIGMA, grid=default_quadratic_grid(),
        n_draws=10_000, master_seed=20240817,
    )
    return cfg, run_study(cfg, problem=problem, dec=dec, workers=3)


def test_criterion_1_condition_numbers(capsys):
    published = {
        (16, 0.02): 1.27,
        (16, 0.06): 2.79,
        (32, 0.04): 6.77,
        (64, 0.06): 6.42e2,
        (128, 0.02): 6.88e2,
    }
    t0 = time.time()
    worst = 0.0
    for (m, l), want in published.items():
        dec = decompose(build_problem(m, m, l, SIGMA).A)
        worst = max(worst, abs(dec.cond - want) / want)
    ok = worst < 0.05
    _report(capsys, 1, ok, f"max rel err {worst:.2%} over {len(published)} (m,l) "
                   f"pairs, tol 5%, {time.time() - t0:.1f}s")
    assert ok, f"condition numbers off by up to {worst:.2%}"


def test_criterion_2_leading_singular_value(capsys):
    t0 = time.time()
    worst = 0.0
    for m, l in ((16, 0.02), (32, 0.04), (64, 0.06), (128, 0.02),
                 (256, 0.04), (512, 0.06)):
        dec = decompose(build_problem(m, m, l, SIGMA).A)
        worst = max(worst, abs(dec.gammas[0] - 1.0))
    ok = worst <= 1e-3
    _report(capsys, 2, ok, f"max |gamma1 - 1| = {worst:.1e} across sizes up to 512, "
                   f"tol 1e-3, {time.time() - t0:.1f}s")
    assert ok


def test_criterion_3_unbiasedness(paper_problem, capsys):
    problem, dec = paper_problem
    xs = dec.V.T @ problem.x_star
    n_draws = 2000
    alphas = (1e-6, 1e-3, 1e-1, 1.0, 1e3)
    rng = np.random.default_rng(20240816)
    g = dec.gammas
    eps = SIGMA * rng.standard_normal((dec.m, n_draws))
    Y2 = (g * xs + eps.T) ** 2  # (n_draws, m) squared spectral data
    s2 = SIGMA * SIGMA
    worst = 0.0
    for a in alphas:
        w1 = (a / (g * g + a)) ** 2
        w2 = (a / (g * (g * g + a))) ** 2
        dp_samples = Y2 @ w1 - dec.m * s2
        ps_samples = dp_samples + 2.0 * s2 * df(dec, a)
        gs_samples = Y2 @ w2 - s2 * trace_pinv_gram(dec) + 2.0 * s2 * gdf(dec, a)
        for samples, target in (
            (dp_samples, edp_true(dec, xs, a, SIGMA)),
            (ps_samples, mspe_true(dec, xs, a, SIGMA)),
            (gs_samples, msee_true(dec, xs, a, SIGMA)),
        ):
            se = samples.std(ddof=1) / np.sqrt(n_draws)
            worst = max(worst, abs(samples.mean() - target) / se)
    ok = worst < 3.0
    _report(capsys, 3, ok, f"worst |z| = {worst:.2f} over 15 sample-mean checks "
                   f"(3 estimators x 5 alphas, N={n_draws}), limit 3")
    assert ok, f"sample mean {worst:.2f} standard errors from the closed form"


def test_criterion_4_error_statistics(study64, capsys):
    cfg, records = study64
    st = {rule: error_stats(records, rule) for rule in cfg.rules}
    checks = [
        ("oracle mean", st["oracle"]["mean"], 8.04, 0.10),
        ("dp mean", st["dp"]["mean"], 8.82, 0.15),
        ("psure median", st["psure"]["median"], 8.23, 0.15),
        ("sure median", st["sure"]["median"], 8.95, 0.5),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    ratio = st["sure"]["std"] / st["dp"]["std"]
    ok = ok and ratio > 10.0
    detail = ", ".join(f"{name} {got:.3f} (target {want}+-{tol})"
                       for name, got, want, tol in checks)
    _report(capsys, 4, ok, f"{detail}, std ratio {ratio:.0f} (>10), N=10000")
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, f"{name} = {got:.4f}, want {want}+-{tol}"
    assert ratio > 10.0


def test_criterion_5_win_fractions(study64, capsys):
    _, records = study64
    win_psure = win_fraction(records, "psure", "dp")
    win_sure = win_fraction(records, "sure", "dp")
    ok = abs(win_psure - 0.87) <= 0.02 and abs(win_sure - 0.56) <= 0.03
    _report(capsys, 5, ok, f"psure beats dp on {win_psure:.1%} (target 87%+-2%), "
                   f"sure on {win_sure:.1%} (target 56%+-3%), N=10000")
    assert abs(win_psure - 0.87) <= 0.02, f"psure win fraction {win_psure:.4f}"
    assert abs(win_sure - 0.56) <= 0.03, f"sure win fraction {win_sure:.4f}"


def test_criterion_6_deviation_rates(capsys):
    # The estimation-side deviation has a signal x noise part,
    # sum w_i 2 g_i x*_i eps_i, growing like cond * ||x*||, and a noise x
    # noise part, sum w_i (eps_i^2 - sigma^2), with std
    # sigma^2 sqrt(2 sum g^-4), growing like cond^2. The m * cond^2
    # normalization models only the latter. The noise draws depend on the
    # seeds alone, so rate_sweep's second run with x* = 0 gives the noise x
    # noise sup of the same draws, and the cond-normalized rate is fitted
    # to it.
    # At m = 16 (cond 2.8) the signal x noise part dominates and the sup
    # sits at alpha = +inf; there the full statistic is pinned to the
    # closed form of E|deviation(+inf)| instead.
    t0 = time.time()
    sweep = rate_sweep((16, 32, 64, 128, 256, 512), 0.06, SIGMA, 1000,
                       20240817, workers=3)
    at16 = sweep["per_size"][0]
    assert at16["m"] == 16
    problem = build_problem(16, 16, 0.06, SIGMA)
    dec = decompose(problem.A)
    g = dec.gammas[: dec.r]
    xs = (dec.V.T @ problem.x_star)[: dec.r]
    var_inf = (4.0 * SIGMA**2 * np.sum(xs * xs / (g * g))
               + 2.0 * SIGMA**4 * np.sum(g**-4.0))
    closed16 = math.sqrt(2.0 / math.pi) * math.sqrt(var_inf)
    mean16 = at16["mean_sup_gsure"]
    se16 = at16["se_sup_gsure"]
    fits = sweep["fits"]
    slope_p = fits["psure"].slope
    slope_gn = fits["gsure_cond_noise"].slope
    slope_gp = fits["gsure_plain"].slope
    slope_gc_full = fits["gsure_cond"].slope
    trip_g = [(e["m"], e["mean_sup_gsure"], e["cond"]) for e in sweep["per_size"]]
    slope_gc_tail = rate_check(trip_g[1:], "gsure_cond").slope

    ok_p = abs(slope_p + 1.0) <= 0.3
    ok_gn = abs(slope_gn + 1.0) <= 0.3
    ok_gp = slope_gp > -0.5
    ok_16 = abs(mean16 - closed16) <= 3.0 * se16
    _report(capsys, 6, ok_p and ok_gn and ok_gp and ok_16,
            f"slopes: psure {slope_p:.3f} (want -1+-0.3), "
            f"gsure noise-only cond-normalized {slope_gn:.3f} "
            f"(want -1+-0.3), gsure plain {slope_gp:.3f} (want >-0.5); "
            f"m=16 mean sup {mean16:.3f} vs closed form {closed16:.3f} "
            f"(want within 3 x se {se16:.3f}); not asserted: full "
            f"cond-normalized {slope_gc_full:.3f}, m>=32 refit "
            f"{slope_gc_tail:.3f}, {time.time() - t0:.0f}s")
    assert ok_p, f"prediction-side slope {slope_p:.3f} outside -1+-0.3"
    assert ok_gn, (
        f"noise-only cond-normalized estimation-side slope {slope_gn:.3f} "
        f"outside -1+-0.3"
    )
    assert ok_gp, f"plain estimation-side slope {slope_gp:.3f} not above -0.5"
    assert ok_16, (
        f"m=16 mean estimation-side sup {mean16:.4f} differs from the "
        f"alpha=+inf closed form {closed16:.4f} by more than 3 x se {se16:.4f}"
    )


def test_criterion_7_bracket_contains_minimizer(paper_problem, capsys):
    problem, dec = paper_problem
    grid = default_quadratic_grid()
    rng = np.random.default_rng(20240816)
    slack = 10.0 ** grid.step  # one grid step of quantization allowance
    inside = 0
    min_lo_margin = np.inf
    min_hi_margin = np.inf
    for _ in range(50):
        x_pert = problem.x_star * rng.uniform(0.5, 1.5, 64) \
            + 0.1 * rng.standard_normal(64)
        s_pert = 10.0 ** rng.uniform(-2, 0)
        xsp = dec.V.T @ x_pert
        lo, hi = psure_alpha_bounds(dec, xsp, s_pert)
        curve = mspe_true(dec, xsp, grid, s_pert)
        k = int(len(curve) - 1 - np.argmin(curve[::-1]))
        a_hat = float(grid.values[k])
        if lo / slack <= a_hat <= hi * slack:
            inside += 1
        min_lo_margin = min(min_lo_margin, np.log10(a_hat / lo))
        min_hi_margin = min(min_hi_margin, np.log10(hi / a_hat))
    ok = inside == 50
    _report(capsys, 7, ok, f"{inside}/50 risk minimizers inside the bracket, "
                   f"min margins {min_lo_margin:.2f}/{min_hi_margin:.2f} decades")
    assert ok


def test_criterion_8_solver_matches_enumeration(capsys):
    t0 = time.time()
    worst_kkt = 0.0
    worst_gap = 0.0
    for seed in range(100, 125):
        A, y, _ = make_lasso_instance(seed)
        alphas = alpha_span(A, y, 50)
        path = admm_all_at_once(A, y, alphas)
        assert path.converged_flags.all()
        _, ref_obj = lasso_enum_path(A, y, alphas)
        for k, a in enumerate(alphas):
            z = path.Z[:, k]
            worst_kkt = max(worst_kkt, kkt_gap(A, y, z, a))
            worst_gap = max(
                worst_gap, abs(lasso_objective(A, y, z, a) - ref_obj[k]))
    ok = worst_kkt <= 1e-8 and worst_gap <= 1e-8
    _report(capsys, 8, ok, f"25 instances x 50 alphas: worst KKT gap {worst_kkt:.1e}, "
                   f"worst objective gap {worst_gap:.1e}, tol 1e-8, "
                   f"{time.time() - t0:.0f}s")
    assert worst_kkt <= 1e-8
    assert worst_gap <= 1e-8


def test_criterion_9_df_gdf_properties(capsys):
    # part one: the algebraic gdf trace against a randomized divergence
    # estimate of y -> (A^+)^T z(y) built from solver output alone
    t0 = time.time()
    delta = 1e-4
    n_probes = 1500
    rel_errs = []
    stable = True
    for seed, (m, n) in ((101, (10, 8)), (202, (10, 8)), (303, (6, 8))):
        A, y, _ = make_lasso_instance(seed, m=m, n=n)
        aux = gsure_aux(A)
        alpha = 0.3 * float(np.max(np.abs(A.T @ y)))
        z0 = lasso_solve(A, y, np.array([alpha]))[0].Z[:, 0]
        support0 = set(np.flatnonzero(z0))
        want = lasso_gdf(A, np.flatnonzero(z0), projector=aux.projector)
        pinv_t = aux.pinv.T
        rng = np.random.default_rng(20240818)
        samples = np.empty(n_probes)
        for i in range(n_probes):
            b = rng.choice([-1.0, 1.0], size=m)
            zp = lasso_solve(A, y + delta * b, np.array([alpha]))[0].Z[:, 0]
            zm = lasso_solve(A, y - delta * b, np.array([alpha]))[0].Z[:, 0]
            stable &= set(np.flatnonzero(zp)) == support0
            stable &= set(np.flatnonzero(zm)) == support0
            samples[i] = b @ (pinv_t @ (zp - zm)) / (2.0 * delta)
        rel_errs.append(abs(samples.mean() - want) / want)
    div_ok = stable and max(rel_errs) < 0.05

    # part two: support-size jumps coincide with where the estimator
    # curves break from their fixed-support affine continuations
    jump_ok = True
    worst_off = 0.0
    least_on = np.inf
    for seed in (7, 11):
        A, y, _ = make_lasso_instance(seed)
        m, n = A.shape
        grid = AlphaGrid(-3.0, 0.5, 0.01)
        vals = grid.values
        path = lasso_solve(A, y, vals)[0]
        aux = gsure_aux(A)
        psure = np.array([lasso_psure_value(A, y, path.Z[:, k], SIGMA)
                          for k in range(len(vals))])
        gsure = np.array([lasso_gsure_value(A, y, path.Z[:, k], SIGMA, aux=aux)
                          for k in range(len(vals))])
        dfs = np.count_nonzero(path.Z, axis=0)
        df_jumps = {k for k in range(len(vals) - 1) if dfs[k + 1] != dfs[k]}
        pin_y = aux.pinv @ y
        s2 = SIGMA * SIGMA
        disc_p = np.empty(len(vals) - 1)
        disc_g = np.empty(len(vals) - 1)
        for k in range(len(vals) - 1):
            zk = path.Z[:, k]
            sup = np.flatnonzero(zk)
            x_pred = np.zeros(n)
            if sup.size:
                Ai = A[:, sup]
                x_pred[sup] = np.linalg.solve(
                    Ai.T @ Ai, Ai.T @ y - vals[k + 1] * np.sign(zk[sup]))
            resid = y - A @ x_pred
            pred_p = resid @ resid - m * s2 + 2.0 * s2 * sup.size
            d = pin_y - x_pred
            pred_g = d @ d - s2 * aux.trace_gram_pinv \
                + 2.0 * s2 * lasso_gdf(A, sup, projector=aux.projector)
            disc_p[k] = abs(psure[k + 1] - pred_p)
            disc_g[k] = abs(gsure[k + 1] - pred_g)
        for disc in (disc_p, disc_g):
            jumps = {k for k in range(len(vals) - 1) if disc[k] > 1e-6}
            jump_ok &= jumps == df_jumps
            off = [disc[k] for k in range(len(vals) - 1) if k not in df_jumps]
            worst_off = max(worst_off, max(off))
            least_on = min(least_on, min(disc[k] for k in df_jumps))

    ok = div_ok and jump_ok
    _report(capsys, 9, ok,
            f"divergence rel errs {'/'.join(f'{e:.1%}' for e in rel_errs)} "
            f"(tol 5%, supports stable: {stable}); jump sets "
            f"{'identical' if jump_ok else 'DIFFER'} on 2 instances x 2 "
            f"estimators, separation {worst_off:.0e} vs {least_on:.0e}, "
            f"{time.time() - t0:.0f}s")
    assert stable, "support changed under probe perturbations"
    assert max(rel_errs) < 0.05, f"divergence estimate off by {max(rel_errs):.1%}"
    assert jump_ok, "estimator discontinuities do not match support jumps"


def test_criterion_10_linear_grid_pitfall(paper_problem, capsys):
    problem, dec = paper_problem
    grid = default_quadratic_grid()
    signal = problem.A @ problem.x_star
    xs = dec.V.T @ problem.x_star
    hits = 0
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = signal + SIGMA * rng.standard_normal(64)
        coords = to_spectral(dec, y, problem.x_star)
        a_dp = dp_select(dec, coords, grid, SIGMA).alpha_hat
        lin = (2.0 * a_dp / 50.0) * np.arange(1, 51)
        lin_vals = np.array([gsure_value(dec, coords, a, SIGMA) for a in lin])
        k_lin = int(len(lin_vals) - 1 - np.argmin(lin_vals[::-1]))
        curve = gsure_value(dec, coords, grid, SIGMA)
        k_log = int(len(curve) - 1 - np.argmin(curve[::-1]))
        a_lin = float(lin[k_lin])
        a_log = float(grid.values[k_log])
        if not np.isfinite(a_log):
            continue
        ratio = a_lin / a_log
        if ratio > 10.0 and (
            msee_true(dec, xs, a_log, SIGMA) > msee_true(dec, xs, a_lin, SIGMA)
        ):
            hits += 1
            ratios.append(ratio)
    ok = hits >= 1
    _report(capsys, 10, ok,
            f"{hits}/20 draws: grids disagree by >10x and the log-grid "
            f"pick carries the larger true loss"
            + (f", ratios up to {max(ratios):.0f}" if ratios else ""))
    assert ok, "no draw showed the factor-10 grid disagreement"
