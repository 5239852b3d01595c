import gc
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import brentq

from regrisk import rules, spectral
from regrisk import (
    AlphaGrid,
    NumericError,
    SpectralDecomposition,
    build_problem,
    c_constant,
    d_constant,
    decompose,
    default_lasso_grid,
    default_quadratic_grid,
    df_table,
    dp_select,
    dp_value,
    edp_true,
    effective_gammas,
    estimation_weight_table,
    expected_data_power,
    filter_table,
    gdf_table,
    gsure_select,
    gsure_value,
    loss_l,
    loss_l_curve,
    loss_tilde,
    loss_tilde_curve,
    msee_true,
    mspe_true,
    oracle_error_curve,
    oracle_select,
    prediction_weight_table,
    psure_alpha_bounds,
    psure_select,
    psure_value,
    residual_norm_sq,
    select_by_minimization,
    sup_deviation,
    to_spectral,
    trace_pinv_gram,
)

from oracles import (
    dense_df,
    dense_gdf,
    dense_residual_sq,
    dense_tikhonov,
    dense_trace_pinv_gram,
    fsum_total,
    scan_min_larger,
)

SIGMA = 0.1
ALPHAS = [1e-8, 1e-3, 0.1, 1.0, 50.0, 1e6]


@pytest.fixture()
def coords16(problem16, dec16, draw16):
    return to_spectral(dec16, draw16, problem16.x_star)


# grids


def test_grid_lattice_and_length():
    g = AlphaGrid(-2.0, 2.0, 0.5)
    assert len(g) == 9
    np.testing.assert_allclose(g.values, 10.0 ** np.arange(-2.0, 2.5, 0.5))
    assert not g.includes_infinity


def test_grid_infinity_slot_is_last():
    g = AlphaGrid(-1.0, 1.0, 1.0, includes_infinity=True)
    assert len(g) == 4
    assert g.n_finite == 3
    assert g.values[-1] == np.inf


def test_grid_validation():
    with pytest.raises(ValueError):
        AlphaGrid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        AlphaGrid(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        AlphaGrid(0.0, 1.0, 0.3)  # span not an integer number of steps


def test_grid_values_read_only():
    g = AlphaGrid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        g.values[0] = 7.0


def test_default_grids():
    q = default_quadratic_grid()
    assert len(q) == 8002 and q.includes_infinity
    assert q.values[0] == pytest.approx(1e-40)
    la = default_lasso_grid()
    assert len(la) == 2001 and not la.includes_infinity


# scalar rules against the dense route


@pytest.mark.parametrize("alpha", ALPHAS)
def test_dp_value_dense_route(problem16, dec16, coords16, draw16, alpha):
    want = dense_residual_sq(problem16.A, draw16, alpha) - 16 * SIGMA**2
    np.testing.assert_allclose(
        dp_value(dec16, coords16, alpha, SIGMA), want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_psure_value_dense_route(problem16, dec16, coords16, draw16, alpha):
    want = (
        dense_residual_sq(problem16.A, draw16, alpha)
        - 16 * SIGMA**2
        + 2 * SIGMA**2 * dense_df(problem16.A, alpha)
    )
    np.testing.assert_allclose(
        psure_value(dec16, coords16, alpha, SIGMA), want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_gsure_value_dense_route(problem16, dec16, coords16, draw16, alpha):
    A = problem16.A
    xhat = dense_tikhonov(A, draw16, alpha)
    p = np.linalg.pinv(A) @ draw16 - xhat
    want = (
        fsum_total(p * p)
        - SIGMA**2 * dense_trace_pinv_gram(A)
        + 2 * SIGMA**2 * dense_gdf(A, alpha)
    )
    np.testing.assert_allclose(
        gsure_value(dec16, coords16, alpha, SIGMA), want, rtol=1e-8, atol=1e-10)


def test_expected_data_power(dec16, coords16):
    e2 = expected_data_power(dec16, coords16.xstar_coords, SIGMA)
    geff = effective_gammas(dec16)
    xs = coords16.xstar_coords[: dec16.m]
    np.testing.assert_allclose(e2, (geff * xs) ** 2 + SIGMA**2, rtol=1e-14)


def test_expected_data_power_subrank_is_noise_only(wide_problem):
    dec = decompose(wide_problem.A)
    xs = dec.V.T @ wide_problem.x_star
    e2 = expected_data_power(dec, xs, SIGMA)
    assert e2.shape == (wide_problem.m,)
    if dec.r < wide_problem.m:
        np.testing.assert_allclose(e2[dec.r:], SIGMA**2, rtol=1e-14)


# curves agree with scalar evaluations, infinity slot included


def test_curves_match_scalars(dec16, coords16):
    grid = AlphaGrid(-6.0, 6.0, 0.75, includes_infinity=True)
    xs = coords16.xstar_coords
    for risk, data in (
        (dp_value, coords16),
        (psure_value, coords16),
        (gsure_value, coords16),
        (mspe_true, xs),
        (msee_true, xs),
        (edp_true, xs),
    ):
        want = np.array([risk(dec16, data, a, SIGMA) for a in grid.values])
        np.testing.assert_allclose(
            risk(dec16, data, grid, SIGMA), want, rtol=1e-10, atol=1e-12)


def test_curves_take_a_1d_alpha_array(dec16, coords16):
    grid = AlphaGrid(-6.0, 6.0, 0.75, includes_infinity=True)
    alphas = np.array([2.5e-3, 0.7, 0.0, np.inf, 31.0])
    xs = coords16.xstar_coords
    for risk in (dp_value, psure_value, gsure_value):
        want = np.array([risk(dec16, coords16, a, SIGMA) for a in alphas])
        np.testing.assert_allclose(
            risk(dec16, coords16, alphas, SIGMA), want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(
        oracle_error_curve(dec16, coords16, xs, grid.values),
        oracle_error_curve(dec16, coords16, xs, grid), rtol=1e-12)
    for bad in ([], [[1.0]], [1.0, np.nan], [-1.0]):
        with pytest.raises(ValueError):
            dp_value(dec16, coords16, np.array(bad, dtype=float), SIGMA)


@pytest.mark.parametrize("m, n", [(16, 16), (8, 12), (12, 8)])
def test_grid_risks_are_the_table_expressions_bit_for_bit(m, n):
    # along a grid the estimates are the whole-grid table expressions the
    # selections and the study are built on, to the last bit
    problem = build_problem(m, n, 0.06, SIGMA)
    dec = decompose(problem.A)
    rng = np.random.default_rng(20240818)
    y = problem.A @ problem.x_star + SIGMA * rng.standard_normal(m)
    coords = to_spectral(dec, y, problem.x_star)
    y2 = coords.y_coords**2
    s2 = SIGMA * SIGMA
    for grid in (default_quadratic_grid(),
                 np.array([0.0, 1e-9, 2.5e-3, 0.7, 31.0, 1e12, np.inf])):
        dp = y2 @ prediction_weight_table(dec, grid) - m * s2
        psure = dp + 2.0 * s2 * df_table(dec, grid)
        gsure = (y2[: dec.r] @ estimation_weight_table(dec, grid)
                 - s2 * trace_pinv_gram(dec) + 2.0 * s2 * gdf_table(dec, grid))
        assert np.array_equal(dp_value(dec, coords, grid, SIGMA), dp)
        assert np.array_equal(psure_value(dec, coords, grid, SIGMA), psure)
        assert np.array_equal(gsure_value(dec, coords, grid, SIGMA), gsure)


def _whole_grid_tables(dec, grid):
    # the table expressions built through whole-grid temporaries
    vals = grid.values
    nf = grid.n_finite
    g = dec.gammas[: dec.r]
    F = np.zeros((dec.r, len(grid)))
    F[:, :nf] = g[:, None] / (g[:, None] ** 2 + vals[None, :nf])
    W1 = np.ones((dec.m, len(grid)))
    W1[: dec.r, :nf] = (vals[None, :nf] / (g[:, None] ** 2 + vals[None, :nf])) ** 2
    W2 = np.empty((dec.r, len(grid)))
    W2[:, :nf] = (
        vals[None, :nf] / (g[:, None] * (g[:, None] ** 2 + vals[None, :nf]))) ** 2
    W2[:, nf:] = (1.0 / (g * g))[:, None]
    dfs = np.zeros(len(grid))
    dfs[:nf] = np.sum(g[:, None] ** 2 / (g[:, None] ** 2 + vals[None, :nf]), axis=0)
    gdfs = np.zeros(len(grid))
    gdfs[:nf] = np.sum(1.0 / (g[:, None] ** 2 + vals[None, :nf]), axis=0)
    return {filter_table: F, prediction_weight_table: W1,
            estimation_weight_table: W2, df_table: dfs, gdf_table: gdfs}


@pytest.mark.parametrize("m, n", [(16, 16), (8, 12), (12, 8)])
def test_tables_equal_whole_grid_expressions(m, n):
    dec = decompose(build_problem(m, n, 0.06, 0.1).A)
    for grid in (default_quadratic_grid(), AlphaGrid(-3.0, 3.0, 0.5)):
        for build, want in _whole_grid_tables(dec, grid).items():
            got = build(dec, grid)
            assert got.shape == want.shape
            assert np.array_equal(got, want), build.__name__


def test_table_builders_peak_at_their_output_size():
    # each table is built in place in its output array: at m = 64 on the
    # default grid no builder allocates a tenth of its output beside it
    dec = decompose(build_problem(64, 64, 0.06, 0.1).A)
    grid = default_quadratic_grid()
    for build in (filter_table, prediction_weight_table,
                  estimation_weight_table, df_table, gdf_table):
        tracemalloc.start()
        try:
            out = build(dec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes, build.__name__


# the memo of draw-independent tables


def _count_table_builds(monkeypatch):
    # names of the grid tables built from here on: a residual-weight table
    # per W1 and a rank sum per df or gdf table; scalar residual weights
    # (the discrepancy bisection) are not counted
    builds = []
    residual_weight, rank_sums = spectral._residual_weight, rules._rank_sums

    def residual_weight_spy(g, a, out=None):
        if np.ndim(a):
            builds.append("W1")
        return residual_weight(g, a, out=out)

    def rank_sums_spy(term, dec, a):
        builds.append(term.__name__)
        return rank_sums(term, dec, a)

    monkeypatch.setattr(spectral, "_residual_weight", residual_weight_spy)
    monkeypatch.setattr(rules, "_rank_sums", rank_sums_spy)
    return builds


def _draw(problem, dec, seed):
    rng = np.random.default_rng(seed)
    y = problem.A @ problem.x_star + SIGMA * rng.standard_normal(problem.m)
    return to_spectral(dec, y, problem.x_star)


def test_single_draw_rules_build_each_table_once(problem16, monkeypatch):
    dec = decompose(problem16.A)
    builds = _count_table_builds(monkeypatch)

    def dp_and_psure(seed):
        # each call with a fresh but equal grid, which finds the same tables
        coords = _draw(problem16, dec, seed)
        return (dp_select(dec, coords, default_quadratic_grid(), SIGMA),
                psure_select(dec, coords, default_quadratic_grid(), SIGMA))

    first = dp_and_psure(1)
    assert sorted(builds) == ["W1", "_df_term"]
    assert dp_and_psure(1) == first
    assert dp_and_psure(2) != first
    assert sorted(builds) == ["W1", "_df_term"]


def test_array_grids_are_built_on_every_call(problem16, monkeypatch):
    dec = decompose(problem16.A)
    grid = default_quadratic_grid()
    builds = _count_table_builds(monkeypatch)
    for build in (prediction_weight_table, df_table, gdf_table):
        shared = build(dec, grid)
        fresh = [build(dec, grid.values) for _ in range(2)]
        for table in fresh:
            assert table is not shared and table.flags.writeable
            assert np.array_equal(table, shared)
    assert builds == ["W1"] * 3 + ["_df_term"] * 3 + ["_gdf_term"] * 3


def test_memoized_tables_are_read_only_and_shared(dec16):
    grid = AlphaGrid(-3.0, 3.0, 0.5, includes_infinity=True)
    for build in (prediction_weight_table, df_table, gdf_table):
        table = build(dec16, grid)
        assert build(dec16, AlphaGrid(-3.0, 3.0, 0.5, includes_infinity=True)) is table
        assert build(dec16, AlphaGrid(-3.0, 3.0, 0.5)) is not table
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_memo_entries_go_with_their_decomposition(problem16):
    dec = decompose(problem16.A)
    psure_select(dec, _draw(problem16, dec, 3), default_quadratic_grid(), SIGMA)
    table = weakref.ref(prediction_weight_table(dec, default_quadratic_grid()))
    assert dec in rules._MEMO
    held = weakref.ref(dec)
    del dec
    gc.collect()
    assert held() is None and table() is None


def test_concurrent_first_calls_share_one_table(problem16):
    # four threads racing to build each table on a cold memo all get the
    # one that was stored first, not a copy of their own
    dec = decompose(problem16.A)
    grid = default_quadratic_grid()
    start = threading.Barrier(4, timeout=60)

    def race(build):
        start.wait()
        return build(dec, grid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(race, build) for build in (
                prediction_weight_table, df_table, gdf_table) for _ in range(4)]
            tables = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len({id(t) for t in tables}) == 3


def _draw_outputs(dec, coords, grid):
    xs = coords.xstar_coords
    outputs = [oracle_select(dec, coords, xs, grid, metric)
               for metric in ("l2_estimation", "l2_prediction", "l1")]
    outputs += [loss_l_curve(dec, coords, xs, grid).tobytes(),
                loss_tilde_curve(dec, coords, xs, grid).tobytes(),
                sup_deviation(dec, coords, xs, grid, SIGMA)]
    return outputs


def test_cold_and_warm_memo_give_the_same_bits(problem16):
    grid = default_quadratic_grid()
    warm = decompose(problem16.A)
    for seed in (4, 5):
        coords = _draw(problem16, warm, seed)
        for select in (dp_select, psure_select, gsure_select):
            select(warm, coords, grid, SIGMA)
    for seed in (4, 6):
        cold = decompose(problem16.A)
        assert (_draw_outputs(cold, _draw(problem16, cold, seed), grid)
                == _draw_outputs(warm, _draw(problem16, warm, seed), grid))


def test_warm_draw_allocates_at_most_one_table():
    # with W1, df and gdf shared, a warm draw of the four rules builds the
    # estimation weights and the oracle's filter table one after the
    # other, and the oracle squares its filter table in place
    problem = build_problem(64, 64, 0.06, SIGMA)
    dec = decompose(problem.A)
    grid = default_quadratic_grid()

    def four_rules(seed):
        coords = _draw(problem, dec, seed)
        return (dp_select(dec, coords, grid, SIGMA),
                psure_select(dec, coords, grid, SIGMA),
                gsure_select(dec, coords, grid, SIGMA),
                oracle_select(dec, coords, coords.xstar_coords, grid))

    four_rules(0)
    tracemalloc.start()
    try:
        four_rules(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * dec.m * len(grid) * 8


def test_loss_curves_match_scalars(dec16, coords16):
    grid = AlphaGrid(-4.0, 4.0, 1.0, includes_infinity=True)
    xs = coords16.xstar_coords
    lc = loss_l_curve(dec16, coords16, xs, grid)
    tc = loss_tilde_curve(dec16, coords16, xs, grid)
    for k, a in enumerate(grid.values):
        np.testing.assert_allclose(
            lc[k], loss_l(dec16, coords16, xs, a), rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(
            tc[k], loss_tilde(dec16, coords16, xs, a), rtol=1e-10, atol=1e-14)


def test_centered_identity_between_estimators(dec16, coords16):
    # the estimator-minus-risk gap is identical for the prediction pair
    # and the discrepancy pair, slot by slot
    grid = AlphaGrid(-10.0, 10.0, 0.5, includes_infinity=True)
    xs = coords16.xstar_coords
    lhs = psure_value(dec16, coords16, grid, SIGMA) - mspe_true(
        dec16, xs, grid, SIGMA)
    rhs = dp_value(dec16, coords16, grid, SIGMA) - edp_true(
        dec16, xs, grid, SIGMA)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-10)


def test_unbiasedness_sample_means(problem16, dec16):
    # sample means of the three estimators against their closed-form
    # expectations, 4000 spectral-noise draws, fixed seed
    rng = np.random.default_rng(515)
    n_draws = 4000
    xs = dec16.V.T @ problem16.x_star
    signal = effective_gammas(dec16) * xs[: dec16.m]
    noise = SIGMA * rng.standard_normal((dec16.m, n_draws))
    Y = signal[:, None] + noise
    grid = AlphaGrid(-3.0, 2.0, 1.0)
    W1 = np.array([(a / (dec16.gammas**2 + a)) ** 2 for a in grid.values]).T
    for k, a in enumerate(grid.values):
        dp_samples = W1[:, k] @ (Y[: dec16.r] ** 2) - 16 * SIGMA**2
        se = dp_samples.std() / np.sqrt(n_draws)
        want = edp_true(dec16, xs, a, SIGMA)
        assert abs(dp_samples.mean() - want) < 3.0 * se


def test_unbiasedness_gsure(problem16, dec16):
    rng = np.random.default_rng(516)
    n_draws = 4000
    xs = dec16.V.T @ problem16.x_star
    signal = effective_gammas(dec16) * xs[: dec16.m]
    noise = SIGMA * rng.standard_normal((dec16.m, n_draws))
    Y = signal[:, None] + noise
    g = dec16.gammas[: dec16.r]
    s1 = trace_pinv_gram(dec16)
    for a in (1e-3, 0.1, 10.0):
        w2 = (a / (g * (g * g + a))) ** 2
        gdf_val = fsum_total(1.0 / (g * g + a))
        samples = w2 @ (Y[: dec16.r] ** 2) - SIGMA**2 * s1 + 2 * SIGMA**2 * gdf_val
        se = samples.std() / np.sqrt(n_draws)
        want = msee_true(dec16, xs, a, SIGMA)
        assert abs(samples.mean() - want) < 3.0 * se


# selection


def test_select_by_minimization_prefers_larger_alpha_on_ties():
    grid = AlphaGrid(0.0, 0.5, 0.1)
    values = np.array([3.0, 1.0, 1.0, 1.0, 2.0, 4.0])
    sel = select_by_minimization(values, grid)
    assert sel.index == 3
    assert sel.alpha_hat == pytest.approx(grid.values[3])
    assert not sel.at_boundary


def test_select_by_minimization_matches_scan(dec16, coords16):
    grid = AlphaGrid(-8.0, 8.0, 0.25, includes_infinity=True)
    values = gsure_value(dec16, coords16, grid, SIGMA)
    sel = select_by_minimization(values, grid, rule="sure")
    assert sel.index == scan_min_larger(list(values))


def test_select_by_minimization_flags_boundaries():
    grid = AlphaGrid(0.0, 0.2, 0.1)
    sel = select_by_minimization(np.array([0.0, 1.0, 2.0]), grid)
    assert sel.at_boundary and sel.index == 0
    sel = select_by_minimization(np.array([2.0, 1.0, 0.0]), grid)
    assert sel.at_boundary and sel.index == 2


def test_select_by_minimization_rejects_non_finite():
    grid = AlphaGrid(0.0, 0.2, 0.1)
    with pytest.raises(NumericError):
        select_by_minimization(np.array([1.0, np.nan, 2.0]), grid)


def test_psure_gsure_select_consistent_with_curves(dec16, coords16):
    grid = default_quadratic_grid()
    for select, curve in (
        (psure_select, psure_value),
        (gsure_select, gsure_value),
    ):
        sel = select(dec16, coords16, grid, SIGMA)
        values = curve(dec16, coords16, grid, SIGMA)
        k = len(values) - 1 - int(np.argmin(values[::-1]))
        assert sel.index == k
        assert sel.objective_value == pytest.approx(values[k])


def test_dp_select_matches_scipy_root(dec16, coords16):
    grid = default_quadratic_grid()
    sel = dp_select(dec16, coords16, grid, SIGMA)
    assert not sel.at_boundary

    def f(a):
        return residual_norm_sq(dec16, coords16, a) - 16 * SIGMA**2

    root = brentq(f, 1e-12, 1e12, xtol=1e-300, rtol=1e-14)
    np.testing.assert_allclose(sel.alpha_hat, root, rtol=2e-6)
    # refined root sits inside the bracketing grid cell
    assert grid.values[sel.index - 1] <= sel.alpha_hat <= grid.values[sel.index]


def test_dp_select_boundary_no_crossing(dec16, coords16):
    # noise estimate so large the discrepancy never reaches zero
    grid = default_quadratic_grid()
    sel = dp_select(dec16, coords16, grid, sigma=100.0)
    assert sel.at_boundary
    assert sel.alpha_hat == np.inf


def test_dp_select_boundary_immediate_crossing(problem16, dec16):
    # noiseless data leaves the discrepancy nonnegative from the start
    y = problem16.A @ problem16.x_star
    coords = to_spectral(dec16, y, problem16.x_star)
    grid = default_quadratic_grid()
    sel = dp_select(dec16, coords, grid, sigma=0.0)
    assert sel.at_boundary
    assert sel.alpha_hat == pytest.approx(grid.values[0])


def test_oracle_select_minimizes_true_error(problem16, dec16, coords16):
    grid = AlphaGrid(-8.0, 8.0, 0.1, includes_infinity=True)
    sel = oracle_select(dec16, coords16, coords16.xstar_coords, grid)
    errs = oracle_error_curve(
        dec16, coords16, coords16.xstar_coords, grid, "l2_estimation")
    assert sel.index == scan_min_larger(list(errs))
    assert sel.objective_value == pytest.approx(float(np.min(errs)))


def test_oracle_error_curve_matches_direct(problem16, dec16, coords16):
    grid = AlphaGrid(-4.0, 4.0, 0.5, includes_infinity=True)
    from regrisk import tikhonov_solve

    for metric, reduce_fn in (
        ("l2_estimation", lambda d: np.sqrt(fsum_total(d * d))),
        ("l1", lambda d: fsum_total(np.abs(d))),
    ):
        curve = oracle_error_curve(
            dec16, coords16, coords16.xstar_coords, grid, metric)
        for k, a in enumerate(grid.values):
            xhat = tikhonov_solve(dec16, coords16, a)[1]
            want = reduce_fn(problem16.x_star - xhat)
            np.testing.assert_allclose(curve[k], want, rtol=1e-8, atol=1e-12)


def test_oracle_error_curve_prediction_metric(problem16, dec16, coords16):
    grid = AlphaGrid(-4.0, 4.0, 1.0)
    from regrisk import tikhonov_solve

    curve = oracle_error_curve(
        dec16, coords16, coords16.xstar_coords, grid, "l2_prediction")
    for k, a in enumerate(grid.values):
        xhat = tikhonov_solve(dec16, coords16, a)[1]
        want = np.linalg.norm(problem16.A @ (problem16.x_star - xhat))
        np.testing.assert_allclose(curve[k], want, rtol=1e-8, atol=1e-12)


def test_mspe_oracle_select_brackets(problem16, dec16):
    xs = dec16.V.T @ problem16.x_star
    grid = default_quadratic_grid()
    sel = select_by_minimization(mspe_true(dec16, xs, grid, SIGMA), grid)
    lo, hi = psure_alpha_bounds(dec16, xs, SIGMA)
    slack = 10.0**grid.step
    assert lo / slack <= sel.alpha_hat <= hi * slack


def test_psure_alpha_bounds_rejects_zero_signal(dec16):
    with pytest.raises(ValueError):
        psure_alpha_bounds(dec16, np.zeros(dec16.n), SIGMA)


# losses and scale constants


def test_loss_values_match_direct_formulas(problem16, dec16, coords16):
    from regrisk import tikhonov_solve

    xs = coords16.xstar_coords
    for a in (1e-3, 0.3, 20.0):
        coeffs, _ = tikhonov_solve(dec16, coords16, a)
        d = dec16.gammas * (xs[: dec16.q] - coeffs[: dec16.q])
        np.testing.assert_allclose(
            loss_l(dec16, coords16, xs, a),
            fsum_total(d * d) / dec16.m,
            rtol=1e-10,
        )
        dr = xs[: dec16.r] - coeffs[: dec16.r]
        np.testing.assert_allclose(
            loss_tilde(dec16, coords16, xs, a),
            c_constant(dec16) * fsum_total(dr * dr),
            rtol=1e-10,
        )


def test_scale_constants_identity_operator():
    dec = decompose(np.eye(12))
    assert c_constant(dec) == pytest.approx(1.0 / 12.0)
    assert d_constant(dec) == pytest.approx(1.0 / np.sqrt(12.0))


def test_scale_constants_dense_route(problem16, dec16):
    g = dec16.gammas[: dec16.r]
    c = 1.0 / fsum_total(1.0 / g**2)
    d = c * np.sqrt(fsum_total(1.0 / g**4))
    assert c_constant(dec16) == pytest.approx(c, rel=1e-12)
    assert d_constant(dec16) == pytest.approx(d, rel=1e-12)
