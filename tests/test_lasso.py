import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrisk import lasso
from regrisk import (
    AdmmParams,
    NumericError,
    admm_all_at_once,
    admm_per_alpha,
    build_problem,
    default_lasso_grid,
    gsure_aux,
    lasso_df,
    lasso_dp_index,
    lasso_gdf,
    lasso_gsure_value,
    lasso_psure_value,
    lasso_risk_curves,
    soft_threshold,
)

from helpers import alpha_span, make_lasso_instance
from oracles import (
    fd_divergence,
    fsum_total,
    kkt_gap,
    lasso_enum_path,
    lasso_enum_single,
    lasso_objective,
)


# proximal map


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(0.0, 1e6, allow_nan=False),
)
def test_soft_threshold_scalar_properties(v, t):
    out = soft_threshold(v, t)
    if abs(v) <= t:
        assert out == 0.0
    else:
        assert np.sign(out) == np.sign(v)
        assert abs(out) == pytest.approx(abs(v) - t)


def test_soft_threshold_array_and_validation():
    v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    np.testing.assert_allclose(
        soft_threshold(v, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        soft_threshold(v, -0.1)


def test_admm_params_validation():
    with pytest.raises(ValueError):
        AdmmParams(rho=0.0)
    with pytest.raises(ValueError):
        AdmmParams(tol=-1e-3)
    with pytest.raises(ValueError):
        AdmmParams(max_iter=0)


# solver against exhaustive enumeration


def test_enum_path_matches_enum_single():
    # the vectorized oracle is itself checked against the plain one
    A, y, _ = make_lasso_instance(1)
    alphas = alpha_span(A, y, 5)
    X, objs = lasso_enum_path(A, y, alphas)
    for k, a in enumerate(alphas):
        x_ref, obj_ref = lasso_enum_single(A, y, a)
        np.testing.assert_allclose(X[:, k], x_ref, atol=1e-10)
        assert objs[k] == pytest.approx(obj_ref, rel=1e-12)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_all_at_once_matches_enumeration(seed):
    A, y, _ = make_lasso_instance(seed)
    alphas = alpha_span(A, y, 9)
    path = admm_all_at_once(A, y, alphas)
    assert np.all(path.converged_flags)
    _, obj_ref = lasso_enum_path(A, y, alphas)
    for k, a in enumerate(alphas):
        z = path.Z[:, k]
        assert kkt_gap(A, y, z, a) < 1e-10
        assert lasso_objective(A, y, z, a) <= obj_ref[k] + 1e-10


def test_solution_exactly_sparse_above_max_penalty():
    A, y, _ = make_lasso_instance(5)
    amax = float(np.max(np.abs(A.T @ y)))
    path = admm_all_at_once(A, y, np.array([1.5 * amax]))
    assert np.all(path.Z == 0.0)


def test_per_alpha_agrees_with_all_at_once():
    A, y, _ = make_lasso_instance(6)
    alphas = alpha_span(A, y, 6)
    joint = admm_all_at_once(A, y, alphas)
    single = admm_per_alpha(A, y, alphas, n_iter=20000)
    np.testing.assert_allclose(single.Z, joint.Z, atol=1e-7)


def test_rho_adaptation_does_not_change_solutions():
    A, y, _ = make_lasso_instance(7)
    alphas = alpha_span(A, y, 6)
    adapted = admm_all_at_once(A, y, alphas, adapt_rho=True)
    fixed = admm_all_at_once(A, y, alphas, adapt_rho=False)
    np.testing.assert_allclose(adapted.Z, fixed.Z, atol=1e-9)


def test_grid_validation():
    A, y, _ = make_lasso_instance(8)
    with pytest.raises(ValueError):
        admm_all_at_once(A, y, np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        admm_all_at_once(A, y, np.array([np.inf]))
    with pytest.raises(ValueError):
        admm_all_at_once(A, y, np.array([]))


def test_non_finite_input_rejected():
    A, y, _ = make_lasso_instance(9)
    y = y.copy()
    y[0] = np.nan
    with pytest.raises(ValueError):
        admm_all_at_once(A, y, np.array([0.1]))


def test_overflowing_iterates_raise_numeric_error():
    # finite but absurdly scaled data overflows the residual norms
    A, y, _ = make_lasso_instance(9)
    with pytest.raises(NumericError):
        admm_all_at_once(A, 1e200 * y, np.array([0.1]))


# model complexity measures


def test_lasso_df_counts_support():
    z = np.array([0.0, 1.5, 0.0, -2.0, 1e-30])
    assert lasso_df(z) == 3


def test_empty_support_gdf_is_zero():
    A, _, _ = make_lasso_instance(10)
    assert lasso_gdf(A, np.array([], dtype=int)) == 0.0


def _solution_map(A, alpha):
    pinv_t = np.linalg.pinv(A).T

    def fn(yy):
        x, _ = lasso_enum_single(A, yy, alpha)
        return pinv_t @ x

    return fn


def test_gdf_matches_divergence_full_column_rank():
    A, y, _ = make_lasso_instance(11, m=10, n=6)
    alphas = alpha_span(A, y, 7)
    alpha = float(alphas[3])
    x, _ = lasso_enum_single(A, y, alpha)
    support = np.flatnonzero(x)
    assert support.size > 0
    got = lasso_gdf(A, support)
    want = fd_divergence(_solution_map(A, alpha), y, delta=1e-6)
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_gdf_matches_divergence_rank_deficient():
    # wide operator: the row-space projector enters the trace
    A, y, _ = make_lasso_instance(12, m=6, n=8)
    alphas = alpha_span(A, y, 7)
    alpha = float(alphas[3])
    x, _ = lasso_enum_single(A, y, alpha)
    support = np.flatnonzero(x)
    assert 0 < support.size <= 6
    projector = gsure_aux(A).projector
    got = lasso_gdf(A, support, projector=projector)
    want = fd_divergence(_solution_map(A, alpha), y, delta=1e-6)
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_gdf_full_rank_equals_trace_of_gram_inverse():
    A, _, _ = make_lasso_instance(13)
    support = np.array([1, 4, 6])
    G = A[:, support].T @ A[:, support]
    want = float(np.trace(np.linalg.inv(G)))
    assert lasso_gdf(A, support) == pytest.approx(want, rel=1e-10)


def test_row_space_projector_idempotent():
    A, _, _ = make_lasso_instance(14, m=6, n=8)
    P = gsure_aux(A).projector
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    np.testing.assert_allclose(P, P.T, atol=1e-12)


def test_gsure_aux_fields():
    A, _, _ = make_lasso_instance(15, m=10, n=6)
    aux = gsure_aux(A)
    assert aux.projector is None  # full column rank
    s = np.linalg.svd(A, compute_uv=False)
    assert aux.trace_gram_pinv == pytest.approx(fsum_total(1.0 / s**2), rel=1e-10)
    wide, _, _ = make_lasso_instance(16, m=6, n=8)
    assert gsure_aux(wide).projector is not None


def test_risk_estimate_values_manual():
    A, y, _ = make_lasso_instance(17)
    alpha = float(alpha_span(A, y, 5)[2])
    path = admm_all_at_once(A, y, np.array([alpha]))
    z = path.Z[:, 0]
    sigma = 0.1
    m = A.shape[0]
    r = y - A @ z
    want_psure = float(r @ r) - m * sigma**2 + 2 * sigma**2 * lasso_df(z)
    assert lasso_psure_value(A, y, z, sigma) == pytest.approx(want_psure, rel=1e-12)
    aux = gsure_aux(A)
    p = np.linalg.pinv(A) @ y - z
    want_gsure = (
        float(p @ p)
        - sigma**2 * aux.trace_gram_pinv
        + 2 * sigma**2 * lasso_gdf(A, np.flatnonzero(z), projector=aux.projector)
    )
    assert lasso_gsure_value(A, y, z, sigma, aux=aux) == pytest.approx(
        want_gsure, rel=1e-10)


def test_gsure_aux_matches_dense_pseudo_inverse():
    for seed, m, n in ((15, 10, 6), (16, 6, 8), (18, 8, 8)):
        A, _, _ = make_lasso_instance(seed, m=m, n=n)
        aux = gsure_aux(A)
        pinv = np.linalg.pinv(A)
        np.testing.assert_allclose(aux.pinv, pinv, atol=1e-10)
        if aux.projector is not None:
            np.testing.assert_allclose(aux.projector, pinv @ A, atol=1e-10)


def test_risk_curves_match_scalar_values(monkeypatch):
    A, y, _ = make_lasso_instance(19, m=8, n=10)
    alphas = alpha_span(A, y, 12)
    Z = admm_all_at_once(A, y, alphas).Z
    sigma = 0.1
    aux = gsure_aux(A)
    calls = []

    def counted_gdf(*args, **kwargs):
        calls.append(1)
        return lasso_gdf(*args, **kwargs)

    monkeypatch.setattr(lasso, "lasso_gdf", counted_gdf)
    res2, psure, gsure = lasso_risk_curves(A, y, Z, sigma, aux)
    n_calls = len(calls)
    for k, z in enumerate(Z.T):
        r = y - A @ z
        assert res2[k] == pytest.approx(float(r @ r), rel=1e-12)
        assert psure[k] == pytest.approx(
            lasso_psure_value(A, y, z, sigma), rel=1e-12, abs=1e-14)
        assert gsure[k] == pytest.approx(
            lasso_gsure_value(A, y, z, sigma, aux=aux), rel=1e-10, abs=1e-12)
    # one gdf per distinct support, the empty one included
    supports = {np.flatnonzero(z).tobytes() for z in Z.T}
    assert n_calls == len(supports) < Z.shape[1]


def test_dp_index_first_nonnegative_discrepancy():
    m, sigma = 4, 0.5  # m sigma^2 = 1
    assert lasso_dp_index(np.array([0.2, 0.9, 1.0, 3.0]), m, sigma) == 2
    assert lasso_dp_index(np.array([1.5, 2.0, 3.0]), m, sigma) == 0
    assert lasso_dp_index(np.array([0.1, 0.2, 0.3]), m, sigma) == 2


# exact path and warm start


def _lasso32_draw(master_seed, n_draws, k):
    """Draw k of the lasso32 benchmark study at this master seed."""
    problem = build_problem(32, 32, 0.04, 0.1)
    child = np.random.SeedSequence(master_seed).spawn(n_draws)[k]
    eps = 0.1 * np.random.default_rng(child).standard_normal(32)
    return problem.A, problem.A @ problem.x_star + eps


def _kkt_gaps(A, y, Z, alphas):
    """Per-column largest violation of the l1 optimality conditions."""
    C = A.T @ (y[:, None] - A @ Z)
    on = Z != 0.0
    gap = np.where(on, np.abs(C - alphas * np.sign(Z)), np.abs(C) - alphas)
    return np.maximum(gap, 0.0).max(axis=0)


@pytest.mark.parametrize("seed, m, n", [(31, 8, 8), (32, 6, 9), (33, 10, 7)])
def test_homotopy_matches_enumeration_and_cold_admm(seed, m, n):
    A, y, _ = make_lasso_instance(seed, m=m, n=n)
    alphas = alpha_span(A, y, 40, lo_frac=1e-3)
    path = lasso.lasso_homotopy(A, y, alphas)
    assert path.complete
    assert np.all(np.diff(path.kinks) <= 0.0)
    assert np.all(np.count_nonzero(path.Z, axis=0) <= min(m, n))
    X_enum, _ = lasso_enum_path(A, y, alphas)
    np.testing.assert_allclose(path.Z, X_enum, rtol=0, atol=1e-8)
    cold = admm_all_at_once(A, y, alphas)
    assert np.all(cold.converged_flags)
    np.testing.assert_allclose(path.Z, cold.Z, rtol=0, atol=1e-8)


def test_homotopy_fills_unsorted_grid_and_zero_above_max_penalty():
    A, y, _ = make_lasso_instance(34)
    alphas = alpha_span(A, y, 12)
    shuffled = np.random.default_rng(0).permutation(alphas.size)
    path = lasso.lasso_homotopy(A, y, alphas[shuffled])
    np.testing.assert_array_equal(path.Z, lasso.lasso_homotopy(A, y, alphas).Z[:, shuffled])
    amax = float(np.max(np.abs(A.T @ y)))
    assert path.kinks[0] == amax
    assert np.all(path.Z[:, alphas[shuffled] >= amax] == 0.0)


def test_homotopy_joins_tied_variables_together():
    # |A^T y| ties at its maximum: both variables join at alpha = 1
    A = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.1], [0.0, 0.0, 1.0]])
    y = np.array([1.0, 1.0, 0.0])
    alphas = np.geomspace(1e-3, 2.0, 30)
    path = lasso.lasso_homotopy(A, y, alphas)
    np.testing.assert_array_equal(path.kinks[:2], [1.0, 1.0])
    np.testing.assert_allclose(path.Z, lasso_enum_path(A, y, alphas)[0],
                               rtol=0, atol=1e-12)


def test_homotopy_wide_path_down_to_zero_stays_within_rank():
    # m < n: once |I| = rank(A) no variable joins, so the active Gram
    # stays invertible and the path reaches alpha = 0
    for seed in range(6):
        A, y, _ = make_lasso_instance(seed, m=6, n=9)
        alphas = np.append(alpha_span(A, y, 30, lo_frac=1e-12), 0.0)
        path = lasso.lasso_homotopy(A, y, alphas)
        assert path.complete
        assert np.count_nonzero(path.Z, axis=0).max() <= 6
        assert _kkt_gaps(A, y, path.Z, alphas).max() <= 1e-12


@pytest.mark.parametrize("seed, k, index, signs", [
    # index 20 leaves at alpha ~ 2.5745e-4 and must not rejoin with the
    # same sign just below it
    (1000504, 5, 20, {3e-4: -1.0, 2.5e-4: 0.0, 1e-4: 0.0}),
    # index 25 leaves at alpha ~ 2.397e-3 with the active set full and
    # rejoins with the opposite sign at alpha ~ 1.2245e-3
    (3000510, 6, 25, {2.5e-3: 1.0, 2e-3: 0.0, 1.2e-3: -1.0}),
])
def test_homotopy_leave_and_rejoin_regressions(seed, k, index, signs):
    A, y = _lasso32_draw(seed, 12, k)
    vals = default_lasso_grid().values
    path = lasso.lasso_homotopy(A, y, vals)
    assert path.complete
    assert _kkt_gaps(A, y, path.Z, vals).max() <= 1e-12
    for alpha, sign in signs.items():
        col = int(np.argmin(np.abs(np.log(vals / alpha))))
        assert np.sign(path.Z[index, col]) == sign, alpha


@pytest.mark.parametrize("seed, n_draws, k", [
    (20240817, 1, 0), (1000504, 12, 5), (3000510, 12, 6)])
def test_homotopy_start_certified_within_three_iterations(seed, n_draws, k):
    A, y = _lasso32_draw(seed, n_draws, k)
    vals = default_lasso_grid().values
    path = lasso.lasso_homotopy(A, y, vals)
    warm = admm_all_at_once(A, y, vals, start=path.Z)
    assert warm.iterations_used <= 3
    assert np.all(warm.converged_flags)
    assert _kkt_gaps(A, y, warm.Z, vals).max() <= 1e-12


def test_corrupted_start_still_converges_to_cold_solution():
    A, y, _ = make_lasso_instance(35)
    alphas = alpha_span(A, y, 15)
    start = lasso.lasso_homotopy(A, y, alphas).Z
    start += 5e-4 * np.random.default_rng(1).standard_normal(start.shape)
    warm = admm_all_at_once(A, y, alphas, start=start)
    cold = admm_all_at_once(A, y, alphas)
    assert np.all(warm.converged_flags) and warm.iterations_used > 3
    np.testing.assert_allclose(warm.Z, cold.Z, rtol=0, atol=1e-10)
    assert _kkt_gaps(A, y, warm.Z, alphas).max() <= 1e-10


def test_start_validation():
    A, y, _ = make_lasso_instance(36)
    alphas = alpha_span(A, y, 4)
    with pytest.raises(ValueError):
        admm_all_at_once(A, y, alphas, start=np.zeros((A.shape[1], 3)))
    bad = np.zeros((A.shape[1], 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        admm_all_at_once(A, y, alphas, start=bad)


def test_factorization_computed_once_per_rho(monkeypatch):
    # one column: the majority vote moves rho nearly every iteration,
    # but rho only takes a few distinct values
    A, y, _ = make_lasso_instance(101, m=10, n=8)
    alpha = np.array([0.3 * float(np.max(np.abs(A.T @ y)))])
    factored = []
    real_factor = lasso.sla.cho_factor

    def spy(M, **kwargs):
        factored.append(M.tobytes())
        return real_factor(M, **kwargs)

    monkeypatch.setattr(lasso.sla, "cho_factor", spy)
    path = admm_all_at_once(A, y, alpha)
    assert len(factored) == len(set(factored))
    assert len(factored) < path.iterations_used
    final = (A.T @ A + path.final_rho * np.eye(A.shape[1])).tobytes()
    assert final in factored


def test_gdf_once_per_run_of_equal_supports(monkeypatch):
    A, y = _lasso32_draw(20240817, 1, 0)
    vals = default_lasso_grid().values
    Z = lasso.lasso_homotopy(A, y, vals).Z
    seen = []
    real_gdf = lasso.lasso_gdf

    def spy(A, support, projector=None):
        seen.append(tuple(support))
        return real_gdf(A, support, projector=projector)

    monkeypatch.setattr(lasso, "lasso_gdf", spy)
    lasso_risk_curves(A, y, Z, 0.1, gsure_aux(A))
    supports = [tuple(np.flatnonzero(z)) for z in Z.T]
    runs = [s for j, s in enumerate(supports) if j == 0 or s != supports[j - 1]]
    assert seen == runs
    assert len(runs) < len(vals) // 20
