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
    gsure_aux,
    lasso_df,
    lasso_dp_index,
    lasso_gdf,
    lasso_gsure_value,
    lasso_psure_value,
    lasso_risk_curves,
    row_space_projector,
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
    projector = row_space_projector(A)
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
    P = row_space_projector(A)
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
