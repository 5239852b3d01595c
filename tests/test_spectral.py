import numpy as np
import pytest

from regrisk import (
    NumericError,
    SpectralDecomposition,
    check_alpha,
    decompose,
    df,
    filter_factors,
    gdf,
    residual_norm_sq,
    tikhonov_solve,
    to_spectral,
    trace_pinv_gram,
)

from oracles import (
    dense_df,
    dense_gdf,
    dense_residual_sq,
    dense_tikhonov,
    dense_trace_pinv_gram,
    gram_spectrum,
)

ALPHAS = [0.0, 1e-8, 1e-3, 0.1, 1.0, 50.0, 1e6, np.inf]


def test_decompose_reconstructs_matrix(problem16, dec16):
    approx = dec16.U[:, : dec16.q] @ (
        dec16.gammas[:, None] * dec16.V[:, : dec16.q].T
    )
    np.testing.assert_allclose(approx, problem16.A, atol=1e-12)


def test_decompose_orthonormal_factors(dec16):
    np.testing.assert_allclose(
        dec16.U.T @ dec16.U, np.eye(dec16.m), atol=1e-12)
    np.testing.assert_allclose(
        dec16.V.T @ dec16.V, np.eye(dec16.n), atol=1e-12)


def test_decompose_deterministic_sign_convention(problem16):
    d1 = decompose(problem16.A)
    d2 = decompose(problem16.A)
    np.testing.assert_array_equal(d1.U, d2.U)
    np.testing.assert_array_equal(d1.V, d2.V)
    for col in d1.U.T:
        lead = col[np.abs(col) > 1e-12][0]
        assert lead > 0


def test_decompose_returns_read_only_factors(wide_problem):
    # tables built from a decomposition are shared, so it cannot be
    # edited in place under them
    dec = decompose(wide_problem.A)
    for arr in (dec.U, dec.V, dec.gammas):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_rank_and_cond_against_gram_eigenvalues(problem16, dec16):
    ev, r = gram_spectrum(problem16.A)
    assert dec16.r == r
    cond = np.sqrt(ev[0] / ev[r - 1])
    np.testing.assert_allclose(dec16.cond, cond, rtol=1e-9)


def test_rectangular_decomposition(wide_problem):
    dec = decompose(wide_problem.A)
    assert dec.q == min(wide_problem.m, wide_problem.n)
    approx = dec.U[:, : dec.q] @ (dec.gammas[:, None] * dec.V[:, : dec.q].T)
    np.testing.assert_allclose(approx, wide_problem.A, atol=1e-12)


def test_filter_factors_limits_and_monotonicity(dec16):
    g = dec16.gammas[: dec16.r]
    np.testing.assert_allclose(filter_factors(dec16, 0.0), 1.0 / g, rtol=1e-14)
    assert np.all(filter_factors(dec16, np.inf) == 0.0)
    prev = filter_factors(dec16, 1e-6)
    for a in (1e-3, 1.0, 1e3):
        cur = filter_factors(dec16, a)
        assert np.all(cur <= prev)
        prev = cur


@pytest.mark.parametrize("alpha", ALPHAS)
def test_tikhonov_solve_matches_dense_solve(problem16, dec16, draw16, alpha):
    coords = to_spectral(dec16, draw16, problem16.x_star)
    _, xhat = tikhonov_solve(dec16, coords, alpha)
    want = dense_tikhonov(problem16.A, draw16, alpha)
    np.testing.assert_allclose(xhat, want, atol=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_residual_matches_dense_route(problem16, dec16, draw16, alpha):
    coords = to_spectral(dec16, draw16, problem16.x_star)
    got = residual_norm_sq(dec16, coords, alpha)
    want = dense_residual_sq(problem16.A, draw16, alpha)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS[1:])
def test_df_gdf_match_gram_traces(problem16, dec16, alpha):
    np.testing.assert_allclose(
        df(dec16, alpha), dense_df(problem16.A, alpha), rtol=1e-9)
    np.testing.assert_allclose(
        gdf(dec16, alpha), dense_gdf(problem16.A, alpha), rtol=1e-9)


def test_df_counts_rank_at_zero(dec16, wide_problem):
    assert df(dec16, 0.0) == pytest.approx(dec16.r)
    dec_w = decompose(wide_problem.A)
    assert df(dec_w, 0.0) == pytest.approx(dec_w.r)


def test_residual_keeps_out_of_range_energy(wide_problem):
    # rows the operator cannot reach stay in the residual at every alpha
    dec = decompose(wide_problem.A)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(wide_problem.m)
    coords = to_spectral(dec, y, wide_problem.x_star)
    want0 = dense_residual_sq(wide_problem.A, y, 0.0)
    np.testing.assert_allclose(
        residual_norm_sq(dec, coords, 0.0), want0, rtol=1e-9, atol=1e-12)
    assert residual_norm_sq(dec, coords, np.inf) == pytest.approx(
        float(y @ y), rel=1e-12)


def test_residual_monotone_df_antitone(dec16, problem16, draw16):
    coords = to_spectral(dec16, draw16, problem16.x_star)
    alphas = np.logspace(-8, 8, 50)
    res = [residual_norm_sq(dec16, coords, a) for a in alphas]
    dfs = [df(dec16, a) for a in alphas]
    assert np.all(np.diff(res) >= -1e-12)
    assert np.all(np.diff(dfs) <= 1e-12)


def test_trace_pinv_gram_matches_dense(problem16, dec16):
    np.testing.assert_allclose(
        trace_pinv_gram(dec16), dense_trace_pinv_gram(problem16.A), rtol=1e-9)


def test_to_spectral_round_trip(problem16, dec16, draw16):
    coords = to_spectral(dec16, draw16, problem16.x_star)
    np.testing.assert_allclose(dec16.U @ coords.y_coords, draw16, atol=1e-12)
    np.testing.assert_allclose(
        dec16.V @ coords.xstar_coords, problem16.x_star, atol=1e-12)


def test_to_spectral_shape_validation(dec16, problem16):
    with pytest.raises(ValueError):
        to_spectral(dec16, np.zeros(5), problem16.x_star)
    with pytest.raises(ValueError):
        to_spectral(dec16, np.zeros(dec16.m), np.zeros(3))


def test_check_alpha_rejects_bad_values():
    with pytest.raises(ValueError):
        check_alpha(-1.0)
    with pytest.raises(ValueError):
        check_alpha(float("nan"))
    assert check_alpha(np.inf) == np.inf
    assert check_alpha(0) == 0.0


def test_decompose_rejects_non_finite():
    # bad input is caught up front as misuse, not as a numeric failure
    A = np.eye(4)
    A[1, 2] = np.nan
    with pytest.raises(ValueError):
        decompose(A)


def _tiny_gamma_dec():
    U = np.eye(2)
    V = np.eye(2)
    gammas = np.array([1.0, 1e-200])
    return SpectralDecomposition(U=U, V=V, gammas=gammas, r=2, cond=1e200)


def test_gdf_overflow_raises_numeric_error():
    dec = _tiny_gamma_dec()
    with pytest.raises(NumericError):
        gdf(dec, 0.0)
    with pytest.raises(NumericError):
        trace_pinv_gram(dec)
