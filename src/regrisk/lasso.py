"""L1-regularized least squares over a whole penalty grid at once.

The solver runs a single ADMM iteration stream whose primal and dual
state carry one column per grid value. All columns share the penalty
parameter rho, its adaptation history, and the stopping rule, so the
returned solutions are mutually consistent across the grid (no column
gets lucky with its own stopping point) and the factorization of
(A^T A + rho I) in the x-update amortizes over every column.

Iteration layout per step k:
  X   <- (A^T A + rho I)^{-1} (A^T y 1^T + rho (Z - U))
  Z   <- soft threshold of X + U at alpha_j / rho per column
  U   <- U + X - Z
  rho <- adapted by a majority vote over columns comparing primal and
         dual residual norms; U is rescaled with it and the
         factorization is rebuilt.
Stopping requires every column's primal and dual residual to fall below
its tolerance. Solutions are taken from Z, whose zeros are exact by
construction of the thresholding step.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg as sla
from numpy.linalg import LinAlgError

from .accum import square
from .errors import NumericError
from .rules import AlphaGrid
from .spectral import DEFAULT_RANK_TOL, decompose, trace_pinv_gram

__all__ = [
    "AdmmParams",
    "LassoPath",
    "GsureAux",
    "soft_threshold",
    "admm_all_at_once",
    "admm_per_alpha",
    "lasso_df",
    "lasso_gdf",
    "row_space_projector",
    "gsure_aux",
    "lasso_risk_curves",
    "lasso_dp_index",
    "lasso_psure_value",
    "lasso_gsure_value",
]


@dataclasses.dataclass(frozen=True)
class AdmmParams:
    """Solver constants; the defaults are the standard choices used by
    every study in this package."""

    rho: float = 1.0
    tau: float = 2.0
    mu: float = 1.1
    max_iter: int = 10_000
    tol: float = 1e-14

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not self.tau > 1:
            raise ValueError("tau must exceed 1")
        if not self.mu > 1:
            raise ValueError("mu must exceed 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclasses.dataclass(eq=False)
class LassoPath:
    """Per-column solutions and diagnostics of one solver run.

    Z holds the sparse iterates (one column per penalty value, hard
    zeros), X the auxiliary iterates. converged_flags marks columns
    whose final residuals met the tolerance; hitting max_iter leaves
    flags False rather than raising.
    """

    Z: np.ndarray
    X: np.ndarray
    alphas: np.ndarray
    iterations_used: int
    converged_flags: np.ndarray
    primal_residuals: np.ndarray
    dual_residuals: np.ndarray
    final_rho: float


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0); t must be nonnegative."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("threshold must be nonnegative")
    v_arr = np.asarray(v, dtype=float)
    out = np.sign(v_arr) * np.maximum(np.abs(v_arr) - t_arr, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _as_alpha_array(grid) -> np.ndarray:
    alphas = grid.values if isinstance(grid, AlphaGrid) else np.asarray(grid, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("need a nonempty 1-D penalty grid")
    if not np.all(np.isfinite(alphas)):
        raise ValueError("penalty grid must be finite (no +inf point here)")
    if np.any(alphas < 0):
        raise ValueError("penalties must be nonnegative")
    return alphas


def admm_all_at_once(A, y, grid, params: AdmmParams | None = None,
                     adapt_rho: bool = True) -> LassoPath:
    """Solve min 0.5||Ax - y||^2 + alpha||x||_1 for every alpha at once.

    adapt_rho=False freezes the penalty parameter, which is only useful
    for regression tests of the adaptation itself.
    """
    p = params if params is not None else AdmmParams()
    alphas = _as_alpha_array(grid)
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = A.shape
    if y.shape != (m,):
        raise ValueError(f"y has shape {y.shape}, expected ({m},)")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
        raise ValueError("operator and data must be finite")
    n_alpha = alphas.size

    AtA = A.T @ A
    Aty = A.T @ y
    rho = float(p.rho)
    cho = sla.cho_factor(AtA + rho * np.eye(n))
    B = np.broadcast_to(Aty[:, None], (n, n_alpha))

    X = np.zeros((n, n_alpha))
    Z = np.zeros((n, n_alpha))
    U = np.zeros((n, n_alpha))
    rn = np.zeros(n_alpha)
    sn = np.zeros(n_alpha)
    eps_pri = np.zeros(n_alpha)
    eps_dual = np.zeros(n_alpha)
    sqrt_n = np.sqrt(n)
    iterations = 0

    for k in range(p.max_iter):
        X = sla.cho_solve(cho, B + rho * (Z - U))
        Znew = soft_threshold(X + U, alphas[None, :] / rho)
        U = U + X - Znew
        R = X - Znew
        S = -rho * (Znew - Z)
        Z = Znew
        with np.errstate(over="ignore"):
            rn = np.linalg.norm(R, axis=0)
            sn = np.linalg.norm(S, axis=0)
        bad = ~(np.isfinite(rn) & np.isfinite(sn))
        if bad.any():
            exc = NumericError(
                f"iterates diverged or their norms overflowed at iteration {k + 1}")
            exc.column = int(np.argmax(bad))
            raise exc
        if adapt_rho:
            if int(np.sum(rn > p.mu * sn)) * 2 > n_alpha:
                U = U / p.tau
                rho = p.tau * rho
                cho = sla.cho_factor(AtA + rho * np.eye(n))
            elif int(np.sum(sn > p.mu * rn)) * 2 > n_alpha:
                U = p.tau * U
                rho = rho / p.tau
                cho = sla.cho_factor(AtA + rho * np.eye(n))
        eps_pri = p.tol * (sqrt_n + np.maximum(
            np.linalg.norm(X, axis=0), np.linalg.norm(Z, axis=0)))
        eps_dual = p.tol * (sqrt_n + rho * np.linalg.norm(U, axis=0))
        iterations = k + 1
        if np.all(rn < eps_pri) and np.all(sn < eps_dual):
            break

    return LassoPath(
        Z=Z,
        X=X,
        alphas=alphas,
        iterations_used=iterations,
        converged_flags=(rn < eps_pri) & (sn < eps_dual),
        primal_residuals=rn,
        dual_residuals=sn,
        final_rho=rho,
    )


def admm_per_alpha(A, y, grid, params: AdmmParams | None = None,
                   n_iter: int = 20) -> LassoPath:
    """Baseline variant: an independent ADMM run per penalty value, with
    a fixed iteration budget.

    Every column gets its own rho trajectory and runs exactly n_iter
    iterations unless its residuals pass the tolerance first. At the
    small default budget this is deliberately inexact; it exists to
    demonstrate the inconsistencies across the grid that the shared
    all-at-once trajectory avoids.
    """
    p = dataclasses.replace(
        params if params is not None else AdmmParams(), max_iter=n_iter)
    alphas = _as_alpha_array(grid)
    runs = []
    for j, alpha in enumerate(alphas):
        try:
            runs.append(admm_all_at_once(A, y, alphas[j:j + 1], p))
        except NumericError as exc:
            raise NumericError(f"{exc} (alpha={alpha})") from exc
    return LassoPath(
        Z=np.hstack([run.Z for run in runs]),
        X=np.hstack([run.X for run in runs]),
        alphas=alphas,
        iterations_used=max(run.iterations_used for run in runs),
        converged_flags=np.concatenate([run.converged_flags for run in runs]),
        primal_residuals=np.concatenate([run.primal_residuals for run in runs]),
        dual_residuals=np.concatenate([run.dual_residuals for run in runs]),
        final_rho=runs[-1].final_rho,
    )


def lasso_df(z) -> int:
    """Support size of a solver column; zeros are exact, so no epsilon."""
    return int(np.count_nonzero(z))


def lasso_gdf(A, support, projector: np.ndarray | None = None) -> float:
    """Generalized degrees of freedom tr(P B) for the given support.

    B restricts (A_I^T A_I)^(-1) to the support; P is the row-space
    projector A^+ A, passed as `projector` (None means A has full column
    rank so P is the identity and the value is the plain trace).
    """
    support = np.asarray(support, dtype=int)
    if support.size == 0:
        return 0.0
    A = np.asarray(A, dtype=float)
    Ai = A[:, support]
    gram = Ai.T @ Ai
    try:
        cho = sla.cho_factor(gram)
    except LinAlgError as exc:
        raise NumericError(
            f"active columns {support.tolist()} are rank deficient"
        ) from exc
    inv = sla.cho_solve(cho, np.eye(support.size))
    if projector is None:
        return float(np.trace(inv))
    sub = projector[np.ix_(support, support)]
    # tr(sub @ inv) with inv symmetric
    return float(np.sum(sub * inv))


def row_space_projector(A) -> np.ndarray:
    """Orthogonal projector A^+ A onto the row space."""
    return np.linalg.pinv(A) @ A


@dataclasses.dataclass(frozen=True, eq=False)
class GsureAux:
    """Precomputed pieces of the estimation-risk estimate that depend on
    A only: pseudo-inverse, row-space projector (None when A has full
    column rank) and tr((A A^T)^+)."""

    pinv: np.ndarray
    projector: np.ndarray | None
    trace_gram_pinv: float


def _gsure_aux(dec) -> GsureAux:
    r = dec.r
    U_r, V_r = dec.U[:, :r], dec.V[:, :r]
    return GsureAux(
        pinv=(V_r / dec.gammas[:r][None, :]) @ U_r.T,
        projector=V_r @ V_r.T if r < dec.n else None,
        trace_gram_pinv=trace_pinv_gram(dec),
    )


def gsure_aux(A, rank_tol: float = DEFAULT_RANK_TOL) -> GsureAux:
    """GsureAux of A, built from its singular system (see decompose)."""
    return _gsure_aux(decompose(A, rank_tol))


def lasso_risk_curves(A, y, Z, sigma, aux: GsureAux):
    """Squared residuals, prediction- and estimation-risk estimates of
    every solution column of Z, as lasso_psure_value and
    lasso_gsure_value define them; gdf is computed once per support."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    s2 = square(sigma)
    resid = y[:, None] - A @ Z
    res2 = np.einsum("ij,ij->j", resid, resid)
    dfv = np.count_nonzero(Z, axis=0).astype(float)
    psure = res2 - y.size * s2 + 2.0 * s2 * dfv
    diff = (aux.pinv @ y)[:, None] - Z
    est2 = np.einsum("ij,ij->j", diff, diff)
    gdf_by_support = {}
    gdfv = np.empty(Z.shape[1])
    for k in range(Z.shape[1]):
        support = np.flatnonzero(Z[:, k])
        key = support.tobytes()
        if key not in gdf_by_support:
            try:
                gdf_by_support[key] = lasso_gdf(A, support, projector=aux.projector)
            except NumericError as exc:
                exc.column = k
                raise
        gdfv[k] = gdf_by_support[key]
    gsure = est2 - s2 * aux.trace_gram_pinv + 2.0 * s2 * gdfv
    return res2, psure, gsure


def lasso_dp_index(res2, m, sigma) -> int:
    """Grid index the discrepancy rule picks from the squared residuals:
    the first whose discrepancy res2 - m sigma^2 is nonnegative, or the
    last when there is none."""
    nonneg = np.asarray(res2) - m * square(sigma) >= 0.0
    return int(np.argmax(nonneg)) if nonneg.any() else nonneg.size - 1


def lasso_psure_value(A, y, z, sigma) -> float:
    """Prediction-risk estimate ||y - Az||^2 - m sigma^2 + 2 sigma^2 df."""
    y = np.asarray(y, dtype=float)
    resid = y - np.asarray(A, dtype=float) @ np.asarray(z, dtype=float)
    s2 = square(sigma)
    return float(resid @ resid) - y.size * s2 + 2.0 * s2 * lasso_df(z)


def lasso_gsure_value(A, y, z, sigma, aux: GsureAux | None = None) -> float:
    """Estimation-risk estimate against the minimum-norm solution.

    ||A^+ y - z||^2 - sigma^2 tr((A A^T)^+) + 2 sigma^2 gdf(support(z)).
    Pass a GsureAux when evaluating many columns of the same A.
    """
    if aux is None:
        aux = gsure_aux(A)
    z = np.asarray(z, dtype=float)
    diff = aux.pinv @ np.asarray(y, dtype=float) - z
    s2 = square(sigma)
    g = lasso_gdf(A, np.flatnonzero(z), projector=aux.projector)
    return float(diff @ diff) - s2 * aux.trace_gram_pinv + 2.0 * s2 * g
