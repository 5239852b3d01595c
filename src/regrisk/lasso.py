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
         dual residual norms (a ratio beyond _MU moves it); U is
         rescaled with it. Rho only moves by factors of _TAU, so its
         values repeat: each factorization is built once per rho value
         and kept.
Stopping requires every column's primal and dual residual to fall below
its tolerance. Solutions are taken from Z, whose zeros are exact by
construction of the thresholding step.

The lasso solution is piecewise linear in alpha, and lasso_homotopy
follows that path exactly from kink to kink. lasso_solve uses its grid
columns as the warm start: started at a KKT point with the scaled dual
at its fixed point, the x-update returns the start itself and the
residuals measure the KKT violation, so the stopping rule certifies an
exact start in one iteration and a defective one only costs iterations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg as sla
from numpy.linalg import LinAlgError

from .accum import square
from .errors import NumericError
from .rules import _alpha_values
from .spectral import decompose, trace_pinv_gram

__all__ = [
    "AdmmParams",
    "LassoPath",
    "HomotopyPath",
    "GsureAux",
    "soft_threshold",
    "admm_all_at_once",
    "lasso_homotopy",
    "lasso_solve",
    "lasso_df",
    "lasso_gdf",
    "gsure_aux",
    "lasso_risk_curves",
    "lasso_dp_index",
    "lasso_psure_value",
    "lasso_gsure_value",
]


@dataclasses.dataclass(frozen=True)
class AdmmParams:
    """Solver settings; the defaults are the standard choices used by
    every study in this package. The rho adaptation constants are the
    module's _TAU and _MU."""

    rho: float = 1.0
    max_iter: int = 10_000
    tol: float = 1e-14

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclasses.dataclass(eq=False)
class LassoPath:
    """Per-column solutions and diagnostics of one solver run.

    Z holds the sparse iterates (one column per penalty value, hard
    zeros). converged_flags marks columns whose final residuals met the
    tolerance; hitting max_iter leaves flags False rather than raising.
    """

    Z: np.ndarray
    iterations_used: int
    converged_flags: np.ndarray
    final_rho: float


def _shrink(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0); t must be nonnegative."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("threshold must be nonnegative")
    out = _shrink(np.asarray(v, dtype=float), t_arr)
    if out.ndim == 0:
        return float(out)
    return out


def _as_alpha_array(grid) -> np.ndarray:
    alphas = _alpha_values(grid)
    if np.any(np.isinf(alphas)):
        raise ValueError("penalty grid must be finite (no +inf point here)")
    return alphas


_TAU = 2.0  # factor by which rho moves
_MU = 1.1  # residual-norm ratio beyond which a column votes to move rho
_MAX_FACTORS = 16  # cached factorizations of A^T A + rho I per solve
_MAX_KINKS_PER_VARIABLE = 10  # cap on the homotopy's steps, per column of A
_SIGNS = np.array([[1.0], [-1.0]])


def _column_norms(M):
    """np.linalg.norm(M, axis=0) of a real matrix, bit for bit, without
    its dispatch."""
    return np.sqrt(np.add.reduce(M * M, axis=0))


def _as_data(A, y):
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    m = A.shape[0]
    if y.shape != (m,):
        raise ValueError(f"y has shape {y.shape}, expected ({m},)")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
        raise ValueError("operator and data must be finite")
    return A, y


def admm_all_at_once(A, y, grid, params: AdmmParams | None = None,
                     start=None) -> LassoPath:
    """Solve min 0.5||Ax - y||^2 + alpha||x||_1 for every alpha at once.

    start is an optional (n, len(grid)) initial Z; the scaled dual then
    starts at its fixed point A^T (y - A Z) / rho. None starts from zero.
    """
    p = params if params is not None else AdmmParams()
    alphas = _as_alpha_array(grid)
    A, y = _as_data(A, y)
    n = A.shape[1]
    n_alpha = alphas.size

    AtA = A.T @ A
    Aty = A.T @ y
    eye = np.eye(n)
    factors = {}

    def factor(rho):
        if rho not in factors:
            if len(factors) == _MAX_FACTORS:  # rho drifting, not cycling
                factors.clear()
            factors[rho] = sla.cho_factor(AtA + rho * eye, check_finite=False)
        return factors[rho]

    # cho_solve's own LAPACK routine, called without its per-call checks
    potrs = sla.get_lapack_funcs("potrs", (AtA,))
    rho = float(p.rho)
    cho = factor(rho)
    B = np.broadcast_to(Aty[:, None], (n, n_alpha))

    if start is None:
        Z = np.zeros((n, n_alpha))
        U = np.zeros((n, n_alpha))
    else:
        Z = np.array(start, dtype=float)
        if Z.shape != (n, n_alpha) or not np.all(np.isfinite(Z)):
            raise ValueError(f"start must be a finite ({n}, {n_alpha}) array")
        U = A.T @ (y[:, None] - A @ Z) / rho
    rn = np.zeros(n_alpha)
    sn = np.zeros(n_alpha)
    eps_pri = np.zeros(n_alpha)
    eps_dual = np.zeros(n_alpha)
    sqrt_n = np.sqrt(n)
    iterations = 0

    for k in range(p.max_iter):
        X = potrs(cho[0], B + rho * (Z - U), lower=cho[1], overwrite_b=True)[0]
        Znew = _shrink(X + U, alphas[None, :] / rho)  # soft_threshold, unchecked
        U = U + X - Znew
        R = X - Znew
        S = -rho * (Znew - Z)
        Z = Znew
        with np.errstate(over="ignore"):
            rn = _column_norms(R)
            sn = _column_norms(S)
            xz = np.maximum(_column_norms(X), _column_norms(Z))
        # an overflowing iterate norm would make the tolerance infinite
        bad = ~(np.isfinite(rn) & np.isfinite(sn) & np.isfinite(xz))
        if bad.any():
            exc = NumericError(
                f"iterates diverged or their norms overflowed at iteration {k + 1}")
            exc.column = int(np.argmax(bad))
            raise exc
        if int(np.sum(rn > _MU * sn)) * 2 > n_alpha:
            U = U / _TAU
            rho = _TAU * rho
            cho = factor(rho)
        elif int(np.sum(sn > _MU * rn)) * 2 > n_alpha:
            U = _TAU * U
            rho = rho / _TAU
            cho = factor(rho)
        eps_pri = p.tol * (sqrt_n + xz)
        eps_dual = p.tol * (sqrt_n + rho * _column_norms(U))
        iterations = k + 1
        if np.all(rn < eps_pri) and np.all(sn < eps_dual):
            break

    return LassoPath(
        Z=Z,
        iterations_used=iterations,
        converged_flags=(rn < eps_pri) & (sn < eps_dual),
        final_rho=rho,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class HomotopyPath:
    """Grid columns of the exact lasso path.

    Z holds one solution column per penalty value (hard zeros off the
    support), kinks the penalties at which the active set changed, in
    decreasing order. complete is False when the path stopped early;
    the columns below the last kink then hold the solution there.
    """

    Z: np.ndarray
    kinks: np.ndarray
    complete: bool


def lasso_homotopy(A, y, grid) -> HomotopyPath:
    """Lasso solutions on the grid from the LARS-lasso path (Efron,
    Hastie, Johnstone & Tibshirani 2004, sec. 3.1; Osborne, Presnell &
    Turlach 2000).

    The path starts at zero for alpha >= max|A^T y|. Between two kinks
    the active set I and its signs s are fixed and x_I = a - alpha b,
    with a and b solved afresh at each kink from the KKT system
    A_I^T A_I x_I = A_I^T y - alpha s, so no error carries over from one
    segment to the next. A coefficient shrinking toward zero leaves at
    its zero. An inactive correlation c_j = A_j^T (y - A x) joins when
    it reaches +-alpha while moving toward it, so a variable that just
    left, whose correlation moves inward, cannot rejoin with the same
    sign; none joins once |I| = rank(A), which keeps the active Gram
    invertible. Events that rounding puts above the current kink happen
    at it, so tied variables join together. A singular active Gram stops
    the path (complete=False).
    """
    alphas = _as_alpha_array(grid)
    A, y = _as_data(A, y)
    n = A.shape[1]
    AtA = A.T @ A
    Aty = A.T @ y
    rank = np.linalg.matrix_rank(A)
    desc = np.argsort(-alphas, kind="stable")
    neg_sorted = -alphas[desc]  # ascending, for searchsorted

    Z = np.zeros((n, alphas.size))
    x = np.zeros(n)  # the solution at lam
    lam = float(np.max(np.abs(Aty)))
    pos = int(np.searchsorted(neg_sorted, -lam, side="right"))
    j = int(np.argmax(np.abs(Aty)))
    active, signs = [j], [float(np.sign(Aty[j]))]
    kinks = [lam]
    for _ in range(_MAX_KINKS_PER_VARIABLE * n):
        if pos == alphas.size:
            break
        I = np.array(active, dtype=int)
        s = np.array(signs)
        try:
            cho = sla.cho_factor(AtA[np.ix_(I, I)], check_finite=False)
        except LinAlgError:
            break
        a, b = sla.cho_solve(cho, np.stack((Aty[I], s), axis=1), check_finite=False).T
        with np.errstate(divide="ignore", invalid="ignore"):
            # leave: a coefficient moving toward zero reaches it
            leave = np.where(s * b < 0.0, a / b, -np.inf)
            # join with sign t (rows +1, -1): t c_j = t (p_j + alpha q_j)
            # grows to alpha as alpha falls while t q_j < 1
            join = np.full((2, n), -np.inf)
            if I.size < rank:
                G_I = AtA[:, I]
                tp = _SIGNS * (Aty - G_I @ a)
                tq = _SIGNS * (G_I @ b)
                join = np.where(tq < 1.0, tp / (1.0 - tq), -np.inf)
                join[:, I] = -np.inf
        leave = np.minimum(leave, lam)
        join = np.minimum(join, lam)
        nxt = max(float(np.max(leave)), float(np.max(join)), 0.0)

        end = int(np.searchsorted(neg_sorted, -nxt, side="right"))
        cols = desc[pos:end]
        Z[np.ix_(I, cols)] = a[:, None] - alphas[cols][None, :] * b[:, None]
        x = np.zeros(n)
        x[I] = a - nxt * b
        pos = end
        if nxt == 0.0:
            break
        kinks.append(nxt)
        if np.max(leave) >= np.max(join):
            k = int(np.argmax(leave))
            del active[k], signs[k]
        else:
            row, j = np.unravel_index(int(np.argmax(join)), join.shape)
            active.append(int(j))
            signs.append(float(_SIGNS[row, 0]))
        lam = nxt
    complete = pos == alphas.size
    Z[:, desc[pos:]] = x[:, None]
    return HomotopyPath(Z=Z, kinks=np.array(kinks), complete=complete)


def lasso_solve(A, y, grid, params: AdmmParams | None = None
                ) -> tuple[LassoPath, int]:
    """Lasso solutions on the grid: the exact path of lasso_homotopy,
    certified by admm_all_at_once started from it.

    Returns the LassoPath and the number of kinks on the homotopy path.
    """
    homotopy = lasso_homotopy(A, y, grid)
    path = admm_all_at_once(A, y, grid, params, start=homotopy.Z)
    return path, homotopy.kinks.size


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


def gsure_aux(A) -> GsureAux:
    """GsureAux of A, built from its singular system (see decompose)."""
    return _gsure_aux(decompose(A))


def lasso_risk_curves(A, y, Z, sigma, aux: GsureAux):
    """Squared residuals, prediction- and estimation-risk estimates of
    every solution column of Z, as lasso_psure_value and
    lasso_gsure_value define them; gdf is computed once per run of equal
    consecutive supports."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    s2 = square(sigma)
    resid = y[:, None] - A @ Z
    res2 = np.einsum("ij,ij->j", resid, resid)
    dfv = np.count_nonzero(Z, axis=0).astype(float)
    psure = res2 - y.size * s2 + 2.0 * s2 * dfv
    diff = (aux.pinv @ y)[:, None] - Z
    est2 = np.einsum("ij,ij->j", diff, diff)
    nonzero = Z != 0.0
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(nonzero[:, 1:] != nonzero[:, :-1], axis=0))))
    gdf_runs = np.empty(starts.size)
    for r, k in enumerate(starts):
        try:
            gdf_runs[r] = lasso_gdf(A, np.flatnonzero(nonzero[:, k]),
                                    projector=aux.projector)
        except NumericError as exc:
            exc.column = int(k)
            raise
    gdfv = np.repeat(gdf_runs, np.diff(np.append(starts, Z.shape[1])))
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
