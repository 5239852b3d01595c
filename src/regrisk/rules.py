"""Parameter-choice rules and risks for the quadratic regularizer.

Each rule is a weighted sum over spectral coordinates, v . W plus affine
terms, with v = y^2 for the risk estimates and v = E y^2 for the exact
risks. One prediction-side and one estimation-side helper hold these
formulas, and the weights come from the elementwise kernels of spectral,
so a scalar evaluation and a whole-grid evaluation share the same weight
algebra. Each risk is one function, the *_value estimates and the *_true
exact risks alike: at a scalar alpha it returns a float summed with
math.fsum, exactly rounded, and on a grid (an AlphaGrid or a 1-D alpha
array) the whole curve at once, through matrix products with the
*_table weights. Grids may carry a distinguished +inf point, which the
kernels fill with the analytic limit, so downstream code never branches
on it.

Selection is argmin over the grid with ties resolved toward the larger
(more stabilized) alpha. The residual-discrepancy rule is the exception:
it is a root finder, so its grid crossing is refined by bisection.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import weakref

import numpy as np

from .accum import neumaier_sum, square
from .errors import NumericError
from .spectral import (
    SpectralCoords,
    SpectralDecomposition,
    _df_term,
    _estimation_weight,
    _filter,
    _gdf_term,
    _prediction_weights,
    check_alpha,
    df,
    filter_factors,
    gdf,
    residual_norm_sq,
    trace_pinv_gram,
)

__all__ = [
    "ORACLE_METRICS",
    "AlphaGrid",
    "RuleSelection",
    "default_quadratic_grid",
    "default_lasso_grid",
    "effective_gammas",
    "expected_data_power",
    "dp_value",
    "psure_value",
    "gsure_value",
    "mspe_true",
    "msee_true",
    "edp_true",
    "loss_l",
    "loss_tilde",
    "c_constant",
    "d_constant",
    "filter_table",
    "prediction_weight_table",
    "estimation_weight_table",
    "df_table",
    "gdf_table",
    "loss_l_curve",
    "loss_tilde_curve",
    "oracle_error_curve",
    "select_by_minimization",
    "dp_select",
    "psure_select",
    "gsure_select",
    "oracle_select",
    "psure_alpha_bounds",
]

ORACLE_METRICS = ("l2_estimation", "l2_prediction", "l1")


@dataclasses.dataclass(frozen=True, eq=False)
class AlphaGrid:
    """Logarithmic grid of candidate strengths, optionally closed by +inf.

    The finite points are 10**(log10_min + k*step); the span must be an
    integer multiple of the step so the lattice is exact.
    """

    log10_min: float
    log10_max: float
    step: float
    includes_infinity: bool = False

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("grid step must be positive")
        if self.log10_max < self.log10_min:
            raise ValueError("log10_max must be >= log10_min")
        span = (self.log10_max - self.log10_min) / self.step
        if abs(span - round(span)) > 1e-9 * max(1.0, abs(span)):
            raise ValueError("grid span must be an integer multiple of step")
        n_finite = int(round(span)) + 1
        finite = 10.0 ** (self.log10_min + self.step * np.arange(n_finite))
        vals = np.append(finite, np.inf) if self.includes_infinity else finite
        vals.setflags(write=False)
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_n_finite", n_finite)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_finite(self) -> int:
        return self._n_finite

    def __len__(self) -> int:
        return self._values.size


def default_quadratic_grid() -> AlphaGrid:
    return AlphaGrid(-40.0, 40.0, 0.01, includes_infinity=True)


def default_lasso_grid() -> AlphaGrid:
    return AlphaGrid(-10.0, 10.0, 0.01, includes_infinity=False)


@dataclasses.dataclass(frozen=True)
class RuleSelection:
    """Outcome of one rule on one realization.

    index points at the grid slot of alpha_hat; for the refined
    discrepancy root it is the upper bracketing slot and alpha_hat sits
    between index-1 and index.
    """

    rule: str
    alpha_hat: float
    objective_value: float
    at_boundary: bool
    index: int


def effective_gammas(dec: SpectralDecomposition) -> np.ndarray:
    """Singular values padded to length m with sub-rank entries zeroed."""
    g = np.zeros(dec.m)
    g[: dec.r] = dec.gammas[: dec.r]
    return g


def expected_data_power(dec, xstar_coords, sigma) -> np.ndarray:
    """E[y_i^2] = gamma_i^2 x*_i^2 + sigma^2 per data coordinate.

    Sub-rank directions count as pure noise, matching the truncation
    used everywhere else.
    """
    geff = effective_gammas(dec)
    xs = np.zeros(dec.m)
    xs[: dec.q] = np.asarray(xstar_coords, dtype=float)[: dec.q]
    return (geff * xs) ** 2 + square(sigma)


# risks: a weighted sum v . W of v = y^2 (the estimates) or v = E y^2
# (their expectations) plus affine terms, at one alpha with an exactly
# rounded sum or along a grid with a matrix product


def _on_grid(at) -> bool:
    return isinstance(at, AlphaGrid) or np.ndim(at) > 0


def _alpha_values(grid) -> np.ndarray:
    alphas = grid.values if isinstance(grid, AlphaGrid) else np.asarray(grid, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("need a nonempty 1-D alpha grid")
    if np.any(np.isnan(alphas)) or np.any(alphas < 0):
        raise ValueError("regularization strengths must be >= 0 or +inf")
    return alphas


def _prediction_fit(dec, v, at):
    if _on_grid(at):
        return v @ prediction_weight_table(dec, at)
    return neumaier_sum(_prediction_weights(dec, check_alpha(at)) * v)


def _prediction_side(dec, fit, at, sigma, with_df: bool):
    """fit - m sigma^2, plus 2 sigma^2 df when with_df; fit = v . W1.

    The fit comes in ready-made because at one alpha the estimates take
    residual_norm_sq, whose terms W1 * y * y round differently from
    W1 * y^2, and the discrepancy root is bisected on those bits.
    """
    s2 = square(sigma)
    out = fit - dec.m * s2
    if with_df:
        out = out + 2.0 * s2 * (df_table(dec, at) if _on_grid(at) else df(dec, at))
    return out


def _estimation_side(dec, v, at, sigma):
    """v[:r] . W2 - sigma^2 tr((A A^T)^+) + 2 sigma^2 gdf."""
    s2 = square(sigma)
    trace = trace_pinv_gram(dec)  # rejects gammas too small to square
    v = v[: dec.r]
    if _on_grid(at):
        fit = v @ estimation_weight_table(dec, at)
        gdfv = gdf_table(dec, at)
    else:
        a = check_alpha(at)
        fit = neumaier_sum(_estimation_weight(dec.gammas[: dec.r], a) * v)
        gdfv = gdf(dec, a)
    return fit - s2 * trace + 2.0 * s2 * gdfv


def _residual_fit(dec, coords, at):
    """y . W1 of the data: y^2 @ W1 along a grid, residual_norm_sq at one
    alpha (see _prediction_side)."""
    if _on_grid(at):
        return _prediction_fit(dec, coords.y_coords**2, at)
    return residual_norm_sq(dec, coords, at)


def dp_value(dec, coords, alpha, sigma):
    """Residual discrepancy: squared misfit minus the noise energy m*sigma^2."""
    return _prediction_side(dec, _residual_fit(dec, coords, alpha), alpha, sigma, False)


def psure_value(dec, coords, alpha, sigma):
    """Unbiased prediction-risk estimate: discrepancy plus 2 sigma^2 df."""
    return _prediction_side(dec, _residual_fit(dec, coords, alpha), alpha, sigma, True)


def gsure_value(dec, coords, alpha, sigma):
    """Unbiased estimation-risk estimate through the pseudo-inverse.

    Sum of (1/gamma - gamma/(gamma^2+alpha))^2 y^2 over the effective
    rank, minus sigma^2 tr((A A^T)^+), plus 2 sigma^2 gdf.
    """
    return _estimation_side(dec, coords.y_coords**2, alpha, sigma)


def mspe_true(dec, xstar_coords, alpha, sigma):
    """Exact mean squared prediction error of the ridge estimate."""
    e2 = expected_data_power(dec, xstar_coords, sigma)
    return _prediction_side(dec, _prediction_fit(dec, e2, alpha), alpha, sigma, True)


def msee_true(dec, xstar_coords, alpha, sigma):
    """Exact mean squared estimation error on the row space."""
    return _estimation_side(
        dec, expected_data_power(dec, xstar_coords, sigma), alpha, sigma)


def edp_true(dec, xstar_coords, alpha, sigma):
    """Expectation of the residual discrepancy."""
    e2 = expected_data_power(dec, xstar_coords, sigma)
    return _prediction_side(dec, _prediction_fit(dec, e2, alpha), alpha, sigma, False)


# per-realization losses


def loss_l(dec, coords, xstar_coords, alpha) -> float:
    """Mean squared prediction loss (1/m) sum (gamma x* - gamma f y)^2."""
    f = filter_factors(dec, alpha)
    g = dec.gammas[: dec.r]
    xs = np.asarray(xstar_coords, dtype=float)[: dec.r]
    y = coords.y_coords[: dec.r]
    return neumaier_sum((g * xs - g * f * y) ** 2) / dec.m


def loss_tilde(dec, coords, xstar_coords, alpha) -> float:
    """Scaled estimation loss c * ||projected(x* - x_hat)||^2."""
    f = filter_factors(dec, alpha)
    xs = np.asarray(xstar_coords, dtype=float)[: dec.r]
    y = coords.y_coords[: dec.r]
    return c_constant(dec) * neumaier_sum((xs - f * y) ** 2)


def c_constant(dec) -> float:
    """Normalization (sum 1/gamma^2)^(-1) for the scaled estimation loss."""
    return 1.0 / trace_pinv_gram(dec)


def d_constant(dec) -> float:
    """Rate constant c * sqrt(sum 1/gamma^4); equals 1/sqrt(m) when all
    singular values are 1.

    It is the noise x noise rate: the part sum w_i (eps_i^2 - sigma^2) of
    the estimation-side deviation has std sigma^2 sqrt(2 sum 1/gamma^4),
    so scaled by c it stays near sigma^2 * d. The signal x noise part is
    not covered.
    """
    g = dec.gammas[: dec.r]
    return c_constant(dec) * math.sqrt(neumaier_sum(1.0 / g**4))


# grid tables: columns follow the alpha values (an AlphaGrid or a 1-D
# array; +inf slots take the analytic limit), each built in place in its
# output array. The residual weights and the df and gdf sums are built
# once per decomposition and AlphaGrid and then shared, read-only, so
# repeated single-draw calls skip them. The filter and estimation-weight
# tables are built on each call: kept as well, they would hold three
# (m, K)-sized tables per decomposition instead of one.

_MEMO = weakref.WeakKeyDictionary()  # decomposition -> {key: table}
_MEMO_LOCK = threading.Lock()


def _memoized(name, build, dec, grid):
    """build(alphas) for grid, kept per decomposition when grid is an
    AlphaGrid (keyed by name and the grid's defining fields, so equal
    grids share it) and returned read-only; other grids build afresh."""
    if not isinstance(grid, AlphaGrid):
        return build(_alpha_values(grid))
    key = (name, grid.log10_min, grid.log10_max, grid.step, grid.includes_infinity)
    with _MEMO_LOCK:
        table = _MEMO.get(dec, {}).get(key)
    if table is None:
        table = build(_alpha_values(grid))
        table.setflags(write=False)
        with _MEMO_LOCK:
            table = _MEMO.setdefault(dec, {}).setdefault(key, table)
    return table


def filter_table(dec, grid) -> np.ndarray:
    """(r, K) ridge filter factors; the +inf column is zero."""
    a = _alpha_values(grid)
    return _filter(dec.gammas[: dec.r, None], a, out=np.empty((dec.r, a.size)))


def prediction_weight_table(dec, grid) -> np.ndarray:
    """(m, K) squared residual weights; rows beyond the rank are 1.

    Shared per (decomposition, AlphaGrid) and read-only."""
    return _memoized("W1", lambda a: _prediction_weights(dec, a), dec, grid)


def estimation_weight_table(dec, grid) -> np.ndarray:
    """(r, K) squared estimation-side weights; the +inf column is 1/gamma^2."""
    a = _alpha_values(grid)
    return _estimation_weight(
        dec.gammas[: dec.r, None], a, out=np.empty((dec.r, a.size)))


SUM_BLOCK = 512  # grid columns per pass of the df and gdf sums


def _rank_sums(term, dec, a) -> np.ndarray:
    # Row i's terms are added to the sums in order i = 0, 1, ..., as
    # np.sum(axis=0) of the (r, K) term table adds them, but through one
    # SUM_BLOCK work row, so that table is never built.
    out = np.zeros(a.size)
    work = np.empty(min(a.size, SUM_BLOCK))
    for s in range(0, a.size, SUM_BLOCK):
        blk = out[s : s + SUM_BLOCK]
        w = work[: blk.size]
        for gi in dec.gammas[: dec.r]:
            blk += term(gi, a[s : s + SUM_BLOCK], out=w)
    return out


def df_table(dec, grid) -> np.ndarray:
    """(K,) degrees of freedom; 0 at +inf.

    Shared per (decomposition, AlphaGrid) and read-only."""
    return _memoized("df", lambda a: _rank_sums(_df_term, dec, a), dec, grid)


def gdf_table(dec, grid) -> np.ndarray:
    """(K,) generalized degrees of freedom; 0 at +inf.

    Shared per (decomposition, AlphaGrid) and read-only."""
    return _memoized("gdf", lambda a: _rank_sums(_gdf_term, dec, a), dec, grid)


def _expanded_sq_error(F, const, cross, quad):
    """sum_i w_i (x_i - F_i y_i)^2 along the grid, expanded: const = sum
    w x^2, cross = w x y, quad = w y^2. F, a freshly built filter table,
    is squared in place."""
    lin = cross @ F
    return const - 2.0 * lin + quad @ np.multiply(F, F, out=F)


def loss_l_curve(dec, coords, xstar_coords, grid) -> np.ndarray:
    g = dec.gammas[: dec.r]
    gx = g * np.asarray(xstar_coords, dtype=float)[: dec.r]
    y = coords.y_coords[: dec.r]
    return _expanded_sq_error(filter_table(dec, grid), neumaier_sum(gx * gx),
                              y * gx * g, y * y * g * g) / dec.m


def loss_tilde_curve(dec, coords, xstar_coords, grid) -> np.ndarray:
    xs = np.asarray(xstar_coords, dtype=float)[: dec.r]
    y = coords.y_coords[: dec.r]
    return c_constant(dec) * _expanded_sq_error(
        filter_table(dec, grid), neumaier_sum(xs * xs), y * xs, y * y)


def oracle_error_curve(dec, coords, xstar_coords, grid, metric="l2_estimation"):
    """True error of the ridge estimate at every grid point.

    Returns norms (not squared). The l1 metric reconstructs physical
    solutions for the whole grid, which costs an (n x K) product.
    """
    if metric not in ORACLE_METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {ORACLE_METRICS}")
    if metric == "l2_prediction":
        return np.sqrt(
            np.maximum(dec.m * loss_l_curve(dec, coords, xstar_coords, grid), 0.0)
        )
    xs_full = np.asarray(xstar_coords, dtype=float)
    y = coords.y_coords[: dec.r]
    F = filter_table(dec, grid)
    if metric == "l2_estimation":
        e2 = _expanded_sq_error(F, neumaier_sum(xs_full * xs_full),
                                y * xs_full[: dec.r], y * y)
        return np.sqrt(np.maximum(e2, 0.0))
    coeffs = np.zeros((dec.n, F.shape[1]))
    np.multiply(F, y[:, None], out=coeffs[: dec.r])
    diff = dec.V @ np.subtract(xs_full[:, None], coeffs, out=coeffs)
    return np.sum(np.abs(diff), axis=0)


# selection


def _argmin_larger(values, spare=None):
    """Argmin along the last axis with ties (and NaN) going to the larger
    alpha: argmin over the reversed entries. spare, a free array of the
    same shape, takes the reversed copy argmin would otherwise make."""
    rev = values[..., ::-1]
    if spare is not None:
        np.copyto(spare, rev)
        rev = spare
    return values.shape[-1] - 1 - np.argmin(rev, axis=-1)


def select_by_minimization(values, grid: AlphaGrid, rule: str = "custom") -> RuleSelection:
    """Grid argmin with ties resolved toward the larger alpha.

    The objective must be finite on the whole grid; a non-finite entry
    raises with the offending alpha named. The first and last slots
    (including a +inf point) are flagged as boundary picks.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (len(grid),):
        raise ValueError(
            f"objective has shape {vals.shape}, expected ({len(grid)},)"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericError(
            f"objective for rule {rule!r} is not finite at alpha={grid.values[k]!r}"
            f" (grid index {k})"
        )
    idx = int(_argmin_larger(vals))
    return RuleSelection(
        rule=rule,
        alpha_hat=float(grid.values[idx]),
        objective_value=float(vals[idx]),
        at_boundary=bool(idx == 0 or idx == vals.size - 1),
        index=idx,
    )


def dp_select(dec, coords, grid, sigma, rel_tol: float = 1e-6) -> RuleSelection:
    """Smallest alpha with nonnegative discrepancy, bisection-refined.

    The discrepancy is nondecreasing in alpha, so the first nonnegative
    grid value brackets the root with its predecessor; bisection then
    narrows the bracket to rel_tol relative width. Degenerate cases are
    flagged results, not errors: a nonnegative discrepancy already at
    the grid minimum returns that point, and a discrepancy that stays
    negative on the whole finite grid returns the last point (the +inf
    slot when the grid has one).
    """
    curve = dp_value(dec, coords, grid, sigma)
    nf = grid.n_finite
    nonneg = curve[:nf] >= 0.0
    if nonneg[0]:
        return RuleSelection("dp", float(grid.values[0]), float(curve[0]), True, 0)
    if not np.any(nonneg):
        k = len(grid) - 1
        return RuleSelection("dp", float(grid.values[k]), float(curve[k]), True, k)
    idx = int(np.argmax(nonneg))
    lo = float(grid.values[idx - 1])
    hi = float(grid.values[idx])
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if dp_value(dec, coords, mid, sigma) >= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    return RuleSelection("dp", root, dp_value(dec, coords, root, sigma), False, idx)


def psure_select(dec, coords, grid, sigma) -> RuleSelection:
    return select_by_minimization(psure_value(dec, coords, grid, sigma), grid, "psure")


def gsure_select(dec, coords, grid, sigma) -> RuleSelection:
    return select_by_minimization(gsure_value(dec, coords, grid, sigma), grid, "sure")


def oracle_select(dec, coords, xstar_coords, grid, metric="l2_estimation") -> RuleSelection:
    errs = oracle_error_curve(dec, coords, xstar_coords, grid, metric)
    return select_by_minimization(errs, grid, "oracle")


def psure_alpha_bounds(dec, xstar_coords, sigma):
    """Bracket for the minimizer of the true prediction risk.

    lower = sigma^2 / max_i x*_i^2 and
    upper = max(1, 8 sigma^2 sum(gamma^4) / sum(gamma^4 x*^2)),
    taken over the effective rank. Requires a nonzero true solution.
    """
    xs = np.asarray(xstar_coords, dtype=float)[: dec.r]
    if not np.any(xs != 0.0):
        raise ValueError("true-solution coordinates are identically zero")
    s2 = square(sigma)
    g = dec.gammas[: dec.r]
    g4 = g**4
    lower = s2 / float(np.max(xs * xs))
    upper = max(1.0, 8.0 * s2 * neumaier_sum(g4) / neumaier_sum(g4 * xs * xs))
    return lower, upper
