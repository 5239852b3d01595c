"""Parameter-choice rules and risks for the quadratic regularizer.

Each rule is a weighted sum over spectral coordinates, so a scalar
evaluation and a whole-grid evaluation share the same weight algebra.
Scalar entry points (the *_value and *_true functions) accumulate with
compensated summation; the *_table and *_curve helpers evaluate an
entire grid at once with matrix products and are what the simulation
layer builds on. Grids may carry a distinguished +inf point, which every
table fills with the analytic limit, so downstream code never branches
on it.

Selection is argmin over the grid with ties resolved toward the larger
(more stabilized) alpha. The residual-discrepancy rule is the exception:
it is a root finder, so its grid crossing is refined by bisection.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .accum import neumaier_sum, square
from .errors import NumericError
from .spectral import (
    SpectralCoords,
    SpectralDecomposition,
    check_alpha,
    df,
    filter_factors,
    gdf,
    residual_norm_sq,
    trace_pinv_gram,
)

__all__ = [
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
    "dp_curve",
    "psure_curve",
    "gsure_curve",
    "mspe_curve",
    "msee_curve",
    "edp_curve",
    "loss_l_curve",
    "loss_tilde_curve",
    "oracle_error_curve",
    "select_by_minimization",
    "dp_select",
    "psure_select",
    "gsure_select",
    "oracle_select",
    "mspe_oracle_select",
    "msee_oracle_select",
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


# scalar rule values


def dp_value(dec, coords, alpha, sigma) -> float:
    """Residual discrepancy: squared misfit minus the noise energy m*sigma^2."""
    return residual_norm_sq(dec, coords, alpha) - dec.m * square(sigma)


def psure_value(dec, coords, alpha, sigma) -> float:
    """Unbiased prediction-risk estimate: discrepancy plus 2 sigma^2 df."""
    s2 = square(sigma)
    return dp_value(dec, coords, alpha, sigma) + 2.0 * s2 * df(dec, alpha)


def gsure_value(dec, coords, alpha, sigma) -> float:
    """Unbiased estimation-risk estimate through the pseudo-inverse.

    Sum of (1/gamma - gamma/(gamma^2+alpha))^2 y^2 over the effective
    rank, minus sigma^2 tr((A A^T)^+), plus 2 sigma^2 gdf.
    """
    a = check_alpha(alpha)
    s2 = square(sigma)
    g = dec.gammas[: dec.r]
    if dec.r > 0 and g[-1] < 1e-150:
        raise NumericError(
            f"singular values too small to square; cond(A)={dec.cond:.3e}"
        )
    y = coords.y_coords[: dec.r]
    if math.isinf(a):
        w = 1.0 / g
    elif a == 0.0:
        w = np.zeros(dec.r)
    else:
        w = a / (g * (g * g + a))
    fit = neumaier_sum((w * y) ** 2)
    return fit - s2 * trace_pinv_gram(dec) + 2.0 * s2 * gdf(dec, alpha)


# closed-form expectations


def _w1_vector(dec, alpha) -> np.ndarray:
    # squared residual weights per data coordinate; 1 beyond the rank
    a = check_alpha(alpha)
    w = np.ones(dec.m)
    if math.isinf(a):
        return w
    if a == 0.0:
        w[: dec.r] = 0.0
        return w
    g = dec.gammas[: dec.r]
    w[: dec.r] = (a / (g * g + a)) ** 2
    return w


def _w2_vector(dec, alpha) -> np.ndarray:
    # squared estimation-side weights over the effective rank
    a = check_alpha(alpha)
    g = dec.gammas[: dec.r]
    if math.isinf(a):
        return 1.0 / (g * g)
    if a == 0.0:
        return np.zeros(dec.r)
    return (a / (g * (g * g + a))) ** 2


def mspe_true(dec, xstar_coords, alpha, sigma) -> float:
    """Exact mean squared prediction error of the ridge estimate."""
    s2 = square(sigma)
    e2 = expected_data_power(dec, xstar_coords, sigma)
    return (
        neumaier_sum(_w1_vector(dec, alpha) * e2)
        - dec.m * s2
        + 2.0 * s2 * df(dec, alpha)
    )


def msee_true(dec, xstar_coords, alpha, sigma) -> float:
    """Exact mean squared estimation error on the row space."""
    s2 = square(sigma)
    e2 = expected_data_power(dec, xstar_coords, sigma)[: dec.r]
    return (
        neumaier_sum(_w2_vector(dec, alpha) * e2)
        - s2 * trace_pinv_gram(dec)
        + 2.0 * s2 * gdf(dec, alpha)
    )


def edp_true(dec, xstar_coords, alpha, sigma) -> float:
    """Expectation of the residual discrepancy."""
    s2 = square(sigma)
    e2 = expected_data_power(dec, xstar_coords, sigma)
    return neumaier_sum(_w1_vector(dec, alpha) * e2) - dec.m * s2


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
    singular values are 1."""
    g = dec.gammas[: dec.r]
    return c_constant(dec) * math.sqrt(neumaier_sum(1.0 / g**4))


# grid tables (columns follow grid.values, +inf slot filled analytically)


def filter_table(dec, grid: AlphaGrid) -> np.ndarray:
    """(r, K) ridge filter factors; the +inf column is zero."""
    vals = grid.values
    g = dec.gammas[: dec.r]
    F = np.zeros((dec.r, len(grid)))
    nf = grid.n_finite
    F[:, :nf] = g[:, None] / (g[:, None] ** 2 + vals[None, :nf])
    return F


def prediction_weight_table(dec, grid: AlphaGrid) -> np.ndarray:
    """(m, K) squared residual weights; rows beyond the rank are 1."""
    vals = grid.values
    W = np.ones((dec.m, len(grid)))
    nf = grid.n_finite
    g = dec.gammas[: dec.r]
    W[: dec.r, :nf] = (vals[None, :nf] / (g[:, None] ** 2 + vals[None, :nf])) ** 2
    return W


def estimation_weight_table(dec, grid: AlphaGrid) -> np.ndarray:
    """(r, K) squared estimation-side weights; the +inf column is 1/gamma^2."""
    vals = grid.values
    g = dec.gammas[: dec.r]
    W = np.empty((dec.r, len(grid)))
    nf = grid.n_finite
    W[:, :nf] = (
        vals[None, :nf] / (g[:, None] * (g[:, None] ** 2 + vals[None, :nf]))
    ) ** 2
    if grid.includes_infinity:
        W[:, nf:] = (1.0 / (g * g))[:, None]
    return W


def df_table(dec, grid: AlphaGrid) -> np.ndarray:
    vals = grid.values
    g = dec.gammas[: dec.r]
    out = np.zeros(len(grid))
    nf = grid.n_finite
    out[:nf] = np.sum(g[:, None] ** 2 / (g[:, None] ** 2 + vals[None, :nf]), axis=0)
    return out


def gdf_table(dec, grid: AlphaGrid) -> np.ndarray:
    vals = grid.values
    g = dec.gammas[: dec.r]
    out = np.zeros(len(grid))
    nf = grid.n_finite
    out[:nf] = np.sum(1.0 / (g[:, None] ** 2 + vals[None, :nf]), axis=0)
    return out


# whole-grid curves for a single realization


def dp_curve(dec, coords, grid, sigma) -> np.ndarray:
    y2 = coords.y_coords**2
    return y2 @ prediction_weight_table(dec, grid) - dec.m * square(sigma)


def psure_curve(dec, coords, grid, sigma) -> np.ndarray:
    s2 = square(sigma)
    return dp_curve(dec, coords, grid, sigma) + 2.0 * s2 * df_table(dec, grid)


def gsure_curve(dec, coords, grid, sigma) -> np.ndarray:
    s2 = square(sigma)
    y2 = coords.y_coords[: dec.r] ** 2
    return (
        y2 @ estimation_weight_table(dec, grid)
        - s2 * trace_pinv_gram(dec)
        + 2.0 * s2 * gdf_table(dec, grid)
    )


def mspe_curve(dec, xstar_coords, grid, sigma) -> np.ndarray:
    s2 = square(sigma)
    e2 = expected_data_power(dec, xstar_coords, sigma)
    return (
        e2 @ prediction_weight_table(dec, grid)
        - dec.m * s2
        + 2.0 * s2 * df_table(dec, grid)
    )


def msee_curve(dec, xstar_coords, grid, sigma) -> np.ndarray:
    s2 = square(sigma)
    e2 = expected_data_power(dec, xstar_coords, sigma)[: dec.r]
    return (
        e2 @ estimation_weight_table(dec, grid)
        - s2 * trace_pinv_gram(dec)
        + 2.0 * s2 * gdf_table(dec, grid)
    )


def edp_curve(dec, xstar_coords, grid, sigma) -> np.ndarray:
    e2 = expected_data_power(dec, xstar_coords, sigma)
    return e2 @ prediction_weight_table(dec, grid) - dec.m * square(sigma)


def loss_l_curve(dec, coords, xstar_coords, grid) -> np.ndarray:
    F = filter_table(dec, grid)
    g = dec.gammas[: dec.r]
    xs = np.asarray(xstar_coords, dtype=float)[: dec.r]
    y = coords.y_coords[: dec.r]
    gx = g * xs
    const = neumaier_sum(gx * gx)
    cross = (y * gx * g) @ F
    quad = (y * y * g * g) @ (F * F)
    return (const - 2.0 * cross + quad) / dec.m


def loss_tilde_curve(dec, coords, xstar_coords, grid) -> np.ndarray:
    F = filter_table(dec, grid)
    xs = np.asarray(xstar_coords, dtype=float)[: dec.r]
    y = coords.y_coords[: dec.r]
    const = neumaier_sum(xs * xs)
    cross = (y * xs) @ F
    quad = (y * y) @ (F * F)
    return c_constant(dec) * (const - 2.0 * cross + quad)


def oracle_error_curve(dec, coords, xstar_coords, grid, metric="l2_estimation"):
    """True error of the ridge estimate at every grid point.

    Returns norms (not squared). The l1 metric reconstructs physical
    solutions for the whole grid, which costs an (n x K) product.
    """
    if metric not in ORACLE_METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {ORACLE_METRICS}")
    xs_full = np.asarray(xstar_coords, dtype=float)
    y = coords.y_coords[: dec.r]
    F = filter_table(dec, grid)
    if metric == "l2_estimation":
        xs_r = xs_full[: dec.r]
        const = neumaier_sum(xs_full * xs_full)
        cross = (y * xs_r) @ F
        quad = (y * y) @ (F * F)
        return np.sqrt(np.maximum(const - 2.0 * cross + quad, 0.0))
    if metric == "l2_prediction":
        return np.sqrt(
            np.maximum(dec.m * loss_l_curve(dec, coords, xstar_coords, grid), 0.0)
        )
    coeffs = np.zeros((dec.n, len(grid)))
    coeffs[: dec.r] = F * y[:, None]
    diff = dec.V @ (xs_full[:, None] - coeffs)
    return np.sum(np.abs(diff), axis=0)


# selection


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
    idx = vals.size - 1 - int(np.argmin(vals[::-1]))
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
    curve = dp_curve(dec, coords, grid, sigma)
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
    return select_by_minimization(psure_curve(dec, coords, grid, sigma), grid, "psure")


def gsure_select(dec, coords, grid, sigma) -> RuleSelection:
    return select_by_minimization(gsure_curve(dec, coords, grid, sigma), grid, "sure")


def oracle_select(dec, coords, xstar_coords, grid, metric="l2_estimation") -> RuleSelection:
    errs = oracle_error_curve(dec, coords, xstar_coords, grid, metric)
    return select_by_minimization(errs, grid, "oracle")


def mspe_oracle_select(dec, xstar_coords, grid, sigma) -> RuleSelection:
    return select_by_minimization(
        mspe_curve(dec, xstar_coords, grid, sigma), grid, "mspe_oracle"
    )


def msee_oracle_select(dec, xstar_coords, grid, sigma) -> RuleSelection:
    return select_by_minimization(
        msee_curve(dec, xstar_coords, grid, sigma), grid, "msee_oracle"
    )


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
