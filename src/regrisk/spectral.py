"""Singular-value machinery and the closed-form ridge quantities.

Everything downstream works in the coordinates of the singular system,
where the ridge estimator acts diagonally with filter factors
gamma_i / (gamma_i^2 + alpha). alpha = +inf is a legal distinguished
input throughout and is evaluated by its analytic limit (zero estimate,
full residual, zero degrees of freedom).

The five ridge quantities (the filter, the residual and estimation
weights, the df and gdf terms) are written once each, as the private
elementwise kernels below; the scalar functions here, the grid tables
and curves of rules and the study's chunk evaluator all take them from
there.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .accum import neumaier_sum
from .errors import NumericError

__all__ = [
    "DEFAULT_RANK_TOL",
    "SpectralDecomposition",
    "SpectralCoords",
    "decompose",
    "to_spectral",
    "filter_factors",
    "tikhonov_solve",
    "residual_norm_sq",
    "df",
    "gdf",
    "trace_pinv_gram",
    "check_alpha",
]

DEFAULT_RANK_TOL = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full singular system of a forward matrix.

    gammas holds all q = min(m, n) singular values in descending order;
    r counts those above DEFAULT_RANK_TOL relative to the largest, and
    cond is gamma_1 / gamma_r over that effective range.
    """

    U: np.ndarray
    V: np.ndarray
    gammas: np.ndarray
    r: int
    cond: float

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def q(self) -> int:
        return self.gammas.size


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralCoords:
    """One realization expressed in the singular bases."""

    y_coords: np.ndarray
    xstar_coords: np.ndarray


def check_alpha(alpha) -> float:
    """Validate a regularization strength: finite nonnegative or +inf."""
    a = float(alpha)
    if math.isnan(a) or a < 0:
        raise ValueError(f"regularization strength must be >= 0 or +inf, got {alpha}")
    return a


def _leads_negative(col) -> bool:
    """Whether the first entry of col above 1e-12 in magnitude (the first
    entry when there is none) is negative."""
    nz = np.flatnonzero(np.abs(col) > 1e-12)
    return col[nz[0] if nz.size else 0] < 0


def decompose(A) -> SpectralDecomposition:
    """Full SVD with a deterministic sign convention and effective rank.

    Each left singular vector is flipped so that its first entry that is
    nonzero at working precision is positive; the paired right vector
    flips along so U @ diag(gammas) @ V.T still reconstructs A. Right
    vectors beyond the q-th (nullspace directions) get the same
    convention on their own. U, V and gammas come back read-only, since
    rules shares tables built from them.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge for shape {A.shape}: {exc}") from exc
    V = np.ascontiguousarray(Vt.T)
    q = s.size
    for i in range(U.shape[1]):
        if _leads_negative(U[:, i]):
            U[:, i] = -U[:, i]
            if i < q:
                V[:, i] = -V[:, i]
    for j in range(q, V.shape[1]):
        if _leads_negative(V[:, j]):
            V[:, j] = -V[:, j]
    if q > 0 and s[0] > 0:
        r = int(np.sum(s > DEFAULT_RANK_TOL * s[0]))
    else:
        r = 0
    cond = float(s[0] / s[r - 1]) if r > 0 else math.inf
    for arr in (U, V, s):
        arr.setflags(write=False)
    return SpectralDecomposition(U=U, V=V, gammas=s, r=r, cond=cond)


def to_spectral(dec: SpectralDecomposition, y, x_star) -> SpectralCoords:
    """Project data and true solution onto the singular bases."""
    y = np.asarray(y, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if y.shape != (dec.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({dec.m},)")
    if x_star.shape != (dec.n,):
        raise ValueError(f"x_star has shape {x_star.shape}, expected ({dec.n},)")
    return SpectralCoords(y_coords=dec.U.T @ y, xstar_coords=dec.V.T @ x_star)


# Elementwise ridge kernels on broadcastable (gamma, alpha) arrays. Each
# writes into `out` when given, so a grid table is built in place, and
# fills in its alpha = +inf limit itself.


def _at_infinity(out, a, limit):
    inf = np.isinf(a)
    if np.any(inf):
        np.copyto(out, limit, where=inf)
    return out


def _filter(g, a, out=None):
    """gamma/(gamma^2 + alpha); 0 at alpha = +inf."""
    out = np.add(g * g, a, out=out)
    return np.divide(g, out, out=out)


def _residual_weight(g, a, out=None):
    """(alpha/(gamma^2 + alpha))^2; 1 at alpha = +inf."""
    out = np.add(g * g, a, out=out)
    with np.errstate(invalid="ignore"):  # inf/inf at alpha = +inf
        np.divide(a, out, out=out)
    np.multiply(out, out, out=out)
    return _at_infinity(out, a, 1.0)


def _estimation_weight(g, a, out=None):
    """(alpha/(gamma (gamma^2 + alpha)))^2; 1/gamma^2 at alpha = +inf."""
    out = np.add(g * g, a, out=out)
    np.multiply(g, out, out=out)
    with np.errstate(invalid="ignore"):
        np.divide(a, out, out=out)
    np.multiply(out, out, out=out)
    return _at_infinity(out, a, _gdf_term(g, 0.0))


def _df_term(g, a, out=None):
    """gamma^2/(gamma^2 + alpha); 0 at alpha = +inf."""
    g2 = g * g
    out = np.add(g2, a, out=out)
    return np.divide(g2, out, out=out)


def _gdf_term(g, a, out=None):
    """1/(gamma^2 + alpha); 0 at alpha = +inf."""
    out = np.add(g * g, a, out=out)
    return np.divide(1.0, out, out=out)


def filter_factors(dec: SpectralDecomposition, alpha) -> np.ndarray:
    """Ridge filter gamma/(gamma^2 + alpha) on the effective-rank block.

    Directions beyond the effective rank are never fitted, so the factors
    cover the first r of them only; alpha = 0 gives the pseudo-inverse
    and alpha = +inf zero.
    """
    return _filter(dec.gammas[: dec.r], check_alpha(alpha))


def tikhonov_solve(dec: SpectralDecomposition, coords: SpectralCoords, alpha):
    """Ridge estimate for one realization.

    Returns (coeffs, x_hat): the coefficients in the V basis (length n,
    zero beyond the effective rank) and the solution in physical
    coordinates. alpha = 0 gives the pseudo-inverse solution, alpha =
    +inf the zero vector.
    """
    f = filter_factors(dec, alpha)
    coeffs = np.zeros(dec.n)
    coeffs[: dec.r] = f * coords.y_coords[: dec.r]
    return coeffs, dec.V @ coeffs


def _prediction_weights(dec: SpectralDecomposition, a) -> np.ndarray:
    """Residual weights of all m data coordinates at a scalar alpha (shape
    (m,)) or a 1-D alpha array (shape (m, K)); coordinates beyond the
    effective rank are never fitted and weigh 1."""
    W = np.empty((dec.m,) + np.shape(a))
    W[dec.r :] = 1.0
    g = dec.gammas[: dec.r].reshape((-1,) + (1,) * np.ndim(a))
    _residual_weight(g, a, out=W[: dec.r])
    return W


def residual_norm_sq(dec: SpectralDecomposition, coords: SpectralCoords, alpha) -> float:
    """Squared data misfit of the ridge estimate, computed spectrally.

    Coordinates beyond the effective rank contribute y_i^2 at every
    alpha since no estimate reaches them. Nondecreasing in alpha; equals
    ||y||^2 at alpha = +inf.
    """
    y = coords.y_coords
    return neumaier_sum(_prediction_weights(dec, check_alpha(alpha)) * y * y)


def df(dec: SpectralDecomposition, alpha) -> float:
    """Degrees of freedom: sum of gamma^2/(gamma^2 + alpha) over the rank."""
    return neumaier_sum(_df_term(dec.gammas[: dec.r], check_alpha(alpha)))


def gdf(dec: SpectralDecomposition, alpha) -> float:
    """Generalized degrees of freedom: sum of 1/(gamma^2 + alpha)."""
    a = check_alpha(alpha)
    with np.errstate(divide="ignore", over="ignore"):
        val = neumaier_sum(_gdf_term(dec.gammas[: dec.r], a))
    if not math.isfinite(val):
        raise NumericError(
            f"generalized degrees of freedom overflowed at alpha={a}; "
            f"cond(A)={dec.cond:.3e}"
        )
    return val


def trace_pinv_gram(dec: SpectralDecomposition) -> float:
    """tr((A A^T)^+) = sum of 1/gamma_i^2 over the effective rank."""
    g = dec.gammas[: dec.r]
    if dec.r > 0 and g[-1] < 1e-150:
        raise NumericError(
            f"smallest effective singular value too small to square; "
            f"cond(A)={dec.cond:.3e}"
        )
    return neumaier_sum(_gdf_term(g, 0.0))
