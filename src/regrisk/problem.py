"""Periodic-convolution test problem: kernel, forward matrix and spikes.

The continuous model convolves a 1-periodic bump kernel of half-width l
with a sum of four point masses. Discretizing onto equispaced cells and
averaging the kernel over cell pairs yields a forward matrix whose rows
are exact translates of each other when the two grids coincide, so the
square case is circulant. The sqrt(m*n) scaling makes the largest
singular value equal to 1 (up to quadrature error), which pins the
conditioning to the kernel width alone. Only cell pairs within reach of
the kernel are integrated, so set-up cost grows with the kernel's
support, not with m*n.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import zipfile

import numpy as np

__all__ = [
    "KernelSpec",
    "ProblemInstance",
    "KERNEL_NORM_NODES",
    "CELL_QUAD_NODES",
    "SPIKE_AMPLITUDES",
    "SPIKE_POSITIONS",
    "make_kernel",
    "kernel_norm",
    "kernel_eval",
    "build_forward_matrix",
    "build_true_solution",
    "build_problem",
    "problem_hash",
    "save_problem",
    "load_problem",
]

KERNEL_NORM_NODES = 100_000  # trapezoid nodes for the normalization integral
CELL_QUAD_NODES = 100  # trapezoid nodes per axis and cell pair in the matrix build

SPIKE_AMPLITUDES = (0.5, 1.0, 0.8, 0.5)
# irrational positions, so a spike never sits on a cell boundary
SPIKE_POSITIONS = (
    1.0 / math.sqrt(26.0),
    1.0 / math.sqrt(11.0),
    1.0 / math.sqrt(3.0),
    1.0 / math.sqrt(1.5),
)


@dataclasses.dataclass(frozen=True)
class KernelSpec:
    """Bump kernel of half-width l with its numeric normalization constant."""

    l: float
    norm_const: float


@dataclasses.dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Forward matrix, true solution and noise level of one test problem."""

    A: np.ndarray
    x_star: np.ndarray
    sigma: float
    m: int
    n: int
    l: float

    def __post_init__(self):
        for name, want in (("A", (self.m, self.n)), ("x_star", (self.n,))):
            got = np.shape(getattr(self, name))
            if got != want:
                raise ValueError(f"{name} has shape {got}, not {want}")


def _bump(u):
    """exp(-1/(1 - u^2)) on |u| < 1, exactly 0 outside (u is t/l)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        return np.exp(-1.0 / np.maximum(1.0 - u * u, 0.0))


def _check_width(l: float) -> None:
    if not 0.0 < l <= 0.5:
        raise ValueError(f"kernel half-width must lie in (0, 1/2], got {l}")


def kernel_norm(l: float) -> float:
    """Trapezoid approximation of the bump integral over [-l, l]."""
    _check_width(l)
    t = np.linspace(-l, l, KERNEL_NORM_NODES)
    return float(np.trapezoid(_bump(t / l), t))


def make_kernel(l: float) -> KernelSpec:
    return KernelSpec(l=l, norm_const=kernel_norm(l))


def kernel_eval(t, spec: KernelSpec):
    """Normalized kernel value at t, continued 1-periodically.

    Accepts scalars or arrays; the argument is wrapped into [-1/2, 1/2]
    before the support test.
    """
    arr = np.asarray(t, dtype=float)
    tbar = arr - np.round(arr)
    vals = _bump(tbar / spec.l) / spec.norm_const
    if arr.ndim == 0:
        return float(vals)
    return vals


def _cell_integral(i: int, j: int, m: int, n: int, spec: KernelSpec) -> float:
    # integral of k(s - t) over the cell pair E_i^m x E_j^n (0-based cells)
    s = np.linspace(i / m, (i + 1) / m, CELL_QUAD_NODES)
    t = np.linspace(j / n, (j + 1) / n, CELL_QUAD_NODES)
    vals = kernel_eval(s[:, None] - t[None, :], spec)
    return float(np.trapezoid(np.trapezoid(vals, t, axis=1), s))


def build_forward_matrix(m: int, n: int, l: float) -> np.ndarray:
    """Cell-averaged convolution matrix, scaled by sqrt(m*n).

    Only the cell pairs the kernel reaches are integrated. Every node
    difference of a pair lies within 1/(2m) + 1/(2n) of the difference
    of the two cell centres, so a pair whose centres lie at least
    l + 1/m + 1/n apart (mod 1) sees the kernel only off its support and
    keeps the exact +0.0. For m == n only the first row is integrated;
    the remaining rows are index-shifted copies (the grids align, so the
    operator is circulant).
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    spec = make_kernel(l)
    scale = math.sqrt(m * n)
    rows = 1 if m == n else m
    gap = (np.arange(rows)[:, None] + 0.5) / m - (np.arange(n) + 0.5) / n
    reached = np.abs(gap - np.round(gap)) < l + 1.0 / m + 1.0 / n
    A = np.zeros((rows, n))
    for i, j in zip(*np.nonzero(reached)):
        A[i, j] = _cell_integral(int(i), int(j), m, n, spec)
    if m == n:
        idx = (np.arange(n)[None, :] - np.arange(m)[:, None]) % n
        return scale * A[0][idx]
    A *= scale
    return A


def build_true_solution(n: int) -> np.ndarray:
    """Four-spike coefficient vector in the piecewise-constant cell basis.

    Each point mass of amplitude a sitting at position b contributes
    sqrt(n) * a to the single cell that contains b.
    """
    if n < 8:
        raise ValueError("need n >= 8 so the four spike cells are distinct")
    x = np.zeros(n)
    root_n = math.sqrt(n)
    for amp, pos in zip(SPIKE_AMPLITUDES, SPIKE_POSITIONS):
        cell = math.ceil(n * pos) - 1  # 0-based index of the covering cell
        x[cell] += amp * root_n
    return x


def build_problem(m: int, n: int, l: float, sigma: float) -> ProblemInstance:
    """Assemble matrix and spikes into one instance. sigma = 0 is allowed
    for noiseless experiments; negative and non-finite values are
    rejected."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("noise level must be finite and nonnegative")
    A = build_forward_matrix(m, n, l)
    return ProblemInstance(
        A=A, x_star=build_true_solution(n), sigma=float(sigma), m=m, n=n, l=l
    )


def problem_hash(inst: ProblemInstance) -> str:
    """SHA-256 over a canonical byte encoding of the instance."""
    h = hashlib.sha256()
    header = (
        f"v1|m={inst.m}|n={inst.n}|l={inst.l!r}|sigma={inst.sigma!r}"
        f"|cellq={CELL_QUAD_NODES}|normq={KERNEL_NORM_NODES}"
    )
    h.update(header.encode())
    h.update(np.ascontiguousarray(inst.A, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(inst.x_star, dtype="<f8").tobytes())
    return h.hexdigest()


def save_problem(inst: ProblemInstance, path) -> None:
    """NPZ serialization; see the data-formats section of the README."""
    np.savez_compressed(
        path,
        A=inst.A,
        x_star=inst.x_star,
        dims=np.array([inst.m, inst.n], dtype=np.int64),
        params=np.array([inst.l, inst.sigma], dtype=float),
        quadrature=np.array([CELL_QUAD_NODES, KERNEL_NORM_NODES], dtype=np.int64),
    )


def load_problem(path) -> ProblemInstance:
    try:
        archive = np.load(path)
    except (EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a stored problem: {exc}") from exc
    with archive as data:
        missing = {"dims", "params", "A", "x_star"} - set(data.files)
        if missing:
            raise ValueError(f"{path} is not a stored problem: no {sorted(missing)}")
        try:
            m, n = (int(v) for v in data["dims"])
            l, sigma = (float(v) for v in data["params"])
            return ProblemInstance(
                A=np.array(data["A"]),
                x_star=np.array(data["x_star"]),
                sigma=sigma,
                m=m,
                n=n,
                l=l,
            )
        except ValueError as exc:
            raise ValueError(f"{path} is not a stored problem: {exc}") from exc
