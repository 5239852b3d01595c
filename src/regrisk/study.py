"""Simulation harness: repeated noise draws, rule selections, error
statistics, sup-deviation statistics and log-log rate fits.

The quadratic path batches draws into fixed-size chunks and evaluates
whole rule curves as matrix products against precomputed weight tables.
A chunk makes one pass over column blocks of the alpha grid: each block
gets its GEMMs and its elementwise work in a few reused work arrays, and
running reductions carry the sup deviations, the rule argmins (ties to
the larger alpha), the count of negative discrepancies and the first
non-finite entry of each checked matrix from block to block.

A block always gets two GEMMs: the residual sums behind psure, DP and
the psure sup deviation, and the estimation-side sums behind sure and
the gsure sup deviation. Only the oracle and loss tracking need the true
error on the whole grid; for them the block also gets the cross and quad
GEMMs of the true-error sweep against the filter-factor table (two more
for the prediction loss). Without the sweep the filter table is not
built. With or without it, every rule's recorded errors come from one
expression: the filter factors at its pick, whether a grid point or
DP's bisected root. Memory is O(chunk x block), and no (chunk x grid)
array is built. The blocks are wide enough that the blocked products
equal full-grid ones bit for bit (see _column_spans).
After the pass the discrepancy roots of all draws of the chunk are
bisected together, each draw with its own bracket and stopping rule.
Chunk boundaries and the per-draw seed derivation are independent of the
worker count, and the reduction keeps draw order, so results are
bit-identical no matter how the work is scheduled.

The l1 path solves each draw once, records its selections and keeps its
two risk-estimate curves. Their sample means stand in for the exact risk
curves, which have no closed form here; once all draws are in, each
draw's sup deviations are taken against those means. Each solve is ADMM
warm-started from the exact LARS-lasso path, whose grid columns its
stopping rule certifies in about one iteration.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from .accum import neumaier_sum
from .errors import NumericError
from .lasso import (
    AdmmParams,
    _gsure_aux,
    lasso_dp_index,
    lasso_risk_curves,
    lasso_solve,
)
from .problem import ProblemInstance, build_problem, problem_hash
from .rules import (
    DP_REL_TOL,
    AlphaGrid,
    ORACLE_METRICS,
    _argmin_larger,
    c_constant,
    df_table,
    estimation_weight_table,
    expected_data_power,
    filter_table,
    gdf_table,
    prediction_weight_table,
    trace_pinv_gram,
)
from .spectral import _filter, _residual_weight, decompose

__all__ = [
    "SCHEMA_VERSION",
    "KNOWN_RULES",
    "StudyConfig",
    "RuleOutcome",
    "StudyRecord",
    "RateFit",
    "run_study",
    "sup_deviation",
    "mean_sup_deviation",
    "rate_check",
    "error_stats",
    "win_fraction",
    "loss_closeness_stats",
    "write_records_csv",
    "read_records_csv",
    "summary_json",
    "write_summary_json",
]

SCHEMA_VERSION = 1
KNOWN_RULES = ("oracle", "dp", "psure", "sure")
CHUNK = 512  # draws per batch; fixed so scheduling cannot change results
BLOCK = 512  # grid columns per pass over a chunk; see _column_spans


@dataclasses.dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce one simulation run."""

    m: int
    n: int
    l: float
    sigma: float
    grid: AlphaGrid
    n_draws: int
    master_seed: int
    rules: tuple = KNOWN_RULES
    regularizer: str = "quadratic"
    metric: str = "l2_estimation"
    track_loss_closeness: bool = False
    admm: AdmmParams | None = None

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValueError("need at least one draw")
        if self.regularizer not in ("quadratic", "lasso"):
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if self.regularizer == "lasso" and self.grid.includes_infinity:
            raise ValueError("the l1 path cannot evaluate an infinite penalty")
        if self.metric not in ORACLE_METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        unknown = set(self.rules) - set(KNOWN_RULES)
        if unknown:
            raise ValueError(f"unknown rules {sorted(unknown)}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("noise level must be finite and nonnegative")


@dataclasses.dataclass
class RuleOutcome:
    alpha_hat: float
    error_l2: float
    error_l1: float
    at_boundary: bool


@dataclasses.dataclass
class StudyRecord:
    """Per-draw selections, errors and deviation statistics."""

    draw_index: int
    outcomes: dict
    sup_dev_psure: float
    sup_dev_gsure: float
    sup_loss_psure: float | None = None
    sup_loss_gsure: float | None = None


def _not_finite(name, draw, alpha) -> NumericError:
    return NumericError(f"{name} is not finite at draw {draw}, alpha={alpha!r}")


def _ensure_finite(curve, name, draw, grid):
    bad = ~np.isfinite(curve)
    if bad.any():
        raise _not_finite(name, draw, grid.values[int(np.argmax(bad))])


def _draw_noise_block(children, sigma, m) -> np.ndarray:
    eps = np.empty((m, len(children)))
    for j, child in enumerate(children):
        eps[:, j] = np.random.default_rng(child).standard_normal(m)
    return float(sigma) * eps


def _true_error_sweep(cfg):
    """Whether the chunks need the true error at every grid point."""
    return "oracle" in cfg.rules or cfg.track_loss_closeness


def _quadratic_tables(cfg, problem, dec):
    T = SimpleNamespace()
    grid = cfg.grid
    s2 = cfg.sigma * cfg.sigma
    xs_full = dec.V.T @ problem.x_star
    r = dec.r
    T.xs_full = xs_full
    T.xs_r = xs_full[:r]
    T.g = dec.gammas[:r]
    T.W1 = prediction_weight_table(dec, grid)
    T.W2 = estimation_weight_table(dec, grid)
    if _true_error_sweep(cfg):
        T.F = filter_table(dec, grid)
    # the affine parts of psure and gsure and the expected data power; a
    # huge sigma or x* may overflow them, which the chunk's non-finite
    # checks report
    with np.errstate(over="ignore", invalid="ignore"):
        T.psure_shift = 2.0 * s2 * df_table(dec, grid)
        T.gsure_shift = 2.0 * s2 * gdf_table(dec, grid)
        T.s2s1 = s2 * trace_pinv_gram(dec)
        T.e2 = expected_data_power(dec, xs_full, cfg.sigma)
        T.e2w1 = T.e2 @ T.W1
        T.e2w2 = T.e2[:r] @ T.W2
    T.c0_est = neumaier_sum(xs_full * xs_full)
    T.signal = np.zeros(dec.m)
    T.signal[: dec.q] = dec.gammas * xs_full[: dec.q]
    T.V_r = dec.V[:, :r]
    T.x_phys = problem.x_star
    if cfg.metric == "l2_prediction" or cfg.track_loss_closeness:
        gx = T.g * T.xs_r
        T.c0_pred = neumaier_sum(gx * gx)
        gF = T.g[:, None] * T.F
        T.gF2 = gF * gF
    if cfg.track_loss_closeness:
        T.c_m = c_constant(dec)
        T.c0_tilde = neumaier_sum(T.xs_r * T.xs_r)
    return T


def _column_spans(K, c):
    """[start, stop) column blocks for a chunk of c draws.

    Blocks are BLOCK * (CHUNK // c) columns wide, so every block holds
    about CHUNK x BLOCK entries, and the last one also takes the
    remainder. Blocks this large, and no narrower than the chunk, keep
    each GEMM on the path OpenBLAS takes for the full-grid product, so
    the blocked products equal it bit for bit. A narrow last block could
    go to the small-matrix kernel or be split between threads another
    way, which changed the sums in the grid's last two columns (the
    GEMM's N remainder).
    """
    width = BLOCK * max(1, CHUNK // c)
    starts = list(range(0, max(K - width, 0) + 1, width))
    return list(zip(starts, starts[1:] + [K]))


def _rowmax_abs(x):
    """Row maxima of |x|, taken in place in x."""
    return np.max(np.abs(x, out=x), axis=1)


def _block_argmin(blk, spare):
    """Row minima of a block and their columns, ties (and NaN) to the
    larger alpha; spare is a free work block for the reversed rows."""
    local = _argmin_larger(blk, spare)
    return local, blk[np.arange(blk.shape[0]), local]


class _RunningArgmin:
    """Row argmin over a sweep of column blocks.

    As within a block, ties and NaN go to the larger alpha: a later block
    wins an equal value.
    """

    def __init__(self, c):
        self.value = np.full(c, np.inf)
        self.index = np.zeros(c, dtype=np.intp)

    def update(self, local, value, start):
        take = (value <= self.value) | np.isnan(value)
        self.value = np.where(take, value, self.value)
        self.index = np.where(take, start + local, self.index)


class _FirstNonFinite:
    """First non-finite column of each row over a sweep of column blocks."""

    def __init__(self, name, c):
        self.name = name
        self.col = np.full(c, -1, dtype=np.intp)

    def update(self, blk, start):
        finite = np.isfinite(blk)
        if finite.all():
            return
        bad = ~finite
        new = bad.any(axis=1) & (self.col < 0)
        self.col[new] = start + np.argmax(bad[new], axis=1)

    def raise_first(self, start_index, grid):
        rows = np.flatnonzero(self.col >= 0)
        if rows.size:
            j = int(rows[0])
            raise _not_finite(
                self.name, start_index + j, grid.values[int(self.col[j])])


def _dp_roots(g, Y2r, tails, msig2, lo, hi):
    """Bisect the discrepancy of all draws of a chunk at once.

    Y2r is (r, c), lo/hi/tails are (c,). Every draw keeps its own bracket
    and stops when that bracket is narrower than DP_REL_TOL * lo, so it
    sees the midpoints of a one-draw bisection. Each draw's sum is a row
    @ column matmul against its own strided column of Y2r, the BLAS dot a
    one-draw `w @ y2` makes, so the signs and roots are the same as well.
    """
    y2 = Y2r.T[:, :, None]
    active = hi - lo > DP_REL_TOL * lo
    while np.any(active):
        mid = 0.5 * (lo + hi)
        w = _residual_weight(g[None, :], mid[:, None])
        up = np.matmul(w[:, None, :], y2)[:, 0, 0] + tails - msig2 >= 0.0
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
        active = hi - lo > DP_REL_TOL * lo
    return 0.5 * (lo + hi)


def _quadratic_chunk(cfg, dec, T, children, start_index):
    grid = cfg.grid
    vals = grid.values
    K = len(grid)
    nf = grid.n_finite
    r = dec.r
    m = dec.m
    sigma = cfg.sigma
    s2 = sigma * sigma
    msig2 = m * s2
    c = len(children)
    rules = cfg.rules
    oracle = cfg.metric if "oracle" in rules else None
    track = cfg.track_loss_closeness
    dp_on = "dp" in rules
    pred_on = track or oracle == "l2_prediction"
    sweep = _true_error_sweep(cfg)

    picks = {rule: _RunningArgmin(c)
             for rule in ("oracle", "psure", "sure") if rule in rules}
    checks = (  # raised in this order, after the sweep
        _FirstNonFinite("prediction-risk estimate", c),
        _FirstNonFinite("estimation-risk estimate", c),
        _FirstNonFinite("true error", c),
    )
    sup_psure = np.zeros(c)
    sup_gsure = np.zeros(c)
    sup_loss_p = np.zeros(c) if track else None
    sup_loss_g = np.zeros(c) if track else None
    neg_count = np.zeros(c, dtype=np.intp)

    spans = _column_spans(K, c)
    width = max(b - a for a, b in spans)
    n_work = 4 if track else 3 if sweep else 2
    work = np.empty((n_work, c * width))
    if sweep:
        squares = np.empty(r * width)  # F**2 of a block, the quad-term table

    # extreme inputs are allowed to overflow here; the non-finite checks
    # turn any inf/nan into a NumericError naming draw and alpha
    with np.errstate(over="ignore", invalid="ignore"):
        eps = _draw_noise_block(children, sigma, m)
        Yc = T.signal[:, None] + dec.U.T @ eps
        Y2 = Yc * Yc
        Y2_t = Y2.T  # (c, m)
        Y2r_t = Y2[:r].T  # (c, r)
        if sweep:
            X = (Yc[:r] * T.xs_r[:, None]).T
        if pred_on:
            Xp = (Yc[:r] * (T.g * T.g * T.xs_r)[:, None]).T

        # Each block's matrices are computed in place in the work rows,
        # in the same operation order as whole-grid expressions would use.
        for a, b in spans:
            P, S, Q, R = [row[: c * (b - a)].reshape(c, b - a)
                          for row in work] + [None] * (4 - n_work)
            cand = {}

            np.matmul(Y2_t, T.W1[:, a:b], out=P)  # residual sums
            # the deviations from the exact risk curves share the random
            # term, so the df parts cancel and the centered sums give both
            sup_psure = np.maximum(
                sup_psure, _rowmax_abs(np.subtract(P, T.e2w1[a:b], out=S)))
            np.subtract(P, msig2, out=P)  # discrepancy
            if dp_on and a < nf:
                neg_count += np.count_nonzero(P[:, : min(b, nf) - a] < 0.0, axis=1)
            np.add(P, T.psure_shift[a:b], out=P)  # psure
            checks[0].update(P, a)
            if "psure" in picks:
                cand["psure"] = _block_argmin(P, S)

            if pred_on:
                # m * prediction loss: c0_pred - 2 cross_pred + quad_pred
                np.matmul(Xp, T.F[:, a:b], out=S)
                np.subtract(T.c0_pred, np.multiply(S, 2.0, out=S), out=S)
                np.add(S, np.matmul(Y2r_t, T.gF2[:, a:b], out=Q), out=S)
                if oracle == "l2_prediction":
                    cand["oracle"] = _block_argmin(S, Q)
                if track:
                    np.divide(P, m, out=Q)
                    np.subtract(Q, np.divide(S, m, out=S), out=Q)
                    sup_loss_p = np.maximum(sup_loss_p, _rowmax_abs(Q))

            np.matmul(Y2r_t, T.W2[:, a:b], out=P)  # estimation-side sums
            sup_gsure = np.maximum(
                sup_gsure, _rowmax_abs(np.subtract(P, T.e2w2[a:b], out=S)))
            np.subtract(P, T.s2s1, out=P)
            np.add(P, T.gsure_shift[a:b], out=P)  # gsure
            checks[1].update(P, a)
            if "sure" in picks:
                cand["sure"] = _block_argmin(P, S)

            if sweep:  # the true error of the block: c0 - 2 cross + quad
                Fb = T.F[:, a:b]
                np.multiply(np.matmul(X, Fb, out=S), 2.0, out=S)  # 2 cross
                F2b = np.multiply(
                    Fb, Fb, out=squares[: r * (b - a)].reshape(r, b - a))
                np.matmul(Y2r_t, F2b, out=Q)  # quad
                if track:
                    np.subtract(T.c0_tilde, S, out=R)
                    np.multiply(np.add(R, Q, out=R), T.c_m, out=R)
                    np.subtract(np.multiply(P, T.c_m, out=P), R, out=P)
                    sup_loss_g = np.maximum(sup_loss_g, _rowmax_abs(P))
                err2 = np.add(np.subtract(T.c0_est, S, out=S), Q, out=S)
                np.maximum(err2, 0.0, out=err2)
                checks[2].update(err2, a)

                if oracle == "l2_estimation":
                    cand["oracle"] = _block_argmin(err2, Q)
                elif oracle == "l1":  # physical reconstructions of the block
                    for j in range(c):
                        diff = T.x_phys[:, None] - T.V_r @ (Fb * Yc[:r, j][:, None])
                        Q[j] = np.sum(np.abs(diff), axis=0)
                    cand["oracle"] = _block_argmin(Q, P)
            for rule, (local, value) in cand.items():
                picks[rule].update(local, value, a)

    for check in checks:
        check.raise_first(start_index, grid)

    dp_alpha = dp_flag = None
    if dp_on:
        dp_flag = (neg_count == 0) | (neg_count == nf)
        inside = ~dp_flag
        k = np.where(inside, neg_count, 0)
        lo = np.where(inside, vals[k - 1], 1.0)
        hi = np.where(inside, vals[k], 1.0)
        tails = Y2[r:].sum(axis=0) if r < m else np.zeros(c)
        dp_alpha = _dp_roots(T.g, Y2[:r], tails, msig2, lo, hi)
        dp_alpha[neg_count == 0] = vals[0]
        dp_alpha[neg_count == nf] = vals[K - 1]

    def errors_at_filters(Fsel):
        # Fsel: (r, c) filter factors at each draw's selected alpha
        coeffs = Fsel * Yc[:r]
        e2 = (
            T.c0_est
            - 2.0 * np.sum(T.xs_r[:, None] * coeffs, axis=0)
            + np.sum(coeffs * coeffs, axis=0)
        )
        diff = T.x_phys[:, None] - T.V_r @ coeffs
        return np.sqrt(np.maximum(e2, 0.0)), np.sum(np.abs(diff), axis=0)

    # _filter is elementwise, so the factors at a pick are the bits of
    # that column of the filter table
    per_rule = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for rule, pick in picks.items():
            per_rule[rule] = _grid_picks(vals, pick.index, *errors_at_filters(
                _filter(T.g[:, None], vals[pick.index])))
        if dp_alpha is not None:
            per_rule["dp"] = (dp_alpha, *errors_at_filters(
                _filter(T.g[:, None], dp_alpha)), dp_flag)
    _check_errors_at_picks(per_rule, start_index)
    loss_sups = (sup_loss_p, sup_loss_g) if track else ()
    return _build_records(rules, per_rule, range(start_index, start_index + c),
                          sup_psure, sup_gsure, *loss_sups)


def _check_errors_at_picks(per_rule, start_index):
    """Check the true error where it is recorded: raise for the first
    draw with a non-finite error at a pick, naming the smallest such
    alpha. Every study runs it, after the sweep's check of the whole
    grid when there is a sweep."""
    bad = [(int(j), alphas[j]) for alphas, e_l2, *_ in per_rule.values()
           for j in np.flatnonzero(~np.isfinite(e_l2))]
    if bad:
        j, alpha = min(bad)
        raise _not_finite("true error", start_index + j, alpha)


def _grid_picks(vals, idx, e_l2, e_l1):
    """A rule's per-draw arrays for grid picks idx: the first and last
    slots are boundary picks."""
    return vals[idx], e_l2, e_l1, (idx == 0) | (idx == vals.size - 1)


def _build_records(rules, per_rule, draws, *sups):
    """One StudyRecord per draw index in draws, from each rule's per-draw
    arrays (alpha, error_l2, error_l1, at_boundary) and the per-draw sup
    arrays (psure, gsure, then the two loss sups when tracked)."""
    columns = {rule: [np.asarray(col).tolist() for col in per_rule[rule]]
               for rule in rules}
    sups = zip(*(np.asarray(s).tolist() for s in sups))
    return [
        StudyRecord(draw, {
            rule: RuleOutcome(*(col[j] for col in cols))
            for rule, cols in columns.items()
        }, *sup)
        for j, (draw, sup) in enumerate(zip(draws, sups))
    ]


def _run_quadratic(cfg, problem, dec, workers, extras):
    T = _quadratic_tables(cfg, problem, dec)
    children = np.random.SeedSequence(cfg.master_seed).spawn(cfg.n_draws)
    spans = [
        (s, min(s + CHUNK, cfg.n_draws)) for s in range(0, cfg.n_draws, CHUNK)
    ]

    def work(span):
        s, e = span
        return _quadratic_chunk(cfg, dec, T, children[s:e], s)

    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, spans))
    else:
        chunks = [work(span) for span in spans]
    records = [rec for chunk in chunks for rec in chunk]
    if extras is not None:
        extras["grid_values"] = cfg.grid.values
    return records


def _run_lasso(cfg, problem, dec, extras):
    A = problem.A
    x_star = problem.x_star
    sigma = cfg.sigma
    grid = cfg.grid
    vals = grid.values
    n_draws = cfg.n_draws
    aux = _gsure_aux(dec)
    ax_star = A @ x_star
    children = np.random.SeedSequence(cfg.master_seed).spawn(n_draws)
    eps = _draw_noise_block(children, sigma, cfg.m)

    psure_rows = np.empty((n_draws, len(grid)))
    gsure_rows = np.empty((n_draws, len(grid)))
    sum_psure = np.zeros(len(grid))
    sum_gsure = np.zeros(len(grid))
    picks = {rule: [] for rule in cfg.rules}  # per draw: (index, l2, l1 error)
    iterations = np.zeros(n_draws, dtype=int)
    kinks = np.zeros(n_draws, dtype=int)
    unconverged = 0
    # extreme inputs may overflow the curves; the finite checks below turn
    # any inf/nan into a NumericError naming draw and alpha
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_draws):
            y = ax_star + eps[:, k]
            try:
                path, kinks[k] = lasso_solve(A, y, vals, cfg.admm)
                res2, psure_rows[k], gsure_rows[k] = lasso_risk_curves(
                    A, y, path.Z, sigma, aux)
            except NumericError as exc:
                where = f"draw {k}"
                if exc.column is not None:
                    where += f", alpha={vals[exc.column]!r}"
                raise NumericError(f"{exc} at {where}") from exc
            unconverged += not np.all(path.converged_flags)
            iterations[k] = path.iterations_used
            sum_psure += psure_rows[k]
            sum_gsure += gsure_rows[k]

            diff = x_star[:, None] - path.Z
            err_l2 = np.sqrt(np.einsum("ij,ij->j", diff, diff))
            err_l1 = np.sum(np.abs(diff), axis=0)
            curves = {"psure": psure_rows[k], "sure": gsure_rows[k],
                      "oracle": err_l1 if cfg.metric == "l1" else err_l2}
            if cfg.metric == "l2_prediction":
                pr = ax_star[:, None] - A @ path.Z
                curves["oracle"] = np.sqrt(np.einsum("ij,ij->j", pr, pr))
            for rule, got in picks.items():
                i = (lasso_dp_index(res2, cfg.m, sigma) if rule == "dp"
                     else _argmin_larger(curves[rule]))
                got.append((i, err_l2[i], err_l1[i]))

    for k in range(n_draws):
        for rule, rows, name in (("psure", psure_rows, "prediction-risk estimate"),
                                 ("sure", gsure_rows, "estimation-risk estimate")):
            if rule in picks:
                _ensure_finite(rows[k], name, k, grid)
    mean_psure = sum_psure / n_draws
    mean_gsure = sum_gsure / n_draws
    per_rule = {rule: _grid_picks(vals, *map(np.array, zip(*got)))
                for rule, got in picks.items()}
    # the rows are not needed after their sups, which are taken in place
    records = _build_records(
        cfg.rules, per_rule, range(n_draws),
        _rowmax_abs(np.subtract(psure_rows, mean_psure, out=psure_rows)),
        _rowmax_abs(np.subtract(gsure_rows, mean_gsure, out=gsure_rows)))

    if extras is not None:
        extras["grid_values"] = vals
        extras["first_pass_mean_psure"] = mean_psure
        extras["first_pass_mean_gsure"] = mean_gsure
        extras["unconverged_draws"] = unconverged
        extras["admm_iterations"] = iterations
        extras["path_kinks"] = kinks
    return records


def run_study(config: StudyConfig, problem: ProblemInstance | None = None,
              dec=None, workers: int = 1, extras: dict | None = None):
    """Run the configured study and return one StudyRecord per draw.

    The problem is built (or taken as given), decomposed once, and the
    decomposition is shared across all draws. Deterministic for a fixed
    config regardless of the worker count.
    """
    if problem is None:
        problem = build_problem(config.m, config.n, config.l, config.sigma)
    elif (problem.m, problem.n) != (config.m, config.n):
        raise ValueError("problem dimensions do not match the configuration")
    if dec is None:
        dec = decompose(problem.A)
    if extras is not None:
        extras["problem_hash"] = problem_hash(problem)
    if config.regularizer == "quadratic":
        return _run_quadratic(config, problem, dec, max(1, int(workers)), extras)
    return _run_lasso(config, problem, dec, extras)


def sup_deviation(dec, coords, xstar_coords, grid, sigma):
    """Grid sup (including the +inf point) of the centered deviations
    |prediction estimate - its expectation| and |estimation estimate -
    its expectation| for one realization.

    Both deviations share the random term sum w_i (y_i^2 - E y_i^2), so
    they are computed in exactly that centered form; noiseless data with
    sigma = 0 therefore gives exact zeros.
    """
    if not grid.includes_infinity:
        raise ValueError("the deviation sup is defined over a grid closed by +inf")
    e2 = expected_data_power(dec, xstar_coords, sigma)
    centered = coords.y_coords**2 - e2
    d1 = centered @ prediction_weight_table(dec, grid)
    d2 = centered[: dec.r] @ estimation_weight_table(dec, grid)
    return float(np.max(np.abs(d1))), float(np.max(np.abs(d2)))


def mean_sup_deviation(records, which: str) -> float:
    if which == "psure":
        return float(np.mean([rec.sup_dev_psure for rec in records]))
    if which == "gsure":
        return float(np.mean([rec.sup_dev_gsure for rec in records]))
    raise ValueError(f"unknown deviation kind {which!r}")


@dataclasses.dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    n_points: int


RATE_NORMALIZATIONS = ("psure", "gsure_cond", "gsure_plain")


def rate_check(per_m, normalization: str) -> RateFit:
    """Least-squares slope of the normalized deviation statistic vs size.

    per_m holds (m, mean_sup, cond) triples, one per problem size, where
    mean_sup is the sample mean over draws of the grid sup deviation.
    'psure' and 'gsure_plain' normalize by m, 'gsure_cond' by m*cond^2;
    the fit is log10(statistic) against log10(m).

    'gsure_cond' models the noise x noise term of the estimation-side
    deviation, whose size is sigma^2 * sqrt(sum 1/gamma^4) and grows like
    cond^2. The signal x noise term, sum w_i 2 gamma_i x*_i eps_i, grows
    only like cond * ||x*|| and dominates at well-conditioned sizes, so a
    mean_sup that includes it sits above the m*cond^2 trend there.
    """
    if normalization not in RATE_NORMALIZATIONS:
        raise ValueError(
            f"unknown normalization {normalization!r}, "
            f"expected one of {RATE_NORMALIZATIONS}"
        )
    pts = sorted((int(m), float(s), float(c)) for m, s, c in per_m)
    if len(pts) < 2:
        raise ValueError("need at least two sizes for a rate fit")
    x = np.array([math.log10(m) for m, _, _ in pts])
    if normalization == "gsure_cond":
        stat = [s / (m * c * c) for m, s, c in pts]
    else:
        stat = [s / m for m, s, _ in pts]
    y = np.log10(np.asarray(stat))
    slope, intercept = np.polyfit(x, y, 1)
    return RateFit(float(slope), float(intercept), len(pts))


def _errors_for(records, rule, metric="l2"):
    if metric == "l2":
        return np.array([rec.outcomes[rule].error_l2 for rec in records])
    if metric == "l1":
        return np.array([rec.outcomes[rule].error_l1 for rec in records])
    raise ValueError(f"unknown error metric {metric!r}")


def error_stats(records, rule, metric="l2") -> dict:
    """Descriptive statistics of the per-draw error for one rule."""
    if not records:
        raise ValueError("no records")
    errs = _errors_for(records, rule, metric)
    return {
        "min": float(np.min(errs)),
        "max": float(np.max(errs)),
        "mean": float(np.mean(errs)),
        "median": float(np.median(errs)),
        "std": float(np.std(errs)),
    }


def win_fraction(records, rule_a, rule_b, metric="l2") -> float:
    """Fraction of draws where rule_a's error beats rule_b's; ties 1/2."""
    a = _errors_for(records, rule_a, metric)
    b = _errors_for(records, rule_b, metric)
    return float((np.sum(a < b) + 0.5 * np.sum(a == b)) / a.size)


def loss_closeness_stats(per_m, quantiles=(0.25, 0.5, 0.75)) -> dict:
    """Quantiles of the loss-tracking sup statistics against size.

    per_m holds (m, psure_sups, gsure_sups, d_value) tuples, where the
    sups are per-draw samples of sup|estimate/m - loss| and
    sup|c * estimate - scaled loss|, and d_value is the theoretical
    scale c*sqrt(sum 1/gamma^4) for that size. Returns the quantile
    curves plus 1/sqrt(m) and d_value overlays for plotting.
    """
    entries = sorted(per_m, key=lambda t: t[0])
    if not entries:
        raise ValueError("no per-size samples")
    ms = np.array([int(t[0]) for t in entries])
    q = np.asarray(quantiles, dtype=float)
    psure_q = np.column_stack(
        [np.quantile(np.asarray(t[1], dtype=float), q) for t in entries]
    )
    gsure_q = np.column_stack(
        [np.quantile(np.asarray(t[2], dtype=float), q) for t in entries]
    )
    return {
        "m": ms,
        "quantiles": q,
        "psure_quantiles": psure_q,
        "gsure_quantiles": gsure_q,
        "overlay_inv_sqrt_m": 1.0 / np.sqrt(ms.astype(float)),
        "overlay_d": np.array([float(t[3]) for t in entries]),
    }


# export / import


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _csv_columns(rules, include_loss: bool):
    cols = ["draw_index"]
    for rule in rules:
        cols += [
            f"{rule}_alpha",
            f"{rule}_error_l2",
            f"{rule}_error_l1",
            f"{rule}_at_boundary",
        ]
    cols += ["sup_dev_psure", "sup_dev_gsure"]
    if include_loss:
        cols += ["sup_loss_psure", "sup_loss_gsure"]
    return cols


def write_records_csv(records, rules, path) -> None:
    """One row per draw, floats at 17 significant digits for exact
    round-trips."""
    include_loss = bool(records) and records[0].sup_loss_psure is not None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_columns(rules, include_loss))
        for rec in records:
            row = [str(rec.draw_index)]
            for rule in rules:
                out = rec.outcomes[rule]
                row += [
                    _fmt(out.alpha_hat),
                    _fmt(out.error_l2),
                    _fmt(out.error_l1),
                    "1" if out.at_boundary else "0",
                ]
            row += [_fmt(rec.sup_dev_psure), _fmt(rec.sup_dev_gsure)]
            if include_loss:
                row += [_fmt(rec.sup_loss_psure), _fmt(rec.sup_loss_gsure)]
            writer.writerow(row)


def read_records_csv(path):
    """Inverse of write_records_csv; returns (records, rules)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        columns = dict.fromkeys(header, ())
        columns.update(zip(header, zip(*reader)))
    rules = [c[: -len("_alpha")] for c in header if c.endswith("_alpha")]
    missing = set(_csv_columns(rules, False)) - set(header)
    if missing:
        raise ValueError(f"{path} is not a records file: no {sorted(missing)}")

    def floats(name):
        return [float(v) for v in columns[name]]

    per_rule = {
        rule: [floats(f"{rule}_{field}") for field in ("alpha", "error_l2", "error_l1")]
        + [[v == "1" for v in columns[f"{rule}_at_boundary"]]]
        for rule in rules
    }
    sups = [floats(name) for name in ("sup_dev_psure", "sup_dev_gsure",
                                      "sup_loss_psure", "sup_loss_gsure")
            if name in columns]
    draws = [int(v) for v in columns["draw_index"]]
    return _build_records(rules, per_rule, draws, *sups), rules


def _config_dict(config: StudyConfig) -> dict:
    d = dataclasses.asdict(config)
    d["rules"] = list(config.rules)
    return d


def _rule_stats(records, rules, metric="l2") -> dict:
    """The per-rule blocks of a study report for one error metric: error
    statistics ("stats"), mean sup deviations and, when dp ran, the win
    fractions against it."""
    report = {
        "stats": {rule: error_stats(records, rule, metric) for rule in rules},
        "mean_sup_dev": {
            "psure": mean_sup_deviation(records, "psure"),
            "gsure": mean_sup_deviation(records, "gsure"),
        },
    }
    if "dp" in rules:
        report["win_fractions_vs_dp"] = {
            rule: win_fraction(records, rule, "dp", metric)
            for rule in rules
            if rule != "dp"
        }
    return report


def summary_json(config: StudyConfig, records, problem_hash_value=None) -> dict:
    """Aggregate statistics in a serializable form; schema versioned."""
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_dict(config),
        "n_draws": len(records),
        "problem_hash": problem_hash_value,
        "stats_l1": {
            rule: error_stats(records, rule, metric="l1") for rule in config.rules
        },
        **_rule_stats(records, config.rules),
    }
    summary["stats_l2"] = summary.pop("stats")
    return summary


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
