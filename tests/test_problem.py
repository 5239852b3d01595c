import math

import numpy as np
import pytest
from scipy.integrate import quad

from regrisk import problem
from regrisk import (
    ProblemInstance,
    build_forward_matrix,
    build_problem,
    build_true_solution,
    kernel_eval,
    kernel_norm,
    load_problem,
    make_kernel,
    problem_hash,
    save_problem,
)
from regrisk.problem import SPIKE_AMPLITUDES, SPIKE_POSITIONS, _cell_integral


def test_kernel_integrates_to_one():
    for l in (0.02, 0.06, 0.1, 0.3):
        spec = make_kernel(l)
        total, err = quad(lambda t: kernel_eval(t, spec), -0.5, 0.5,
                          points=[-l, 0.0, l], limit=200)
        assert err < 1e-9
        assert abs(total - 1.0) < 1e-6


def test_kernel_norm_against_adaptive_quadrature():
    for l in (0.02, 0.06):
        raw, err = quad(
            lambda u: math.exp(-1.0 / (1.0 - (u / l) ** 2)) if abs(u) < l else 0.0,
            -l, l, limit=200,
        )
        assert abs(kernel_norm(l) - raw) < 1e-6 * raw


def test_kernel_periodic_symmetric_and_supported():
    spec = make_kernel(0.06)
    ts = np.linspace(-2.0, 2.0, 401)
    vals = kernel_eval(ts, spec)
    shifted = kernel_eval(ts + 1.0, spec)
    np.testing.assert_allclose(vals, shifted, rtol=0, atol=1e-14)
    np.testing.assert_allclose(vals, kernel_eval(-ts, spec), rtol=0, atol=1e-14)
    assert kernel_eval(0.061, spec) == 0.0
    assert kernel_eval(0.0, spec) > 0.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        make_kernel(0.0)
    with pytest.raises(ValueError):
        make_kernel(0.6)


def test_forward_matrix_is_circulant_when_square():
    A = build_forward_matrix(12, 12, 0.06)
    for i in range(12):
        for j in range(12):
            assert A[i, j] == A[0, (j - i) % 12]


def test_forward_matrix_square_fast_path_matches_direct_integrals():
    m = n = 10
    l = 0.06
    A = build_forward_matrix(m, n, l)
    spec = make_kernel(l)
    scale = math.sqrt(m * n)
    rng = np.random.default_rng(0)
    for _ in range(12):
        i = int(rng.integers(0, m))
        j = int(rng.integers(0, n))
        direct = scale * _cell_integral(i, j, m, n, spec)
        assert abs(A[i, j] - direct) < 1e-13 * max(1.0, abs(direct))


def test_forward_matrix_rectangular_shape_and_content():
    m, n, l = 6, 9, 0.1
    A = build_forward_matrix(m, n, l)
    assert A.shape == (m, n)
    spec = make_kernel(l)
    scale = math.sqrt(m * n)
    assert abs(A[2, 5] - scale * _cell_integral(2, 5, m, n, spec)) < 1e-13


def _forward_matrix_integrating_every_pair(m, n, l):
    # the build without the reach test: the whole first row when square,
    # every cell pair otherwise
    spec = make_kernel(l)
    scale = math.sqrt(m * n)
    if m == n:
        row = np.array([_cell_integral(0, j, m, n, spec) for j in range(n)])
        idx = (np.arange(n)[None, :] - np.arange(m)[:, None]) % n
        return scale * row[idx]
    A = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            A[i, j] = _cell_integral(i, j, m, n, spec)
    A *= scale
    return A


@pytest.mark.parametrize("m, n, l", [
    (12, 12, 0.06), (64, 64, 0.01), (7, 11, 0.06), (11, 7, 0.01),
    (24, 40, 0.01), (1, 9, 0.06), (9, 1, 0.01), (1, 1, 0.01),
    (16, 16, 0.5), (6, 9, 0.5),
])
def test_forward_matrix_skips_only_zero_cell_pairs(monkeypatch, m, n, l):
    integrated = set()

    def spy(i, j, *args):
        integrated.add((i, j))
        return _cell_integral(i, j, *args)

    monkeypatch.setattr(problem, "_cell_integral", spy)
    A = build_forward_matrix(m, n, l)
    monkeypatch.undo()
    assert A.tobytes() == _forward_matrix_integrating_every_pair(m, n, l).tobytes()
    pairs = {(i, j) for i in range(1 if m == n else m) for j in range(n)}
    skipped = pairs - integrated
    if l == 0.5:
        assert not skipped
    elif min(m, n) > 1:
        assert skipped
    for i, j in skipped:
        # square: the entry and its circulant copies A[r, (j + r) % n]
        rows = np.arange(m) if m == n else np.array([i])
        cells = A[rows, (j - i + rows) % n]
        assert np.all(cells == 0.0) and not np.any(np.signbit(cells))


@pytest.mark.parametrize("m, n, l, digest", [
    (16, 16, 0.06,
     "d0803f48e7cc82313bbb56517064c0b068925b19c60959cc8ce0e1454474f05b"),
    (32, 32, 0.04,
     "081848ebcca363828dfbc84955999cf460301e01998a3d476af9811da27ad8ec"),
    (64, 64, 0.06,
     "53563eb275a6e455963342b9f60b2e394fb35dcd913f2ec9262290e5203bb7f5"),
    (512, 512, 0.06,
     "098e99427abb33a3735a9df3405cd06177860568350b7a3d8c328171106dd92a"),
    (12, 20, 0.06,
     "5b9da821a5fc9b5b0c7302b7afebc619ec3e901952507021500098fe75570f04"),
])
def test_problem_hash_pinned(m, n, l, digest):
    # the bits every study, record file and benchmark reference starts from
    assert problem_hash(build_problem(m, n, l, 0.1)) == digest


def test_forward_matrix_rows_sum_to_sqrt_ratio():
    # cell integrals over j tile the full period, so each row sums to
    # sqrt(mn) * (1/m) integral of the kernel = sqrt(n/m)
    for m, n in ((12, 12), (6, 9)):
        A = build_forward_matrix(m, n, 0.06)
        np.testing.assert_allclose(
            A.sum(axis=1), math.sqrt(n / m), rtol=2e-5
        )


def test_true_solution_spike_layout():
    n = 64
    x = build_true_solution(n)
    expected_cells = [math.ceil(n * b) - 1 for b in SPIKE_POSITIONS]
    nz = np.flatnonzero(x)
    assert sorted(expected_cells) == list(nz)
    for amp, cell in zip(SPIKE_AMPLITUDES, expected_cells):
        assert x[cell] == amp * math.sqrt(n)


def test_true_solution_mass_invariant_across_sizes():
    # amplitudes scale with sqrt(n), so the scaled total stays fixed
    for n in (16, 64, 200):
        x = build_true_solution(n)
        assert abs(x.sum() / math.sqrt(n) - sum(SPIKE_AMPLITUDES)) < 1e-12


def test_true_solution_rejects_tiny_n():
    with pytest.raises(ValueError):
        build_true_solution(4)


def test_build_problem_validation():
    with pytest.raises(ValueError):
        build_problem(16, 16, 0.06, -0.1)
    with pytest.raises(ValueError):
        build_problem(0, 16, 0.06, 0.1)


def test_save_load_round_trip(tmp_path, problem16):
    path = tmp_path / "prob.npz"
    save_problem(problem16, path)
    back = load_problem(path)
    np.testing.assert_array_equal(back.A, problem16.A)
    np.testing.assert_array_equal(back.x_star, problem16.x_star)
    assert (back.m, back.n, back.l, back.sigma) == (
        problem16.m, problem16.n, problem16.l, problem16.sigma)
    assert problem_hash(back) == problem_hash(problem16)


def test_problem_hash_sensitive_to_inputs(problem16):
    other = build_problem(16, 16, 0.02, 0.1)
    assert problem_hash(other) != problem_hash(problem16)
    noisier = build_problem(16, 16, 0.06, 0.2)
    assert problem_hash(noisier) != problem_hash(problem16)


@pytest.mark.parametrize("A_shape, x_shape", [
    ((32, 32), (32,)), ((64, 64), (32,)),
])
def test_arrays_contradicting_dims_are_rejected(tmp_path, A_shape, x_shape):
    with pytest.raises(ValueError, match="has shape"):
        ProblemInstance(A=np.zeros(A_shape), x_star=np.zeros(x_shape),
                        sigma=0.1, m=64, n=64, l=0.06)
    path = tmp_path / "bad.npz"
    np.savez(path, A=np.zeros(A_shape), x_star=np.zeros(x_shape),
             dims=np.array([64, 64]), params=np.array([0.06, 0.1]))
    with pytest.raises(ValueError,
                       match="bad.npz is not a stored problem: .* has shape"):
        load_problem(path)


def test_malformed_dims_name_the_file(tmp_path):
    path = tmp_path / "dims3.npz"
    np.savez(path, A=np.zeros((4, 4)), x_star=np.zeros(4),
             dims=np.array([4, 4, 4]), params=np.array([0.06, 0.1]))
    with pytest.raises(ValueError, match="dims3.npz is not a stored problem"):
        load_problem(path)
