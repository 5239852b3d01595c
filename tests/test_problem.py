import math

import numpy as np
import pytest
from scipy.integrate import quad

from regrisk import (
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
