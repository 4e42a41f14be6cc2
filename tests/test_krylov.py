import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbphodge
from sbphodge.errors import DimensionMismatch, NonFiniteEncountered
from sbphodge.krylov import LinearMap, lsmr, lsqr

from conftest import krylov_iterates

SOLVERS = [lsqr, lsmr]


def rank_deficient(gen, m, n, rank):
    left = gen.standard_normal((m, rank))
    right = gen.standard_normal((rank, n))
    return left @ right


@pytest.mark.parametrize("solver", SOLVERS)
def test_identity_single_iteration(solver, rng):
    a = np.eye(9)
    b = rng.standard_normal(9)
    x, stats = solver(LinearMap.from_dense(a), b)
    assert np.allclose(x, b, atol=1e-12)
    assert stats.iterations == 1


@pytest.mark.parametrize("solver", SOLVERS)
def test_full_rank_matches_dense_least_squares(solver, rng):
    a = rng.standard_normal((10, 6))
    b = rng.standard_normal(10)
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    x, _ = solver(LinearMap.from_dense(a), b, atol=1e-14, btol=1e-14)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


@pytest.mark.parametrize("solver", SOLVERS)
def test_rank_deficient_matches_pseudoinverse(solver):
    gen = np.random.default_rng(5150)
    a = rank_deficient(gen, 8, 10, 5)
    b = gen.standard_normal(8)
    expected = np.linalg.pinv(a) @ b
    x, _ = solver(LinearMap.from_dense(a), b, atol=1e-12, btol=1e-12)
    assert np.linalg.norm(x - expected) <= 1e-6 * np.linalg.norm(expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_min_norm_property(seed):
    gen = np.random.default_rng(seed)
    m, n = int(gen.integers(5, 25)), int(gen.integers(5, 25))
    rank = int(gen.integers(1, min(m, n)))
    a = rank_deficient(gen, m, n, rank)
    b = gen.standard_normal(m)
    expected = np.linalg.pinv(a) @ b
    for solver in SOLVERS:
        x, _ = solver(LinearMap.from_dense(a), b, atol=1e-13, btol=1e-13)
        assert np.linalg.norm(x - expected) <= 1e-6 * max(
            np.linalg.norm(expected), 1e-3
        )


def test_lsqr_residual_monotone(rng):
    a = rng.standard_normal((30, 18))
    b = rng.standard_normal(30)
    iterates, stats = krylov_iterates(lsqr, LinearMap.from_dense(a), b,
                                      atol=1e-14, btol=1e-14)
    norms = [np.linalg.norm(b - a @ xk) for xk in iterates]
    for prev, cur in zip(norms, norms[1:]):
        assert cur <= prev * (1 + 1e-10)
    # the internal estimate tracks the explicit residual
    assert np.isclose(stats.final_residual_norm, norms[-1], rtol=1e-6)


def test_lsmr_normal_residual_monotone(rng):
    a = rng.standard_normal((30, 18))
    b = rng.standard_normal(30)
    iterates, _ = krylov_iterates(lsmr, LinearMap.from_dense(a), b,
                                  atol=1e-14, btol=1e-14)
    norms = [np.linalg.norm(a.T @ (b - a @ xk)) for xk in iterates]
    for prev, cur in zip(norms, norms[1:]):
        assert cur <= prev * (1 + 1e-10)


@pytest.mark.parametrize("solver", SOLVERS)
def test_finite_termination_proxy(solver, rng):
    # well-conditioned square system converges far below 2n iterations
    n = 20
    a = rng.standard_normal((n, n)) + 5.0 * np.eye(n)
    b = rng.standard_normal(n)
    x, stats = solver(LinearMap.from_dense(a), b, atol=1e-12, btol=1e-12)
    assert stats.iterations <= 2 * n
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("solver", SOLVERS)
def test_zero_rhs(solver):
    a = np.eye(5)
    x, stats = solver(LinearMap.from_dense(a), np.zeros(5))
    assert np.array_equal(x, np.zeros(5))
    assert stats.iterations == 0
    assert stats.stop_reason == "residual_tol"


@pytest.mark.parametrize("solver", SOLVERS)
def test_rhs_orthogonal_to_range(solver):
    # b entirely outside the range: minimum-norm answer is x = 0
    a = np.zeros((4, 3))
    a[:2, :] = np.eye(3)[:2]
    b = np.array([0.0, 0.0, 1.0, -2.0])
    x, stats = solver(LinearMap.from_dense(a), b)
    assert np.linalg.norm(x) <= 1e-12
    assert stats.stop_reason == "normal_tol"


@pytest.mark.parametrize("solver", SOLVERS)
def test_max_iter_returns_best_iterate(solver, rng):
    a = rng.standard_normal((40, 35))
    b = rng.standard_normal(40)
    x, stats = solver(LinearMap.from_dense(a), b, atol=0.0, btol=0.0, max_iter=3)
    assert stats.stop_reason == "max_iter"
    assert stats.iterations == 3
    assert np.all(np.isfinite(x))


def test_adjoint_self_test_catches_mismatch(rng):
    a = rng.standard_normal((7, 7))
    broken = LinearMap(rows=7, cols=7, forward=lambda x: a @ x,
                       adjoint=lambda y: a @ y)  # wrong: not transposed
    with pytest.raises(ValueError):
        broken.self_test()


@pytest.mark.parametrize("solver", SOLVERS)
def test_adjoint_self_test_fails_a_nan_pairing(solver, rng):
    # NaN compares False against the tolerance, so the pairing's difference
    # must be tested as "within", not as "beyond"
    a = rng.standard_normal((4, 3))
    op = LinearMap(4, 3, lambda x: np.full(4, np.nan), lambda y: a.T @ y)
    with pytest.raises(ValueError, match="adjoint inconsistency"):
        op.self_test()
    with pytest.raises(ValueError, match="adjoint inconsistency"):
        solver(op, np.ones(4))


def test_shape_validation():
    a = np.eye(4)
    with pytest.raises(DimensionMismatch):
        lsqr(LinearMap.from_dense(a), np.ones(5))


def test_non_finite_rhs_rejected():
    a = np.eye(4)
    b = np.array([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(NonFiniteEncountered):
        lsmr(LinearMap.from_dense(a), b)


def test_stats_iterations_bounded(rng):
    a = rng.standard_normal((12, 9))
    b = rng.standard_normal(12)
    for solver in SOLVERS:
        _, stats = solver(LinearMap.from_dense(a), b, max_iter=50)
        assert stats.iterations <= 50
        assert stats.stop_reason in ("residual_tol", "normal_tol", "max_iter")


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("max_iter", [4, 12])
def test_final_norms_match_explicit_residuals(solver, max_iter, rng):
    # inconsistent system stopped short of convergence, so both norms are far
    # above roundoff and each one pins its own quantity
    a = rng.standard_normal((30, 18))
    b = rng.standard_normal(30)
    x, stats = solver(LinearMap.from_dense(a), b, atol=0.0, btol=0.0,
                      max_iter=max_iter)
    r = b - a @ x
    assert stats.iterations == max_iter
    assert np.isclose(stats.final_residual_norm, np.linalg.norm(r),
                      rtol=1e-8, atol=0.0)
    assert np.isclose(stats.final_normal_residual_norm,
                      np.linalg.norm(a.T @ r), rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("solver", SOLVERS)
def test_non_finite_operator_output_raises(solver, rng):
    a = rng.standard_normal((20, 15))
    calls = []

    def forward(x):
        calls.append(None)
        y = a @ x
        if len(calls) > 3:
            y[2] = np.nan
        return y

    op = LinearMap(rows=20, cols=15, forward=forward, adjoint=lambda y: a.T @ y)
    with pytest.raises(NonFiniteEncountered):
        solver(op, rng.standard_normal(20), atol=0.0, btol=0.0)
    # the adjoint self-test takes the first three outputs; the solve stopped
    # at its first, the first bad one
    assert len(calls) == 4


def test_only_a_named_solver_loads_scipy_sparse():
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import sbphodge
        from sbphodge.hodge import helmholtz
        from sbphodge.potentials import harmonic_neumann_potential
        from sbphodge.tensor import square_tensor_ops

        def sparse():
            return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))

        assert sparse() == [], sparse()
        for dim in (2, 3):
            ops = square_tensor_ops(6, 13, dim)
            helmholtz(ops, np.ones((dim, *ops.shape)))
        ops = square_tensor_ops(6, 13, 2)
        x, y = ops.meshgrid()
        harmonic_neumann_potential(ops, ops.field(ops.grad(x**3 - 3 * x * y * y)))
        assert sparse() == [], sparse()
        helmholtz(ops, np.ones((2, *ops.shape)), solver="lsqr")
        assert "scipy.sparse.linalg" in sys.modules
    """)
    src = str(Path(sbphodge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
