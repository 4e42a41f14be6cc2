"""The direct (fast-diagonalization) projection engine against the Krylov
reference, its reported stats, and its input checks."""

import numpy as np
import pytest

from sbphodge.errors import (
    DimensionMismatch,
    NonFiniteEncountered,
    UnknownSolver,
    WrongDimension,
)
from sbphodge.experiments import ExperimentConfig, _curl_coimage_part
from sbphodge.grid import Grid1D
from sbphodge.hodge import helmholtz, project_im_curl, project_im_grad
from sbphodge.krylov import LinearMap, lsmr
from sbphodge.potentials import (
    harmonic_neumann_potential,
    scalar_potential_integral,
)
from sbphodge.tensor import TensorOps, build_tensor_ops, square_tensor_ops

KRYLOV = ("lsqr", "lsmr")
TIGHT = dict(atol=1e-14, btol=1e-14)


def rel(ops, a, b):
    return ops.norm(a - b) / ops.norm(b)


# -- the 1D eigenbasis and L^+ ---------------------------------------------------


def test_eigenbasis_diagonalizes_gram_pencil(op_1d):
    lam, s = op_1d.eigenbasis
    d, m = op_1d.dense(), op_1d.mass_weights
    gram = d.T @ (m[:, None] * d)
    assert np.allclose(s.T @ (m[:, None] * s), np.eye(op_1d.n_nodes),
                       atol=1e-12)
    scale = np.max(np.abs(lam))
    assert np.max(np.abs(gram @ s - (m[:, None] * s) * lam)) <= 1e-12 * scale
    # one zero eigenvalue, whose eigenvector is constant
    assert abs(lam[0]) <= 1e-12 * scale and lam[1] > 1e-3
    assert np.allclose(s[:, 0], s[0, 0], atol=1e-12)
    assert op_1d.eigenbasis is op_1d.eigenbasis


def test_dual_eigenbasis_diagonalizes_dual_pencil(op_1d):
    mu, r = op_1d.dual_eigenbasis
    d, m = op_1d.dense(), op_1d.mass_weights
    md = m[:, None] * d
    pencil = md @ (md.T / m[:, None])  # M D M^-1 D^T M
    assert np.allclose(r.T @ (m[:, None] * r), np.eye(op_1d.n_nodes),
                       atol=1e-12)
    scale = np.max(np.abs(mu))
    assert np.max(np.abs(pencil @ r - (m[:, None] * r) * mu)) <= 1e-12 * scale
    # one zero eigenvalue, whose eigenvector is the grid oscillation
    assert abs(mu[0]) <= 1e-12 * scale and mu[1] > 1e-3
    osc = op_1d.grid_oscillation
    assert np.allclose(r[:, 0] * np.sign(r[0, 0]), osc, atol=1e-10)
    assert op_1d.dual_eigenbasis is op_1d.dual_eigenbasis


def test_setup_leaves_eigenbasis_unbuilt():
    ops = square_tensor_ops(6, 33, 2)
    assert all("eigenbasis" not in vars(op) for op in ops.axis_ops)
    project_im_grad(ops, np.ones((2, *ops.shape)))
    assert all("eigenbasis" in vars(op) for op in ops.axis_ops)


def test_dual_eigenbasis_is_built_by_the_3d_curl_stage_only(rng):
    ops = square_tensor_ops(6, 33, 2)
    helmholtz(ops, rng.standard_normal((2, *ops.shape)))
    assert all("dual_eigenbasis" not in vars(op) for op in ops.axis_ops)
    ops3 = square_tensor_ops(2, 7, 3)
    assert all("dual_eigenbasis" not in vars(op) for op in ops3.axis_ops)
    project_im_curl(ops3, np.ones((3, *ops3.shape)))
    assert all("dual_eigenbasis" in vars(op) for op in ops3.axis_ops)


@pytest.mark.parametrize("dim,n", [(2, 17), (3, 9)])
def test_gram_pinv_solves_gram_system(dim, n, rng):
    ops = square_tensor_ops(4, n, dim)
    f = ops.mean_zero(rng.standard_normal(ops.shape))
    b = ops.grad_transpose(ops.mass * ops.grad(f))
    phi = ops.gram_pinv(b)
    assert rel(ops, phi, f) <= 1e-10
    assert abs(ops.inner(phi, np.ones(ops.shape))) <= 1e-12 * ops.norm(f)


def test_curl_gram_pinv_solves_curl_gram_system(rng):
    ops = build_tensor_ops(4, [Grid1D(-1, 1, 9), Grid1D(0, 2, 10),
                               Grid1D(-1, 3, 11)])
    w = rng.standard_normal((3, *ops.shape))
    v = ops.curl_gram_pinv(ops.curl_transpose(ops.mass * ops.curl(w)))
    assert rel(ops, ops.curl(v), ops.curl(w)) <= 1e-10
    config = ExperimentConfig(order=4, sizes=(9,), dim=3)
    assert rel(ops, v, _curl_coimage_part(ops, w, config)) <= 1e-10
    with pytest.raises(WrongDimension):
        square_tensor_ops(2, 7, 2).curl_gram_pinv(np.zeros((2, 7, 7)))


# -- direct against Krylov ------------------------------------------------------


@pytest.mark.parametrize("solver", KRYLOV)
def test_direct_matches_krylov_2d(order, solver, rng):
    ops = square_tensor_ops(order, 21, 2)
    u = rng.standard_normal((2, *ops.shape))
    un = ops.norm(u)
    phi, grad_phi, _ = project_im_grad(ops, u)
    phi_k, grad_phi_k, _ = project_im_grad(ops, u, solver=solver, **TIGHT)
    v, sol, _ = project_im_curl(ops, u)
    v_k, sol_k, _ = project_im_curl(ops, u, solver=solver, **TIGHT)
    assert ops.norm(grad_phi.data - grad_phi_k.data) <= 1e-10 * un
    assert ops.norm(sol.data - sol_k.data) <= 1e-10 * un
    assert rel(ops, phi.data, phi_k.data) <= 1e-10
    assert rel(ops, v.data, v_k.data) <= 1e-10


@pytest.mark.parametrize("solver", KRYLOV)
def test_direct_matches_krylov_3d_grad(order, solver, rng):
    n = {2: 9, 4: 9, 6: 13, 8: 17}[order]
    ops = square_tensor_ops(order, n, 3)
    u = rng.standard_normal((3, *ops.shape))
    phi, grad_phi, _ = project_im_grad(ops, u)
    phi_k, grad_phi_k, _ = project_im_grad(ops, u, solver=solver, **TIGHT)
    assert ops.norm(grad_phi.data - grad_phi_k.data) <= 1e-10 * ops.norm(u)
    assert rel(ops, phi.data, phi_k.data) <= 1e-10


def _curl_case(case):
    """3D operators of a curl-stage case: an order on a cube, or the
    anisotropic grid."""
    if case == "aniso":
        return build_tensor_ops(4, [Grid1D(-1, 1, 11), Grid1D(0, 2, 13),
                                    Grid1D(-1, 3, 15)])
    return square_tensor_ops(case, {2: 9, 4: 9, 6: 13, 8: 17}[case], 3)


CURL_CASES = [2, 4, 6, 8, "aniso"]


@pytest.mark.parametrize("solver", KRYLOV)
@pytest.mark.parametrize("case", CURL_CASES)
def test_direct_matches_krylov_3d_curl(case, solver, rng):
    ops = _curl_case(case)
    u = rng.standard_normal((3, *ops.shape))
    v, sol, stats = project_im_curl(ops, u)
    v_k, sol_k, _ = project_im_curl(ops, u, solver=solver, **TIGHT)
    assert stats.iterations == 0 and stats.stop_reason == "direct"
    assert ops.norm(sol.data - sol_k.data) <= 1e-10 * ops.norm(u)
    assert rel(ops, u - sol.data, u - sol_k.data) <= 1e-10
    assert rel(ops, v.data, v_k.data) <= 1e-10
    for order in ("grad-first", "curl-first"):
        dec = helmholtz(ops, u, order=order)
        ref = helmholtz(ops, u, order=order, solver=solver, **TIGHT)
        for name in ("phi", "v", "grad_phi", "sol_part", "remainder"):
            got, want = getattr(dec, name).data, getattr(ref, name).data
            assert rel(ops, got, want) <= 1e-10, (order, name)


@pytest.mark.parametrize("case", CURL_CASES)
def test_direct_curl_potential_is_least_norm(case, rng):
    ops = _curl_case(case)
    order = ops.axis_ops[0].interior_order
    config = ExperimentConfig(order=order, sizes=(ops.shape[0],), dim=3)
    v, _, _ = project_im_curl(ops, rng.standard_normal((3, *ops.shape)))
    v = v.data
    vn = ops.norm(v)
    for _ in range(3):
        g = ops.grad(rng.standard_normal(ops.shape))
        assert abs(ops.inner(v, g)) <= 1e-12 * vn * ops.norm(g)
    for i in range(3):
        assert abs(ops.inner(v[i], ops.oscillations[(i,)])) <= 1e-12 * vn
    # the closed-form projection onto the coimage leaves v unchanged
    assert rel(ops, _curl_coimage_part(ops, v, config), v) <= 1e-12


def test_neumann_matches_lsmr_reference():
    ops = square_tensor_ops(6, 17, 2)
    x, y = ops.meshgrid()
    u = ops.grad(x**3 - 3 * x * y * y + x * y)
    phi = harmonic_neumann_potential(ops, ops.field(u)).data

    s = np.sqrt(ops.mass)

    def normal(z):
        p = z.reshape(ops.shape) / s
        return (ops.grad_transpose(ops.mass * ops.grad(p)) / s).ravel()

    rhs = sum(ops.e_weight(i) * u[i] for i in range(2))
    system = LinearMap(rows=ops.n_total, cols=ops.n_total, forward=normal,
                       adjoint=normal)
    z, _ = lsmr(system, (rhs / s).ravel(), atol=1e-14, btol=1e-14)
    reference = ops.mean_zero(z.reshape(ops.shape) / s)
    assert rel(ops, phi, reference) <= 1e-10


# -- stats -------------------------------------------------------------------------


def test_direct_stats_match_krylov_form(ops_2d, rng):
    u = rng.standard_normal((2, *ops_2d.shape))
    _, grad_phi, stats = project_im_grad(ops_2d, u)
    _, _, ref = project_im_grad(ops_2d, u, solver="lsqr", **TIGHT)
    assert stats.iterations == 0 and stats.stop_reason == "direct"
    assert stats.final_residual_norm == pytest.approx(
        ops_2d.norm(u - grad_phi.data), rel=1e-12)
    assert stats.final_residual_norm == pytest.approx(
        ref.final_residual_norm, rel=1e-8)
    assert stats.final_normal_residual_norm <= 1e-12 * stats.final_residual_norm


def test_solver_stats_name_the_engine(rng):
    ops2 = square_tensor_ops(4, 12, 2)
    dec = helmholtz(ops2, rng.standard_normal((2, *ops2.shape)))
    assert {k: v["stop_reason"] for k, v in
            dec.diagnostics["solver_stats"].items()} == {"grad": "direct",
                                                         "curl": "direct"}
    ops3 = square_tensor_ops(2, 7, 3)
    dec = helmholtz(ops3, rng.standard_normal((3, *ops3.shape)),
                    order="curl-first")
    stats = dec.diagnostics["solver_stats"]
    assert {k: (v["stop_reason"], v["iterations"]) for k, v in stats.items()} \
        == {"grad": ("direct", 0), "curl": ("direct", 0)}
    dec = helmholtz(ops2, rng.standard_normal((2, *ops2.shape)), solver="lsqr")
    assert all(v["iterations"] > 0
               for v in dec.diagnostics["solver_stats"].values())


@pytest.mark.parametrize("dim", [2, 3])
def test_each_call_checks_its_input_once(dim, monkeypatch, rng):
    calls = []
    check = TensorOps.vector_data

    def counted(self, u):
        calls.append(1)
        return check(self, u)

    monkeypatch.setattr(TensorOps, "vector_data", counted)
    ops = square_tensor_ops(2, 7, dim)
    u = rng.standard_normal((dim, *ops.shape))
    for order in ("grad-first", "curl-first"):
        for solver in (None,) + KRYLOV:
            calls.clear()
            helmholtz(ops, ops.field(u), order=order, solver=solver)
            assert len(calls) == 1, (order, solver)
    for stage in (project_im_grad, project_im_curl):
        calls.clear()
        stage(ops, u)
        assert len(calls) == 1
    calls.clear()
    scalar_potential_integral(ops, ops.grad(ops.meshgrid()[0] ** 2))
    assert len(calls) == 1


# -- typed errors -----------------------------------------------------------------


def _stages(dim):
    grad = [(project_im_grad, s) for s in (None,) + KRYLOV]
    curl = [(project_im_curl, s) for s in (None,) + KRYLOV]
    full = [(helmholtz, s) for s in (None,) + KRYLOV]
    return grad + curl + full


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_stages_reject_non_finite(dim, bad):
    ops = square_tensor_ops(2, 7, dim)
    u = np.ones((dim, *ops.shape))
    u[(0,) * (dim + 1)] = float(bad)
    for stage, solver in _stages(dim):
        with pytest.raises(NonFiniteEncountered):
            stage(ops, u, solver=solver)
        with pytest.raises(NonFiniteEncountered):
            stage(ops, ops.field(u), solver=solver)


@pytest.mark.parametrize("dim", [2, 3])
def test_stages_reject_wrong_shape(dim):
    ops = square_tensor_ops(2, 7, dim)
    wrong = [(dim, 6) + ops.shape[1:], (dim + 1, *ops.shape), ops.shape]
    for shape in wrong:
        for stage, solver in _stages(dim):
            with pytest.raises(DimensionMismatch):
                stage(ops, np.ones(shape), solver=solver)


@pytest.mark.parametrize("dim", [2, 3])
def test_unknown_solver_name_is_typed(dim):
    ops = square_tensor_ops(2, 7, dim)
    u = np.ones((dim, *ops.shape))
    for stage in (project_im_grad, project_im_curl, helmholtz):
        with pytest.raises(UnknownSolver, match="lsqr, lsmr"):
            stage(ops, u, solver="gmres")
    assert issubclass(UnknownSolver, ValueError)


def test_helmholtz_reports_shape_mismatch_on_grid_field():
    ops = square_tensor_ops(4, 17, 2)
    field = square_tensor_ops(4, 16, 2).field(np.ones((2, 16, 16)))
    with pytest.raises(DimensionMismatch):
        helmholtz(ops, field)
    with pytest.raises(DimensionMismatch):
        helmholtz(ops, np.ones((2, 16, 17)))


@pytest.mark.parametrize("dim", [2, 3])
def test_neumann_rejects_non_finite_and_wrong_shape(dim):
    ops = square_tensor_ops(2, 7, dim)
    u = ops.grad(ops.meshgrid()[0])
    u[(1,) * (dim + 1)] = np.nan
    with pytest.raises(NonFiniteEncountered):
        harmonic_neumann_potential(ops, ops.field(u))
    with pytest.raises(DimensionMismatch):
        harmonic_neumann_potential(ops, np.zeros((dim, *ops.shape))[..., 1:])
