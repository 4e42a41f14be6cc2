"""The direct (fast-diagonalization) projection engine against the Krylov
reference, its reported stats, and its input checks."""

from dataclasses import replace

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


# the per-axis matrices of the direct engine, each built on first use
ENGINE_MATRICES = ("eigenbasis", "dual_eigenbasis")


def _built(ops, name):
    return [name in vars(op) for op in ops.axis_ops]


def test_setup_leaves_eigenbasis_unbuilt(rng):
    ops, ops3 = square_tensor_ops(6, 33, 2), square_tensor_ops(4, 9, 3)
    for name in ENGINE_MATRICES:
        assert not any(_built(ops, name)) and not any(_built(ops3, name))
    project_im_grad(ops, np.ones((2, *ops.shape)))
    assert all(_built(ops, "eigenbasis"))
    helmholtz(ops3, rng.standard_normal((3, *ops3.shape)))
    for name in ENGINE_MATRICES:
        assert all(_built(ops3, name)), name


def test_dual_eigenbasis_is_built_by_the_3d_curl_stage_only(rng):
    ops = square_tensor_ops(6, 33, 2)
    helmholtz(ops, rng.standard_normal((2, *ops.shape)))
    assert not any(_built(ops, "dual_eigenbasis"))
    ops3 = square_tensor_ops(2, 7, 3)
    project_im_grad(ops3, np.ones((3, *ops3.shape)))
    assert all(_built(ops3, "eigenbasis"))
    assert not any(_built(ops3, "dual_eigenbasis"))
    project_im_curl(ops3, np.ones((3, *ops3.shape)))
    assert all(_built(ops3, "dual_eigenbasis"))


@pytest.mark.parametrize("dim,n", [(2, 17), (3, 9)])
def test_gram_pinv_solves_gram_system(dim, n, rng):
    """``gram_pinv`` inverts L on the M-mean-zero fields, and ``mean_zero``
    equals its defining shift bit for bit, whatever the layout of f."""
    ops = square_tensor_ops(4, n, dim)
    g = rng.standard_normal(ops.shape)
    for field in (g, np.asfortranarray(g)):
        want = field - float(np.sum(ops.mass * field)) / float(np.sum(ops.mass))
        assert np.array_equal(ops.mean_zero(field), want)
    f = ops.mean_zero(g)
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


# an anisotropic grid on which each order has interior rows along every axis
STAGE_GRIDS = [Grid1D(-1, 1, 17), Grid1D(0, 2, 19), Grid1D(-1, 3, 21)]


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_eigenbasis_curl_stage_equals_the_sweep_formulation(order, rng):
    """The default 3D curl stage, which solves in the eigenbases, gives the
    potential and part of the formulation by sweeps alone: LSMR on the
    sweeps of ``curl`` and ``curl^T``, which reads no eigenbasis."""
    ops = build_tensor_ops(order, STAGE_GRIDS)
    u = rng.standard_normal((3, *ops.shape))
    v, sol, _ = project_im_curl(ops, u)
    v_ref, sol_ref, _ = project_im_curl(ops, u, solver="lsmr", **TIGHT)
    assert rel(ops, v.data, v_ref.data) <= 1e-10
    assert ops.norm(sol.data - sol_ref.data) <= 1e-10 * ops.norm(u)


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_eigenbasis_grad_stage_equals_the_sweep_formulation(order, rng):
    """The default 3D grad stage, which solves in the eigenbasis, gives the
    potential and part of the formulation by sweeps alone: LSMR on the
    sweeps of ``grad`` and ``grad^T``, which reads no eigenbasis."""
    ops = build_tensor_ops(order, STAGE_GRIDS)
    u = rng.standard_normal((3, *ops.shape))
    phi, grad_phi, _ = project_im_grad(ops, u)
    phi_ref, grad_phi_ref, _ = project_im_grad(ops, u, solver="lsmr", **TIGHT)
    assert rel(ops, phi.data, phi_ref.data) <= 1e-10
    assert ops.norm(grad_phi.data - grad_phi_ref.data) <= 1e-10 * ops.norm(u)


def test_m_adjoints_equal_the_swept_transposes(rng):
    """``grad_star`` and ``curl_star``, by the sweeps of D* = M^-1 E - D
    along each axis, equal ``M^-1 A^T M`` formed with the sweeps of the
    transposes."""
    ops = build_tensor_ops(6, [Grid1D(-1, 1, 13), Grid1D(0, 2, 14),
                               Grid1D(-1, 3, 15)])
    w = rng.standard_normal((3, *ops.shape))
    swept = ops.grad_transpose(ops.mass * w) / ops.mass
    assert rel(ops, ops.grad_star(w), swept) <= 1e-13
    swept = ops.curl_transpose(ops.mass * w) / ops.mass
    assert rel(ops, ops.curl_star(w), swept) <= 1e-13
    ops2 = square_tensor_ops(4, 12, 2)
    w2 = rng.standard_normal((2, *ops2.shape))
    swept = ops2.grad_transpose(ops2.mass * w2) / ops2.mass
    assert rel(ops2, ops2.grad_star(w2), swept) <= 1e-13


def test_no_decomposition_builds_the_transpose_form(rng):
    """No decomposition, default or Krylov, 2D or 3D, in either order,
    builds the form of D^T: every right-hand side, check and Krylov adjoint
    applies D* = M^-1 E - D.  The public transpose ``grad_transpose`` still
    builds it."""
    for ops in (square_tensor_ops(4, 11, 2), square_tensor_ops(4, 11, 3)):
        u = rng.standard_normal((ops.dim, *ops.shape))
        for order in ("grad-first", "curl-first"):
            for solver in (None,) + KRYLOV:
                helmholtz(ops, u, order=order, solver=solver)
                assert not any(_built(ops, "_dt_form")), (ops.dim, order, solver)
        ops.grad_transpose(u)
        assert all(_built(ops, "_dt_form")), ops.dim


@pytest.mark.parametrize("dim", [2, 3])
def test_krylov_stages_self_test_their_pairing(dim, monkeypatch, rng):
    """Each named-solver stage runs on A and A*, and its solve runs the
    adjoint self-test: on operators whose D* sweeps apply D instead, both
    stages raise from it.  A named-solver decomposition runs exactly one
    self-test per stage."""
    ops = square_tensor_ops(4, 9, dim)
    u = rng.standard_normal((dim, *ops.shape))
    bad = replace(ops.axis_ops[0])
    vars(bad)["_ds_form"] = bad._d_form
    corrupt = TensorOps((bad,) * dim)
    for stage in (project_im_grad, project_im_curl):
        with pytest.raises(ValueError, match="adjoint inconsistency"):
            stage(corrupt, u, solver="lsqr")
    calls, self_test = [], LinearMap.self_test

    def counted(op, *args, **kwargs):
        calls.append(1)
        return self_test(op, *args, **kwargs)

    monkeypatch.setattr(LinearMap, "self_test", counted)
    for order in ("grad-first", "curl-first"):
        for solver in KRYLOV:
            calls.clear()
            helmholtz(ops, u, order=order, solver=solver)
            assert len(calls) == 2, (order, solver)


def _swapped(op, basis):
    """A copy of op with two eigenvector columns of ``basis`` swapped."""
    bad = replace(op)
    ev, vecs = getattr(bad, basis)
    vars(bad)[basis] = (ev, vecs[:, [0, 2, 1, *range(3, len(ev))]])
    return bad


def test_2d_stage_checks_do_not_read_the_eigenbasis(rng):
    """The 2D twin of the test below: with two eigenvector columns of one
    axis's basis swapped, both 2D stages (the rot stage solves through the
    grad stage's core) report a normal residual far above roundoff."""
    ops = build_tensor_ops(4, [Grid1D(-1, 1, 11), Grid1D(0, 2, 13)])
    u = rng.standard_normal((2, *ops.shape))
    corrupt = TensorOps((ops.axis_ops[0], _swapped(ops.axis_ops[1], "eigenbasis")))
    for stage in (project_im_grad, project_im_curl):
        stats = stage(ops, u)[2]
        assert stats.final_normal_residual_norm <= (
            1e-12 * stats.final_residual_norm)
        stats = stage(corrupt, u)[2]
        ratio = stats.final_normal_residual_norm / stats.final_residual_norm
        assert ratio > 1e-6, (stage, ratio)


@pytest.mark.parametrize("n", [40, 129])
def test_2d_rot_stage_equals_the_rotated_grad_stage(order, n, rng):
    """The direct 2D rot stage gives the bits of the grad stage conjugated
    with the rotation J(a, b) = (b, -a), as ``rot = J grad``: ``v`` is the
    grad potential of ``J^T u = (-u_1, u_0)``, the part is J of its
    gradient, and the stats are equal, on a dense and a banded grid."""
    ops = build_tensor_ops(order, [Grid1D(-1, 1, n), Grid1D(0, 2, n + 3)])
    u = rng.standard_normal((2, *ops.shape))
    v, sol, stats = project_im_curl(ops, u)
    phi, grad_phi, grad_stats = project_im_grad(ops, np.stack([-u[1], u[0]]))
    g = grad_phi.data
    assert np.array_equal(v.data, phi.data)
    assert np.array_equal(sol.data, np.stack([g[1], -g[0]]))
    assert stats == grad_stats


def test_warm_default_helmholtz_takes_ten_inner_products(inner_calls, rng):
    """A warm default decomposition, 2D or 3D, in either order, takes 10
    M-inner products: the norms of r and A* r in each stage, the first
    stage's orthogonality, the final remainder against both parts, and the
    norms of u and of both parts; the remainder's norm is the second
    stage's."""
    for ops in (square_tensor_ops(4, 12, 2), square_tensor_ops(4, 9, 3)):
        u = rng.standard_normal((ops.dim, *ops.shape))
        for order in ("grad-first", "curl-first"):
            helmholtz(ops, u, order=order)
            inner_calls.clear()
            dec = helmholtz(ops, u, order=order)
            assert len(inner_calls) == 10, (ops.dim, order)
            second = {"grad-first": "curl", "curl-first": "grad"}[order]
            stats = dec.diagnostics["solver_stats"][second]
            assert (dec.diagnostics["norm_remainder"]
                    == stats["final_residual_norm"])


@pytest.mark.parametrize("basis", ["eigenbasis", "dual_eigenbasis"])
def test_stage_checks_do_not_read_the_eigenbasis(basis, rng):
    """Each 3D stage's normal residual catches a corrupt basis: with two
    eigenvector columns of one axis's basis swapped, every stage that
    solves in that basis (both for S, the curl stage for R) reports a
    normal residual far above roundoff, because its check applies D*,
    which is built from D alone."""
    ops = build_tensor_ops(4, [Grid1D(-1, 1, 11), Grid1D(0, 2, 13),
                               Grid1D(-1, 3, 15)])
    u = rng.standard_normal((3, *ops.shape))
    bad = replace(ops.axis_ops[1])
    ev, vecs = getattr(bad, basis)
    vars(bad)[basis] = (ev, vecs[:, [0, 2, 1, *range(3, len(ev))]])
    corrupt = TensorOps((ops.axis_ops[0], bad, ops.axis_ops[2]))
    affected = {"eigenbasis": (project_im_grad, project_im_curl),
                "dual_eigenbasis": (project_im_curl,)}[basis]
    for stage in (project_im_grad, project_im_curl):
        stats = stage(ops, u)[2]
        assert stats.final_normal_residual_norm <= (
            1e-12 * stats.final_residual_norm)
        stats = stage(corrupt, u)[2]
        ratio = stats.final_normal_residual_norm / stats.final_residual_norm
        assert (ratio > 1e-6) == (stage in affected), (stage, ratio)


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
