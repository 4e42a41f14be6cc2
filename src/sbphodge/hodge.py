"""Discrete Helmholtz Hodge decomposition via M-orthogonal projections.

A vector field splits as ``u = grad(phi) + sol + r`` where ``sol`` is the
rotation of a scalar potential in 2D or the curl of a vector potential in 3D,
and the remainder ``r`` is M-orthogonal to both images but in general nonzero
on collocated grids.  Each projection is a least-norm least-squares problem,
and potentials are the minimum-M-norm representatives (mean-zero for
scalars).

Every projection has a direct default path.  The grad projection, and in 2D
the rot projection through ``rot = J grad``, reduce to the Gram operator
``L = sum_i D_i^T M D_i``, solved by fast diagonalization
(``TensorOps.gram_pinv``).  The 3D curl projection reduces on the coimage of
curl to one tensor sum of 1D pencils per component, solved the same way
(``TensorOps.curl_gram_pinv``); its solution is already the least-norm
potential.  When a Krylov solver is named, every stage runs LSQR/LSMR on
the operator conjugated with the square root of the diagonal mass matrix,
which turns the Euclidean guarantees of the solvers into M-norm guarantees;
the zero initial guess fixes the gauge.

The two projections do not commute, so the order is part of the result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import UnknownProjectionOrder, UnknownSolver
from .krylov import SOLVERS, LinearMap, SolveStats
from .tensor import GridField, TensorOps


class ProjectionOrder(enum.Enum):
    GRAD_FIRST = "grad-first"
    CURL_FIRST = "curl-first"

    @classmethod
    def parse(cls, value) -> "ProjectionOrder":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower().replace("_", "-"))
        except ValueError:
            raise UnknownProjectionOrder(
                f"unknown projection order {value!r}; expected grad-first or "
                "curl-first") from None


@dataclass(frozen=True, eq=False)
class HodgeDecomposition:
    """Result bundle: potentials, components, remainder, and diagnostics.

    ``u = grad_phi + sol_part + remainder`` holds exactly because the
    remainder is computed by subtraction.
    """

    phi: GridField
    v: GridField
    grad_phi: GridField
    sol_part: GridField
    remainder: GridField
    projection_order: ProjectionOrder
    diagnostics: dict

    def diagnostics_json(self) -> dict:
        out = dict(self.diagnostics)
        out["projection_order"] = self.projection_order.value
        return out


def _solver(name):
    try:
        return SOLVERS[str(name).lower()]
    except KeyError:
        raise UnknownSolver(
            f"unknown solver {name!r}; expected one of {', '.join(SOLVERS)}"
        ) from None


def _krylov(ops, apply, apply_t, x_shape, u, solver, atol, btol, max_iter):
    """Least-M-norm least-squares solution ``x`` of ``apply(x) = u``.

    Runs the named Krylov solver on the operator conjugated with
    ``s = sqrt(M)`` on both sides, so that its Euclidean least-norm
    guarantee becomes the M-norm one; returns ``(x, stats)``.
    """
    s = np.sqrt(ops.mass)  # broadcasts over a leading component axis

    def forward(y):
        return (apply(y.reshape(x_shape) / s) * s).ravel()

    def adjoint(c):
        return (apply_t(c.reshape(u.shape) * s) / s).ravel()

    system = LinearMap(rows=u.size, cols=int(np.prod(x_shape)),
                       forward=forward, adjoint=adjoint)
    y, stats = _solver(solver)(
        system, (u * s).ravel(), atol=atol, btol=btol, max_iter=max_iter,
        self_test=False,
    )
    return y.reshape(x_shape) / s, stats


@dataclass(frozen=True, eq=False)
class _Checked:
    """Vector data that ``TensorOps.vector_data`` has passed.  ``helmholtz``
    hands each stage its running remainder in this form, so a decomposition
    checks its input once and still runs its stages through the public
    functions."""

    data: np.ndarray


def _vector_data(ops, u) -> np.ndarray:
    return u.data if isinstance(u, _Checked) else ops.vector_data(u)


def _direct_stats(ops, r, transpose) -> SolveStats:
    """Stats of a direct stage with residual r, in a Krylov solve's terms:
    ``||r||_M`` and the normal residual ``||A^T M r||_{M^-1}``."""
    normal = transpose(ops.mass * r) / ops.mass
    return SolveStats(iterations=0, final_residual_norm=ops.norm(r),
                      final_normal_residual_norm=ops.norm(normal),
                      stop_reason="direct")


def project_im_grad(
    ops: TensorOps,
    u,
    solver=None,
    atol: float = 1e-12,
    btol: float = 1e-12,
    max_iter: int | None = None,
):
    """M-orthogonal projection onto the image of the gradient.

    Returns ``(phi, grad_phi, stats)`` with ``phi`` shifted to M-mean zero.
    With ``solver=None`` the normal equations ``L phi = grad^T M u`` are
    solved directly by ``TensorOps.gram_pinv``; ``"lsqr"``/``"lsmr"`` run
    the Krylov reference instead, and the residual ``u - grad_phi`` is then
    M-orthogonal to every gradient at the solver tolerance.  Any other name
    raises UnknownSolver.
    """
    u = _vector_data(ops, u)
    if solver is None:
        phi = ops.mean_zero(ops.gram_pinv(ops.grad_transpose(ops.mass * u)))
        grad_phi = ops.grad(phi)
        stats = _direct_stats(ops, u - grad_phi, ops.grad_transpose)
        return ops.field(phi), ops.field(grad_phi), stats

    phi, stats = _krylov(ops, ops.grad, ops.grad_transpose, ops.shape, u,
                         solver, atol, btol, max_iter)
    phi = ops.mean_zero(phi)
    return ops.field(phi), ops.field(ops.grad(phi)), stats


def project_im_curl(
    ops: TensorOps,
    u,
    solver=None,
    atol: float = 1e-12,
    btol: float = 1e-12,
    max_iter: int | None = None,
):
    """M-orthogonal projection onto the image of rot (2D) or curl (3D).

    Returns ``(v, sol_part, stats)`` where ``v`` is the least-norm potential;
    no divergence-free gauge is imposed (none exists discretely in general).
    Being least-norm, ``v`` lies in ``(ker curl)^perp_M``: for ``u = curl w``
    it is the M-orthogonal projection of ``w`` onto the coimage of curl.

    In 2D, ``rot = J grad`` with the rotation ``J(a, b) = (b, -a)``, which
    commutes with M, so the projection is ``J P_grad J^T`` and ``v`` is the
    grad potential of ``J^T u``, solved as ``project_im_grad`` solves it.
    In 3D, with ``solver=None``, ``v`` solves ``curl^T M curl v = curl^T M u``
    directly by ``TensorOps.curl_gram_pinv``, which returns the coimage
    solution; ``"lsqr"``/``"lsmr"`` run the Krylov reference instead.
    """
    u = _vector_data(ops, u)
    if ops.dim == 2:
        v, grad_v, stats = project_im_grad(
            ops, _Checked(np.stack([-u[1], u[0]])), solver, atol=atol,
            btol=btol, max_iter=max_iter)
        g = grad_v.data
        return v, ops.field(np.stack([g[1], -g[0]])), stats  # J grad v = rot v

    if solver is None:
        v = ops.curl_gram_pinv(ops.curl_transpose(ops.mass * u))
        sol = ops.curl(v)
        return (ops.field(v), ops.field(sol),
                _direct_stats(ops, u - sol, ops.curl_transpose))

    v, stats = _krylov(ops, ops.curl, ops.curl_transpose, u.shape, u,
                       solver, atol, btol, max_iter)
    return ops.field(v), ops.field(ops.curl(v)), stats


def helmholtz(
    ops: TensorOps,
    u,
    order=ProjectionOrder.GRAD_FIRST,
    solver=None,
    atol: float = 1e-12,
    btol: float = 1e-12,
    max_iter: int | None = None,
) -> HodgeDecomposition:
    """Two-stage Helmholtz Hodge decomposition in the requested order.

    The second projection acts on the running remainder of the first; the
    final remainder is obtained by subtraction, so additivity is exact.
    Orthogonality of the remainder to both images holds at the solver
    tolerance and is reported in the diagnostics rather than enforced.
    ``solver=None`` solves every stage directly, and
    ``diagnostics["solver_stats"]`` records, per stage, whether it ran
    directly (``stop_reason == "direct"``) or how its Krylov solve ended.
    ``atol``, ``btol`` and ``max_iter`` govern a named Krylov solver only:
    the default decomposition, 2D or 3D, is exact to roundoff whatever
    tolerance is passed.  The input is checked once, here.
    """
    order = ProjectionOrder.parse(order)
    u_arr = ops.vector_data(u)
    kwargs = dict(solver=solver, atol=atol, btol=btol, max_iter=max_iter)
    project = {"grad": project_im_grad, "curl": project_im_curl}
    stages = (("grad", "curl") if order is ProjectionOrder.GRAD_FIRST
              else ("curl", "grad"))
    # each stage projects what the stages before it left over
    remainder, results, orthogonality = u_arr, {}, []
    for name in stages:
        results[name] = project[name](ops, _Checked(remainder), **kwargs)
        part = results[name][1].data
        remainder = remainder - part
        orthogonality.append(ops.inner(remainder, part))
    (phi, grad_phi, _), (v, sol, _) = results["grad"], results["curl"]

    diagnostics = {
        "norm_u": ops.norm(u_arr),
        "norm_grad_phi": ops.norm(grad_phi.data),
        "norm_sol_part": ops.norm(sol.data),
        "norm_remainder": ops.norm(remainder),
        "first_stage_orthogonality": orthogonality[0],
        "second_stage_orthogonality": orthogonality[1],
        "remainder_inner_grad_phi": ops.inner(remainder, grad_phi.data),
        "remainder_inner_sol_part": ops.inner(remainder, sol.data),
        "solver_stats": {
            name: result[2].as_dict() for name, result in results.items()
        },
    }
    return HodgeDecomposition(
        phi=phi,
        v=v,
        grad_phi=grad_phi,
        sol_part=sol,
        remainder=ops.field(remainder),
        projection_order=order,
        diagnostics=diagnostics,
    )

