"""Discrete Helmholtz Hodge decomposition via M-orthogonal projections.

A vector field splits as ``u = grad(phi) + sol + r`` where ``sol`` is the
rotation of a scalar potential in 2D or the curl of a vector potential in 3D,
and the remainder ``r`` is in general nonzero on collocated grids.  ``r`` is
M-orthogonal to the image of the second projection only: the second stage
projects what the first left over, and its part is not M-orthogonal to the
first image, so ``r`` keeps a component in it.  Each projection is a
least-norm least-squares problem, and potentials are the minimum-M-norm
representatives (mean-zero for scalars).

Every projection has a direct default path.  The grad projection and the
2D rot projection (``rot^T M rot = L``, as ``rot = J grad`` with a rotation
J that commutes with M) reduce to the Gram operator
``L = sum_i D_i^T M D_i``, solved by fast diagonalization
(``TensorOps.gram_pinv``).  The 3D curl projection reduces on the coimage of
curl to one tensor sum of 1D pencils per component, solved the same way
(``TensorOps.curl_gram_pinv``); its solution is already the least-norm
potential.  Each stage is described once, as ``(A, A*, solve, gauge)``:
``(grad, div with D*, gram_pinv, mean_zero)``, in 2D
``(rot, -curl with D*, gram_pinv, mean_zero)`` and in 3D
``(curl, -curl with D*, curl_gram_pinv, identity)``.  The M-adjoint ``A*``
sweeps ``D* = M^-1 E - D`` along each axis, built from D alone.  Every
direct stage takes the same four steps: the right-hand side ``M A* u``, one
fast-diagonalization solve, the part ``A x`` by sweeps, and the check
``A* r`` by sweeps, which reports the normal residual
``||A^T M r||_{M^-1} = ||A* r||_M`` and reads no eigenbasis.  When a Krylov
solver is named, every stage runs LSQR/LSMR on A and A* conjugated with the
square root of the diagonal mass matrix, which turns the Euclidean
guarantees of the solvers into M-norm guarantees; the zero initial guess
fixes the gauge.

The two projections do not commute, so the order is part of the result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import UnknownProjectionOrder, UnknownSolver
from .krylov import SOLVERS, LinearMap, SolveStats, check_controls
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


@dataclass(eq=False)
class _Checked:
    """Vector data that ``TensorOps.vector_data`` has passed.  ``helmholtz``
    hands each stage its running remainder in this form, so a decomposition
    checks its input once and still runs its stages through the public
    functions; the stage hands back its residual ``u - part`` in
    ``residual``."""

    data: np.ndarray
    residual: np.ndarray | None = None


def _project(ops, u, stage, solver, atol, btol, max_iter):
    """The projection of u onto the image of A for the ``stage``
    ``(A, A*, solve, gauge)``: ``(x, A x, stats)``, x and ``A x`` as fields.

    Directly, ``x = gauge(solve(M A* u))``.  A named solver runs on
    ``s A s^-1``, ``s = sqrt(M)``, whose Euclidean adjoint is
    ``s A* s^-1`` (as ``A^T = M A* M^-1``), so that its Euclidean
    least-norm guarantee becomes the M-norm one; x is ``gauge`` of its
    solution.  A ``_Checked`` u gets the residual ``r = u - A x`` back.
    The stats of a direct stage hold ``||r||_M`` and the normal residual
    ``||A^T M r||_{M^-1} = ||A* r||_M``.
    """
    apply, star, solve, gauge = stage
    if not isinstance(u, _Checked):
        check_controls(atol, btol, max_iter)
        u = _Checked(ops.vector_data(u))
    data = u.data
    if solver is None:
        b = star(data)
        b *= ops.mass
        x = gauge(solve(b))
        del b  # a lower peak for the part and residual: fewer fresh heap pages
    else:
        s = np.sqrt(ops.mass)  # broadcasts over a leading component axis
        # the potential is a vector field for the 3D curl only
        shape = data.shape if apply == ops.curl else ops.shape
        system = LinearMap(
            rows=data.size, cols=int(np.prod(shape)),
            forward=lambda y: (apply(y.reshape(shape) / s) * s).ravel(),
            adjoint=lambda c: (star(c.reshape(data.shape) / s) * s).ravel())
        y, stats = _solver(solver)(system, (data * s).ravel(), atol=atol,
                                   btol=btol, max_iter=max_iter)
        x = gauge(y.reshape(shape) / s)
    part = apply(x)
    u.residual = r = data - part
    if solver is None:
        stats = SolveStats(0, ops.norm(r), ops.norm(star(r)), "direct")
    return ops.field(x), ops.field(part), stats


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
    The stage is ``(grad, div with D*, gram_pinv, mean_zero)``.  With
    ``solver=None`` the normal equations ``L phi = grad^T M u`` are solved
    directly by the fast diagonalization of ``TensorOps.gram_pinv``, the
    right-hand side formed as ``M grad* u`` and ``grad phi`` swept after.
    ``"lsqr"``/``"lsmr"`` run the Krylov reference on grad and grad*
    instead, and the residual ``u - grad_phi`` is then M-orthogonal to every
    gradient at the solver tolerance.  Any other name raises UnknownSolver.
    """
    stage = (ops.grad, lambda w: ops._div(w, "_ds_form"),
             ops.gram_pinv, ops.mean_zero)
    return _project(ops, u, stage, solver, atol, btol, max_iter)


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

    The stage is ``(rot, -curl with D*, gram_pinv, mean_zero)`` in 2D and
    ``(curl, -curl with D*, curl_gram_pinv, identity)`` in 3D.  With
    ``solver=None`` it is direct, the right-hand side formed as ``M A* u``
    and ``A v`` swept after.  In 2D ``rot^T M rot`` is the grad stage's L,
    so ``v`` is ``TensorOps.gram_pinv``'s M-mean-zero solution; in 3D
    ``TensorOps.curl_gram_pinv`` returns the coimage solution.
    ``"lsqr"``/``"lsmr"`` run the Krylov reference on A and A*.
    """
    planar = ops.dim == 2
    stage = (ops.rot if planar else ops.curl,
             lambda w: ops._curl(w, "_ds_form", -1),
             ops.gram_pinv if planar else ops.curl_gram_pinv,
             ops.mean_zero if planar else lambda v: v)
    return _project(ops, u, stage, solver, atol, btol, max_iter)


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
    The remainder is M-orthogonal to the second image, at the solver
    tolerance, but not to the first: the second stage's part is not
    M-orthogonal to the first image, so the remainder keeps a component
    there.  The diagnostics report both inner products rather than enforce
    either.
    ``solver=None`` solves every stage directly, and
    ``diagnostics["solver_stats"]`` records, per stage, whether it ran
    directly (``stop_reason == "direct"``) or how its Krylov solve ended.
    ``atol``, ``btol`` and ``max_iter`` govern a named Krylov solver only:
    the default decomposition, 2D or 3D, is exact to roundoff whatever
    tolerance is passed; a bad one raises InvalidConfig whatever the
    solver.  The input and these controls are checked once, here.
    """
    order = ProjectionOrder.parse(order)
    check_controls(atol, btol, max_iter)
    u_arr = ops.vector_data(u)
    kwargs = dict(solver=solver, atol=atol, btol=btol, max_iter=max_iter)
    project = {"grad": project_im_grad, "curl": project_im_curl}
    stages = (("grad", "curl") if order is ProjectionOrder.GRAD_FIRST
              else ("curl", "grad"))
    # each stage projects what the stages before it left over and hands
    # back that remainder, the bits of ``remainder - part``
    remainder, results = u_arr, {}
    for name in stages:
        checked = _Checked(remainder)
        results[name] = project[name](ops, checked, **kwargs)
        part, remainder = results[name][1].data, checked.residual
        if name == stages[0]:
            first_orthogonality = ops.inner(remainder, part)
    (phi, grad_phi, _), (v, sol, _) = results["grad"], results["curl"]
    # the second stage's orthogonality is the final remainder against its part
    remainder_inner = {name: ops.inner(remainder, results[name][1].data)
                       for name in stages}

    diagnostics = {
        "norm_u": ops.norm(u_arr),
        "norm_grad_phi": ops.norm(grad_phi.data),
        "norm_sol_part": ops.norm(sol.data),
        # a direct second stage measured the final remainder already
        "norm_remainder": (ops.norm(remainder) if solver is not None
                           else results[stages[1]][2].final_residual_norm),
        "first_stage_orthogonality": first_orthogonality,
        "second_stage_orthogonality": remainder_inner[stages[1]],
        "remainder_inner_grad_phi": remainder_inner["grad"],
        "remainder_inner_sol_part": remainder_inner["curl"],
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

