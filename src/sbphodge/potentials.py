"""Kernel characterizations, integral scalar potentials, and the discrete
Neumann problem.

The kernel-dimension oracle materializes the tensor-product operators as dense
matrices and counts singular values, which is tractable only on verification
grids.  The integral construction mimics the line-integral formula for scalar
potentials: invert one axis derivative on fields vanishing at the left
boundary, axis by axis, pinning the potential at the domain corner.  Fields
that are both divergence and curl free are gradients of discretely harmonic
functions, recovered here from the singular normal system assembled from the
derivative, mass, and boundary operators; that system is the Gram operator of
the Hodge projections and is solved directly by fast diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionsViolated, NotDivCurlFree, TooLarge
from .tensor import GridField, TensorOps

_EPS = np.finfo(np.float64).eps


# -- dense oracle --------------------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    operator_name: str
    matrix_shape: tuple
    numerical_rank: int
    kernel_dim: int
    expected_dim: int | None
    tolerance_used: float

    @property
    def matches(self) -> bool:
        return self.expected_dim is None or self.kernel_dim == self.expected_dim

    def as_dict(self) -> dict:
        return {
            "operator": self.operator_name,
            "shape": list(self.matrix_shape),
            "numerical_rank": self.numerical_rank,
            "kernel_dim": self.kernel_dim,
            "expected_dim": self.expected_dim,
            "tolerance": self.tolerance_used,
            "matches": self.matches,
        }


def kernel_dimension(
    matrix: np.ndarray,
    expected_dim: int | None = None,
    name: str = "",
    tol_factor: float = 10.0,
) -> KernelReport:
    """Numerical kernel dimension by dense SVD.

    Rank threshold: sigma_max * max(rows, cols) * eps * tol_factor.  Theorem
    checks compare against exact integer expectations, so a misclassified
    singular value fails loudly rather than silently shifting a count.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    m, n = matrix.shape
    if n > 4000:
        raise TooLarge(f"dense rank oracle limited to 4000 columns, got {n}")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    tol = float(sigma[0]) * max(m, n) * _EPS * tol_factor if sigma.size else 0.0
    rank = int(np.sum(sigma > tol))
    return KernelReport(
        operator_name=name,
        matrix_shape=(m, n),
        numerical_rank=rank,
        kernel_dim=n - rank,
        expected_dim=expected_dim,
        tolerance_used=tol,
    )


def dense_axis_derivative(ops: TensorOps, i: int) -> np.ndarray:
    """D_i as a dense matrix via Kronecker products (verification scale)."""
    out = None
    for j, op in enumerate(ops.axis_ops):
        block = op.dense() if j == i else np.eye(op.n_nodes)
        out = block if out is None else np.kron(out, block)
    return out


def dense_gradient(ops: TensorOps) -> np.ndarray:
    return np.vstack([dense_axis_derivative(ops, i) for i in range(ops.dim)])


def dense_divergence(ops: TensorOps) -> np.ndarray:
    return np.hstack([dense_axis_derivative(ops, i) for i in range(ops.dim)])


def dense_curl(ops: TensorOps) -> np.ndarray:
    d = [dense_axis_derivative(ops, i) for i in range(ops.dim)]
    if ops.dim == 2:
        return np.hstack([-d[1], d[0]])
    z = np.zeros_like(d[0])
    return np.block(
        [
            [z, -d[2], d[1]],
            [d[2], z, -d[0]],
            [-d[1], d[0], z],
        ]
    )


def dense_rot(ops: TensorOps) -> np.ndarray:
    d = [dense_axis_derivative(ops, i) for i in range(2)]
    return np.vstack([d[1], -d[0]])


# -- potential existence conditions --------------------------------------------


@dataclass(frozen=True)
class PotentialConditions:
    """Residuals of the compatibility conditions for an integral potential.

    ``curl_residual`` is the M-norm of the discrete curl relative to the
    derivative scale of the field; ``oscillation_components`` hold the
    relative M-overlap of each component with its axis oscillation.
    """

    curl_residual: float
    oscillation_components: tuple

    def within(self, tol: float) -> bool:
        return self.curl_residual <= tol and all(
            c <= tol for c in self.oscillation_components
        )


def _derivative_scale(ops: TensorOps) -> float:
    return max(1.0 / op.grid.dx for op in ops.axis_ops)


def check_potential_conditions(ops: TensorOps, u) -> PotentialConditions:
    return _conditions(ops, ops.vector_data(u))


def _conditions(ops: TensorOps, u: np.ndarray) -> PotentialConditions:
    """``check_potential_conditions`` of checked vector data."""
    unorm = ops.norm(u)
    curl_norm = ops.norm(ops.curl(u))
    rel_curl = curl_norm / (_derivative_scale(ops) * unorm) if unorm > 0 else 0.0
    norms = [ops.norm(c) for c in u]
    overlaps = tuple(abs(ops.inner(u[i], ops.oscillations[(i,)])) / norms[i]
                     if norms[i] > 0 else 0.0 for i in range(ops.dim))
    return PotentialConditions(rel_curl, overlaps)


# -- integral construction -------------------------------------------------------


def _invert_along(op, axis: int, comp: np.ndarray, tol: float) -> np.ndarray:
    """Batched discrete integral of one component along one axis."""
    moved = np.moveaxis(comp, axis, 0)
    flat = moved.reshape(op.n_nodes, -1)
    line_norms = np.sqrt(op.mass_weights @ flat**2)
    out = op.invert_on_v0(flat, tol=tol, norm_floor=float(line_norms.max()))
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def scalar_potential_integral(ops: TensorOps, u, tol: float = 1e-8) -> GridField:
    """Scalar potential of a discretely curl-free, oscillation-free field.

    Mimics the corner-anchored line integral: invert the first axis
    derivative along the edge where all later coordinates sit at their left
    boundary, then sweep the remaining axes.  The potential vanishes at the
    lower-left domain corner.
    """
    u = ops.vector_data(u)
    cond = _conditions(ops, u)
    failed = []
    if cond.curl_residual > tol:
        failed.append(f"curl residual {cond.curl_residual:.3e}")
    for i, c in enumerate(cond.oscillation_components):
        if c > tol:
            failed.append(f"oscillation overlap in axis {i + 1}: {c:.3e}")
    if failed:
        raise ConditionsViolated(failed)

    op_x, op_y = ops.axis_ops[0], ops.axis_ops[1]
    floor = ops.norm(u[0])
    if ops.dim == 2:
        edge = op_x.invert_on_v0(u[0][:, 0], tol=tol, norm_floor=floor)
        phi = edge[:, None] + _invert_along(op_y, 1, u[1], tol)
    else:
        edge = op_x.invert_on_v0(u[0][:, 0, 0], tol=tol, norm_floor=floor)
        plane = _invert_along(op_y, 1, u[1][:, :, 0], tol)
        t3 = _invert_along(ops.axis_ops[2], 2, u[2], tol)
        phi = edge[:, None, None] + plane[:, :, None] + t3
    return ops.field(phi)


# -- discrete Neumann problem ----------------------------------------------------


def harmonic_neumann_potential(ops: TensorOps, u, tol: float = 1e-8) -> GridField:
    """Mean-zero potential of a divergence- and curl-free field.

    Solves the singular symmetric positive-semidefinite normal system
    ``sum_i D_i^T M D_i phi = sum_i E_i u_i`` directly with
    ``TensorOps.gram_pinv``; the kernel of the system is the constants,
    removed by an exact mean shift.
    """
    u = ops.vector_data(u)
    unorm = ops.norm(u)
    scale = _derivative_scale(ops) * unorm
    if unorm > 0:
        div_norm = ops.norm(ops.div(u))
        curl_norm = ops.norm(ops.curl(u))
        if div_norm > tol * scale or curl_norm > tol * scale:
            raise NotDivCurlFree(
                f"relative residuals div {div_norm / scale:.3e}, "
                f"curl {curl_norm / scale:.3e} exceed {tol:.1e}"
            )
    rhs = sum(ops.e_weight(i) * u[i] for i in range(ops.dim))
    return ops.field(ops.mean_zero(ops.gram_pinv(rhs)))
