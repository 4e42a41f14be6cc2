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

from .errors import (ConditionsViolated, DimensionMismatch,
                     NonFiniteEncountered, NotDivCurlFree, TooLarge)
from .operators1d import _nonnegative, _real_data
from .tensor import GridField, TensorOps, _outer

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
) -> KernelReport:
    """Numerical kernel dimension by dense SVD.

    Rank threshold: sigma_max * max(rows, cols) * eps * 10.  Theorem checks
    compare against exact integer expectations, so a misclassified singular
    value fails loudly rather than silently shifting a count.  The matrix
    must be real (else KindMismatch), two dimensional (else
    DimensionMismatch) and finite (else NonFiniteEncountered).
    """
    matrix = _real_data(matrix)
    if matrix.ndim != 2:
        raise DimensionMismatch(f"rank of an array of shape {matrix.shape}")
    m, n = matrix.shape
    if n > 4000:
        raise TooLarge(f"dense rank oracle limited to 4000 columns, got {n}")
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteEncountered("rank of a matrix with NaN or Inf")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    tol = float(sigma[0]) * max(m, n) * _EPS * 10.0 if sigma.size else 0.0
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
    M-overlap of each component with its axis oscillation, relative to the
    M-norm of the whole field, so a component made only of roundoff reads
    a roundoff overlap.
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
    u = ops.vector_data(u)
    return _conditions(ops, u, ops.norm(u))


def _conditions(ops: TensorOps, u: np.ndarray, unorm: float) -> PotentialConditions:
    """``check_potential_conditions`` of checked vector data of M-norm
    ``unorm``, its curl swept by ``TensorOps._curl``, so u is not checked
    again.  Component i's overlap is its entry ``_mode((i,))`` of
    ``_mode_overlaps``, so no oscillation field is built."""
    curl_norm = ops.norm(ops._curl(u, "_d_form"))
    rel_curl = curl_norm / (_derivative_scale(ops) * unorm) if unorm > 0 else 0.0
    modes = ops._mode_overlaps(u)
    overlaps = tuple(abs(float(modes[i, ops._mode((i,))])) / unorm
                     if unorm > 0 else 0.0 for i in range(ops.dim))
    return PotentialConditions(rel_curl, overlaps)


# -- integral construction -------------------------------------------------------


def scalar_potential_integral(ops: TensorOps, u, tol: float = 1e-8) -> GridField:
    """Scalar potential of a discretely curl-free, oscillation-free field.

    Mimics the corner-anchored line integral: invert the first axis
    derivative along the edge where all later coordinates sit at their left
    boundary, then sweep the remaining axes.  The potential vanishes at the
    lower-left domain corner.  Every oscillation overlap, of a component
    and of each line integrated, is measured against the M-norm of the
    whole field.  Line family i, component i on the nodes where the later
    axes sit at their left boundary (the edge, the 2D ``u_1``, the 3D plane
    and volume), is integrated along its own last axis, with no axis moved
    (``SbpOperator1D._invert_last_axis``).  A ``tol`` that is NaN,
    negative or not a real number raises InvalidConfig.
    """
    _nonnegative(tol=tol)
    u = ops.vector_data(u)
    floor = ops.norm(u)
    cond = _conditions(ops, u, floor)
    failed = []
    if cond.curl_residual > tol:
        failed.append(f"curl residual {cond.curl_residual:.3e}")
    for i, c in enumerate(cond.oscillation_components):
        if c > tol:
            failed.append(f"oscillation overlap in axis {i + 1}: {c:.3e}")
    if failed:
        raise ConditionsViolated(failed)

    terms = []
    for i, op in enumerate(ops.axis_ops):
        k = ops.dim - 1 - i  # the later axes, held at their left boundary
        line = op._invert_last_axis(u[i][(slice(None),) * (i + 1) + (0,) * k],
                                    tol, floor)
        terms.append(line[(...,) + (None,) * k])
    return ops.field(sum(terms[1:], terms[0]))


# -- discrete Neumann problem ----------------------------------------------------


def harmonic_neumann_potential(ops: TensorOps, u, tol: float = 1e-8) -> GridField:
    """Mean-zero potential of a divergence- and curl-free field.

    Solves the singular symmetric positive-semidefinite normal system
    ``sum_i D_i^T M D_i phi = sum_i E_i u_i`` directly with
    ``TensorOps.gram_pinv``; the kernel of the system is the constants,
    removed by an exact mean shift.  ``E_i u_i`` is summed on the faces
    normal to axis i: the other axes' mass weights, negated on the first.
    u is checked once: its div and curl are swept by ``TensorOps._div``
    and ``TensorOps._curl`` on the checked data.  A ``tol`` that is NaN,
    negative or not a real number raises InvalidConfig.
    """
    _nonnegative(tol=tol)
    u = ops.vector_data(u)
    unorm = ops.norm(u)
    scale = _derivative_scale(ops) * unorm
    if unorm > 0:
        div_norm = ops.norm(ops._div(u, "_d_form"))
        curl_norm = ops.norm(ops._curl(u, "_d_form"))
        if div_norm > tol * scale or curl_norm > tol * scale:
            raise NotDivCurlFree(
                f"relative residuals div {div_norm / scale:.3e}, "
                f"curl {curl_norm / scale:.3e} exceed {tol:.1e}"
            )
    rhs, weights = np.zeros(ops.shape), [op.mass_weights for op in ops.axis_ops]
    for i in range(ops.dim):
        face = _outer(weights[:i] + weights[i + 1 :])
        for end, sign in ((0, -1.0), (-1, 1.0)):
            at = (slice(None),) * i + (end,)
            rhs[at] += sign * face * u[i][at]
    return ops.field(ops.mean_zero(ops.gram_pinv(rhs)))
