"""Tensor-product vector calculus operators in 2D and 3D.

The 1D operators act along one axis of a field stored in row-major order with
the first coordinate outermost, matching the Kronecker convention
``D_1 = D_x (x) I_y (x) ...``.  An application of ``D_i`` is therefore a
strided sweep of the 1D stencil along axis i; no tensor-product matrix is ever
materialized.  The mass matrix is the tensor product of the 1D diagonal
weights; vector fields use one copy of it per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatch,
    KindMismatch,
    NonFiniteEncountered,
    WrongDimension,
)
from .grid import Grid1D
from .operators1d import build_operator_1d


@dataclass(frozen=True, eq=False)
class GridField:
    """Scalar or vector grid function together with its domain bounds.

    Scalar data has shape ``(N_1, ..., N_d)``; vector data carries a leading
    component axis of length d.
    """

    data: np.ndarray
    bounds: tuple

    def __post_init__(self):
        d = len(self.bounds)
        if self.data.ndim == d:
            return
        if self.data.ndim == d + 1 and self.data.shape[0] == d:
            return
        raise KindMismatch(
            f"data shape {self.data.shape} fits neither a scalar nor a "
            f"{d}-component vector field"
        )

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def kind(self) -> str:
        return "scalar" if self.data.ndim == self.dim else "vector"

    @property
    def shape(self) -> tuple:
        return self.data.shape[-self.dim :]

    def require(self, kind: str) -> np.ndarray:
        if self.kind != kind:
            raise KindMismatch(f"expected a {kind} field, got {self.kind}")
        return self.data


@dataclass(frozen=True, eq=False)
class TensorOps:
    """Bundle of per-axis SBP operators with tensor-product metadata.

    Immutable and shareable; all field operations are pure.
    """

    axis_ops: tuple
    mass: np.ndarray            # full tensor-product diagonal of M
    oscillations: dict          # index tuple -> unit-M-norm oscillation field

    @property
    def dim(self) -> int:
        return len(self.axis_ops)

    @property
    def shape(self) -> tuple:
        return tuple(op.n_nodes for op in self.axis_ops)

    @property
    def bounds(self) -> tuple:
        return tuple((op.grid.x_min, op.grid.x_max) for op in self.axis_ops)

    @property
    def n_total(self) -> int:
        return int(np.prod(self.shape))

    def coords(self) -> list:
        return [op.grid.nodes() for op in self.axis_ops]

    def meshgrid(self) -> list:
        return np.meshgrid(*self.coords(), indexing="ij")

    def field(self, data: np.ndarray) -> GridField:
        return GridField(np.asarray(data, dtype=np.float64), self.bounds)

    # -- axis applications -------------------------------------------------

    def _check(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.shape:
            raise DimensionMismatch(f"field shape {u.shape} != grid {self.shape}")
        return u

    def apply_axis(self, i: int, u: np.ndarray) -> np.ndarray:
        """D_i u for a scalar array (0-based axis index)."""
        u = self._check(u)
        moved = np.moveaxis(u, i, 0)
        return np.moveaxis(self.axis_ops[i].apply_d(moved), 0, i)

    def apply_axis_transpose(self, i: int, u: np.ndarray) -> np.ndarray:
        u = self._check(u)
        moved = np.moveaxis(u, i, 0)
        return np.moveaxis(self.axis_ops[i].apply_d_transpose(moved), 0, i)

    def apply_axis_star(self, i: int, u: np.ndarray) -> np.ndarray:
        u = self._check(u)
        moved = np.moveaxis(u, i, 0)
        return np.moveaxis(self.axis_ops[i].apply_d_star(moved), 0, i)

    def vector_data(self, u) -> np.ndarray:
        """The array of a vector field (GridField or raw array), checked.

        Raises KindMismatch for a scalar GridField, DimensionMismatch unless
        the shape is ``(dim, *shape)``, and NonFiniteEncountered on NaN/Inf.
        """
        u = u.require("vector") if isinstance(u, GridField) else u
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.dim, *self.shape):
            raise DimensionMismatch(
                f"vector field shape {u.shape} != {(self.dim, *self.shape)}"
            )
        if not np.all(np.isfinite(u)):
            raise NonFiniteEncountered("vector field contains NaN or Inf")
        return u

    # -- vector calculus on raw arrays --------------------------------------

    def grad(self, f: np.ndarray) -> np.ndarray:
        return np.stack([self.apply_axis(i, f) for i in range(self.dim)])

    def div(self, u: np.ndarray) -> np.ndarray:
        out = self.apply_axis(0, u[0])
        for i in range(1, self.dim):
            out = out + self.apply_axis(i, u[i])
        return out

    def curl(self, u: np.ndarray) -> np.ndarray:
        if self.dim == 2:
            return self.apply_axis(0, u[1]) - self.apply_axis(1, u[0])
        return np.stack(
            [
                self.apply_axis(1, u[2]) - self.apply_axis(2, u[1]),
                self.apply_axis(2, u[0]) - self.apply_axis(0, u[2]),
                self.apply_axis(0, u[1]) - self.apply_axis(1, u[0]),
            ]
        )

    def rot(self, v: np.ndarray) -> np.ndarray:
        if self.dim != 2:
            raise WrongDimension("rot maps scalars to vectors in 2D only")
        return np.stack([self.apply_axis(1, v), -self.apply_axis(0, v)])

    def curl_transpose(self, w: np.ndarray) -> np.ndarray:
        """curl^T applied to a scalar (2D) or 3-vector (3D) array."""
        if self.dim == 2:
            return np.stack(
                [-self.apply_axis_transpose(1, w), self.apply_axis_transpose(0, w)]
            )
        return np.stack(
            [
                self.apply_axis_transpose(2, w[1])
                - self.apply_axis_transpose(1, w[2]),
                self.apply_axis_transpose(0, w[2])
                - self.apply_axis_transpose(2, w[0]),
                self.apply_axis_transpose(1, w[0])
                - self.apply_axis_transpose(0, w[1]),
            ]
        )

    def grad_transpose(self, w: np.ndarray) -> np.ndarray:
        out = self.apply_axis_transpose(0, w[0])
        for i in range(1, self.dim):
            out = out + self.apply_axis_transpose(i, w[i])
        return out

    # -- inner products ------------------------------------------------------

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
        if a.shape[-self.dim :] != self.shape:
            raise DimensionMismatch(f"field shape {a.shape} != grid {self.shape}")
        return float(np.vdot(self.mass * a, b))  # mass broadcasts over components

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(self.inner(a, a)))

    def mean_zero(self, f: np.ndarray) -> np.ndarray:
        """Shift a scalar array so that <f, 1>_M = 0."""
        vol = float(np.sum(self.mass))
        return f - float(np.sum(self.mass * f)) / vol

    # -- the Gram operator L = sum_i D_i^T M D_i ----------------------------

    def gram_pinv(self, b: np.ndarray) -> np.ndarray:
        """The M-mean-zero solution phi of ``L phi = b``, for b orthogonal
        to the constants.

        L is the tensor sum of the 1D pencils (D^T M D, M), so it is
        diagonalized by the per-axis eigenbases (fast diagonalization):
        ``S^T`` along every axis, division by the summed eigenvalues, ``S``
        along every axis.  The single zero mode, the constants, is set to 0.
        """
        b = self._check(b)
        pairs = [op.eigenbasis() for op in self.axis_ops]
        for i, (_, s) in enumerate(pairs):
            b = _along(s.T, b, i)
        lam = _outer([ev for ev, _ in pairs], np.add)
        zero_mode = (0,) * self.dim
        lam[zero_mode] = 1.0
        b = b / lam
        b[zero_mode] = 0.0
        for i, (_, s) in enumerate(pairs):
            b = _along(s, b, i)
        return b

    # -- boundary operator ----------------------------------------------------

    def e_weight(self, i: int) -> np.ndarray:
        """Diagonal of E_i = M_1 (x) ... E_i ... (x) M_d as a full array."""
        parts = []
        for j, op in enumerate(self.axis_ops):
            parts.append(op.boundary_diag if j == i else op.mass_weights)
        return _outer(parts)

    def boundary_pairing(self, i: int, f: np.ndarray, g: np.ndarray) -> float:
        """f^T E_i g for scalar arrays."""
        return float(np.sum(self.e_weight(i) * f * g))

    # -- oscillation filter ----------------------------------------------------

    def filter_scalar(self, u: np.ndarray, extended: bool = False) -> np.ndarray:
        """Remove axis grid-oscillation components (M-orthogonal projection).

        With ``extended`` the pair (and 3D triple) oscillation modes are
        projected out as well.
        """
        u = self._check(u)
        out = u
        for key, osc in self.oscillations.items():
            if not extended and len(key) != 1:
                continue
            out = out - self.inner(osc, out) * osc
        return out

    def filter_vector(self, u: np.ndarray, extended: bool = False) -> np.ndarray:
        return np.stack(
            [self.filter_scalar(u[i], extended) for i in range(u.shape[0])]
        )


def _outer(parts, ufunc=np.multiply) -> np.ndarray:
    out = parts[0]
    for p in parts[1:]:
        out = ufunc.outer(out, p)
    return out


def _along(mat: np.ndarray, u: np.ndarray, i: int) -> np.ndarray:
    """Apply the matrix ``mat`` along axis i of ``u``."""
    return np.moveaxis(np.tensordot(mat, u, axes=(1, i)), 0, i)


def build_tensor_ops(order: int, grids) -> TensorOps:
    """Assemble 2D/3D tensor-product operators from per-axis grids.

    Equal grids share one operator, so its oscillation and eigenbasis are
    computed once.
    """
    grids = list(grids)
    if not 2 <= len(grids) <= 3:
        raise WrongDimension(f"need 2 or 3 axes, got {len(grids)}")
    built = {g: build_operator_1d(order, g) for g in dict.fromkeys(grids)}
    return _assemble(tuple(built[g] for g in grids))


def tensor_ops_from_axes(axis_ops) -> TensorOps:
    """Assemble from prebuilt (possibly deliberately corrupted) 1D operators."""
    axis_ops = tuple(axis_ops)
    if not 2 <= len(axis_ops) <= 3:
        raise WrongDimension(f"need 2 or 3 axes, got {len(axis_ops)}")
    return _assemble(axis_ops)


def _assemble(axis_ops) -> TensorOps:
    d = len(axis_ops)
    mass = _outer([op.mass_weights for op in axis_ops])
    osc_1d = [op.grid_oscillation().values for op in axis_ops]
    ones = [np.ones(op.n_nodes) for op in axis_ops]
    oscillations = {}
    for r in range(1, d + 1):
        for key in combinations(range(d), r):
            parts = [osc_1d[j] if j in key else ones[j] for j in range(d)]
            field = _outer(parts)
            field = field / np.sqrt(np.sum(mass * field * field))
            oscillations[key] = field
    return TensorOps(axis_ops=axis_ops, mass=mass, oscillations=oscillations)


def square_tensor_ops(
    order: int, n: int, dim: int, x_min: float = -1.0, x_max: float = 1.0
) -> TensorOps:
    """Isotropic operators on [x_min, x_max]^dim with n nodes per axis."""
    return build_tensor_ops(order, [Grid1D(x_min, x_max, n)] * dim)


# -- GridField-level operations (the public vector-calculus API) --------------


def gradient(ops: TensorOps, f: GridField) -> GridField:
    return ops.field(ops.grad(f.require("scalar")))


def divergence(ops: TensorOps, u: GridField) -> GridField:
    return ops.field(ops.div(u.require("vector")))


def curl(ops: TensorOps, u: GridField) -> GridField:
    return ops.field(ops.curl(u.require("vector")))


def rot(ops: TensorOps, v: GridField) -> GridField:
    return ops.field(ops.rot(v.require("scalar")))


def inner_product(ops: TensorOps, a: GridField, b: GridField) -> float:
    if a.kind != b.kind:
        raise KindMismatch(f"cannot pair {a.kind} with {b.kind}")
    return ops.inner(a.data, b.data)


def m_norm(ops: TensorOps, a: GridField) -> float:
    return ops.norm(a.data)


def filter_field(ops: TensorOps, u: GridField, extended: bool = False) -> GridField:
    if u.kind == "scalar":
        return ops.field(ops.filter_scalar(u.data, extended))
    return ops.field(ops.filter_vector(u.data, extended))
