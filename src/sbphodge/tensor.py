"""Tensor-product vector calculus operators in 2D and 3D.

The 1D operators act along one axis of a field stored in row-major order with
the first coordinate outermost, matching the Kronecker convention
``D_1 = D_x (x) I_y (x) ...``.  An application of ``D_i`` is therefore a
strided sweep of the 1D stencil along axis i; no tensor-product matrix is ever
materialized.  The mass matrix is the tensor product of the 1D diagonal
weights; vector fields use one copy of it per component.  ``TensorOps`` holds
only its per-axis operators: the full mass diagonal and the oscillation
fields are cached on first use.  Each transpose is its forward operator with
``D_i^T`` in place of ``D_i``: ``grad^T`` is ``div``, and ``curl^T`` is
``-curl`` in 3D and ``-rot`` in 2D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
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
    component axis of length d.  Every axis must be a grid ``Grid1D``
    accepts (GridTooSmall or BadDomain otherwise).
    """

    data: np.ndarray
    bounds: tuple

    def __post_init__(self):
        d = len(self.bounds)
        if not (self.data.ndim == d
                or (self.data.ndim == d + 1 and self.data.shape[0] == d)):
            raise KindMismatch(
                f"data shape {self.data.shape} fits neither a scalar nor a "
                f"{d}-component vector field"
            )
        self.grids  # the grid rule, applied to every axis

    @property
    def grids(self) -> tuple:
        return tuple(Grid1D(lo, hi, n)
                     for (lo, hi), n in zip(self.bounds, self.shape))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def kind(self) -> str:
        return "scalar" if self.data.ndim == self.dim else "vector"

    @property
    def shape(self) -> tuple:
        return self.data.shape[-self.dim :]


@dataclass(frozen=True, eq=False)
class TensorOps:
    """The per-axis SBP operators of a 2D or 3D tensor-product grid.

    Immutable and shareable; all field operations are pure.  The mass
    diagonal and the oscillation fields are built on first use.
    """

    axis_ops: tuple

    def __post_init__(self):
        if not 2 <= len(self.axis_ops) <= 3:
            raise WrongDimension(f"need 2 or 3 axes, got {len(self.axis_ops)}")

    @cached_property
    def mass(self) -> np.ndarray:
        """The full tensor-product diagonal of M."""
        return _outer([op.mass_weights for op in self.axis_ops])

    @cached_property
    def oscillations(self) -> dict:
        """Index tuple -> unit-M-norm oscillation field: the 1D grid
        oscillation along the indexed axes, constant along the others."""
        d = self.dim
        out = {}
        for r in range(1, d + 1):
            for key in combinations(range(d), r):
                field = _outer([op.grid_oscillation if j in key
                                else np.ones(op.n_nodes)
                                for j, op in enumerate(self.axis_ops)])
                out[key] = field / np.sqrt(np.sum(self.mass * field * field))
        return out

    @property
    def dim(self) -> int:
        return len(self.axis_ops)

    @cached_property
    def shape(self) -> tuple:
        return tuple(op.n_nodes for op in self.axis_ops)

    @cached_property
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

    # -- the field rule and axis applications -------------------------------

    def field_data(self, u, kind: str | None = None) -> np.ndarray:
        """The data of u, a GridField or a raw array, as a float array: the
        one check of a field.  A GridField must lie on this grid's domain
        (bounds equal to roundoff, else DimensionMismatch) and be of
        ``kind``, if given (else KindMismatch).  Then the data must be real
        (else KindMismatch) and of the shape of its kind, ``shape`` or
        ``(dim, *shape)``, a None ``kind`` read from its number of axes
        (else DimensionMismatch)."""
        if isinstance(u, GridField):
            got, want = u.bounds, self.bounds
            if got != want and not (u.dim == self.dim and np.abs(
                    np.subtract(got, want)).max() <= 1e-12 * np.abs(want).max()):
                raise DimensionMismatch(f"field on {got}, not {want}")
            if kind is not None and u.kind != kind:
                raise KindMismatch(f"expected a {kind} field, got {u.kind}")
            u = u.data
        u = np.asarray(u)
        if u.dtype.kind not in "biuf":
            raise KindMismatch(f"field data of dtype {u.dtype} is not real")
        kind = kind or ("scalar" if u.ndim == self.dim else "vector")
        want = self.shape if kind == "scalar" else (self.dim, *self.shape)
        if u.shape != want:
            raise DimensionMismatch(f"{kind} of shape {u.shape} on grid {self.shape}")
        return np.asarray(u, dtype=np.float64)

    def vector_data(self, u) -> np.ndarray:
        """``field_data(u, "vector")``, and NonFiniteEncountered on NaN/Inf:
        the check of the input of a solve or a potential."""
        u = self.field_data(u, "vector")
        if not np.all(np.isfinite(u)):
            raise NonFiniteEncountered("vector field contains NaN or Inf")
        return u

    def _along(self, i: int, u: np.ndarray, name: str) -> np.ndarray:
        """The 1D operator method ``name`` applied along axis i of a checked
        scalar array (``apply_d`` for D_i, ``apply_d_transpose`` for D_i^T)."""
        moved = np.moveaxis(u, i, 0)
        return np.moveaxis(getattr(self.axis_ops[i], name)(moved), 0, i)

    def apply_axis(self, i: int, u) -> np.ndarray:
        """D_i u for a scalar field (0-based axis index)."""
        return self._along(i, self.field_data(u, "scalar"), "apply_d")

    def apply_axis_transpose(self, i: int, u) -> np.ndarray:
        """D_i^T u for a scalar field (0-based axis index)."""
        return self._along(i, self.field_data(u, "scalar"), "apply_d_transpose")

    # -- vector calculus ----------------------------------------------------
    # Each public method checks its field once; the private forms take
    # checked arrays and the 1D method name.  The transposes call them, not
    # the public forward methods, so a wrapper around a public method (a
    # profiler's, say) sees only that method's own calls.

    def grad(self, f) -> np.ndarray:
        f = self.field_data(f, "scalar")
        return np.stack([self._along(i, f, "apply_d") for i in range(self.dim)])

    def div(self, u) -> np.ndarray:
        return self._div(self.field_data(u, "vector"), "apply_d")

    def curl(self, u) -> np.ndarray:
        return self._curl(self.field_data(u, "vector"), "apply_d")

    def rot(self, v) -> np.ndarray:
        if self.dim != 2:
            raise WrongDimension("rot maps scalars to vectors in 2D only")
        return self._rot(self.field_data(v, "scalar"), "apply_d")

    def grad_transpose(self, w) -> np.ndarray:
        """grad^T: div with D_i^T in place of D_i."""
        return self._div(self.field_data(w, "vector"), "apply_d_transpose")

    def curl_transpose(self, w) -> np.ndarray:
        """curl^T of a scalar (2D) or 3-vector (3D) field: -rot (2D) or
        -curl (3D) with D_i^T in place of D_i."""
        name, planar = "apply_d_transpose", self.dim == 2
        w = self.field_data(w, "scalar" if planar else "vector")
        out = self._rot(w, name) if planar else self._curl(w, name)
        return np.negative(out, out=out)

    def _div(self, u: np.ndarray, name: str) -> np.ndarray:
        out = self._along(0, u[0], name)
        for i in range(1, self.dim):
            out = out + self._along(i, u[i], name)
        return out

    def _curl(self, u: np.ndarray, name: str) -> np.ndarray:
        d = partial(self._along, name=name)
        if self.dim == 2:
            return d(0, u[1]) - d(1, u[0])
        return np.stack([d(1, u[2]) - d(2, u[1]),
                         d(2, u[0]) - d(0, u[2]),
                         d(0, u[1]) - d(1, u[0])])

    def _rot(self, v: np.ndarray, name: str) -> np.ndarray:
        return np.stack([self._along(1, v, name), -self._along(0, v, name)])

    # -- inner products ------------------------------------------------------

    def inner(self, a, b) -> float:
        """<a, b>_M of two fields of one kind."""
        a = self.field_data(a)
        b = self.field_data(b, "scalar" if a.ndim == self.dim else "vector")
        return float(np.vdot(self.mass * a, b))  # mass broadcasts over components

    def norm(self, a) -> float:
        return float(np.sqrt(self.inner(a, a)))

    def mean_zero(self, f) -> np.ndarray:
        """Shift a scalar field so that <f, 1>_M = 0."""
        f = self.field_data(f, "scalar")
        vol = float(np.sum(self.mass))
        return f - float(np.sum(self.mass * f)) / vol

    # -- the Gram operators of grad and curl ---------------------------------

    def gram_pinv(self, b) -> np.ndarray:
        """The M-mean-zero solution phi of ``L phi = b``, for b orthogonal
        to the constants.

        ``L = sum_i D_i^T M D_i`` is the tensor sum of the 1D pencils
        (D^T M D, M), so it is diagonalized by the per-axis ``eigenbasis``
        (fast diagonalization, ``_fdm_pinv``).  Its single zero mode is the
        constants.
        """
        b = self.field_data(b, "scalar")
        return _fdm_pinv([op.eigenbasis for op in self.axis_ops], b)

    def curl_gram_pinv(self, b) -> np.ndarray:
        """The least-M-norm solution v of ``curl^T M curl v = b`` (3D), for
        b in the image of curl^T.

        D_i and D_j^T act on different axes, so they commute, and
        ``curl^T M curl + M grad M^-1 grad^T M`` is block diagonal: its
        component c is the tensor sum of the pencil (M D M^-1 D^T M, M)
        along axis c and (D^T M D, M) along the others.  The added term
        vanishes on the coimage of curl, which is M-orthogonal to im grad,
        and the sum keeps the coimage invariant (conjugated with M^1/2), so
        its pseudo-inverse, one fast diagonalization per component with
        ``dual_eigenbasis`` along axis c, returns the coimage solution.  The
        zero mode of component c is ``osc_(c,) e_c``, which lies in ker curl.
        """
        if self.dim != 3:
            raise WrongDimension("the curl Gram operator acts in 3D only")
        b = self.field_data(b, "vector")
        return np.stack([
            _fdm_pinv([op.dual_eigenbasis if j == c else op.eigenbasis
                       for j, op in enumerate(self.axis_ops)], b[c])
            for c in range(3)])

    # -- boundary operator ----------------------------------------------------

    def e_weight(self, i: int) -> np.ndarray:
        """Diagonal of E_i = M_1 (x) ... E_i ... (x) M_d as a full array."""
        return _outer([op.boundary_diag if j == i else op.mass_weights
                       for j, op in enumerate(self.axis_ops)])

    def boundary_pairing(self, i: int, f, g) -> float:
        """f^T E_i g for scalar fields."""
        f, g = self.field_data(f, "scalar"), self.field_data(g, "scalar")
        return float(np.sum(self.e_weight(i) * f * g))

    # -- oscillation filter ----------------------------------------------------

    def filter_scalar(self, u, extended: bool = False) -> np.ndarray:
        """Remove axis grid-oscillation components (M-orthogonal projection).

        With ``extended`` the pair (and 3D triple) oscillation modes are
        projected out as well.
        """
        return self._filter(self.field_data(u, "scalar"), extended)

    def filter_vector(self, u, extended: bool = False) -> np.ndarray:
        """``filter_scalar`` on every component."""
        return np.stack([self._filter(c, extended)
                         for c in self.field_data(u, "vector")])

    def _filter(self, u: np.ndarray, extended: bool) -> np.ndarray:
        out = u
        for key, osc in self.oscillations.items():
            if not extended and len(key) != 1:
                continue
            out = out - self.inner(osc, out) * osc
        return out


def _outer(parts, ufunc=np.multiply) -> np.ndarray:
    out = parts[0]
    for p in parts[1:]:
        out = ufunc.outer(out, p)
    return out


def _transform(mat: np.ndarray, u: np.ndarray, i: int) -> np.ndarray:
    """Apply the matrix ``mat`` along axis i of ``u``."""
    return np.moveaxis(np.tensordot(mat, u, axes=(1, i)), 0, i)


def _fdm_pinv(pairs, b: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the tensor sum of 1D pencils (A_i, W_i), applied to
    b by fast diagonalization (Lynch, Rice & Thomas 1964).

    ``pairs`` holds one ``(eigenvalues, basis)`` per axis, the basis
    W_i-orthonormal, with one zero eigenvalue first: ``basis^T`` along every
    axis, division by the summed eigenvalues, ``basis`` along every axis.
    The single zero mode, (0, ..., 0), is set to 0.
    """
    for i, (_, s) in enumerate(pairs):
        b = _transform(s.T, b, i)
    lam = _outer([ev for ev, _ in pairs], np.add)
    zero_mode = (0,) * b.ndim
    lam[zero_mode] = 1.0
    b = b / lam
    b[zero_mode] = 0.0
    for i, (_, s) in enumerate(pairs):
        b = _transform(s, b, i)
    return b


def build_tensor_ops(order: int, grids) -> TensorOps:
    """Build 2D/3D tensor-product operators from per-axis grids.

    Equal grids share one operator, so its oscillation and eigenbasis are
    computed once.
    """
    grids = list(grids)
    built = {g: build_operator_1d(order, g) for g in dict.fromkeys(grids)}
    return TensorOps(tuple(built[g] for g in grids))


def square_tensor_ops(
    order: int, n: int, dim: int, x_min: float = -1.0, x_max: float = 1.0
) -> TensorOps:
    """Isotropic operators on [x_min, x_max]^dim with n nodes per axis."""
    return build_tensor_ops(order, [Grid1D(x_min, x_max, n)] * dim)


# -- GridField-level operations (the public vector-calculus API) --------------
# Each takes a GridField or a raw array; the TensorOps method checks it.


def gradient(ops: TensorOps, f) -> GridField:
    return ops.field(ops.grad(f))


def divergence(ops: TensorOps, u) -> GridField:
    return ops.field(ops.div(u))


def curl(ops: TensorOps, u) -> GridField:
    return ops.field(ops.curl(u))


def rot(ops: TensorOps, v) -> GridField:
    return ops.field(ops.rot(v))


def inner_product(ops: TensorOps, a, b) -> float:
    return ops.inner(a, b)


def m_norm(ops: TensorOps, a) -> float:
    return ops.norm(a)


def filter_field(ops: TensorOps, u, extended: bool = False) -> GridField:
    scalar = ops.field_data(u).ndim == ops.dim
    apply = ops.filter_scalar if scalar else ops.filter_vector
    return ops.field(apply(u, extended))
