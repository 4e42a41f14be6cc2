"""Tensor-product vector calculus operators in 2D and 3D.

The 1D operators act along one axis of a field stored in row-major order with
the first coordinate outermost, matching the Kronecker convention
``D_1 = D_x (x) I_y (x) ...``.  An application of ``D_i`` is therefore a
sweep of the 1D operator along axis i; no tensor-product matrix is ever
materialized.  Every axis follows one layout rule: the sweep reads the
C-ordered field seen as ``(before, N_i, after)`` and writes its row of a
preallocated result, by the matrix products of the 1D operator's form
(``operators1d``).  The mass matrix is the tensor product of the 1D
diagonal weights; vector fields use one copy of it per component, and inner
products contract the weights axis by axis.  ``TensorOps`` holds only its
per-axis operators: the full mass diagonal, the per-axis mode factors and
the oscillation fields are cached on first use.  Every oscillation field is
a tensor product of the per-axis factors, the unit constant and the unit
oscillation, so the oscillation filter is one separable projection.
Neither the calculus nor the filter makes a full-size temporary: div and
curl, their transposes and M-adjoints included, sweep each later term block
by block of lines into one scratch of ``_BLOCK_NODES`` nodes (``_scratch``)
and add each block to the result while it is in cache, and the filter
expands its projection block by block of rows straight into its result.
Each transpose is its forward operator with ``D_i^T`` in place of ``D_i``:
``grad^T`` is ``div``, and ``curl^T`` is ``-curl`` in 3D and ``-rot`` in 2D;
so are the M-adjoints ``grad_star`` and ``curl_star``, with
``D_i* = M^-1 E_i - D_i`` in place of ``D_i``.  The Gram operators of grad
and curl are solved by one fast diagonalization method (``TensorOps._fdm``),
with dense transforms by the per-axis eigenbases only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatch,
    KindMismatch,
    NonFiniteEncountered,
    WrongDimension,
)
from .grid import Grid1D
from .operators1d import _apply_form, _real_data, build_operator_1d

# the nodes (512 KiB) that div and curl sweep into their scratch, and the
# filter expands, at once: the large_grid benchmark's calculus sequence at
# 2D n=1025 (one process, budgets alternating, 180 calls each) read op_ref
# 0.672, 0.618, 0.604, 0.606, 0.613 and 0.653 with blocks of 64 KiB to
# 2 MiB, against 0.702 for the whole field; a 2D n=129 scalar (130 KiB)
# and a 3D n=40 one (500 KiB) fit in one block
_BLOCK_NODES = 2**16
# the rows of a product taken in blocks come in multiples of this many: with
# OpenBLAS 0.3.31 (one thread, AVX-512), blocks of 24 or 48 rows and the
# rest got the bits of the whole product, blocks of 8, 16, 32 or 64 did not
# for some row lengths, and a block of one row (a vector product) mostly not;
# the build's Haswell, Sandybridge and Nehalem kernels, and 2 or 4 threads,
# kept the tested shapes' bits too; another BLAS may round blocks otherwise
_ALIGN = 48


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
    def _mode_factors(self) -> tuple:
        """Per axis, the (n, 2) factor of the two unit-M-norm 1D modes: the
        constant and ``grid_oscillation``.  They are M-orthogonal, since
        ``D x = 1`` puts the constants in im D, which is M-orthogonal to
        ker D*; so their 2^d tensor products are M-orthonormal."""
        return tuple(
            np.column_stack([np.full(op.n_nodes, op.mass_weights.sum() ** -0.5),
                             op.grid_oscillation])
            for op in self.axis_ops)

    @cached_property
    def oscillations(self) -> dict:
        """Index tuple -> unit-M-norm oscillation field: the 1D grid
        oscillation along the indexed axes, constant along the others (the
        tensor product of the ``_mode_factors`` columns)."""
        d = self.dim
        return {key: _outer([f[:, int(j in key)]
                             for j, f in enumerate(self._mode_factors)])
                for r in range(1, d + 1) for key in combinations(range(d), r)}

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
        u = _real_data(u)
        kind = kind or ("scalar" if u.ndim == self.dim else "vector")
        want = self.shape if kind == "scalar" else (self.dim, *self.shape)
        if u.shape != want:
            raise DimensionMismatch(f"{kind} of shape {u.shape} on grid {self.shape}")
        return u

    def vector_data(self, u) -> np.ndarray:
        """``field_data(u, "vector")``, and NonFiniteEncountered on NaN/Inf:
        the check of the input of a solve or a potential."""
        u = self.field_data(u, "vector")
        if not np.all(np.isfinite(u)):
            raise NonFiniteEncountered("vector field contains NaN or Inf")
        return u

    def _along(self, i: int, u: np.ndarray, form: str,
               out: np.ndarray | None = None) -> np.ndarray:
        """The 1D operator's ``form`` (``"_d_form"`` for D_i, ``"_dt_form"``
        for D_i^T, ``"_ds_form"`` for D_i*) applied along axis i of a
        checked scalar array, or of a block of its lines before axis i,
        written into the C-contiguous slot ``out`` of u's size (which u must
        not overlap), or a new scalar array; returns it.  On every axis
        ``_apply_form`` reads the C-ordered field (a copy of one laid out
        otherwise) seen as ``(before, N_i, after)`` and writes ``out`` seen
        so, the view the 1D sweeps find for axis i."""
        out = np.empty(self.shape) if out is None else out
        lines = (-1, self.shape[i], math.prod(self.shape[i + 1 :]))
        _apply_form(getattr(self.axis_ops[i], form),
                    np.ascontiguousarray(u).reshape(lines), out.reshape(lines))
        return out

    def apply_axis(self, i: int, u) -> np.ndarray:
        """D_i u for a scalar field (0-based axis index)."""
        return self._along(i, self.field_data(u, "scalar"), "_d_form")

    def apply_axis_transpose(self, i: int, u) -> np.ndarray:
        """D_i^T u for a scalar field (0-based axis index)."""
        return self._along(i, self.field_data(u, "scalar"), "_dt_form")

    # -- vector calculus ----------------------------------------------------
    # Each public method checks its field once; the private forms take
    # checked arrays and the name of the 1D operators' form.  The transposes
    # and M-adjoints call them, not the public forward methods, so a wrapper
    # around a public method (a profiler's, say) sees only that method's own
    # calls.  Every sweep writes into its row of the preallocated result, or
    # (a later term of div or curl) block by block of lines into one scratch
    # of at most ``_BLOCK_NODES`` nodes, each block added to the result while
    # it is in cache (``_add_along``).

    def grad(self, f) -> np.ndarray:
        f = self.field_data(f, "scalar")
        out = np.empty((self.dim, *self.shape))
        for i in range(self.dim):
            self._along(i, f, "_d_form", out[i])
        return out

    def div(self, u) -> np.ndarray:
        return self._div(self.field_data(u, "vector"), "_d_form")

    def curl(self, u) -> np.ndarray:
        return self._curl(self.field_data(u, "vector"), "_d_form")

    def rot(self, v) -> np.ndarray:
        if self.dim != 2:
            raise WrongDimension("rot maps scalars to vectors in 2D only")
        return self._rot(self.field_data(v, "scalar"), "_d_form")

    def grad_transpose(self, w) -> np.ndarray:
        """grad^T: div with D_i^T in place of D_i."""
        return self._div(self.field_data(w, "vector"), "_dt_form")

    def curl_transpose(self, w) -> np.ndarray:
        """curl^T of a scalar (2D) or 3-vector (3D) field: -rot (2D) or
        -curl (3D) with D_i^T in place of D_i, its sign taken by the sweeps."""
        planar = self.dim == 2
        w = self.field_data(w, "scalar" if planar else "vector")
        return (self._rot if planar else self._curl)(w, "_dt_form", -1)

    def grad_star(self, w) -> np.ndarray:
        """grad* = M^-1 grad^T M of a vector field: div with D_i* in place
        of D_i."""
        return self._div(self.field_data(w, "vector"), "_ds_form")

    def curl_star(self, w) -> np.ndarray:
        """curl* = M^-1 curl^T M of a 3D vector field: -curl with D_i* in
        place of D_i."""
        if self.dim != 3:
            raise WrongDimension("curl* maps 3-vectors to 3-vectors in 3D only")
        return self._curl(self.field_data(w, "vector"), "_ds_form", -1)

    def _scratch(self) -> np.ndarray:
        """The flat scratch of ``_add_along``: the whole field if it fits in
        ``_BLOCK_NODES`` nodes, else that many, or one slab ``u[j]`` should
        that be more: a block holds at least one line before its axis."""
        size = math.prod(self.shape)
        return np.empty(min(size, max(_BLOCK_NODES, size // self.shape[0])))

    def _add_along(self, i: int, u: np.ndarray, form: str, out: np.ndarray,
                   block: np.ndarray, combine=np.add) -> None:
        """``combine(out, D u, out=out)`` for the sweep ``_along(i, u, form)``,
        i >= 1, taken over blocks of the lines before axis i: each block is
        swept into the flat scratch ``block`` (``_scratch``) and combined
        with its rows of ``out`` while it is still in cache.  A field that
        fits in ``block`` is one block, swept whole as by ``_along``; over
        several blocks a banded sweep along the unit-stride axis adds a
        ragged tail at each block's end, whose rows round otherwise."""
        if u.size <= len(block):
            combine(out, self._along(i, u, form, block.reshape(self.shape)), out=out)
            return
        pre = math.prod(self.shape[:i])
        u, out = np.ascontiguousarray(u).reshape(pre, -1), out.reshape(pre, -1)
        for rows in _blocks(pre, len(block) // u.shape[1]):
            y = out[rows]
            term = block[: y.size].reshape(y.shape)
            combine(y, self._along(i, u[rows], form, term), out=y)

    def _div(self, u: np.ndarray, name: str) -> np.ndarray:
        out, block = self._along(0, u[0], name), self._scratch()
        for i in range(1, self.dim):
            self._add_along(i, u[i], name, out, block)
        return out

    def _curl(self, u: np.ndarray, name: str, sign: int = 1) -> np.ndarray:
        """Component c is ``D_a u_b - D_b u_a`` with ``(a, b) = (c+1, c+2)``
        mod 3, or with a and b swapped for ``sign = -1``, its negation (an
        exact zero is +0); the 2D curl is the scalar component c = 2.  The
        sweep along the lower axis of the pair is written first, so that the
        blocked one (``_add_along``) never runs along axis 0; it is
        subtracted, or subtracted from, to the same bits."""
        planar = self.dim == 2
        out = np.empty(self.shape if planar else (3, *self.shape))
        block = self._scratch()
        for c in (2,) if planar else range(3):
            a, b = ((c + 1) % 3, (c + 2) % 3)[::sign]
            row = out if planar else out[c]
            p, q = (a, b) if a < b else (b, a)
            self._along(p, u[q], name, row)
            self._add_along(q, u[p], name, row, block,
                            np.subtract if a < b else _subtract_from)
        return out

    def _rot(self, v: np.ndarray, name: str, sign: int = 1) -> np.ndarray:
        """``(D_1 v, -D_0 v)``, or ``(-D_1 v, D_0 v)`` for ``sign = -1``:
        the component with a minus is negated in place after its sweep."""
        out = np.empty((2, *self.shape))
        self._along(1, v, name, out[0])
        self._along(0, v, name, out[1])
        minus = out[1] if sign == 1 else out[0]
        np.negative(minus, out=minus)
        return out

    # -- inner products ------------------------------------------------------

    def inner(self, a, b) -> float:
        """<a, b>_M of two fields of one kind.

        The separable weights are contracted axis by axis: one pass sums
        ``a * b`` over the components and the last axis, weighted along it,
        and the other axes' weights reduce the rest, so no full-size
        product is formed.
        """
        a = self.field_data(a)
        b = self.field_data(b, "scalar" if a.ndim == self.dim else "vector")
        axes = "ijk"[: self.dim]
        full = "c" * (a.ndim - self.dim) + axes
        w = [op.mass_weights for op in self.axis_ops]
        out = np.einsum(f"{full},{full},{axes[-1]}->{axes[:-1]}", a, b, w[-1])
        for wj in reversed(w[:-1]):
            out = out @ wj
        return float(out)

    def norm(self, a) -> float:
        return float(np.sqrt(self.inner(a, a)))

    @cached_property
    def _volume(self) -> float:
        """<1, 1>_M, the measure of the domain."""
        return float(np.sum(self.mass))

    def mean_zero(self, f) -> np.ndarray:
        """Shift a scalar field so that <f, 1>_M = 0."""
        f = self.field_data(f, "scalar")
        return f - float(np.sum(self.mass * f)) / self._volume

    # -- the Gram operators of grad and curl ---------------------------------

    @cached_property
    def _sums(self) -> dict:
        """The eigenvalue sums of ``_fdm`` built so far, by ``dual``."""
        return {}

    def _fdm(self, b: np.ndarray, dual: int | None = None) -> np.ndarray:
        """The pseudo-inverse of the tensor sum of the pencils (D^T M D, M),
        with (M D M^-1 D^T M, M) along axis ``dual``, applied to checked
        scalar data b by fast diagonalization (Lynch, Rice & Thomas 1964):
        ``basis^T`` along every axis (``eigenbasis``, or ``dual_eigenbasis``
        along ``dual``), division by the sums of their eigenvalues, built on
        first use and kept read-only per ``dual``, and ``basis`` along every
        axis.  The single zero mode, (0, ..., 0), has the divisor inf, so
        the division drops it."""
        pairs = [op.dual_eigenbasis if i == dual else op.eigenbasis
                 for i, op in enumerate(self.axis_ops)]
        if dual not in self._sums:
            sums = _outer([lam for lam, _ in pairs], np.add)
            sums[(0,) * self.dim] = np.inf
            sums.flags.writeable = False
            self._sums[dual] = sums
        for i, (_, s) in enumerate(pairs):
            b = _matrix_along(s.T, b, i)
        b /= self._sums[dual]
        for i, (_, s) in enumerate(pairs):
            b = _matrix_along(s, b, i)
        return b

    def gram_pinv(self, b) -> np.ndarray:
        """The M-mean-zero solution phi of ``L phi = b``, for b orthogonal
        to the constants.

        ``L = sum_i D_i^T M D_i`` is the tensor sum of the 1D pencils
        (D^T M D, M), so it is diagonalized by the per-axis ``eigenbasis``
        (fast diagonalization, ``_fdm``).  Its single zero mode is the
        constants.
        """
        return self._fdm(self.field_data(b, "scalar"))

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
        ``dual_eigenbasis`` R along axis c and ``eigenbasis`` S along the
        others (``_fdm(b[c], c)``), returns the coimage solution.  The zero
        mode of component c is ``osc_(c,) e_c``, which lies in ker curl.
        """
        if self.dim != 3:
            raise WrongDimension("the curl Gram operator acts in 3D only")
        b = self.field_data(b, "vector")
        v = np.empty_like(b)
        for c in range(3):
            v[c] = self._fdm(b[c], c)
        return v

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
        return self._filter(self.field_data(u, "vector"), extended)

    def _mode_overlaps(self, u: np.ndarray) -> np.ndarray:
        """The M-inner products of u with all 2^d tensor products of
        ``_mode_factors``, shape ``(*batch, 2^d)``; leading axes of u beyond
        the grid's are a batch.  Mode m oscillates along the axes of the set
        bits of m, axis 0 highest.  One separable pass: u is contracted
        with the M-weighted factors axis by axis, last axis first."""
        d, shape = self.dim, self.shape
        batch = u.shape[: u.ndim - d]
        weighted = [op.mass_weights[:, None] * f
                    for op, f in zip(self.axis_ops, self._mode_factors)]
        c = u.reshape(-1, shape[-1]) @ weighted[-1]
        for j in reversed(range(d - 1)):
            c = weighted[j].T @ c.reshape(*batch, *shape[: j + 1], -1)
        return c.reshape(*batch, 2**d)

    def _filter(self, u: np.ndarray, extended: bool) -> np.ndarray:
        """u minus its M-orthogonal projection onto the oscillation modes;
        leading axes of u beyond the grid's are a batch.

        The modes are M-orthonormal tensor products of ``_mode_factors``, so
        the projection is one separable pass: all 2^d overlaps at once
        (``_mode_overlaps``); zero the constant mode, and the modes of
        several axes unless ``extended``; expand back with the factors,
        first axis first, the last product block of rows by block of rows
        straight into the result, each block subtracted from u while it is
        still in cache, so no other full-size array is made.
        """
        d, shape, factors = self.dim, self.shape, self._mode_factors
        u = np.ascontiguousarray(u)
        batch = u.shape[: u.ndim - d]
        count = np.array([bin(m).count("1") for m in range(2**d)])
        c = self._mode_overlaps(u) * ((count >= 1) if extended else (count == 1))
        for j in range(d - 1):
            c = factors[j] @ c.reshape(*batch, *shape[:j], 2, -1)
        c, f, out = c.reshape(-1, 2), factors[-1].T, np.empty(u.shape)
        lines, p = u.reshape(len(c), -1), out.reshape(len(c), -1)
        for rows in _blocks(len(c), max(_ALIGN + 1, _BLOCK_NODES // shape[-1])):
            q = p[rows]
            np.matmul(c[rows], f, out=q)
            np.subtract(lines[rows], q, out=q)
        return out


def _blocks(count: int, most: int) -> list:
    """Slices of ``range(count)``: one block if ``count <= most``, else
    blocks of ``most`` items rounded down to a multiple of ``_ALIGN`` where
    one fits with an item to spare, then the rest, joined to the block
    before it should it hold one item."""
    if count <= most:
        return [slice(0, count)]
    step = (most - 1) // _ALIGN * _ALIGN or most
    stops = [*range(step, count - (step < most), step), count]
    return [slice(a, b) for a, b in zip([0, *stops], stops)]


def _subtract_from(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``y - x``: ``np.subtract`` with its operands swapped."""
    return np.subtract(y, x, out=out)


def _outer(parts, ufunc=np.multiply) -> np.ndarray:
    out = parts[0]
    for p in parts[1:]:
        out = ufunc.outer(out, p)
    return out


def _matrix_along(mat: np.ndarray, u: np.ndarray, i: int) -> np.ndarray:
    """Apply the matrix ``mat`` along axis i of ``u`` into a new C-ordered
    array: one ``matmul`` of mat with u seen as ``(before, N_i, after)``,
    or of u's rows with mat^T along the last axis, so a C-ordered u is
    read in place."""
    shape, n = u.shape, u.shape[i]
    out = (*shape[:i], len(mat), *shape[i + 1 :])
    if i == u.ndim - 1:
        return (u.reshape(-1, n) @ mat.T).reshape(out)
    lines = u.reshape(math.prod(shape[:i]), n, math.prod(shape[i + 1 :]))
    return np.matmul(mat, lines).reshape(out)


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
