"""One-dimensional diagonal-norm SBP derivative operators.

The derivative is stored matrix free: an antisymmetric interior stencil plus a
dense top closure block (the bottom block is its 180-degree rotated negation).
The diagonal mass matrix makes ``u^T M v`` a quadrature of the L2 inner
product, and the triple (D, M, E) satisfies ``M D + D^T M = E`` with
``E = diag(-1, 0, ..., 0, 1)`` up to roundoff.  So the M-adjoint
``D* = M^-1 D^T M`` is ``M^-1 E - D``: minus D, with ``-1/m_0`` and
``1/m_(n-1)`` added at its two corners, built from D alone.  Every operator
is validated on construction: the identity residual, the polynomial
accuracy of all rows and nullspace consistency are checked, so a corrupted
coefficient cannot construct silently.  An operator holds only this defining
data; what is derived from it (the entry lists of D and of M D, the forms of
D, D^T and D*, the grid oscillation, the integral's LU factors, and the
eigenbases of the Gram pencil and its dual) is a ``cached_property``, built
on first use, so a copy made by ``dataclasses.replace`` never carries stale
derived state; the float coefficients of each order are converted from the
exact rationals once.
D, D^T and D* each have one form, cut by one rule (``_form``) from its
matrix's entry list (D's, D's with rows and columns swapped, or D's negated
plus D*'s two corners): a dense top block, the Toeplitz block of the
interior stencil, and a dense bottom block, the top's rotated negation; on
a grid of at most ``_DENSE_NODES`` nodes, one dense block.
``apply_d``, ``apply_d_transpose`` and ``apply_d_star`` take a numpy-style
``out=`` and apply a form by BLAS products on C-ordered operands
(``_apply_form``), so every ``out=`` slot gets the same bits and a sweep
into one allocates no scratch of the field's size.  They do not sum in the
order of a row-by-row product: a sweep agrees with it to roundoff, not bit
for bit.  ``accuracy_check`` differentiates every monomial in one sweep.
The grid oscillation (the kernel of D*) and the discrete integral are LAPACK
banded LU solves (``dgbtrf`` then ``dgbtrs``, as ``DGBSV`` does) on the
entries of D, O(n) in time and memory.  The integral's factors are built on
the first integral and reused by every later one.  On a grid of at most
``_DENSE_NODES`` nodes the integral follows the dense rule of the forms: one
``dgbtrs`` solve of the identity with those factors gives the inverse of
its band, cached read-only, and every integral is then one BLAS product
with it.  ``dense()`` serves only the eigenbases and verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from numbers import Real

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import (
    DimensionMismatch,
    GridTooSmall,
    InvalidConfig,
    KindMismatch,
    NonFiniteEncountered,
    NotInImage,
    NullspaceDimensionUnexpected,
)
from .grid import Grid1D
from .stencils import coefficient_table

_EPS = np.finfo(np.float64).eps
# interior rows per block of a sweep (see _apply_form), at least 2w: at
# order 6, blocks of 8 and 16 rows swept 2D n=49-1025 and 3D n=25-97 at
# par, and blocks of 24 or more rows more slowly
_ROWS = 8
# the most nodes for which a form is one dense block: per sweep of D along
# one axis at order 6 (one BLAS thread, into a preallocated result), the
# dense block took 7-20 us against 20-30 us for the banded form at 2D
# n=33-64 and 22-33 against 35-71 us at 3D n=25, but 37-51 against 26-43 us
# at 2D n=97 and 101-105 against 33-60 us at 2D n=129
_DENSE_NODES = 64


@dataclass(frozen=True, eq=False)
class SbpOperator1D:
    """A first-derivative SBP operator on a uniform 1D grid.

    Immutable after construction; all apply methods are pure and safe to call
    concurrently.  Derived state is cached on first use.
    """

    grid: Grid1D
    interior_order: int
    interior_stencil: np.ndarray    # full row -c_w..c_w, scaled by 1/dx
    boundary_block: np.ndarray      # top closure rows, scaled by 1/dx
    mass_weights: np.ndarray        # diagonal of M, scaled by dx

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @property
    def boundary_order(self) -> int:
        return self.interior_order // 2

    @property
    def halfwidth(self) -> int:
        return (len(self.interior_stencil) - 1) // 2

    @property
    def n_closure_rows(self) -> int:
        return self.boundary_block.shape[0]

    @property
    def boundary_diag(self) -> np.ndarray:
        """Diagonal of E = diag(-1, 0, ..., 0, 1)."""
        e = np.zeros(self.n_nodes)
        e[0], e[-1] = -1.0, 1.0
        return e

    # -- application -----------------------------------------------------

    def _leading(self, u) -> np.ndarray:
        """u as a float array (``_real_data``) with n_nodes rows (else
        DimensionMismatch)."""
        u = _real_data(u)
        if u.shape[:1] != (self.n_nodes,):
            raise DimensionMismatch(
                f"expected leading axis {self.n_nodes}, got shape {u.shape}")
        return u

    def apply_d(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply D along the first axis of ``u``, into ``out`` if given."""
        return self._sweep(self._d_form, u, out)

    def apply_d_transpose(self, u: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
        """Apply D^T along the first axis of ``u``, into ``out`` if given."""
        return self._sweep(self._dt_form, u, out)

    def apply_d_star(self, u: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Apply the M-adjoint D* = M^-1 D^T M along the first axis of
        ``u``, into ``out`` if given."""
        return self._sweep(self._ds_form, u, out)

    def _sweep(self, form: tuple, u, out) -> np.ndarray:
        """``_apply_form`` along the first axis of u, into ``out``: a new
        array laid out as u, or the given writeable float64 array of u's
        shape (else KindMismatch or DimensionMismatch).  u is read as the
        C-ordered ``(pre, n, post)`` array behind it, its first axis moved
        to the first position at which it is C-contiguous (a C-ordered copy
        of u if none), and the result is written so into ``out``, through a
        buffer when ``out`` is laid out otherwise; a u that overlaps
        ``out`` is read from a copy.  So every ``out=`` slot gets the bits
        of the sweep without one, and a u that is copied gets its copy's
        bits.  A view read in place need not: its ``(pre, n, post)`` split
        differs from its copy's, and at order 8 the ragged tail's product
        can round differently for another ``post``.
        """
        u = self._leading(u)
        if out is not None:
            if (not isinstance(out, np.ndarray) or out.dtype != np.float64
                    or not out.flags.writeable):
                raise KindMismatch("output slot is not a writeable float64 array")
            if out.shape != u.shape:
                raise DimensionMismatch(
                    f"output of shape {out.shape} for input of shape {u.shape}")
        for k in range(u.ndim):
            axes = (*range(1, k + 1), 0, *range(k + 1, u.ndim))
            if u.transpose(axes).flags.c_contiguous:
                break
        else:
            u, k, axes = np.ascontiguousarray(u), 0, tuple(range(u.ndim))
        lines = u.transpose(axes)
        slot = np.empty(lines.shape) if out is None else out.transpose(axes)
        dest = slot if slot.flags.c_contiguous else np.empty(lines.shape)
        shape = (math.prod(lines.shape[:k]), self.n_nodes,
                 math.prod(lines.shape[k + 1 :]))
        u = lines.reshape(shape)
        _apply_form(form, u.copy() if np.may_share_memory(u, dest) else u,
                    dest.reshape(shape))
        if dest is not slot:
            slot[...] = dest
        return np.moveaxis(slot, k, 0) if out is None else out

    @cached_property
    def _d_form(self) -> tuple:
        """The form of D that ``_apply_form`` applies, cut from
        ``_entries``: its top block is ``boundary_block``."""
        shape = self.boundary_block.shape
        return self._form(self._head(shape), self.interior_stencil, shape)

    @cached_property
    def _dt_form(self) -> tuple:
        """The form of D^T, cut from D's entries with rows and columns
        swapped: its top block holds the first bt = max(b + w, wt) rows of
        D^T, those the reversed band does not give, and the bt + w columns
        they reach."""
        (b, wt), w = self.boundary_block.shape, self.halfwidth
        bt = max(b + w, wt)
        rows, cols, vals = self._head((bt, bt + w))
        return self._form((cols, rows, vals), self.interior_stencil[::-1],
                          (bt, bt + w))

    @cached_property
    def _ds_form(self) -> tuple:
        """The form of D* = M^-1 E - D, cut from D's negated entries, led
        by ``-1/m_0`` at (0, 0) and ended by ``1/m_(n-1)`` at (n-1, n-1)."""
        n, m = self.n_nodes, self.mass_weights
        shape = self.boundary_block.shape
        rows, cols, vals = self._head(shape)
        vals = np.concatenate(([-1.0 / m[0]], -vals, [1.0 / m[-1]]))
        return self._form((np.concatenate(([0], rows, [n - 1])),
                           np.concatenate(([0], cols, [n - 1])), vals),
                          -self.interior_stencil, shape)

    def _head(self, top_shape: tuple) -> tuple:
        """The entries of D that an r x c top block of ``top_shape`` may
        read: on a grid of at most ``_DENSE_NODES`` nodes all of them, else
        those of D's first max(r, c) rows, which lead ``_entries`` (its rows
        ascend but in its bottom block, beyond r and c)."""
        entries = self._entries
        if self.n_nodes <= _DENSE_NODES:
            return entries
        head = np.searchsorted(entries[0], max(top_shape))
        return tuple(a[:head] for a in entries)

    def _form(self, entries, stencil: np.ndarray, top_shape: tuple) -> tuple:
        """``(top, band, bottom)``, read-only, of the matrix whose entries
        ``(rows, cols, values)`` (``_head``'s, or those of the whole matrix)
        are given: the dense top block of ``top_shape``, the sum of the
        entries in it, the 2 ``_ROWS`` x (2 ``_ROWS`` + 2w) Toeplitz block
        of the stencil, and the top's 180-degree rotated negation.  On a
        grid of at most ``_DENSE_NODES`` nodes (every grid on which the end
        blocks meet, 2 bt <= 24) the top block is the whole matrix, the
        bottom empty."""
        n, w = self.n_nodes, self.halfwidth
        dense = n <= _DENSE_NODES
        r, c = (n, n) if dense else top_shape
        rows, cols, vals = entries
        keep = (rows < r) & (cols < c)
        top = np.bincount(rows[keep] * c + cols[keep], vals[keep], r * c)
        top = top.reshape(r, c)
        bottom = np.zeros((0, 0)) if dense else -top[::-1, ::-1]
        rows = np.arange(2 * _ROWS)[:, None]
        band = np.zeros((2 * _ROWS, 2 * _ROWS + 2 * w))
        band[rows, rows + np.arange(2 * w + 1)] = stencil
        return _read_only(top, band, bottom)

    # -- diagnostics -----------------------------------------------------

    def dense(self) -> np.ndarray:
        """Materialize D as a dense matrix (verification scale only)."""
        return self.apply_d(np.eye(self.n_nodes))

    @cached_property
    def _entries(self) -> tuple:
        """``(rows, cols, values)`` of the stored entries of D, row by row,
        as read-only arrays."""
        n, b = self.n_nodes, self.n_closure_rows
        w, wt = self.halfwidth, self.boundary_block.shape[1]
        top_r, top_c = np.divmod(np.arange(b * wt), wt)
        mid = np.arange(b, n - b)
        rows = np.concatenate([top_r, np.repeat(mid, 2 * w + 1), n - 1 - top_r])
        cols = np.concatenate(
            [top_c, (mid[:, None] + np.arange(-w, w + 1)).ravel(), n - 1 - top_c]
        )
        top = self.boundary_block.ravel()
        vals = np.concatenate([top, np.tile(self.interior_stencil, len(mid)), -top])
        return _read_only(rows, cols, vals)

    @cached_property
    def _mass_entries(self) -> np.ndarray:
        """The entries of M D at the ``_entries`` positions, read-only: the
        values of D times the mass weights of their rows."""
        rows, _, vals = self._entries
        return _read_only(self.mass_weights[rows] * vals)[0]

    def sbp_residual(self) -> float:
        """Max-abs entry of M D + D^T M - E, from the entries of D in O(n)."""
        rows, cols, _ = self._entries
        md = self._mass_entries
        k = np.max(np.abs(cols - rows))
        r = np.zeros((2 * k + 1, self.n_nodes))  # entry (i, j) at r[k + j - i, i]
        r[k + cols - rows, rows] = md
        r[k + rows - cols, cols] += md
        r[k, [0, -1]] += [1.0, -1.0]
        return float(np.max(np.abs(r)))

    def mass_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.dot(self.mass_weights * u, u)))

    # -- inverse on fields vanishing at the left boundary ----------------

    def invert_on_v0(self, u, tol: float = 1e-10, norm_floor: float = 0.0):
        """Discrete integral: the unique v with v[0] = 0 and D v = u.

        ``u`` may carry trailing axes; the inversion acts along the first one.
        Raises InvalidConfig when ``tol`` or ``norm_floor`` is NaN,
        negative or not a real number, NonFiniteEncountered when u holds a NaN or Inf, and
        NotInImage when u has an oscillation component larger than ``tol``
        times max(its own M-norm, ``norm_floor``).  Otherwise solves rows
        1..n-1 of ``D v = u`` for ``v[1:]``: row 0 is a combination of the others
        (the kernel vector of D^T has a nonzero first entry), so it holds
        once the oscillation component is gone.  The solve is
        ``_invert_last_axis`` of the transposed lines: on a grid of at most
        ``_DENSE_NODES`` nodes one product with ``_integral_inverse``, which
        agrees with the banded solve to roundoff; on a larger grid the
        banded solve with ``_integral_lu``.
        """
        _nonnegative(tol=tol, norm_floor=norm_floor)
        u, n = self._leading(u), self.n_nodes
        flat = u.reshape(n, -1)
        if not np.isfinite(flat).all():
            raise NonFiniteEncountered("discrete integral of NaN or Inf")
        return self._invert_last_axis(flat.T, tol, norm_floor).T.reshape(u.shape)

    def _invert_last_axis(self, u: np.ndarray, tol: float,
                          norm_floor: float) -> np.ndarray:
        """``invert_on_v0`` along the last axis of checked float data u
        (finite, its last axis of n_nodes), whose lines that axis holds.

        u is seen as ``(lines, n)``, with no axis moved, and is not scanned
        for NaN again.  The oscillation overlaps and M-norms of all lines
        are products along that axis, with ``_weighted_oscillation`` and
        the mass weights.  Then the integral is one product
        with ``_integral_inverse`` on a grid of at most ``_DENSE_NODES``
        nodes, and the banded solve on a larger one, which takes a copy of
        the lines (``dgbtrs`` overwrites its right-hand sides).
        """
        n = self.n_nodes
        lines = u.reshape(-1, n)
        _check_in_image(lines @ self._weighted_oscillation,
                        np.sqrt((lines * lines) @ self.mass_weights),
                        tol, norm_floor)
        out = np.empty(lines.shape)
        out[:, 0] = 0.0
        if n <= _DENSE_NODES:
            np.matmul(lines[:, 1:], self._integral_inverse.T, out=out[:, 1:])
        else:
            out[:, 1:] = _banded_lu_solve(self._integral_lu, lines[:, 1:].T).T
        return out.reshape(u.shape)

    @cached_property
    def _integral_lu(self) -> tuple:
        """``_banded_lu`` of rows and columns 1..n-1 of D, the system of the
        discrete integral; built on the first integral."""
        rows, cols, vals = self._entries
        return _banded_lu(rows - 1, cols - 1, vals, self.n_nodes - 1)

    @cached_property
    def _integral_inverse(self) -> np.ndarray:
        """The (n-1) x (n-1) inverse of rows and columns 1..n-1 of D,
        read-only: one ``_banded_lu_solve`` of the identity with
        ``_integral_lu``, so no factorization is added.  The integral uses
        it on a grid of at most ``_DENSE_NODES`` nodes; built on the first
        integral there."""
        return _read_only(_banded_lu_solve(self._integral_lu,
                                           np.eye(self.n_nodes - 1)))[0]

    # -- nullspace of the adjoint ----------------------------------------

    @cached_property
    def grid_oscillation(self) -> np.ndarray:
        """The unit-M-norm basis vector of ker D* (``grid_oscillation_1d``)."""
        return grid_oscillation_1d(self)

    @cached_property
    def _weighted_oscillation(self) -> np.ndarray:
        """``M grid_oscillation``, read-only: the oscillation overlap of a
        line is its product with it."""
        return _read_only(self.mass_weights * self.grid_oscillation)[0]

    # -- eigenbases of the 1D Gram pencil and its dual -----------------

    @cached_property
    def eigenbasis(self) -> tuple:
        """Generalized eigenpairs ``(lam, S)`` of the pencil (D^T M D, M).

        ``D^T M D S = M S diag(lam)`` and ``S^T M S = I``, with ``lam``
        ascending; ``lam[0]`` belongs to the constants, the kernel of D.
        Built on first use, so operator construction never pays for it: a
        dense symmetric ``eigh`` of ``M^-1/2 D^T M D M^-1/2``, whose
        eigenvectors scaled by ``M^-1/2`` are S.
        """
        d = self.dense()
        w = 1.0 / np.sqrt(self.mass_weights)
        gram = d.T @ (self.mass_weights[:, None] * d)
        lam, q = np.linalg.eigh(w[:, None] * gram * w)
        return lam, w[:, None] * q

    @cached_property
    def dual_eigenbasis(self) -> tuple:
        """Generalized eigenpairs ``(mu, R)`` of the pencil
        (M D M^-1 D^T M, M), the dual of the Gram pencil (D D* against D* D).

        ``M D M^-1 D^T M R = M R diag(mu)`` and ``R^T M R = I``, with ``mu``
        ascending; ``mu[0]`` belongs to ``grid_oscillation``, the kernel of
        D*.  Built on first use, as ``eigenbasis`` is: a dense symmetric
        ``eigh`` of ``C C^T`` with ``C = M^1/2 D M^-1/2``, whose eigenvectors
        scaled by ``M^-1/2`` are R.  (R is not derived from ``eigenbasis``
        as ``D S lam^-1/2``: that loses M-orthonormality as n grows.)
        """
        w = np.sqrt(self.mass_weights)
        c = w[:, None] * self.dense() / w
        mu, q = np.linalg.eigh(c @ c.T)
        return mu, q / w[:, None]


def build_operator_1d(order: int, grid: Grid1D) -> SbpOperator1D:
    """Construct the diagonal-norm SBP operator of interior order 2p.

    Coefficients come from the exact rational tables; construction checks the
    SBP identity, the polynomial accuracy of every row and nullspace
    consistency.
    """
    table = coefficient_table(order)
    if grid.n_nodes < table.min_nodes:
        raise GridTooSmall(
            f"order {order} needs at least {table.min_nodes} nodes, "
            f"got {grid.n_nodes}"
        )
    dx, n = grid.dx, grid.n_nodes
    stencil, block, weights = _float_coefficients(order)
    mass = np.full(n, dx)
    lead = weights * dx
    mass[: len(lead)] = lead
    mass[n - len(lead) :] = lead[::-1]

    op = SbpOperator1D(
        grid=grid,
        interior_order=order,
        interior_stencil=stencil / dx,
        boundary_block=block / dx,
        mass_weights=mass,
    )
    _validate_operator(op)
    return op


@lru_cache(maxsize=None)
def _float_coefficients(order: int) -> tuple:
    """The full interior stencil row, the closure block and the leading
    mass weights of ``order`` in units of 1/dx and dx, as read-only float
    arrays: converted from the exact rationals once per order."""
    table = coefficient_table(order)
    full = [-c for c in reversed(table.interior)] + [0] + list(table.interior)
    return _read_only(np.array([float(c) for c in full]),
                      np.array([[float(c) for c in row] for row in table.closure]),
                      np.array([float(wgt) for wgt in table.boundary_weights]))


def _banded_lu(rows, cols, vals, n: int) -> tuple:
    """LAPACK banded LU factors ``(lu, piv, lower, upper)`` of the n x n
    matrix A that holds those of the entries ``A[rows, cols] = vals`` that
    fall inside its square, in ``DGBSV``'s band layout.  Raises
    NullspaceDimensionUnexpected when A is singular: the bands factored
    here are nonsingular whenever D is nullspace consistent (see
    ``grid_oscillation_1d``)."""
    keep = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    offset = rows - cols
    lower, upper = max(offset.max(), 0), max(-offset.min(), 0)
    ab = np.zeros((2 * lower + upper + 1, n), order="F")
    ab[lower + upper + offset, cols] = vals
    lu, piv, info = dgbtrf(ab, lower, upper, overwrite_ab=True)
    if info > 0:
        raise NullspaceDimensionUnexpected(
            f"singular band: pivot {info - 1} of {n} is zero")
    return (*_read_only(lu, piv), lower, upper)


def _banded_lu_solve(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs``, a vector or one system per column, with the
    ``_banded_lu`` factors of A."""
    lu, piv, lower, upper = factors
    return dgbtrs(lu, lower, upper, rhs, piv)[0]


def _check_in_image(overlap, norms, tol: float, floor: float) -> None:
    """Raise NotInImage when a line's oscillation overlap (M-inner product
    with ``grid_oscillation``) exceeds ``tol`` times max(its M-norm,
    ``floor``), beyond roundoff: then D v = u has no solution."""
    overlap = np.abs(overlap)
    if (overlap > tol * np.maximum(norms, floor) + 1e2 * _EPS).any():
        raise NotInImage(
            "right-hand side has an oscillation component of relative size "
            f"{float(np.max(overlap / np.maximum(norms, 1e-300))):.3e}"
        )


def _real_data(u) -> np.ndarray:
    """u as a float64 array: the one rule for the data of a field or a
    matrix, which must be of a real dtype, bool, integer or float (else
    KindMismatch), so no complex or object data converts silently."""
    u = np.asarray(u)
    if u.dtype.kind not in "biuf":
        raise KindMismatch(f"data of dtype {u.dtype} is not real")
    return np.asarray(u, dtype=np.float64)


def _nonnegative(**values) -> None:
    """Raise InvalidConfig unless every named value is a real number
    (``numbers.Real``) >= 0; inf passes (it turns its check off), NaN, a
    string and None fail."""
    for name, x in values.items():
        if not (isinstance(x, Real) and x >= 0):
            raise InvalidConfig(f"{name}={x!r} is not a non-negative number")


def _read_only(*arrays) -> tuple:
    """The arrays, each made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _apply_form(form: tuple, u: np.ndarray, out: np.ndarray) -> None:
    """``out = A u`` along axis 1 of the C-ordered ``(pre, n, post)``
    arrays u and out, for the matrix A of ``form = (top, band, bottom)``.

    The interior rows come first, in blocks of B = ``_ROWS`` rows: one
    batched ``matmul`` of the leading B x (B + 2w) part of ``band`` with
    the windows of B + 2w rows of u the blocks read (strided arrays on the
    buffers of u and out, which must be C-contiguous; no copy), the even
    and the odd blocks apart, so that the windows of one product lie
    2B >= B + 2w rows apart, as BLAS requires; and one product
    with a leading part of ``band`` for the ragged tail.  When post == 1,
    each product is taken as ``x @ a.T``, and the pre lines are swept as
    one line, whose rows between the interiors of two lines are end rows.
    Then one product per end block writes the end rows of every line.
    """
    top, band, bottom = form
    (_, n, post), rows = u.shape, _ROWS
    w = (band.shape[1] - len(band)) // 2
    lo, hi = len(top), n - len(bottom)
    products = []
    if hi > lo and u.size:  # an empty field has no window to view
        line, dest = ((u.reshape(1, -1, 1), out.reshape(1, -1, 1)) if post == 1
                      else (u, out))
        stop = line.shape[1] - (n - hi)
        pairs = (stop - lo) // (2 * rows)
        mid = lo + 2 * rows * pairs

        def blocks(a, start, width):  # even and odd blocks from a[:, start]
            s0, s1, s2 = a.strides
            return np.ndarray((len(a), 2, pairs, width, post), a.dtype, a,
                              start * s1, (s0, rows * s1, 2 * rows * s1, s1, s2))

        products += [(band[:rows, : rows + 2 * w],
                      blocks(line, lo - w, rows + 2 * w),
                      blocks(dest, lo, rows)),
                     (band[: stop - mid, : stop - mid + 2 * w],
                      line[:, mid - w : stop + w], dest[:, mid:stop])]
    products.append((top, u[:, : top.shape[1]], out[:, :lo]))
    if len(bottom):  # a dense form is its top block alone
        products.append((bottom, u[:, n - bottom.shape[1] :], out[:, hi:]))
    for a, x, y in products:
        if post == 1:
            np.matmul(x[..., 0], a.T, out=y[..., 0])
        else:
            np.matmul(a, x, out=y)


def _validate_operator(op: SbpOperator1D) -> None:
    scale = np.max(np.abs(op._mass_entries))
    res = op.sbp_residual()
    if res > 1e-13 * max(scale, 1.0):
        raise AssertionError(
            f"SBP identity residual {res:.3e} exceeds tolerance; "
            "coefficient table corrupted?"
        )
    accuracy_check(op)
    op.grid_oscillation  # nullspace consistency: raises unless it holds


def accuracy_check(op: SbpOperator1D) -> None:
    """D must differentiate x^k exactly: k <= 2p at interior rows, k <= p at
    closure rows, to 1e-12 relative to the size of the row data.  All
    degrees are differentiated in one sweep; the lowest failing degree is
    reported."""
    x = op.grid.nodes()
    n, b = op.n_nodes, op.n_closure_rows
    p = op.boundary_order
    degrees = np.arange(op.interior_order + 1)
    monomials = np.vander(x, len(degrees), increasing=True)
    exact = np.zeros_like(monomials)
    exact[:, 1:] = degrees[1:] * monomials[:, :-1]
    errors = np.abs(op.apply_d(monomials) - exact)
    scale = np.maximum(np.max(np.abs(monomials), axis=0) / op.grid.dx, 1.0)
    # the largest error of each degree's rows: all rows up to degree p, the
    # interior ones above it (none when there are no interior rows)
    worst = np.max(errors, axis=0)
    worst[p + 1 :] = np.max(errors[b : n - b, p + 1 :], axis=0, initial=0.0)
    failed = np.flatnonzero(worst > 1e-12 * scale)
    if failed.size:
        deg = failed[0]
        raise AssertionError(
            f"row accuracy failure at degree {deg}: "
            f"max error {worst[deg]:.3e} (scale {scale[deg]:.3e})"
        )


def corrupt_operator(op: SbpOperator1D) -> SbpOperator1D:
    """Copy with one closure coefficient perturbed by 1e-3 (dimensionless).

    Negative control only: the result violates the SBP identity and nullspace
    consistency, and is deliberately built without validation.  A closure
    entry is used at every grid size; at the minimum size an operator has no
    interior rows.
    """
    closure = op.boundary_block.copy()
    closure[0, 0] += 1e-3 / op.grid.dx
    return replace(op, boundary_block=closure)


def grid_oscillation_1d(op: SbpOperator1D) -> np.ndarray:
    """The basis vector of ker D*, unit M-norm with a positive first entry.

    ker D* = M^-1 ker D^T.  The kernel vector z of D^T is normalised to
    ``z[0] = 1``; columns 0..n-2 of ``z^T D = 0`` then form a banded system
    for ``z[1:]`` (column n-1 is their negated sum, since D 1 = 0).  Raises
    NullspaceDimensionUnexpected when that system is singular, or when
    ``D 1`` or the full residual ``D^T z`` exceeds roundoff: then D is not
    nullspace consistent (ker D = constants, ker D^T one dimensional).
    """
    n = op.n_nodes
    rows, cols, vals = op._entries
    row0 = np.bincount(cols, weights=vals * (rows == 0), minlength=n)
    z = np.ones(n)
    z[1:] = _banded_lu_solve(_banded_lu(cols, rows - 1, vals, n - 1),
                             -row0[:-1])
    dtz = np.bincount(cols, weights=vals * z[rows], minlength=n)
    d1 = np.bincount(rows, weights=vals, minlength=n)
    residual = max(np.max(np.abs(dtz)) / np.max(np.abs(z)), np.max(np.abs(d1)))
    tol = 10 * n * _EPS * np.max(np.abs(vals))
    if not residual <= tol:
        raise NullspaceDimensionUnexpected(
            f"nullspace residual {residual:.3e} exceeds {tol:.3e}: ker D is not "
            "the constants, or ker D^T is not one dimensional with z[0] != 0"
        )
    osc = z / op.mass_weights
    return osc / op.mass_norm(osc)
