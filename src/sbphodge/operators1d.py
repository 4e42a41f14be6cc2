"""One-dimensional diagonal-norm SBP derivative operators.

The derivative is stored matrix free: an antisymmetric interior stencil plus a
dense top closure block (the bottom block is its 180-degree rotated negation).
The diagonal mass matrix makes ``u^T M v`` a quadrature of the L2 inner
product, and the triple (D, M, E) satisfies ``M D + D^T M = E`` with
``E = diag(-1, 0, ..., 0, 1)`` up to roundoff.  Every operator is validated on
construction: the identity residual, the polynomial accuracy of all rows and
nullspace consistency are checked, so a corrupted coefficient cannot construct
silently.  The grid oscillation (the kernel of D*) and the discrete integral
are banded LU solves on the entries of D, O(n) in time and memory; ``dense()``
serves only the eigenbasis and verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    GridTooSmall,
    NotInImage,
    NullspaceDimensionUnexpected,
)
from .grid import Grid1D
from .stencils import coefficient_table

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class SbpOperator1D:
    """A first-derivative SBP operator on a uniform 1D grid.

    Immutable after construction; all apply methods are pure and safe to call
    concurrently.
    """

    grid: Grid1D
    interior_order: int
    interior_stencil: np.ndarray    # full row -c_w..c_w, scaled by 1/dx
    boundary_block: np.ndarray      # top closure rows, scaled by 1/dx
    mass_weights: np.ndarray        # diagonal of M, scaled by dx
    _transpose_parts: tuple = field(repr=False, default=None)

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

    def apply_d(self, u: np.ndarray) -> np.ndarray:
        """Apply D along the first axis of ``u``.

        Accumulates products in increasing column order, which reproduces a
        naive dense row-by-row multiplication bit for bit.
        """
        u = np.asarray(u, dtype=np.float64)
        n = self.n_nodes
        if u.shape[0] != n:
            raise DimensionMismatch(f"expected leading axis {n}, got {u.shape[0]}")
        b = self.n_closure_rows
        w = self.halfwidth
        wt = self.boundary_block.shape[1]
        out = np.empty_like(u)
        trailing = (1,) * (u.ndim - 1)

        s = self.interior_stencil
        if n > 2 * b:
            core = s[0] * u[b - w : n - b - w]
            for k in range(1, 2 * w + 1):
                core = core + s[k] * u[b - w + k : n - b - w + k]
            out[b : n - b] = core

        top = self.boundary_block
        acc = top[:, 0].reshape(-1, *trailing) * u[0]
        for j in range(1, wt):
            acc = acc + top[:, j].reshape(-1, *trailing) * u[j]
        out[:b] = acc

        bot = -top[::-1, ::-1]
        acc = bot[:, 0].reshape(-1, *trailing) * u[n - wt]
        for j in range(1, wt):
            acc = acc + bot[:, j].reshape(-1, *trailing) * u[n - wt + j]
        out[n - b :] = acc
        return out

    def apply_d_transpose(self, u: np.ndarray) -> np.ndarray:
        """Apply D^T along the first axis of ``u``."""
        u = np.asarray(u, dtype=np.float64)
        n = self.n_nodes
        if u.shape[0] != n:
            raise DimensionMismatch(f"expected leading axis {n}, got {u.shape[0]}")
        band_rev, corr = self._transpose_parts
        b, wt = corr.shape
        w = self.halfwidth
        out = np.zeros_like(u)
        # transposed interior band, truncated at both ends
        for k in range(2 * w + 1):
            m = k - w
            c = band_rev[k]
            if c == 0.0:
                continue
            if m >= 0:
                out[: n - m] += c * u[m:]
            else:
                out[-m:] += c * u[: n + m]
        # corner corrections: closure rows minus what the full band put there
        out[:wt] += np.tensordot(corr, u[:b], axes=(0, 0))
        out[n - wt :] += np.tensordot(-corr[::-1, ::-1], u[n - b :], axes=(0, 0))
        return out

    def apply_d_star(self, u: np.ndarray) -> np.ndarray:
        """Apply the M-adjoint D* = M^-1 D^T M along the first axis."""
        u = np.asarray(u, dtype=np.float64)
        n = self.n_nodes
        if u.shape[0] != n:
            raise DimensionMismatch(f"expected leading axis {n}, got {u.shape[0]}")
        shape = (n,) + (1,) * (u.ndim - 1)
        m = self.mass_weights.reshape(shape)
        return self.apply_d_transpose(m * u) / m

    # -- diagnostics -----------------------------------------------------

    def dense(self) -> np.ndarray:
        """Materialize D as a dense matrix (verification scale only)."""
        return self.apply_d(np.eye(self.n_nodes))

    def _entries(self) -> tuple:
        """``(rows, cols, values)`` of the stored entries of D, row by row."""
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
        return rows, cols, vals

    def sbp_residual(self) -> float:
        """Max-abs entry of M D + D^T M - E, from the entries of D in O(n)."""
        rows, cols, vals = self._entries()
        md = self.mass_weights[rows] * vals
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
        Raises NotInImage when u has an oscillation component larger than
        ``tol`` times max(its own M-norm, ``norm_floor``).  Otherwise solves
        rows 1..n-1 of ``D v = u`` for ``v[1:]`` by banded LU: row 0 is a
        combination of the others (the kernel vector of D^T has a nonzero
        first entry), so it holds once the oscillation component is gone.
        """
        u = np.asarray(u, dtype=np.float64)
        n = self.n_nodes
        if u.shape[0] != n:
            raise DimensionMismatch(f"expected leading axis {n}, got {u.shape[0]}")
        osc = self.grid_oscillation().values
        flat = u.reshape(n, -1)
        overlap = np.abs((self.mass_weights * osc) @ flat)
        norms = np.sqrt(self.mass_weights @ flat**2)
        if np.any(overlap > tol * np.maximum(norms, norm_floor) + 1e2 * _EPS):
            raise NotInImage(
                "right-hand side has an oscillation component of relative size "
                f"{float(np.max(overlap / np.maximum(norms, 1e-300))):.3e}"
            )
        rows, cols, vals = self._entries()
        out = np.zeros_like(flat)
        out[1:] = _banded_solve(rows - 1, cols - 1, vals, flat[1:])
        return out.reshape(u.shape)

    # -- nullspace of the adjoint ----------------------------------------

    def grid_oscillation(self) -> "OscillationVector1D":
        key = "_osc_cache"
        cached = getattr(self, key, None)
        if cached is None:
            cached = grid_oscillation_1d(self)
            object.__setattr__(self, key, cached)
        return cached

    # -- eigenbasis of the 1D Gram pencil ----------------------------------

    def eigenbasis(self) -> tuple:
        """Generalized eigenpairs ``(lam, S)`` of the pencil (D^T M D, M).

        ``D^T M D S = M S diag(lam)`` and ``S^T M S = I``, with ``lam``
        ascending; ``lam[0]`` belongs to the constants, the kernel of D.
        Built on first use and cached, so operator construction never pays
        for it: a dense symmetric ``eigh`` of ``M^-1/2 D^T M D M^-1/2``,
        whose eigenvectors scaled by ``M^-1/2`` are S.
        """
        key = "_eig_cache"
        cached = getattr(self, key, None)
        if cached is None:
            d = self.dense()
            w = 1.0 / np.sqrt(self.mass_weights)
            gram = d.T @ (self.mass_weights[:, None] * d)
            lam, q = np.linalg.eigh(w[:, None] * gram * w)
            cached = (lam, w[:, None] * q)
            object.__setattr__(self, key, cached)
        return cached


@dataclass(frozen=True, eq=False)
class OscillationVector1D:
    """Basis vector of ker D*, unit M-norm, first entry positive."""

    values: np.ndarray

    def __post_init__(self):
        if self.values[0] <= 0:
            raise ValueError("sign convention violated: first entry must be positive")


def build_operator_1d(order: int, grid: Grid1D, validate: bool = True) -> SbpOperator1D:
    """Construct the diagonal-norm SBP operator of interior order 2p.

    Coefficients come from the exact rational tables; construction checks the
    SBP identity, the polynomial accuracy of every row and nullspace
    consistency unless ``validate`` is disabled (used only for deliberate
    negative controls).
    """
    table = coefficient_table(order)
    if grid.n_nodes < table.min_nodes:
        raise GridTooSmall(
            f"order {order} needs at least {table.min_nodes} nodes, "
            f"got {grid.n_nodes}"
        )
    dx = grid.dx
    full = [-c for c in reversed(table.interior)] + [0] + list(table.interior)
    interior = np.array([float(c) for c in full]) / dx
    closure = np.array([[float(c) for c in row] for row in table.closure]) / dx
    n = grid.n_nodes
    mass = np.full(n, dx)
    lead = np.array([float(wgt) for wgt in table.boundary_weights]) * dx
    b = table.n_closure_rows
    mass[:b] = lead
    mass[n - b :] = lead[::-1]

    op = SbpOperator1D(
        grid=grid,
        interior_order=order,
        interior_stencil=interior,
        boundary_block=closure,
        mass_weights=mass,
        _transpose_parts=_transpose_parts(interior, closure),
    )
    if validate:
        _validate_operator(op)
    return op


def _transpose_parts(interior: np.ndarray, closure: np.ndarray) -> tuple:
    """Precompute the reversed band and corner correction for D^T."""
    b, wt = closure.shape
    w = (len(interior) - 1) // 2
    band_block = np.zeros((b, wt))
    for i in range(b):
        for k in range(2 * w + 1):
            j = i + k - w
            if 0 <= j < wt:
                band_block[i, j] = interior[k]
    corr = closure - band_block
    return interior[::-1].copy(), corr


def _banded_solve(rows, cols, vals, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` by banded LU, where A holds those of the entries
    ``A[rows, cols] = vals`` that fall inside its square."""
    n = len(rhs)
    keep = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    offset = rows - cols
    lower, upper = max(offset.max(), 0), max(-offset.min(), 0)
    ab = np.zeros((lower + upper + 1, n))
    ab[upper + offset, cols] = vals
    return scipy.linalg.solve_banded((lower, upper), ab, rhs, check_finite=False)


def _validate_operator(op: SbpOperator1D) -> None:
    rows, _, vals = op._entries()
    scale = np.max(np.abs(op.mass_weights[rows] * vals))
    res = op.sbp_residual()
    if res > 1e-13 * max(scale, 1.0):
        raise AssertionError(
            f"SBP identity residual {res:.3e} exceeds tolerance; "
            "coefficient table corrupted?"
        )
    accuracy_check(op)
    op.grid_oscillation()  # nullspace consistency


def accuracy_check(op: SbpOperator1D, tol: float = 1e-12) -> None:
    """D must differentiate x^k exactly: k <= 2p at interior rows, k <= p at
    closure rows.  Tolerance is relative to the size of the row data."""
    x = op.grid.nodes()
    n, b = op.n_nodes, op.n_closure_rows
    p = op.boundary_order
    for deg in range(0, op.interior_order + 1):
        monomial = x**deg
        exact = deg * x ** (deg - 1) if deg >= 1 else np.zeros(n)
        err = np.abs(op.apply_d(monomial) - exact)
        scale = max(np.max(np.abs(monomial)) / op.grid.dx, 1.0)
        check = err if deg <= p else err[b : n - b]
        if check.size and np.max(check) > tol * scale:
            raise AssertionError(
                f"row accuracy failure at degree {deg}: "
                f"max error {np.max(check):.3e} (scale {scale:.3e})"
            )


def corrupt_operator(op: SbpOperator1D, delta: float = 1e-3) -> SbpOperator1D:
    """Copy with one interior coefficient perturbed by ``delta`` (dimensionless).

    Negative control only: the result violates the SBP identity and nullspace
    consistency, and is deliberately built without validation.
    """
    stencil = op.interior_stencil.copy()
    stencil[-1] += delta / op.grid.dx
    return replace(op, interior_stencil=stencil,
                   _transpose_parts=_transpose_parts(stencil, op.boundary_block))


def grid_oscillation_1d(op: SbpOperator1D) -> OscillationVector1D:
    """The unique (up to sign and scale) basis vector of ker D*.

    ker D* = M^-1 ker D^T.  The kernel vector z of D^T is normalised to
    ``z[0] = 1``; columns 0..n-2 of ``z^T D = 0`` then form a banded system
    for ``z[1:]`` (column n-1 is their negated sum, since D 1 = 0).  Raises
    NullspaceDimensionUnexpected when that system is singular, or when
    ``D 1`` or the full residual ``D^T z`` exceeds roundoff: then D is not
    nullspace consistent (ker D = constants, ker D^T one dimensional).
    """
    n = op.n_nodes
    rows, cols, vals = op._entries()
    row0 = np.bincount(cols, weights=vals * (rows == 0), minlength=n)
    z = np.ones(n)
    try:
        z[1:] = _banded_solve(cols, rows - 1, vals, -row0[:-1])
    except np.linalg.LinAlgError as exc:
        raise NullspaceDimensionUnexpected(f"kernel of D^T not found: {exc}")
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
    return OscillationVector1D(values=osc / op.mass_norm(osc))
