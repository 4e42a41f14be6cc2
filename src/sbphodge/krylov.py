"""Minimum-norm least-squares solvers (LSQR and LSMR) over a ``LinearMap``.

The iterations are SciPy's ``scipy.sparse.linalg.lsqr`` (Paige & Saunders,
1982) and ``lsmr`` (Fong & Saunders, 2011); this module adapts them to the
package's ``LinearMap``, ``SolveStats`` and typed errors.  From a zero initial
guess both converge to the minimum-Euclidean-norm least-squares solution.
They stop on the residual test ``|r| <= btol |b| + atol |A| |x|`` or the
normal-equation test ``|A^T r| <= atol |A| |r|``, with machine-precision
floors so that ``atol = btol = 0`` still terminates; SciPy's condition limit
is off (``conlim=0``).  A tolerance that is negative, not finite or not a
real number, or a ``max_iter`` that is not a positive integer, raises
InvalidConfig.  Every solve first runs the operator's adjoint self-test
(``LinearMap.self_test``, three forward and three adjoint applications).  A
solve returns its final iterate only; from a zero start, a run capped at ``max_iter=k`` returns
iterate k exactly.  No preconditioning is applied.  A solve, not this module, imports
``scipy.sparse.linalg``, so the default direct decomposition never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteEncountered


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Abstract linear operator given by forward and adjoint procedures."""

    rows: int
    cols: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]

    def self_test(self) -> None:
        """Randomized adjoint-consistency check.

        Verifies |<Ax, y> - <x, A^T y>| against 1e-10 times the natural
        scale of the pairing, on 3 fresh random pairs; raises ValueError on
        failure, a pairing that is NaN included.
        """
        rng, tol = np.random.default_rng(), 1e-10
        for _ in range(3):
            x = rng.standard_normal(self.cols)
            y = rng.standard_normal(self.rows)
            ax = self.forward(x)
            aty = self.adjoint(y)
            if ax.shape != (self.rows,) or aty.shape != (self.cols,):
                raise DimensionMismatch(
                    f"forward/adjoint shapes {ax.shape}/{aty.shape} do not match "
                    f"declared sizes ({self.rows},)/({self.cols},)"
                )
            lhs = float(np.dot(ax, y))
            rhs = float(np.dot(x, aty))
            scale = (np.linalg.norm(ax) * np.linalg.norm(y)
                     + np.linalg.norm(x) * np.linalg.norm(aty) + 1.0)
            if not abs(lhs - rhs) <= tol * scale:  # a NaN pairing fails
                raise ValueError(f"adjoint inconsistency {abs(lhs - rhs):.3e} "
                                 f"exceeds {tol:.1e} * {scale:.3e}")

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "LinearMap":
        a = np.asarray(a, dtype=np.float64)
        return cls(rows=a.shape[0], cols=a.shape[1],
                   forward=lambda x: a @ x, adjoint=lambda y: a.T @ y)


@dataclass
class SolveStats:
    """Iteration diagnostics of one solver run."""

    iterations: int
    final_residual_norm: float
    final_normal_residual_norm: float
    # residual_tol | normal_tol | max_iter; "direct" (iterations 0) for a
    # stage solved without Krylov, e.g. by TensorOps.gram_pinv
    stop_reason: str

    def as_dict(self) -> dict:
        return {"iterations": self.iterations,
                "final_residual_norm": self.final_residual_norm,
                "final_normal_residual_norm": self.final_normal_residual_norm,
                "stop_reason": self.stop_reason}


def _finite(apply):
    """``apply`` with its output checked: SciPy carries a NaN or Inf on to
    the iteration limit instead of stopping."""

    def checked(x):
        y = apply(x)
        if not np.all(np.isfinite(y)):
            raise NonFiniteEncountered("operator returned NaN or Inf")
        return y

    return checked


# SciPy's istop: 1 and 4 pass the residual test, 2 and 5 the normal-equation
# test.  7 is the iteration limit; 3 and 6, a condition estimate beyond
# 1/eps, also stop short of atol/btol and read as max_iter.
_STOPS = {1: "residual_tol", 4: "residual_tol", 2: "normal_tol",
          5: "normal_tol"}


def check_controls(atol, btol, max_iter) -> None:
    """InvalidConfig unless atol, btol >= 0 are finite real numbers
    (``numbers.Real``) and max_iter is None or a positive integer."""
    if not all(isinstance(t, Real) and np.isfinite(t) and t >= 0
               for t in (atol, btol)):
        raise InvalidConfig(f"tolerances atol={atol}, btol={btol} are not "
                            "finite and non-negative")
    if max_iter is not None and not (isinstance(max_iter, Integral)
                                     and max_iter >= 1):
        raise InvalidConfig(f"max_iter={max_iter!r} is not a positive integer")


def _solve(name, op, b, atol, btol, max_iter):
    from scipy.sparse import linalg  # lazily: not on the default path

    check_controls(atol, btol, max_iter)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.rows,):
        raise DimensionMismatch(f"rhs shape {b.shape} != ({op.rows},)")
    if not np.all(np.isfinite(b)):
        raise NonFiniteEncountered("right-hand side contains NaN or Inf")
    op.self_test()
    if max_iter is None:
        max_iter = 4 * max(op.rows, op.cols)
    a = linalg.LinearOperator((op.rows, op.cols), dtype=np.float64,
                              matvec=_finite(op.forward),
                              rmatvec=_finite(op.adjoint))
    if name == "lsqr":
        out = linalg.lsqr(a, b, atol=atol, btol=btol, conlim=0,
                          iter_lim=max_iter)
        x, istop, itn, rnorm, arnorm = out[:4] + out[7:8]
    else:
        x, istop, itn, rnorm, arnorm = linalg.lsmr(
            a, b, atol=atol, btol=btol, conlim=0, maxiter=max_iter)[:5]
    if not (np.isfinite(rnorm) and np.isfinite(arnorm)):
        raise NonFiniteEncountered("non-finite value during iteration")
    if istop == 0:  # x = 0 returned before the first iteration
        istop = 1 if rnorm == 0 else 2 if arnorm == 0 else 7
    return x, SolveStats(itn, float(rnorm), float(arnorm),
                         _STOPS.get(istop, "max_iter"))


def lsqr(op: LinearMap, b: np.ndarray, atol: float = 1e-10,
         btol: float = 1e-10, max_iter: Optional[int] = None):
    """Minimum-norm least-squares solve of ``op x = b`` via LSQR.

    Returns ``(x, SolveStats)``.  The residual norm is non-increasing across
    iterations.  Hitting ``max_iter`` is not an error: the last iterate and
    its stats are returned with ``stop_reason = "max_iter"``.
    """
    return _solve("lsqr", op, b, atol, btol, max_iter)


def lsmr(op: LinearMap, b: np.ndarray, atol: float = 1e-10,
         btol: float = 1e-10, max_iter: Optional[int] = None):
    """Minimum-norm least-squares solve of ``op x = b`` via LSMR.

    Returns ``(x, SolveStats)``.  The normal-equation residual ``|A^T r|`` is
    non-increasing across iterations.
    """
    return _solve("lsmr", op, b, atol, btol, max_iter)


SOLVERS = {"lsqr": lsqr, "lsmr": lsmr}
