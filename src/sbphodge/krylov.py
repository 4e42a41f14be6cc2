"""Matrix-free least-norm least-squares solvers (LSQR and LSMR).

Both solvers run Golub-Kahan bidiagonalization from a zero initial guess, so
on rank-deficient consistent or inconsistent systems they converge to the
minimum-Euclidean-norm least-squares solution.  Stopping follows the standard
dual criteria: the residual test ``|r| <= btol |b| + atol |A| |x|`` for
compatible systems and the normal-equation test ``|A^T r| <= atol |A| |r|``
otherwise, with machine-precision floors so that ``atol = btol = 0`` still
terminates.  No preconditioning and no reorthogonalization are applied;
ill-conditioned problems are expected to arrive in scaled form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFiniteEncountered

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Abstract linear operator given by forward and adjoint procedures."""

    rows: int
    cols: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]

    def self_test(self, rng=None, trials: int = 3, tol: float = 1e-10) -> None:
        """Randomized adjoint-consistency check.

        Verifies |<Ax, y> - <x, A^T y>| against ``tol`` times the natural
        scale of the pairing; raises ValueError on failure.
        """
        rng = np.random.default_rng(rng)
        for _ in range(trials):
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
            scale = (
                np.linalg.norm(ax) * np.linalg.norm(y)
                + np.linalg.norm(x) * np.linalg.norm(aty)
                + 1.0
            )
            if abs(lhs - rhs) > tol * scale:
                raise ValueError(
                    f"adjoint inconsistency {abs(lhs - rhs):.3e} "
                    f"exceeds {tol:.1e} * {scale:.3e}"
                )

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "LinearMap":
        a = np.asarray(a, dtype=np.float64)
        return cls(
            rows=a.shape[0],
            cols=a.shape[1],
            forward=lambda x: a @ x,
            adjoint=lambda y: a.T @ y,
        )


@dataclass
class SolveStats:
    """Iteration diagnostics of one solver run."""

    iterations: int
    final_residual_norm: float
    final_normal_residual_norm: float
    # residual_tol | normal_tol | max_iter; "direct" (iterations 0) for a
    # stage solved without Krylov, e.g. by TensorOps.gram_pinv
    stop_reason: str
    residual_norms: list = field(default_factory=list)
    normal_residual_norms: list = field(default_factory=list)
    iterates: Optional[list] = None

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_residual_norm": self.final_residual_norm,
            "final_normal_residual_norm": self.final_normal_residual_norm,
            "stop_reason": self.stop_reason,
        }


def _prepare(op: LinearMap, b: np.ndarray, max_iter, self_test):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.rows,):
        raise DimensionMismatch(f"rhs shape {b.shape} != ({op.rows},)")
    if not np.all(np.isfinite(b)):
        raise NonFiniteEncountered("right-hand side contains NaN or Inf")
    if self_test:
        op.self_test()
    if max_iter is None:
        max_iter = 4 * max(op.rows, op.cols)
    return b, max_iter


def _check_finite(*values):
    for v in values:
        if not np.isfinite(v):
            raise NonFiniteEncountered("non-finite value during iteration")


def lsqr(
    op: LinearMap,
    b: np.ndarray,
    atol: float = 1e-10,
    btol: float = 1e-10,
    max_iter: Optional[int] = None,
    self_test: bool = True,
    keep_iterates: bool = False,
):
    """Minimum-norm least-squares solve of ``op x = b`` via LSQR.

    Returns ``(x, SolveStats)``.  The residual norm is non-increasing across
    iterations.  Hitting ``max_iter`` is not an error: the best iterate and
    its stats are returned with ``stop_reason = "max_iter"``.
    """
    b, max_iter = _prepare(op, b, max_iter, self_test)
    x = np.zeros(op.cols)
    stats = SolveStats(0, 0.0, 0.0, "residual_tol")
    if keep_iterates:
        stats.iterates = [x.copy()]

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, stats
    u = b / bnorm
    beta = bnorm
    v = op.adjoint(u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        stats.final_residual_norm = bnorm
        stats.stop_reason = "normal_tol"
        return x, stats
    v = v / alpha
    w = v.copy()
    phibar = beta
    rhobar = alpha
    anorm2 = alpha**2
    rnorm = bnorm
    arnorm = alpha * beta
    stats.residual_norms.append(rnorm)
    stats.normal_residual_norms.append(arnorm)

    stop = "max_iter"
    itn = 0
    while itn < max_iter:
        itn += 1
        u = op.forward(v) - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u = u / beta
            v = op.adjoint(u) - beta * v
            alpha = float(np.linalg.norm(v))
            if alpha > 0.0:
                v = v / alpha
        anorm2 += beta**2

        rho = float(np.hypot(rhobar, beta))
        c = rhobar / rho
        s = beta / rho
        theta = s * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = s * phibar
        tau = s * phi

        x = x + (phi / rho) * w
        w = v - (theta / rho) * w

        anorm = float(np.sqrt(anorm2))
        anorm2 += alpha**2
        rnorm = phibar
        arnorm = alpha * abs(tau)
        _check_finite(rnorm, arnorm)
        stats.residual_norms.append(rnorm)
        stats.normal_residual_norms.append(arnorm)
        if keep_iterates:
            stats.iterates.append(x.copy())

        xnorm = float(np.linalg.norm(x))
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + _EPS)
        t1 = test1 / (1.0 + anorm * xnorm / bnorm)
        rtol = btol + atol * anorm * xnorm / bnorm
        if 1.0 + test2 <= 1.0 or test2 <= atol:
            stop = "normal_tol"
            break
        if 1.0 + t1 <= 1.0 or test1 <= rtol:
            stop = "residual_tol"
            break

    stats.iterations = itn
    stats.final_residual_norm = rnorm
    stats.final_normal_residual_norm = arnorm
    stats.stop_reason = stop
    return x, stats


def lsmr(
    op: LinearMap,
    b: np.ndarray,
    atol: float = 1e-10,
    btol: float = 1e-10,
    max_iter: Optional[int] = None,
    self_test: bool = True,
    keep_iterates: bool = False,
):
    """Minimum-norm least-squares solve of ``op x = b`` via LSMR.

    Returns ``(x, SolveStats)``.  The normal-equation residual ``|A^T r|`` is
    non-increasing across iterations.
    """
    b, max_iter = _prepare(op, b, max_iter, self_test)
    x = np.zeros(op.cols)
    stats = SolveStats(0, 0.0, 0.0, "residual_tol")
    if keep_iterates:
        stats.iterates = [x.copy()]

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, stats
    u = b / bnorm
    beta = bnorm
    v = op.adjoint(u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        stats.final_residual_norm = bnorm
        stats.stop_reason = "normal_tol"
        return x, stats
    v = v / alpha

    zetabar = alpha * beta
    alphabar = alpha
    rho = 1.0
    rhobar = 1.0
    cbar = 1.0
    sbar = 0.0
    h = v.copy()
    hbar = np.zeros(op.cols)

    # quantities for the |r| recurrence
    betadd = beta
    betad = 0.0
    rhodold = 1.0
    tautildeold = 0.0
    thetatilde = 0.0
    zeta = 0.0

    anorm2 = alpha**2
    rnorm = bnorm
    arnorm = zetabar
    stats.residual_norms.append(rnorm)
    stats.normal_residual_norms.append(arnorm)

    stop = "max_iter"
    itn = 0
    while itn < max_iter:
        itn += 1
        u = op.forward(v) - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u = u / beta
            v = op.adjoint(u) - beta * v
            alpha = float(np.linalg.norm(v))
            if alpha > 0.0:
                v = v / alpha

        # rotation turning the bidiagonal B_k into upper triangular R_k
        rhoold = rho
        rho = float(np.hypot(alphabar, beta))
        c = alphabar / rho
        s = beta / rho
        thetanew = s * alpha
        alphabar = c * alpha

        # second rotation for the normal-equation factorization
        rhobarold = rhobar
        zetaold = zeta
        thetabar = sbar * rho
        rhobar = float(np.hypot(cbar * rho, thetanew))
        cbar_new = cbar * rho / rhobar
        sbar = thetanew / rhobar
        cbar = cbar_new
        zeta = cbar * zetabar
        zetabar = -sbar * zetabar

        hbar = h - (thetabar * rho / (rhoold * rhobarold)) * hbar
        x = x + (zeta / (rho * rhobar)) * hbar
        h = v - (thetanew / rho) * h

        # residual-norm recurrence
        betahat = c * betadd
        betadd = -s * betadd
        thetatildeold = thetatilde
        rhotildeold = float(np.hypot(rhodold, thetabar))
        ctildeold = rhodold / rhotildeold
        stildeold = thetabar / rhotildeold
        thetatilde = stildeold * rhobar
        rhodold = ctildeold * rhobar
        betad = -stildeold * betad + ctildeold * betahat
        tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold
        taud = (zeta - thetatilde * tautildeold) / rhodold
        rnorm = float(np.sqrt((betad - taud) ** 2 + betadd**2))

        anorm2 += beta**2
        anorm = float(np.sqrt(anorm2))
        anorm2 += alpha**2
        arnorm = abs(zetabar)
        _check_finite(rnorm, arnorm)
        stats.residual_norms.append(rnorm)
        stats.normal_residual_norms.append(arnorm)
        if keep_iterates:
            stats.iterates.append(x.copy())

        xnorm = float(np.linalg.norm(x))
        test1 = rnorm / bnorm
        test2 = arnorm / (anorm * rnorm + _EPS)
        t1 = test1 / (1.0 + anorm * xnorm / bnorm)
        rtol = btol + atol * anorm * xnorm / bnorm
        if 1.0 + test2 <= 1.0 or test2 <= atol:
            stop = "normal_tol"
            break
        if 1.0 + t1 <= 1.0 or test1 <= rtol:
            stop = "residual_tol"
            break

    stats.iterations = itn
    stats.final_residual_norm = rnorm
    stats.final_normal_residual_norm = arnorm
    stats.stop_reason = stop
    return x, stats


SOLVERS = {"lsqr": lsqr, "lsmr": lsmr}
