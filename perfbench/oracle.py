"""Output checks for the benchmark workloads.

Every check recomputes what it needs from the library's public operators:
``gradient``, ``rot`` and ``curl`` on fields, the per-axis sweeps
``TensorOps.apply_axis`` / ``apply_axis_transpose``, the mass inner product
and the oscillation fields.  Transposes are rebuilt here from the per-axis
sweeps, so no check runs the code path it judges.  The tolerances are
constants of the benchmark and identical on every commit; each is far from
what a correct result achieves and far from what a loosened solve gives
(see tests/test_oracle.py).

A check returns a list of failure messages; an empty list means the output
passed.
"""

from __future__ import annotations

import numpy as np
import sbphodge as sh

# Identities that hold to roundoff once the result is assembled: additivity,
# part == operator(potential), curl grad = 0, div rot = 0, filter idempotence.
ROUNDOFF_TOL = 1e-10
# |A^T M r| / (|A|_2 |r|_M) for each projection stage, scaled as the library
# scales its least-squares problems.  At order 6 a solve converged to
# atol = 1e-12 gives about 1e-11; atol = 1e-3 gives about 4e-3.
NORMAL_TOL = 1e-8
# Potentials are minimum-M-norm representatives, so they are M-orthogonal to
# the kernel of their operator.
GAUGE_TOL = 1e-8
# Neumann and integral potentials against the analytic harmonic polynomial.
POTENTIAL_TOL = 1e-8

_POWER_STEPS = 40

# Term lists (out component, in component, axis, sign): out[o] += sign D_axis in[i].
_GRAD = {2: [(0, 0, 0, 1), (1, 0, 1, 1)],
         3: [(0, 0, 0, 1), (1, 0, 1, 1), (2, 0, 2, 1)]}
_SOL = {2: [(0, 0, 1, 1), (1, 0, 0, -1)],  # rot v = (D_2 v, -D_1 v)
        3: [(0, 2, 1, 1), (0, 1, 2, -1), (1, 0, 2, 1), (1, 2, 0, -1),
            (2, 1, 0, 1), (2, 0, 1, -1)]}


class _Operator:
    """A first-order differential operator assembled from per-axis sweeps."""

    def __init__(self, ops, terms):
        self.ops = ops
        self.terms = terms
        self.n_in = 1 + max(t[1] for t in terms)
        self.n_out = 1 + max(t[0] for t in terms)
        self.s = np.sqrt(ops.mass)
        self._norm = None

    def apply(self, x):
        x = x.reshape(self.n_in, *self.ops.shape)
        out = np.zeros((self.n_out, *self.ops.shape))
        for o, i, axis, sign in self.terms:
            out[o] += sign * self.ops.apply_axis(axis, x[i])
        return out

    def transpose(self, w):
        w = w.reshape(self.n_out, *self.ops.shape)
        out = np.zeros((self.n_in, *self.ops.shape))
        for o, i, axis, sign in self.terms:
            out[i] += sign * self.ops.apply_axis_transpose(axis, w[o])
        return out

    def norm(self) -> float:
        """2-norm of the mass-scaled operator S A S^-1, by power iteration."""
        if self._norm is None:
            x = np.random.default_rng(0).standard_normal(
                (self.n_in, *self.ops.shape))
            sigma2 = 0.0
            for _ in range(_POWER_STEPS):
                x /= np.linalg.norm(x)
                y = self.apply(x / self.s) * self.s
                x = self.transpose(y * self.s) / self.s
                sigma2 = float(np.linalg.norm(x))
            self._norm = float(np.sqrt(sigma2))
        return self._norm

    def normal_ratio(self, r) -> float:
        """|A^T M r| / (|A| |r|_M) in the mass-scaled Euclidean setting.

        Small exactly when r is M-orthogonal to the image of the operator.
        """
        rm = self.ops.norm(r)
        if rm == 0.0:
            return 0.0
        atr = self.transpose(self.ops.mass * r) / self.s
        return float(np.linalg.norm(atr)) / (self.norm() * rm)


class Oracle:
    """Checks bound to one set of operators; operator norms are cached."""

    def __init__(self, ops):
        self.ops = ops
        self.grad = _Operator(ops, _GRAD[ops.dim])
        self.sol = _Operator(ops, _SOL[ops.dim])
        self.one = np.ones(ops.shape)

    def _rel(self, num, den) -> float:
        return float(num) / float(den) if den > 0 else float(num)

    def _mean_ratio(self, f) -> float:
        ops = self.ops
        return self._rel(abs(ops.inner(f, self.one)),
                         ops.norm(f) * ops.norm(self.one))

    def hodge(self, u, res, grad_first: bool) -> list:
        """Check one Helmholtz Hodge decomposition of the vector array u."""
        ops = self.ops
        fails = []
        need = _collector(fails)
        gphi, sol, rem = res.grad_phi.data, res.sol_part.data, res.remainder.data
        phi, v = res.phi.data, res.v.data
        nu = ops.norm(u)
        for name, arr in (("phi", phi), ("v", v), ("remainder", rem)):
            if not np.all(np.isfinite(arr)):
                fails.append(f"{name} is not finite")
                return fails
        need("additivity", self._rel(ops.norm(u - gphi - sol - rem), nu),
             ROUNDOFF_TOL)
        need("grad_phi == grad(phi)",
             self._rel(ops.norm(gphi - sh.gradient(ops, res.phi).data), nu),
             ROUNDOFF_TOL)
        sol_of = sh.rot if ops.dim == 2 else sh.curl
        need("sol_part == rot/curl(v)",
             self._rel(ops.norm(sol - sol_of(ops, res.v).data), nu),
             ROUNDOFF_TOL)
        grad_input = u if grad_first else u - sol
        curl_input = u - gphi if grad_first else u
        need("grad stage normal equations",
             self.grad.normal_ratio(grad_input - gphi), NORMAL_TOL)
        need("curl stage normal equations",
             self.sol.normal_ratio(curl_input - sol), NORMAL_TOL)
        need("<phi,1>_M = 0", self._mean_ratio(phi), GAUGE_TOL)
        if ops.dim == 2:
            need("<v,1>_M = 0", self._mean_ratio(v), GAUGE_TOL)
        else:
            need("v M-orthogonal to gradients", self.grad.normal_ratio(v),
                 GAUGE_TOL)
        return fails

    def potentials(self, p, phi_neumann, phi_integral) -> list:
        """Check both potentials of grad p for a harmonic polynomial p."""
        ops = self.ops
        fails = []
        need = _collector(fails)
        vol = ops.inner(self.one, self.one)
        reference = p - ops.inner(p, self.one) / vol
        scale = ops.norm(reference)
        corner = p - p[(0,) * ops.dim]
        shifted = phi_integral - ops.inner(phi_integral, self.one) / vol
        need("Neumann potential vs analytic",
             self._rel(ops.norm(phi_neumann - reference), scale), POTENTIAL_TOL)
        need("integral potential vs analytic",
             self._rel(ops.norm(phi_integral - corner), scale), POTENTIAL_TOL)
        need("Neumann vs integral potential",
             self._rel(ops.norm(phi_neumann - shifted), scale), POTENTIAL_TOL)
        return fails

    def calculus(self, f, u, out) -> list:
        """Check the fixed calculus sequence run on scalar f and vector u."""
        ops = self.ops
        fails = []
        need = _collector(fails)
        dscale = max(1.0 / op.grid.dx for op in ops.axis_ops)
        need("grad", self._rel(ops.norm(out["grad"] - self.grad.apply(f)),
                               dscale * ops.norm(f)), ROUNDOFF_TOL)
        need("rot", self._rel(ops.norm(out["rot"] - self.sol.apply(f)),
                              dscale * ops.norm(f)), ROUNDOFF_TOL)
        need("curl grad = 0", self._rel(ops.norm(out["curl_grad"]),
                                        dscale * ops.norm(out["grad"])),
             ROUNDOFF_TOL)
        need("div rot = 0", self._rel(ops.norm(out["div_rot"]),
                                      dscale * ops.norm(out["rot"])),
             ROUNDOFF_TOL)
        filtered = out["filtered"]
        overlap = max(
            self._rel(abs(ops.inner(osc, filtered[i])), ops.norm(u[i]))
            for osc in ops.oscillations.values()
            for i in range(u.shape[0])
        )
        need("filtered field oscillation-free", overlap, ROUNDOFF_TOL)
        again = sh.filter_field(ops, ops.field(filtered), extended=True).data
        need("filter idempotent",
             self._rel(ops.norm(again - filtered), ops.norm(u)), ROUNDOFF_TOL)
        need("<u, Pu>_M = <Pu, Pu>_M",
             self._rel(abs(out["inner"] - ops.inner(filtered, filtered)),
                       ops.norm(u) * ops.norm(filtered)), ROUNDOFF_TOL)
        return fails


def _collector(fails: list):
    def need(name: str, value: float, tol: float) -> None:
        if not value <= tol:  # also catches NaN
            fails.append(f"{name}: {value:.3e} > {tol:.0e}")
    return need
