"""The benchmark workloads: inputs from a seed, one operation, its check.

Each workload drives the library only through its public API.  ``setup``
builds fresh operators (the timed set-up), ``make_input`` draws one input
from a seeded generator, ``call`` is the timed operation and ``check`` runs
the oracle on its output.  No workload passes a solver name, so the
library's default path is the one measured.

``setup_reps`` set-ups are timed before the first call and ``setups_per_op``
more after each call.  Spreading the cheap set-ups over the whole run keeps
their median from hanging on the machine's speed during one short burst.
``reference_reps`` fixes the work of the reference kernel (reference.py)
timed around each call, about 0.1 s on a field of the workload's shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sbphodge as sh
import sbphodge.experiments

ORDER = 6
TOL = 1e-12  # atol = btol of every decomposition


@dataclass(frozen=True)
class Hodge:
    """helmholtz on seeded Gaussian-random (rough) fields."""

    name: str
    dim: int
    n: int
    grad_first: bool
    reference_reps: int
    setup_reps: int = 5
    setups_per_op: int = 2
    ladder: tuple = ()  # grid sizes of the traced iterations-against-N ladder

    @property
    def projection(self) -> str:
        return "grad-first" if self.grad_first else "curl-first"

    def setup(self, n=None):
        return sh.square_tensor_ops(ORDER, n or self.n, self.dim)

    def make_input(self, ops, rng):
        return rng.standard_normal((self.dim, *ops.shape))

    def call(self, ops, u):
        return sh.helmholtz(ops, ops.field(u), order=self.projection,
                            atol=TOL, btol=TOL)

    def check(self, oracle, u, res):
        return oracle.hodge(u, res, self.grad_first)

    def smooth_input(self, ops):
        make = (sh.experiments.separable_problem_2d if self.dim == 2
                else sh.experiments.separable_problem_3d)
        return make(ops)["u"]


@dataclass(frozen=True)
class Neumann:
    """Neumann and integral potentials of grad p, p a harmonic cubic."""

    name: str
    n: int
    dim: int = 2
    reference_reps: int = 460
    setup_reps: int = 5
    setups_per_op: int = 2
    ladder: tuple = ()

    def setup(self):
        return sh.square_tensor_ops(ORDER, self.n, self.dim)

    def make_input(self, ops, rng):
        # p = sum c_k h_k over the non-constant harmonic polynomials of
        # degree <= 3; its analytic gradient is exactly div- and curl-free
        # for the order-6 operators, whose boundary rows are exact to degree 3.
        c = rng.uniform(-1.0, 1.0, size=6)
        x, y = ops.meshgrid()
        p = (c[0] * x + c[1] * y + c[2] * (x * x - y * y) + c[3] * x * y
             + c[4] * (x**3 - 3 * x * y * y) + c[5] * (3 * x * x * y - y**3))
        px = (c[0] + 2 * c[2] * x + c[3] * y + 3 * c[4] * (x * x - y * y)
              + 6 * c[5] * x * y)
        py = (c[1] - 2 * c[2] * y + c[3] * x - 6 * c[4] * x * y
              + 3 * c[5] * (x * x - y * y))
        return p, np.stack([px, py])

    def call(self, ops, inp):
        u = ops.field(inp[1])
        return (sh.harmonic_neumann_potential(ops, u),
                sh.scalar_potential_integral(ops, u))

    def check(self, oracle, inp, out):
        return oracle.potentials(inp[0], out[0].data, out[1].data)


@dataclass(frozen=True)
class LargeGrid:
    """A fixed calculus sequence on 1M-node fields; no Krylov solve."""

    name: str
    n: int
    dim: int = 2
    reference_reps: int = 1
    setup_reps: int = 3
    setups_per_op: int = 0
    ladder: tuple = ()

    def setup(self):
        return sh.square_tensor_ops(ORDER, self.n, self.dim)

    def make_input(self, ops, rng):
        return (rng.standard_normal(ops.shape),
                rng.standard_normal((self.dim, *ops.shape)))

    def call(self, ops, inp):
        f, u = ops.field(inp[0]), ops.field(inp[1])
        g = sh.gradient(ops, f)
        r = sh.rot(ops, f)
        filtered = sh.filter_field(ops, u, extended=True)
        return {
            "grad": g.data,
            "curl_grad": sh.curl(ops, g).data,
            "rot": r.data,
            "div_rot": sh.divergence(ops, r).data,
            "filtered": filtered.data,
            "inner": sh.inner_product(ops, u, filtered),
        }

    def check(self, oracle, inp, out):
        return oracle.calculus(inp[0], inp[1], out)


WORKLOADS = {
    w.name: w
    for w in (
        Hodge("hodge2d_rough", dim=2, n=129, grad_first=True,
              reference_reps=120, ladder=(33, 65, 129)),
        Hodge("hodge3d_rough", dim=3, n=25, grad_first=False,
              reference_reps=55, ladder=(17, 25)),
        Neumann("neumann2d", n=49),
        LargeGrid("large_grid", n=1025),
    )
}
