"""A fixed reference kernel that measures the machine's speed of the moment.

The host's speed drifts by a fifth and more over tens of seconds, and a run's
median call time drifts with it.  The end-to-end ``op_ref`` divides each
call's time by the time of this kernel, timed on the same thread just before
and just after the call, so the drift cancels and a change in the library
does not.

The kernel is the benchmark's own numpy code and never calls the library.
It has the shape of one Krylov iteration on a vector field of the
workload's grid: a 7-point central-difference sweep by shifted slices along
every axis of every component, inner products, and two vector updates.  So
it makes the same mix of small numpy calls and streaming passes as the
library's 1D sweeps and LSQR updates.  It cycles over several fields, about
3 MiB together on the small grids, since the slow spells of the host are
spells of cache and memory contention: a pure-Python loop does not slow in
them, and a kernel whose data sits in L2 slows less than the library does.
Its work is fixed per workload, so its meaning is the same on every commit.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Sixth-order central first difference, offsets -3..3.
STENCIL = (-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60)
FIELDS_BYTES = 3 << 20  # working set of the cycled fields, 2 to 8 of them


class Reference:
    """``reps`` iterations on seeded vector fields over a grid of ``shape``;
    ``seconds()`` times them."""

    def __init__(self, shape, reps: int):
        rng = np.random.default_rng(0)
        field_bytes = 8 * len(shape) * int(np.prod(shape))
        count = min(8, max(2, FIELDS_BYTES // field_bytes))
        self.fields = [rng.standard_normal((len(shape), *shape))
                       for _ in range(count)]
        self.w = rng.standard_normal((len(shape), *shape))
        self.reps = reps
        self.value = 0.0

    @staticmethod
    def _sweep(f: np.ndarray, axis: int) -> np.ndarray:
        x = np.moveaxis(f, axis, 0)
        n = x.shape[0]
        out = STENCIL[0] * x[0:n - 6]
        for k in range(1, 7):
            if STENCIL[k]:
                out = out + STENCIL[k] * x[k:n - 6 + k]
        return out

    def seconds(self) -> float:
        t0 = perf_counter()
        w, acc = self.w, 0.0
        for rep in range(self.reps):
            v = self.fields[rep % len(self.fields)]
            for component in v:
                for axis in range(component.ndim):
                    y = self._sweep(component, axis)
                    acc += float(np.vdot(y, y))
            w = v - 0.5 * w
            w = w / np.linalg.norm(w)
        elapsed = perf_counter() - t0
        self.value = acc  # keeps the work observable
        return elapsed
