#!/usr/bin/env python3
"""Print a SHA-256 digest of grad, div, curl, rot, their transposes, the
M-adjoints grad* and curl*, and the integral potential of grad f.

The sweeps and the discrete integral are BLAS matrix products, so this
checks that their bits do not depend on the number of BLAS threads: run it
under two thread counts and compare the outputs.  The fields are fixed
random fields on the grids of the sweep tests (``SWEEP_GRIDS`` and
``BENCHMARK_GRIDS`` in ``tests/test_tensor.py``), on 2D order-6 grids of 64
and 65 nodes, the first swept and integrated by one dense block and the last
by the banded form (``operators1d._DENSE_NODES`` is 64), on a 2D n=513
order-6 grid, large enough for OpenBLAS to split a product between threads,
and on a 3D n=70 order-6 grid, whose div and curl add their later sweeps in
several blocks (``tensor._BLOCK_NODES``).  Each grid prints 8 lines: 7
sweeps, then ``scalar_potential_integral`` of ``grad f``.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/hash_sweeps.py > one
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python scripts/hash_sweeps.py > two
    cmp one two
"""
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_tensor import BENCHMARK_GRIDS, SWEEP_GRIDS  # noqa: E402

from sbphodge.potentials import scalar_potential_integral  # noqa: E402
from sbphodge.tensor import build_tensor_ops, square_tensor_ops  # noqa: E402


def main():
    grids = {name: build_tensor_ops(*SWEEP_GRIDS[name]) for name in SWEEP_GRIDS}
    grids.update({name: square_tensor_ops(*args)
                  for name, args in BENCHMARK_GRIDS.items()})
    for n in (64, 65, 513):
        grids[f"2d-n{n}"] = square_tensor_ops(6, n, 2)
    grids["3d-n70"] = square_tensor_ops(6, 70, 3)
    for name, ops in grids.items():
        rng = np.random.default_rng(0)
        f = rng.standard_normal(ops.shape)
        u = rng.standard_normal((ops.dim, *ops.shape))
        results = {"grad": ops.grad(f), "div": ops.div(u), "curl": ops.curl(u),
                   "grad_transpose": ops.grad_transpose(u),
                   "curl_transpose": ops.curl_transpose(f if ops.dim == 2 else u),
                   "grad_star": ops.grad_star(u)}
        if ops.dim == 2:
            results["rot"] = ops.rot(f)
        else:
            results["curl_star"] = ops.curl_star(u)
        results["scalar_potential_integral"] = scalar_potential_integral(
            ops, results["grad"]).data
        for call, a in results.items():
            print(name, call, hashlib.sha256(a.tobytes()).hexdigest())


if __name__ == "__main__":
    main()
