#!/usr/bin/env python3
"""3D convergence tables at orders 2, 4, 6 and 8 on the default size ladders.

The ladders are 9/13/17/21 at orders 2 and 4, 12/16/20/24 at order 6 and
16/20/24/28 at order 8 (``cli.N_DEFAULT`` shifted up to each order's
minimum grid).  The whole ladder is written, not only the fitted slope.  At
order 6 this ladder is pre-asymptotic: the least-squares EOC of ``u_sol`` is
3.01, below the ``p + 0.6 = 3.6`` that acceptance criterion 11 asks of
orders 2 and 4 (``p = order/2``), and its pairwise EOCs are still rising.
"""
import sys

from sbphodge.cli import main

if __name__ == "__main__":
    rc = 0
    for order in (2, 4, 6, 8):
        rc |= main(["convergence", "--dim", "3", "--order", str(order),
                    "--out", "out/convergence3d", *sys.argv[1:]])
    sys.exit(rc)
