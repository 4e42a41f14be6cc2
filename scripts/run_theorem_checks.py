#!/usr/bin/env python3
"""Kernel-theorem oracle suite on small 2D and 3D grids.

Runs orders 2, 4, 6 and 8 in 2D and orders 2 and 4 in 3D at the default grid
size of each (the smallest the order allows; the 3D dense oracle is out of
reach at orders 6 and 8).  Writes ``DIR/<dim>d/order<o>/theorem_report.json``
for ``--out DIR`` (default ``out/theorems``); any other arguments go to every
run.
"""
import argparse
import sys

from sbphodge.cli import main

RUNS = {2: (2, 4, 6, 8), 3: (2, 4)}

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/theorems", help="output directory")
    args, rest = parser.parse_known_args()
    rc = 0
    for dim, orders in RUNS.items():
        for order in orders:
            rc |= main(["verify-theorems", "--dim", str(dim), "--order", str(order),
                        "--out", f"{args.out}/{dim}d/order{order}", *rest])
    sys.exit(rc)
