#!/usr/bin/env python3
"""Kernel-theorem oracle suite on small 2D and 3D grids.

Writes ``DIR/2d/theorem_report.json`` and ``DIR/3d/theorem_report.json``
for ``--out DIR`` (default ``out/theorems``); any other arguments go to
both runs.
"""
import argparse
import sys

from sbphodge.cli import main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/theorems", help="output directory")
    args, rest = parser.parse_known_args()
    rc = 0
    for dim, n in (("2", "6"), ("3", "4")):
        rc |= main(["verify-theorems", "--dim", dim, "--order", "2", "--n", n,
                    "--out", f"{args.out}/{dim}d", *rest])
    sys.exit(rc)
