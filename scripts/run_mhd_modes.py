#!/usr/bin/env python3
"""MHD wave-mode separation: error against wavenumber for both projection
orders, plus the large-amplitude-ratio configurations.

Writes ``error_vs_k.csv`` to ``--out`` (default ``out/mhd``)."""
import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from sbphodge.experiments import MhdConfig, mhd_order_comparison, mhd_study


def k_sweep(out: Path):
    """Interior vs global error as more waves fit into the domain."""
    rows = []
    for m in (1, 2, 3, 5, 7, 10):
        k = m * np.pi
        cfg = MhdConfig(k1=k, k3=k, projection_order="curl-first")
        errs = mhd_study(cfg)["report"]["errors"]
        rows.append({"k_over_pi": m, **errs})
        print(f"k={m}pi: " + "  ".join(f"{a}={b:.3e}" for a, b in errs.items()))
    with open(out / "error_vs_k.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def amplitude_ratio():
    """Both projection orders on strongly unequal amplitudes."""
    for ea, em in ((1e-2, 1e-5), (1e-5, 1e-2)):
        cfg = MhdConfig(eps_alfven=ea, eps_magnetosonic=em)
        print(f"eps_A={ea:g} eps_m={em:g}")
        for order, errs in mhd_order_comparison(cfg).items():
            print(f"  {order}: "
                  + "  ".join(f"{a}={b:.3e}" for a, b in errs.items()))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/mhd", help="output directory")
    out = Path(parser.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)
    k_sweep(out)
    amplitude_ratio()
    sys.exit(0)
