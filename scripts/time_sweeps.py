#!/usr/bin/env python3
"""Time the 1D stencil sweeps, the operator set-up and whole decompositions,
on one BLAS thread.

Prints two markdown tables, or with ``--calls`` a third alone.  The first
gives the mean time of ``apply_d`` and ``apply_d_transpose`` in ns per node
along each axis of a C-ordered field, as ``TensorOps`` sweeps it
(``TensorOps._along``, which applies the form of D or D^T to the field seen
as ``(before, N_i, after)``), into a preallocated ``out=``.  The second
gives the time of ``square_tensor_ops`` (construction and validation) per
grid, in ms.  Every case is timed once per round, the rounds are repeated,
and the median round is printed.  With ``--baseline DIR``, DIR holding
another checkout's ``sbphodge`` package (its ``src``), each case is timed
on both trees in alternating order within every round and printed as
``baseline → this tree``.  The ``--calls`` table gives the time of one warm
default ``helmholtz`` call (its bases built by an untimed first call) on a
fixed random field, in ms, in both projection orders, per grid (default
2D n=49, 129, 1025 and 3D n=25, 97); its rounds run one grid at a time.
A second ``--calls`` table gives, per 2D grid, the time of one warm
``harmonic_neumann_potential`` plus ``scalar_potential_integral`` pair on
the gradient of a harmonic cubic, as the ``neumann2d`` benchmark workload
runs them, and of the integral alone, in ms.  With ``--calculus`` it
prints a table alone, in µs, of each step of the ``large_grid`` benchmark
workload's calculus sequence, called as that workload calls it on fixed
random fields, each into a fresh result: ``gradient``, ``rot`` (2D),
``divergence``, ``curl`` of a gradient, ``filter_field(extended=True)`` of a
vector field and ``inner_product`` (default 2D n=49, 129, 1025 and 3D n=25,
97).

    PYTHONPATH=src python scripts/time_sweeps.py
    PYTHONPATH=src python scripts/time_sweeps.py --baseline ../parent/src
    PYTHONPATH=src python scripts/time_sweeps.py --calls --baseline ../parent/src
    PYTHONPATH=src python scripts/time_sweeps.py --calculus --baseline ../parent/src
    PYTHONPATH=src python scripts/time_sweeps.py --grid 2:13 --grid 3:12 --repeats 1
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ORDER = 6
GRIDS = ["2:49", "2:129", "2:257", "2:513", "2:1025", "3:25", "3:49", "3:97"]
CALL_GRIDS = ["2:49", "2:129", "2:1025", "3:25", "3:97"]
ORDERS = ("grad-first", "curl-first")
STEPS = ("grad", "rot", "div", "curl", "filter", "inner")
FORMS = {"apply_d": "_d_form", "apply_d_transpose": "_dt_form"}


def along_name(ops, method):
    """What ``ops._along`` takes for the sweep of ``method``: the name of
    its form, or, in a tree whose operators have no form of D* (older
    than the sweeps of D*), the name of the 1D method."""
    return FORMS[method] if hasattr(type(ops.axis_ops[0]), "_ds_form") else method


def load_package(src):
    """The ``sbphodge`` package under ``src``, imported as
    ``sbphodge_baseline`` so that it lives beside this tree's."""
    name, pkg = "sbphodge_baseline", Path(src) / "sbphodge"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def seconds(call, number):
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def cell(times, scale, digits):
    return " → ".join(f"{scale * statistics.median(t):.{digits}f}" for t in times)


def interleaved(calls, repeats, number):
    """Per call, its time in each of ``repeats`` rounds; within a round the
    calls run in alternating order."""
    times = [[] for _ in calls]
    for r in range(repeats):
        ks = range(len(calls)) if r % 2 == 0 else reversed(range(len(calls)))
        for k in ks:
            times[k].append(seconds(calls[k], number))
    return times


def time_calls(trees, grids, repeats):
    """Print the ``--calls`` table: per grid, the median over ``repeats``
    interleaved rounds of a warm default ``helmholtz`` call in each order."""
    print(f"Order {ORDER}: one warm default helmholtz call, ms, "
          f"median of {repeats} interleaved rounds\n")
    print("| grid | " + " | ".join(ORDERS) + " |")
    print("|------|" + "-----------:|" * len(ORDERS))
    for dim, n in grids:
        ops = [t.square_tensor_ops(ORDER, n, dim) for t in trees]
        u = np.random.default_rng(0).standard_normal((dim,) + (n,) * dim)
        number = max(1, int(2e5 // u.size))
        row = []
        for order in ORDERS:
            calls = [lambda t=t, o=o, p=order: t.helmholtz(o, u, order=p)
                     for t, o in zip(trees, ops)]
            for call in calls:
                call()  # builds the eigenbases and forms
            row.append(cell(interleaved(calls, repeats, number), 1e3, 3))
        print(f"| {dim}D n={n} | " + " | ".join(row) + " |")


def time_potentials(trees, grids, repeats):
    """Print the potentials table of ``--calls``: per 2D grid, the median
    over ``repeats`` interleaved rounds of a warm Neumann plus integral
    potential pair on the gradient of p = x^3 - 3xy^2 + xy + x^2 - y^2,
    exactly div- and curl-free for the order-6 operators, and of the
    integral alone."""
    print(f"\nOrder {ORDER}: one warm potential pair on grad of a harmonic "
          f"cubic, ms, median of {repeats} interleaved rounds\n")
    print("| grid | Neumann + integral | integral |")
    print("|------|-------------------:|---------:|")
    for dim, n in grids:
        if dim != 2:
            continue
        ops = [t.square_tensor_ops(ORDER, n, dim) for t in trees]
        x, y = ops[0].meshgrid()
        u = np.stack([3 * x * x - 3 * y * y + y + 2 * x, -6 * x * y + x - 2 * y])
        number = max(1, int(2e5 // u.size))
        pair = [lambda t=t, o=o: (t.harmonic_neumann_potential(o, u),
                                  t.scalar_potential_integral(o, u))
                for t, o in zip(trees, ops)]
        integral = [lambda t=t, o=o: t.scalar_potential_integral(o, u)
                    for t, o in zip(trees, ops)]
        row = []
        for calls in (pair, integral):
            for call in calls:
                call()  # builds the eigenbases and the integral's factors
            row.append(cell(interleaved(calls, repeats, number), 1e3, 3))
        print(f"| {dim}D n={n} | " + " | ".join(row) + " |")


def calculus_steps(t, dim, n):
    """The steps of ``STEPS`` on tree t's order-6 operators of a square
    grid, each a call as the ``large_grid`` workload makes it, on fixed
    random fields; rot is None in 3D."""
    ops = t.square_tensor_ops(ORDER, n, dim)
    rng = np.random.default_rng(0)
    f = ops.field(rng.standard_normal(ops.shape))
    u = ops.field(rng.standard_normal((dim, *ops.shape)))
    g, filtered = t.gradient(ops, f), t.filter_field(ops, u, extended=True)
    return {"grad": lambda: t.gradient(ops, f),
            "rot": (lambda: t.rot(ops, f)) if dim == 2 else None,
            "div": lambda: t.divergence(ops, u),
            "curl": lambda: t.curl(ops, g),
            "filter": lambda: t.filter_field(ops, u, extended=True),
            "inner": lambda: t.inner_product(ops, u, filtered)}


def time_calculus(trees, grids, repeats):
    """Print the ``--calculus`` table: per grid and step, the median over
    ``repeats`` interleaved rounds of one call, in µs."""
    print(f"Order {ORDER}: one call of each large_grid calculus step into a "
          f"fresh result, µs, median of {repeats} interleaved rounds\n")
    print("| grid | " + " | ".join(STEPS) + " |")
    print("|------|" + "-----:|" * len(STEPS))
    for dim, n in grids:
        steps = [calculus_steps(t, dim, n) for t in trees]
        number = max(1, min(1000, int(4e6 // (dim * n**dim))))
        row = []
        for step in STEPS:
            calls = [s[step] for s in steps]
            if calls[0] is None:
                row.append("")
                continue
            for call in calls:
                call()  # builds the cached forms and mode factors
            row.append(cell(interleaved(calls, repeats, number), 1e6, 1))
        print(f"| {dim}D n={n} | " + " | ".join(row) + " |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", action="append", metavar="DIM:N",
                        help=f"a square grid; repeatable (default {' '.join(GRIDS)})")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--baseline", metavar="DIR",
                        help="src directory of another checkout to time beside")
    parser.add_argument("--calls", action="store_true",
                        help="time whole helmholtz calls and potential pairs "
                             f"instead (default grids {' '.join(CALL_GRIDS)})")
    parser.add_argument("--calculus", action="store_true",
                        help="time the large_grid calculus steps instead "
                             f"(default grids {' '.join(CALL_GRIDS)})")
    args = parser.parse_args(argv)
    grids = args.grid or (CALL_GRIDS if args.calls or args.calculus else GRIDS)
    grids = [tuple(int(x) for x in g.split(":")) for g in grids]

    import sbphodge
    trees = [sbphodge]
    if args.baseline is not None:
        trees.insert(0, load_package(args.baseline))
    if args.calculus:
        return time_calculus(trees, grids, args.repeats)
    if args.calls:
        time_calls(trees, grids, args.repeats)
        return time_potentials(trees, grids, args.repeats)
    rng = np.random.default_rng(0)
    sweeps, setups = {}, {}  # case -> one list of round times per tree
    cases = []
    for dim, n in grids:
        shape = (n,) * dim
        f, out = rng.standard_normal(shape), np.empty(shape)
        number = max(1, min(1000, int(4e6 // f.size)))
        for i in range(dim):
            for method in ("apply_d", "apply_d_transpose"):
                ops = [t.square_tensor_ops(ORDER, n, dim) for t in trees]
                calls = [lambda o=o, i=i, m=along_name(o, method), f=f, out=out:
                         o._along(i, f, m, out) for o in ops]
                cases.append((sweeps, (dim, n, i, method), number, calls))
        cases.append((setups, (dim, n), 20,
                      [lambda t=t, n=n, dim=dim: t.square_tensor_ops(ORDER, n, dim)
                       for t in trees]))
    for r in range(args.repeats):
        for table, key, number, calls in cases:
            times = table.setdefault(key, [[] for _ in calls])
            order = range(len(calls)) if r % 2 == 0 else reversed(range(len(calls)))
            for k in order:
                times[k].append(seconds(calls[k], number))

    print(f"Order {ORDER}: mean of apply_d and apply_d_transpose, ns per node, "
          f"median of {args.repeats} interleaved rounds\n")
    print("| grid | field | axis 0 | axis 1 | axis 2 |")
    print("|------|------:|-------:|-------:|-------:|")
    for dim, n in grids:
        nodes = n**dim
        row = []
        for i in range(dim):
            both = [sweeps[(dim, n, i, m)] for m in ("apply_d", "apply_d_transpose")]
            means = [[(a + b) / 2 for a, b in zip(*pair)] for pair in zip(*both)]
            row.append(cell(means, 1e9 / nodes, 1))
        size = nodes * 8 / 1024
        field = f"{size / 1024:.0f} MiB" if size >= 1024 else f"{size:.0f} KiB"
        cells = " | ".join(row + [""] * (3 - dim))
        print(f"| {dim}D n={n} | {field} | {cells} |")
    print(f"\nOrder {ORDER}: square_tensor_ops set-up, ms, "
          f"median of {args.repeats} interleaved rounds\n")
    print("| grid | set-up |")
    print("|------|-------:|")
    for dim, n in grids:
        print(f"| {dim}D n={n} | {cell(setups[(dim, n)], 1e3, 2)} |")


if __name__ == "__main__":
    main()
