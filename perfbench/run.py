"""Run one benchmark workload of sbp-hodge and print its metrics.

    python3 perfbench/run.py --workload hodge2d_rough --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from its
``src`` directory, and the run stops with a non-zero exit code and no result
when that is missing.  One process, one caller in a closed loop: each call
waits for the previous one.  BLAS and OpenMP pools are pinned to one thread.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it wraps timing spans around the library's public names
(tracing.py) and reports the per-layer metrics.  Every output is checked by
the oracle (oracle.py).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record (samples, environment, span totals, the iterations-against-N ladder)
goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HODGE = ["hodge2d_rough", "hodge3d_rough"]
# Per-layer metric -> (unit, better, end-to-end metric it should move, on
# which workloads).  The end-to-end metric op_ref is the time of one
# helmholtz call on the hodge workloads, one potential recovery on neumann2d
# and one calculus sequence on large_grid, in units of the reference kernel
# (reference.py) timed around it.
LAYER_METRICS = {
    "operators1d.build_s": ("s", "lower", "setup_s", ["large_grid"]),
    "operators1d.oscillation_s": ("s", "lower", "setup_s", ["large_grid"]),
    "tensor.assemble_s": ("s", "lower", "setup_s", ["large_grid"]),
    "operators1d.apply_d.ns_per_node":
        ("ns", "lower", "op_ref", HODGE + ["large_grid"]),
    "operators1d.apply_d_transpose.ns_per_node":
        ("ns", "lower", "op_ref", HODGE + ["neumann2d"]),
    "operators1d.apply_calls":
        ("count", "lower", "op_ref", HODGE + ["neumann2d", "large_grid"]),
    "tensor.grad_s": ("s", "lower", "op_ref", HODGE + ["large_grid"]),
    "tensor.grad_transpose_s": ("s", "lower", "op_ref", HODGE),
    "tensor.rot_s": ("s", "lower", "op_ref", ["hodge2d_rough", "large_grid"]),
    "tensor.rot_transpose_s": ("s", "lower", "op_ref", ["hodge2d_rough"]),
    "tensor.curl_s": ("s", "lower", "op_ref", ["hodge3d_rough", "large_grid"]),
    "tensor.curl_transpose_s": ("s", "lower", "op_ref", ["hodge3d_rough"]),
    "tensor.div_s": ("s", "lower", "op_ref", ["large_grid"]),
    "tensor.filter_s": ("s", "lower", "op_ref", ["large_grid"]),
    "tensor.forward_calls": ("count", "lower", "op_ref", HODGE),
    "tensor.adjoint_calls": ("count", "lower", "op_ref", HODGE),
    "krylov.grad_iters": ("count", "lower", "op_ref", HODGE),
    "krylov.curl_iters": ("count", "lower", "op_ref", HODGE),
    "krylov.neumann_iters": ("count", "lower", "op_ref", ["neumann2d"]),
    "krylov.iter_s": ("s", "lower", "op_ref", HODGE + ["neumann2d"]),
    "krylov.update_s_per_iter": ("s", "lower", "op_ref", HODGE + ["neumann2d"]),
    "krylov.operator_share": ("frac", "higher", "op_ref", HODGE + ["neumann2d"]),
    "krylov.max_iter_stops": ("count", "lower", "op_ref", HODGE + ["neumann2d"]),
    "hodge.grad_stage_s": ("s", "lower", "op_ref", HODGE),
    "hodge.curl_stage_s": ("s", "lower", "op_ref", HODGE),
    "hodge.self_s": ("s", "lower", "op_ref", HODGE),
    "potentials.neumann_s": ("s", "lower", "op_ref", ["neumann2d"]),
    "potentials.integral_s": ("s", "lower", "op_ref", ["neumann2d"]),
    # Context, not a layer: tracing cost, set-up deferred to the first call,
    # and the plain seconds of one untraced call (op_ref without the
    # reference kernel's division).
    "bench.trace_overhead_frac": ("frac", "lower", None, []),
    "bench.first_op_s": ("s", "lower", None, []),
    "bench.op_s": ("s", "lower", "op_ref", HODGE + ["neumann2d", "large_grid"]),
}
END_TO_END_UNITS = {"setup_s": "s", "op_ref": "ref", "peak_rss_mb": "MiB",
                    "pass_frac": "frac"}


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sbphodge
    except ImportError as exc:
        raise SystemExit(f"cannot import sbphodge from {src}: {exc}")
    if Path(sbphodge.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"sbphodge imported from {sbphodge.__file__}, not {src}")


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, workload, ops, oracle, x, tracer=None):
        """Time one call, check its output untraced; return (seconds, output)."""
        self.attempted += 1
        if tracer is not None:
            tracer.enabled = True
        t0 = perf_counter()
        out = error = None
        try:
            out = workload.call(ops, x)
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        fails = [error] if error else workload.check(oracle, x, out)
        if fails:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(fails)
            print(f"check failed: {fails}", file=sys.stderr)
        return elapsed, out


def summarize(samples) -> dict:
    """Median and sample count; with >= 20 samples also the highest
    percentile that has at least ten samples beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s)}
    if len(s) >= 20:
        k = len(s) - 10
        out[f"p{100 * k / len(s):.1f}"] = s[k - 1]
    return out


def timed_setups(workload, reps, tracer=None):
    times, ops = [], None
    if tracer is not None:
        tracer.enabled = True
    for _ in range(reps):
        t0 = perf_counter()
        ops = workload.setup()
        times.append(perf_counter() - t0)
    if tracer is not None:
        tracer.enabled = False
    return times, ops


def untraced_run(workload, seed, seconds, tally):
    import numpy as np
    from oracle import Oracle
    from reference import Reference

    setup_times, ops = timed_setups(workload, workload.setup_reps)
    oracle = Oracle(ops)
    reference = Reference(ops.shape, workload.reference_reps)
    rng = np.random.default_rng(seed)
    t_end = perf_counter() + seconds
    # The first call on fresh operators is a warm-up: checked, not a sample.
    first, _ = tally.run(workload, ops, oracle, workload.make_input(ops, rng))
    reference.seconds()
    # Each call is bracketed by the reference kernel; op_ref is the median of
    # call time over the mean of the two (reference.py says why).
    times, refs, ratios = [], [], []
    while not times or perf_counter() < t_end:
        x = workload.make_input(ops, rng)
        before = reference.seconds()
        times.append(tally.run(workload, ops, oracle, x)[0])
        after = reference.seconds()
        refs += [before, after]
        ratios.append(times[-1] / (0.5 * (before + after)))
        setup_times += timed_setups(workload, workload.setups_per_op)[0]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ref": statistics.median(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    record = {"setup_s": summarize(setup_times), "op_s": summarize(times),
              "reference_s": summarize(refs), "op_ref": summarize(ratios),
              "first_op_s": first,
              "samples": {"setup_s": setup_times, "op_s": times,
                          "reference_s": refs, "op_ref": ratios}}
    return metrics, ops, record


def traced_run(workload, seed, seconds, tally):
    import numpy as np
    import tracing
    from oracle import Oracle

    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, ops = timed_setups(workload, workload.setup_reps, tracer)
        setup_spans = tracer.take()
        oracle = Oracle(ops)
        rng = np.random.default_rng(seed)
        first_op, _ = tally.run(workload, ops, oracle,
                                workload.make_input(ops, rng))
        # Pairs of one untraced and one traced call on the same input, in
        # alternating order; their ratio is the tracing overhead.
        plain, traced, first_spans = [], [], None
        t_end = perf_counter() + seconds
        while not traced or perf_counter() < t_end:
            x = workload.make_input(ops, rng)
            for on in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                dt, _ = tally.run(workload, ops, oracle, x, tracer if on else None)
                (traced if on else plain).append(dt)
                if on and first_spans is None:
                    first_spans = list(tracer.spans)
        op_spans = tracer.take()
        metrics = tracing.setup_metrics(setup_spans, workload.setup_reps)
        layer, bases = tracing.op_metrics(op_spans, len(traced), first_spans)
        metrics.update(layer)
        metrics["bench.trace_overhead_frac"] = statistics.median(
            t / p for t, p in zip(traced, plain)) - 1.0
        metrics["bench.first_op_s"] = first_op
        metrics["bench.op_s"] = statistics.median(plain)
        ladder = run_ladder(workload, seed, tracer, tally)
        record = {
            "wrapped": list(tracer.installed),
            "ratio_bases": bases,
            "traced_op_s": summarize(traced),
            "untraced_op_s": summarize(plain),
            "setup_spans": tracing.span_summary(setup_spans),
            "op_spans": tracing.span_summary(op_spans),
            "ladder": ladder,
            "layer_metrics": LAYER_METRICS,
        }
    finally:
        tracer.uninstall()
    return metrics, ops, record


def run_ladder(workload, seed, tracer, tally) -> list:
    """Krylov iterations of one decomposition per grid size and field kind."""
    import numpy as np
    import tracing
    from oracle import Oracle

    rows = []
    for n in workload.ladder:
        ops = workload.setup(n)
        oracle = Oracle(ops)
        fields = {"rough": workload.make_input(ops, np.random.default_rng([seed, n])),
                  "smooth": workload.smooth_input(ops)}
        for kind, u in fields.items():
            _, res = tally.run(workload, ops, oracle, u, tracer)
            iters = tracing.solver_iterations(tracer.take())
            rows.append({"dim": workload.dim, "n": n, "field": kind,
                         "grad_iters": iters["grad"], "curl_iters": iters["curl"],
                         "solver_stats": solver_stats(res)})
    return rows


def solver_stats(out):
    """The decomposition's own solver_stats, or "absent" when not reported."""
    diagnostics = getattr(out, "diagnostics", None)
    if isinstance(diagnostics, dict) and "solver_stats" in diagnostics:
        return diagnostics["solver_stats"]
    return "absent"


def environment(workload, ops) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unavailable"
    nodes = ops.n_total
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in PINNED},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_model": _cpu_model(),
        "cache_bytes": {lvl: _cache_size(idx) for lvl, idx in (("L2", 2), ("L3", 3))},
        "grid": {"dim": workload.dim, "n": workload.n, "nodes": nodes},
        "array_bytes": {"scalar_field": 8 * nodes, "vector_field": 8 * workload.dim * nodes},
        "bytes_per_sweep_computed": {
            "value": 16 * nodes,
            "label": "computed: one scalar field read and one written per "
                     "1D sweep; ignores cache misses and numpy temporaries",
        },
        "bandwidth": "not claimed: no array reaches four times the last-level cache",
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(index: int):
    path = f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in PINNED:  # before numpy is first imported
        os.environ[var] = "1"
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tally = Tally()
    run = traced_run if args.trace else untraced_run
    metrics, ops, record = run(workload, args.seed, args.seconds, tally)
    units = ({k: v[0] for k, v in LAYER_METRICS.items()} if args.trace
             else END_TO_END_UNITS)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failures=tally.messages,
                  environment=environment(workload, ops), result=result)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_file = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: record in "
          f"{out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
