"""Timing spans around the public names each library layer exports.

The tracer replaces each wrapped name wherever the package holds a reference
to it: as a module attribute, inside a module-level dict (the solver table),
or as a class attribute.  A name a later version no longer exports is
skipped, so its metrics read zero instead of crashing the run.  Spans are kept
in memory as ``[name, start, end, parent index, info]`` and reduced to
per-layer metrics at the end; the oracle runs with recording off.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter


def _nodes(args, out):
    return getattr(args[1], "size", 0)


def _solve_info(args, out):
    stats = out[1] if isinstance(out, tuple) and len(out) > 1 else None
    return (getattr(stats, "iterations", 0), getattr(stats, "stop_reason", ""))


# (module, attribute path, span name, info extractor)
TARGETS = [
    ("operators1d", "build_operator_1d", "operators1d.build", None),
    ("operators1d", "grid_oscillation_1d", "operators1d.oscillation", None),
    ("operators1d", "SbpOperator1D.apply_d", "operators1d.apply_d", _nodes),
    ("operators1d", "SbpOperator1D.apply_d_transpose",
     "operators1d.apply_d_transpose", _nodes),
    ("tensor", "build_tensor_ops", "tensor.assemble", None),
    ("tensor", "TensorOps.grad", "tensor.grad", None),
    ("tensor", "TensorOps.grad_transpose", "tensor.grad_transpose", None),
    ("tensor", "TensorOps.rot", "tensor.rot", None),
    ("tensor", "TensorOps.rot_transpose", "tensor.rot_transpose", None),
    ("tensor", "TensorOps.curl", "tensor.curl", None),
    ("tensor", "TensorOps.curl_transpose", "tensor.curl_transpose", None),
    ("tensor", "TensorOps.div", "tensor.div", None),
    ("tensor", "TensorOps.filter_vector", "tensor.filter", None),
    ("krylov", "lsqr", "krylov.solve", _solve_info),
    ("krylov", "lsmr", "krylov.solve", _solve_info),
    ("hodge", "helmholtz", "hodge.helmholtz", None),
    ("hodge", "project_im_grad", "hodge.grad_stage", None),
    ("hodge", "project_im_curl", "hodge.curl_stage", None),
    ("potentials", "harmonic_neumann_potential", "potentials.neumann", None),
    ("potentials", "scalar_potential_integral", "potentials.integral", None),
]

FORWARD = ("tensor.grad", "tensor.rot", "tensor.curl")
ADJOINT = ("tensor.grad_transpose", "tensor.rot_transpose",
           "tensor.curl_transpose")
STAGES = {"hodge.grad_stage": "grad", "hodge.curl_stage": "curl",
          "potentials.neumann": "neumann"}


class Tracer:
    """Records spans while ``enabled``; wrapping is undone by ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._stack = []
        self._undo = []
        self.installed = []

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if info is not None:
                rec[4] = info(args, out)
            return out
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "sbphodge" or k.startswith("sbphodge."))]
        for mod_name, path, name, info in TARGETS:
            owner = sys.modules.get(f"sbphodge.{mod_name}")
            head, _, attr = path.rpartition(".")
            if owner is not None and head:
                owner = getattr(owner, head, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self._wrap(name, original, info)
            self.installed.append(f"{mod_name}.{path}")
            if head:
                self._replace(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped
                                self._undo.append(
                                    functools.partial(value.__setitem__, k, v))

    def _replace(self, owner, attr, wrapped) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapped)
        self._undo.append(functools.partial(setattr, owner, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        self.installed.clear()

    def take(self) -> list:
        """Return the recorded spans and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _durations(spans, name):
    return [s[2] - s[1] for s in spans if s[0] == name]


def _self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)], child


def _stage_of(spans, idx):
    while idx >= 0:
        stage = STAGES.get(spans[idx][0])
        if stage:
            return stage
        idx = spans[idx][3]
    return None


def solver_iterations(spans) -> dict:
    """Krylov iterations per stage (grad, curl, neumann), summed over spans."""
    out = {"grad": 0, "curl": 0, "neumann": 0}
    for s in spans:
        if s[0] == "krylov.solve" and s[4] is not None:
            stage = _stage_of(spans, s[3])
            if stage:
                out[stage] += int(s[4][0])
    return out


def setup_metrics(spans, n_setups: int) -> dict:
    """Per-setup seconds of 1D construction, oscillations and assembly."""
    self_t, _ = _self_times(spans)
    assemble = sum(t for s, t in zip(spans, self_t) if s[0] == "tensor.assemble")
    return {
        "operators1d.build_s": sum(_durations(spans, "operators1d.build")) / n_setups,
        "operators1d.oscillation_s":
            sum(_durations(spans, "operators1d.oscillation")) / n_setups,
        "tensor.assemble_s": assemble / n_setups,
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def op_metrics(spans, n_ops: int, first_op_spans) -> tuple:
    """Per-layer metrics of traced operations, plus the bases of the ratios."""
    self_t, child_t = _self_times(spans)
    m = {}
    for kind in ("apply_d", "apply_d_transpose"):
        name = f"operators1d.{kind}"
        nodes = sum(s[4] for s in spans if s[0] == name)
        secs = sum(_durations(spans, name))
        m[f"{name}.ns_per_node"] = 1e9 * secs / nodes if nodes else 0.0
    m["operators1d.apply_calls"] = sum(
        1 for s in spans if s[0].startswith("operators1d.apply_d")) / n_ops
    for op in ("grad", "grad_transpose", "rot", "rot_transpose", "curl",
               "curl_transpose", "div", "filter"):
        m[f"tensor.{op}_s"] = _mean(_durations(spans, f"tensor.{op}"))
    m["tensor.forward_calls"] = sum(1 for s in spans if s[0] in FORWARD) / n_ops
    m["tensor.adjoint_calls"] = sum(1 for s in spans if s[0] in ADJOINT) / n_ops

    iters = solver_iterations(first_op_spans)
    for stage in ("grad", "curl", "neumann"):
        m[f"krylov.{stage}_iters"] = iters[stage]
    solves = [i for i, s in enumerate(spans) if s[0] == "krylov.solve"]
    total_iters = sum(int(spans[i][4][0]) for i in solves)
    solve_s = sum(spans[i][2] - spans[i][1] for i in solves)
    solve_self = sum(self_t[i] for i in solves)
    solve_child = sum(child_t[i] for i in solves)
    m["krylov.iter_s"] = solve_s / total_iters if total_iters else 0.0
    m["krylov.update_s_per_iter"] = solve_self / total_iters if total_iters else 0.0
    m["krylov.operator_share"] = solve_child / solve_s if solve_s else 0.0
    m["krylov.max_iter_stops"] = sum(
        1 for i in solves if spans[i][4][1] == "max_iter")
    for stage, name in (("grad_stage", "hodge.grad_stage"),
                        ("curl_stage", "hodge.curl_stage")):
        m[f"hodge.{stage}_s"] = sum(_durations(spans, name)) / n_ops
    m["hodge.self_s"] = sum(
        t for s, t in zip(spans, self_t) if s[0] == "hodge.helmholtz") / n_ops
    m["potentials.neumann_s"] = sum(_durations(spans, "potentials.neumann")) / n_ops
    m["potentials.integral_s"] = sum(
        _durations(spans, "potentials.integral")) / n_ops
    bases = {"krylov.operator_share": {"solver_s": solve_s,
                                       "operator_s": solve_child,
                                       "solves": len(solves),
                                       "iterations": total_iters}}
    return m, bases


def span_summary(spans) -> dict:
    """Count, total and self seconds per span name."""
    self_t, _ = _self_times(spans)
    out = {}
    for s, t in zip(spans, self_t):
        rec = out.setdefault(s[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        rec["count"] += 1
        rec["total_s"] += s[2] - s[1]
        rec["self_s"] += t
    return out
