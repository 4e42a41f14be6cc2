"""BENCHMARK.json agrees with what run.py reports, and the runner refuses to
run without the library sources."""

import json
import shutil
import subprocess
import sys

import run
import tracing
from conftest import ROOT


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {k: v[:2] for k, v in run.LAYER_METRICS.items()}


def test_traced_run_reports_every_layer_metric():
    names = set(tracing.setup_metrics([], 1))
    names |= set(tracing.op_metrics([], 1, [])[0])
    names |= {"bench.trace_overhead_frac", "bench.first_op_s",
              "bench.op_s"}
    assert names == set(run.LAYER_METRICS)


def test_exits_nonzero_without_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "neumann2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_kernel_does_fixed_work_without_the_library():
    from reference import Reference

    ref = Reference((9, 9, 9), reps=3)
    assert ref.seconds() > 0
    first = ref.value
    ref.seconds()
    assert ref.value == first
    source = (ROOT / "perfbench" / "reference.py").read_text()
    assert "sbphodge" not in source
