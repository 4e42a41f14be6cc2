"""The benchmark's oracle accepts converged results and rejects wrong ones.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses

import numpy as np
import pytest
import sbphodge as sh
from oracle import Oracle
from workloads import Hodge, LargeGrid, Neumann


@pytest.fixture(scope="module", params=[(2, 33, True), (3, 13, False)],
                ids=["2d-grad-first", "3d-curl-first"])
def hodge_case(request):
    dim, n, grad_first = request.param
    workload = Hodge("hodge", dim=dim, n=n, grad_first=grad_first,
                     reference_reps=1)
    ops = workload.setup()
    u = workload.make_input(ops, np.random.default_rng(7))
    return workload, ops, Oracle(ops), u, workload.call(ops, u)


def test_converged_decomposition_passes(hodge_case):
    workload, ops, oracle, u, res = hodge_case
    assert workload.check(oracle, u, res) == []


def test_loose_tolerance_decomposition_fails(hodge_case):
    workload, ops, oracle, u, _ = hodge_case
    loose = sh.helmholtz(ops, ops.field(u), order=workload.projection,
                         atol=1e-3, btol=1e-3)
    fails = workload.check(oracle, u, loose)
    assert any("normal equations" in f for f in fails), fails


def test_perturbed_remainder_fails(hodge_case):
    workload, ops, oracle, u, res = hodge_case
    bad = dataclasses.replace(
        res, remainder=ops.field(res.remainder.data * (1 + 1e-6)))
    fails = workload.check(oracle, u, bad)
    assert any("additivity" in f for f in fails), fails


def test_potentials_checked_against_analytic():
    workload = Neumann("neumann", n=17)
    ops = workload.setup()
    inp = workload.make_input(ops, np.random.default_rng(3))
    out = workload.call(ops, inp)
    oracle = Oracle(ops)
    assert workload.check(oracle, inp, out) == []
    shifted = (out[0], ops.field(out[1].data + 1e-6 * inp[0]))
    assert any("integral" in f for f in workload.check(oracle, inp, shifted))


def test_calculus_checks_filter():
    workload = LargeGrid("calculus", n=33)
    ops = workload.setup()
    inp = workload.make_input(ops, np.random.default_rng(3))
    out = workload.call(ops, inp)
    oracle = Oracle(ops)
    assert workload.check(oracle, inp, out) == []
    unfiltered = dict(out, filtered=inp[1])
    fails = workload.check(oracle, inp, unfiltered)
    assert any("oscillation-free" in f for f in fails), fails
