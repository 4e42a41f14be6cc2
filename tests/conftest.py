import numpy as np
import pytest

from sbphodge.grid import Grid1D
from sbphodge.operators1d import build_operator_1d
from sbphodge.tensor import TensorOps, square_tensor_ops

MIN_NODES = {2: 2, 4: 8, 6: 12, 8: 16}


@pytest.fixture
def rng():
    return np.random.default_rng(20230219)


@pytest.fixture(params=[2, 4, 6, 8])
def order(request):
    return request.param


@pytest.fixture
def op_1d(order):
    return build_operator_1d(order, Grid1D(-1.0, 1.0, 33))


@pytest.fixture
def inner_calls(monkeypatch):
    """A list that grows by one entry at every ``TensorOps.inner`` call."""
    calls, inner = [], TensorOps.inner

    def counted(self, a, b):
        calls.append(1)
        return inner(self, a, b)

    monkeypatch.setattr(TensorOps, "inner", counted)
    return calls


def krylov_iterates(solver, op, b, **controls):
    """The iterates ``[x_0 = 0, x_1, ..., x_k]`` of a solve from zero and
    the stats of the full run; ``x_j`` comes from a run capped at
    ``max_iter=j``, which returns iterate j exactly."""
    x, stats = solver(op, b, **controls)
    capped = [solver(op, b, max_iter=j, **controls)[0]
              for j in range(1, stats.iterations)]
    return [np.zeros(op.cols), *capped, x], stats


@pytest.fixture
def ops_2d():
    return square_tensor_ops(4, 12, 2)


@pytest.fixture
def ops_3d():
    return square_tensor_ops(2, 7, 3)


def assert_within_forward_error(got, entries, u, want):
    """``|got - want| <= 2 k eps (|A| |u|)`` elementwise, for two results of
    the matrix A applied along the first axis of ``u``: the sum of their
    forward-error bounds, whatever their order of summation.  A is given by
    its entries ``(rows, cols, values)`` (those of ``dense()``, without
    forming it), and k is the largest number of entries in one row."""
    rows, cols, vals = entries
    k = np.max(np.bincount(rows))
    size = np.zeros(u.shape)
    np.add.at(size, rows, np.abs(vals).reshape(-1, *(1,) * (u.ndim - 1))
              * np.abs(u[cols]))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2 * k * np.finfo(np.float64).eps * size)
