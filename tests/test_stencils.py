"""Exact rational validation of the shipped coefficient tables.

These checks run in Fraction arithmetic on a virtual grid wide enough to
contain both closures, so any transcription error in a table is a hard
failure, independent of floating-point tolerances.
"""

from fractions import Fraction as F

import pytest

from sbphodge.errors import UnsupportedOrder
from sbphodge.stencils import (
    _derive_boundary_weights,
    available_orders,
    coefficient_table,
)


def dense_rational(table, n):
    b, wt, w = table.n_closure_rows, table.closure_width, table.halfwidth
    full = [-c for c in reversed(table.interior)] + [F(0)] + list(table.interior)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(b):
        for j in range(wt):
            rows[i][j] = table.closure[i][j]
            rows[n - 1 - i][n - 1 - j] = -table.closure[i][j]
    for i in range(b, n - b):
        for k, c in enumerate(full):
            rows[i][i + k - w] = c
    return rows


def weights_rational(table, n):
    h = [F(1)] * n
    b = table.n_closure_rows
    h[:b] = table.boundary_weights
    h[n - b :] = reversed(table.boundary_weights)
    return h


def test_available_orders():
    assert available_orders() == (2, 4, 6, 8)


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        coefficient_table(3)


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_sbp_identity_exact(order):
    table = coefficient_table(order)
    n = 3 * table.n_closure_rows + 2
    d = dense_rational(table, n)
    h = weights_rational(table, n)
    for i in range(n):
        for j in range(n):
            q = h[i] * d[i][j] + h[j] * d[j][i]
            expect = F(-1) if i == j == 0 else (F(1) if i == j == n - 1 else F(0))
            assert q == expect, (order, i, j)


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_monomial_accuracy_exact(order):
    table = coefficient_table(order)
    p = order // 2
    b = table.n_closure_rows
    n = 3 * b + 2
    d = dense_rational(table, n)
    for deg in range(order + 1):
        for i in range(n):
            if (i < b or i >= n - b) and deg > p:
                continue
            val = sum(d[i][j] * F(j) ** deg for j in range(n))
            exact = deg * F(i) ** (deg - 1) if deg else F(0)
            assert val == exact, (order, i, deg)


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_weights_positive(order):
    table = coefficient_table(order)
    assert all(w > 0 for w in table.boundary_weights)


def test_known_weight_values():
    assert coefficient_table(2).boundary_weights == (F(1, 2),)
    assert coefficient_table(4).boundary_weights == (
        F(17, 48), F(59, 48), F(43, 48), F(49, 48),
    )
    assert coefficient_table(6).boundary_weights == (
        F(13649, 43200), F(12013, 8640), F(2711, 4320),
        F(5359, 4320), F(7877, 8640), F(43801, 43200),
    )
    assert coefficient_table(8).boundary_weights[0] == F(1498139, 5080320)
    assert coefficient_table(8).boundary_weights[-1] == F(5127739, 5080320)


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_closure_geometry(order):
    table = coefficient_table(order)
    assert table.closure_width == table.n_closure_rows + table.halfwidth
    assert table.min_nodes == 2 * table.n_closure_rows


def test_a_closure_off_the_sbp_identity_is_rejected():
    table = coefficient_table(4)
    closure = [list(row) for row in table.closure]
    closure[1][2] += F(1, 100)
    with pytest.raises(AssertionError,
                       match=r"violates the SBP identity at \(1, 2\)"):
        _derive_boundary_weights(tuple(map(tuple, closure)), table.interior)
