import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sbphodge.errors import (
    DimensionMismatch,
    GridTooSmall,
    NotInImage,
    NullspaceDimensionUnexpected,
)
import sbphodge.operators1d as operators1d
from sbphodge.grid import Grid1D
from sbphodge.operators1d import (
    SbpOperator1D,
    build_operator_1d,
    corrupt_operator,
    grid_oscillation_1d,
)
from sbphodge.potentials import scalar_potential_integral
from sbphodge.tensor import build_tensor_ops, square_tensor_ops

from conftest import MIN_NODES, assert_within_forward_error


def naive_matvec(a, u):
    """Row-by-row left-to-right accumulation."""
    out = np.empty(a.shape[0])
    for i in range(a.shape[0]):
        acc = 0.0
        for j in range(a.shape[1]):
            acc += a[i, j] * u[j]
        out[i] = acc
    return out


# -- construction ---------------------------------------------------------


def test_second_order_matches_reference_matrices():
    op = build_operator_1d(2, Grid1D(0.0, 1.0, 5))
    dx = 0.25
    d_expected = np.array([
        [-2, 2, 0, 0, 0],
        [-1, 0, 1, 0, 0],
        [0, -1, 0, 1, 0],
        [0, 0, -1, 0, 1],
        [0, 0, 0, -2, 2],
    ]) / (2 * dx)
    assert np.array_equal(op.dense(), d_expected)
    assert np.array_equal(op.mass_weights, dx * np.array([0.5, 1, 1, 1, 0.5]))


def test_grid_too_small(order):
    with pytest.raises(GridTooSmall):
        build_operator_1d(order, Grid1D(0.0, 1.0, MIN_NODES[order] - 1))


def test_minimum_grid_constructs(order):
    op = build_operator_1d(order, Grid1D(0.0, 1.0, MIN_NODES[order]))
    assert op.sbp_residual() <= 1e-13 * max(1.0, 1.0)


def test_dimension_mismatch(op_1d):
    with pytest.raises(DimensionMismatch):
        op_1d.apply_d(np.ones(op_1d.n_nodes + 1))


@pytest.mark.parametrize("n", [17, 130])  # one dense and one banded form
@pytest.mark.parametrize("method", ["apply_d", "apply_d_transpose",
                                    "apply_d_star"])
def test_sweep_of_an_empty_trailing_axis_is_empty(n, method):
    """A field with no lines sweeps to an empty result, with and without an
    ``out=`` slot, on either side of the dense rule."""
    sweep = getattr(build_operator_1d(4, Grid1D(0.0, 1.0, n)), method)
    for shape in [(n, 0), (n, 3, 0), (n, 0, 2)]:
        assert sweep(np.zeros(shape)).shape == shape
        slot = np.empty(shape)
        assert sweep(np.zeros(shape), out=slot) is slot


# -- application ----------------------------------------------------------


def test_apply_d_within_the_forward_error_of_naive_dense(order, rng):
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, MIN_NODES[order] + 7))
    dense = op.dense()
    for _ in range(5):
        u = rng.standard_normal(op.n_nodes)
        assert_within_forward_error(op.apply_d(u), op._entries, u,
                                    naive_matvec(dense, u))


def test_constant_annihilated(op_1d):
    assert np.max(np.abs(op_1d.apply_d(np.ones(op_1d.n_nodes)))) <= 1e-13


def test_second_order_differentiates_nodes_exactly():
    op = build_operator_1d(2, Grid1D(0.0, 1.0, 5))
    assert np.allclose(op.apply_d(op.grid.nodes()), 1.0, atol=1e-14)


def test_order4_polynomial_exactness():
    op = build_operator_1d(4, Grid1D(0.0, 2.0, 16))
    x = op.grid.nodes()
    b = op.n_closure_rows
    # x exact everywhere, x^2 exact at interior rows
    assert np.max(np.abs(op.apply_d(x) - 1.0)) <= 1e-13
    err2 = np.abs(op.apply_d(x**2) - 2 * x)
    assert np.max(err2[b:-b]) <= 1e-12


def test_order6_sine_interior_convergence():
    errs = []
    for n in (51, 101):
        op = build_operator_1d(6, Grid1D(-1.0, 1.0, n))
        x = op.grid.nodes()
        du = op.apply_d(np.sin(np.pi * x))
        b = op.n_closure_rows
        errs.append(np.max(np.abs(du - np.pi * np.cos(np.pi * x))[b:-b]))
    rate = np.log(errs[0] / errs[1]) / np.log((101 - 1) / (51 - 1))
    assert rate > 5.5
    assert errs[1] <= 1e-6


# -- adjoint --------------------------------------------------------------


def test_adjoint_identity_random(op_1d, rng):
    m = op_1d.mass_weights
    for _ in range(10):
        u = rng.standard_normal(op_1d.n_nodes)
        w = rng.standard_normal(op_1d.n_nodes)
        lhs = np.dot(m * op_1d.apply_d(u), w)
        rhs = np.dot(m * u, op_1d.apply_d_star(w))
        scale = op_1d.mass_norm(u) * op_1d.mass_norm(w) / op_1d.grid.dx
        assert abs(lhs - rhs) <= 1e-13 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_integration_by_parts_mimicked(seed):
    # u^T (M D + D^T M) w equals the boundary pairing u^T E w
    op = build_operator_1d(4, Grid1D(0.0, 1.0, 14))
    gen = np.random.default_rng(seed)
    u = gen.standard_normal(op.n_nodes)
    w = gen.standard_normal(op.n_nodes)
    m = op.mass_weights
    lhs = np.dot(u, m * op.apply_d(w)) + np.dot(op.apply_d(u), m * w)
    rhs = u[-1] * w[-1] - u[0] * w[0]
    assert abs(lhs - rhs) <= 1e-12 * (np.linalg.norm(u) * np.linalg.norm(w) + 1)


def test_d_star_column_matches_adjoint_matrix():
    # first column of D* for the second-order operator on 5 nodes
    op = build_operator_1d(2, Grid1D(0.0, 1.0, 5))
    dx = 0.25
    e1 = np.zeros(5)
    e1[0] = 1.0
    expected = np.array([-2.0, 1.0, 0.0, 0.0, 0.0]) / (2 * dx)
    assert np.allclose(op.apply_d_star(e1), expected, atol=1e-14)


def test_transpose_matches_dense(order, rng):
    op = build_operator_1d(order, Grid1D(-2.0, 1.0, MIN_NODES[order] + 9))
    u = rng.standard_normal(op.n_nodes)
    assert np.allclose(
        op.apply_d_transpose(u), op.dense().T @ u,
        atol=1e-13 * np.max(np.abs(op.dense())),
    )
    # D^T is derived from the stencil and closure, so a copy with new ones
    # and an operator from the plain constructor each transpose their own D
    scaled = dataclasses.replace(op, interior_stencil=2 * op.interior_stencil,
                                 boundary_block=2 * op.boundary_block)
    plain = SbpOperator1D(op.grid, order, op.interior_stencil,
                          op.boundary_block, op.mass_weights)
    for new in (scaled, plain):
        d = new.dense()
        assert np.allclose(new.apply_d_transpose(np.eye(op.n_nodes)), d.T,
                           rtol=0, atol=1e-13 * np.max(np.abs(d)))


# -- SBP residual -----------------------------------------------------------


def test_sbp_residual_small(order):
    for n in (MIN_NODES[order], 32, 64):
        op = build_operator_1d(order, Grid1D(0.0, 1.0, n))
        md_scale = np.max(np.abs(op.mass_weights[:, None] * op.dense()))
        assert op.sbp_residual() <= 1e-13 * max(md_scale, 1.0)


def test_corrupted_operator_detected(order):
    op = build_operator_1d(order, Grid1D(0.0, 1.0, 32))
    bad = corrupt_operator(op, delta=1e-3)
    assert bad.sbp_residual() >= 1e-4


def test_validation_rejects_a_corrupted_operator(order):
    op = corrupt_operator(build_operator_1d(order, Grid1D(0.0, 1.0, 32)))
    with pytest.raises(AssertionError, match="SBP identity residual"):
        operators1d._validate_operator(op)


# -- polynomial accuracy check ------------------------------------------------


def _per_degree_accuracy_failure(op, tol=1e-12):
    """The first failing degree of the accuracy rule and its message, or
    None: one ``apply_d`` per monomial, the reference loop of
    ``accuracy_check``."""
    x = op.grid.nodes()
    n, b, p = op.n_nodes, op.n_closure_rows, op.boundary_order
    for deg in range(0, op.interior_order + 1):
        monomial = x**deg
        exact = deg * x ** (deg - 1) if deg >= 1 else np.zeros(n)
        err = np.abs(op.apply_d(monomial) - exact)
        scale = max(np.max(np.abs(monomial)) / op.grid.dx, 1.0)
        check = err if deg <= p else err[b : n - b]
        if check.size and np.max(check) > tol * scale:
            return deg, (f"row accuracy failure at degree {deg}: "
                         f"max error {np.max(check):.3e} (scale {scale:.3e})")
    return None


def _accuracy_check_message(op):
    try:
        operators1d.accuracy_check(op)
    except AssertionError as err:
        return str(err)
    return None


def test_batched_accuracy_check_names_the_per_degree_failure(order):
    """The one-sweep check names the degree and error the per-degree loop
    names.  A closure coefficient fails at a degree <= p.  A single
    interior coefficient would fail at degree 0, so the interior stencil is
    perturbed along the (p+1)-th difference, which is exact to degree p:
    it fails at a degree > p, on interior rows only."""
    p = order // 2
    diff = np.zeros(2 * p + 1)
    for j in range(p + 2):  # (-1)^(p+1-j) binom(p+1, j) at offsets -p + j
        diff[j] = (-1) ** (p + 1 - j) * math.comb(p + 1, j)
    for n in (MIN_NODES[order], MIN_NODES[order] + 5, 40):
        op = build_operator_1d(order, Grid1D(-1.0, 1.0, n), validate=False)
        assert _per_degree_accuracy_failure(op) is None
        assert _accuracy_check_message(op) is None
        interior = dataclasses.replace(
            op, interior_stencil=op.interior_stencil + 1e-3 / op.grid.dx * diff)
        closure = corrupt_operator(op)
        for bad, failing in ((interior, lambda deg: deg > p),
                             (closure, lambda deg: deg <= p)):
            found = _per_degree_accuracy_failure(bad)
            if bad is interior and n == MIN_NODES[order]:
                assert found is None  # no interior rows to fail
                assert _accuracy_check_message(bad) is None
                continue
            deg, message = found
            assert failing(deg), (n, deg)
            assert _accuracy_check_message(bad) == message
        # the interior perturbation leaves the closure rows unchanged
        x = np.vander(op.grid.nodes(), order + 1, increasing=True)
        b = op.n_closure_rows
        for ends in (slice(0, b), slice(n - b, n)):
            assert np.array_equal(interior.apply_d(x)[ends], op.apply_d(x)[ends])


def test_every_valid_size_constructs(order):
    """Valid operators construct at every n from the order's minimum to
    minimum + 29, and the per-degree loop finds no failure either."""
    for n in range(MIN_NODES[order], MIN_NODES[order] + 30):
        op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
        assert _per_degree_accuracy_failure(op) is None


# -- oscillation vector ------------------------------------------------------


def test_oscillation_second_order_odd():
    op = build_operator_1d(2, Grid1D(0.0, 1.0, 5))
    osc = grid_oscillation_1d(op)
    assert np.allclose(osc, np.array([1, -1, 1, -1, 1]) * osc[0], atol=1e-13)
    assert osc[0] > 0


def test_oscillation_second_order_even():
    op = build_operator_1d(2, Grid1D(0.0, 1.0, 6))
    osc = grid_oscillation_1d(op)
    assert np.allclose(osc, np.array([1, -1, 1, -1, 1, -1]) * osc[0], atol=1e-13)


def test_oscillation_in_kernel_of_adjoint(order):
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, 50))
    osc = op.grid_oscillation
    residual = op.mass_weights * op.apply_d_star(osc)
    assert np.max(np.abs(residual)) <= 1e-11
    assert abs(op.mass_norm(osc) - 1.0) <= 1e-12


def test_oscillation_orthogonal_to_image(order, rng):
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, 40))
    osc = op.grid_oscillation
    for _ in range(5):
        w = rng.standard_normal(op.n_nodes)
        val = np.dot(op.mass_weights * osc, op.apply_d(w))
        assert abs(val) <= 1e-12 * op.mass_norm(w) / op.grid.dx


def test_oscillation_orthogonal_to_constants(order):
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, 51))
    osc = op.grid_oscillation
    assert abs(np.dot(op.mass_weights, osc)) <= 1e-12


def test_higher_order_interior_alternation():
    # away from the geometrically decaying closure modes the entries
    # alternate with equal magnitude; near the closure they deviate
    margin = 20
    for order in (4, 6, 8):
        for n in (50, 51):
            op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
            osc = op.grid_oscillation
            core = osc[margin : n - margin]
            mags = np.abs(core)
            assert np.max(np.abs(mags - mags[0])) <= 1e-10 * mags[0]
            assert np.all(np.sign(core[1:]) != np.sign(core[:-1]))
            b = op.n_closure_rows
            boundary_dev = np.max(np.abs(np.abs(osc[:b]) - mags[0])) / mags[0]
            assert boundary_dev > 0.01


def test_oscillation_matches_dense_svd(order):
    lo = MIN_NODES[order]
    for n in (lo, lo + 1, 64, 101, 200, 331):
        op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
        _, _, vt = np.linalg.svd(op.dense().T)
        ref = vt[-1] / op.mass_weights
        ref = np.sign(ref[0]) * ref / op.mass_norm(ref)
        assert np.max(np.abs(grid_oscillation_1d(op) - ref)) <= 1e-13


def test_corrupted_operator_not_nullspace_consistent(order):
    # at order 2, n=32 the corrupted D^T still has a one-dimensional kernel
    # (a dense SVD finds rank n-1), but D 1 != 0, so ker D is not the constants
    for n in (13, 32):
        if n < MIN_NODES[order]:
            continue
        bad = corrupt_operator(build_operator_1d(order, Grid1D(0.0, 1.0, n)))
        with pytest.raises(NullspaceDimensionUnexpected):
            grid_oscillation_1d(bad)


@pytest.fixture
def no_dense(monkeypatch):
    def refuse(self):
        raise AssertionError("dense() called")

    monkeypatch.setattr(SbpOperator1D, "dense", refuse)


def test_no_dense_matrix_at_large_n(order, no_dense):
    op = build_operator_1d(order, Grid1D(0.0, 1.0, 65537))
    osc = op.grid_oscillation
    assert osc[0] > 0 and abs(op.mass_norm(osc) - 1.0) <= 1e-12
    x = op.grid.nodes()
    v = op.invert_on_v0(op.apply_d(x))
    assert np.max(np.abs(v - (x - x[0]))) <= 1e-9


def test_tensor_ops_beyond_former_ceiling(no_dense):
    ops = build_tensor_ops(4, [Grid1D(-1.0, 1.0, 2049), Grid1D(-1.0, 1.0, 9)])
    assert ops.shape == (2049, 9)
    assert set(ops.oscillations) == {(0,), (1,), (0, 1)}


def test_nullspace_consistency_rank(order):
    for n in (MIN_NODES[order], 20, 64, 200):
        if n < MIN_NODES[order]:
            continue
        op = build_operator_1d(order, Grid1D(0.0, 1.0, n))
        assert np.linalg.matrix_rank(op.dense()) == n - 1


# -- discrete integral --------------------------------------------------------


def test_invert_zero(op_1d):
    assert np.array_equal(op_1d.invert_on_v0(np.zeros(op_1d.n_nodes)),
                          np.zeros(op_1d.n_nodes))


def test_invert_nodes(op_1d):
    x = op_1d.grid.nodes()
    v = op_1d.invert_on_v0(op_1d.apply_d(x))
    assert np.max(np.abs(v - (x - x[0]))) <= 1e-12


def test_invert_sine_roundtrip():
    op = build_operator_1d(4, Grid1D(0.0, 1.0, 20))
    x = op.grid.nodes()
    u = op.apply_d(np.sin(x))
    v = op.invert_on_v0(u)
    assert np.max(np.abs(v - (np.sin(x) - np.sin(x[0])))) <= 1e-12


def test_invert_roundtrip_random(order, rng):
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, 24))
    w = rng.standard_normal(op.n_nodes)
    u = op.apply_d(w)
    assert np.max(np.abs(op.apply_d(op.invert_on_v0(u)) - u)) <= 1e-10 * np.max(
        np.abs(u)
    )


def test_invert_matches_dense_lstsq(order, rng):
    for n in (MIN_NODES[order] + 3, 48, 97):
        op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
        u = op.apply_d(rng.standard_normal((n, 3)))
        ref = np.zeros_like(u)
        ref[1:] = scipy.linalg.lstsq(op.dense()[:, 1:], u)[0]
        err = np.max(np.abs(op.invert_on_v0(u) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))


def test_invert_rejects_oscillation(op_1d):
    osc = op_1d.grid_oscillation
    with pytest.raises(NotInImage):
        op_1d.invert_on_v0(osc)


def _solve_banded_integral(op, u):
    """The discrete integral by ``scipy.linalg.solve_banded`` on the band of
    rows and columns 1..n-1 of D, laid out from the entries of D."""
    rows, cols, vals = op._entries
    keep = (rows > 0) & (cols > 0)
    rows, cols, vals = rows[keep] - 1, cols[keep] - 1, vals[keep]
    offset = rows - cols
    lower, upper = offset.max(), -offset.min()
    ab = np.zeros((lower + upper + 1, op.n_nodes - 1))
    ab[upper + offset, cols] = vals
    out = np.zeros_like(u)
    out[1:] = scipy.linalg.solve_banded((lower, upper), ab, u[1:])
    return out


def test_invert_bit_equal_to_solve_banded(order, rng):
    # DGBSV is DGBTRF then DGBTRS on the same band; at order 2 the band is
    # tridiagonal, where solve_banded runs DGTSV instead.  Above the dense
    # rule the integral is that banded solve.
    for n in (65, 97):
        op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
        for shape in ((n,), (n, 7)):
            u = op.apply_d(rng.standard_normal(shape))
            ref = _solve_banded_integral(op, u)
            v = op.invert_on_v0(u)
            if order == 2:
                assert np.max(np.abs(v - ref)) <= 1e-15 * np.max(np.abs(ref))
            else:
                assert np.array_equal(v, ref)


def test_dense_rule_invert_agrees_with_solve_banded(order, rng):
    # at most _DENSE_NODES nodes the integral is one product with the
    # cached inverse of the band, not the banded solve: equal to roundoff
    assert operators1d._DENSE_NODES == 64
    for n in (MIN_NODES[order] + 3, 48, 64):
        op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
        for shape in ((n,), (n, 7)):
            u = op.apply_d(rng.standard_normal(shape))
            ref = _solve_banded_integral(op, u)
            v = op.invert_on_v0(u)
            assert np.max(np.abs(v - ref)) <= 5e-14 * np.max(np.abs(ref))
        assert "_integral_inverse" in op.__dict__


def test_integral_inverse_is_read_only_and_inverts_the_band(order):
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, 40))
    inv = op._integral_inverse
    assert op._integral_inverse is inv
    with pytest.raises(ValueError):
        inv[0, 0] = 0.0
    band = op.dense()[1:, 1:]
    assert np.max(np.abs(inv @ band - np.eye(39))) <= 1e-12


def test_banded_integral_builds_no_inverse(order, rng):
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, 65))
    op.invert_on_v0(op.apply_d(rng.standard_normal((65, 2))))
    assert "_integral_lu" in op.__dict__
    assert "_integral_inverse" not in op.__dict__


@pytest.fixture
def band_factorizations(monkeypatch):
    """The sizes of the bands ``_banded_lu`` factors, in call order."""
    sizes = []
    factor = operators1d._banded_lu

    def counted(rows, cols, vals, n):
        sizes.append(n)
        return factor(rows, cols, vals, n)

    monkeypatch.setattr(operators1d, "_banded_lu", counted)
    return sizes


def test_integral_factored_once_per_operator(order, rng, band_factorizations):
    ops = square_tensor_ops(order, 17, 2)
    op = ops.axis_ops[0]
    # construction factors the oscillation's band only
    assert band_factorizations == [16]
    assert "_integral_lu" not in op.__dict__
    for shape in ((17,), (17, 3), (17, 2, 5)):
        op.invert_on_v0(op.apply_d(rng.standard_normal(shape)))
    for _ in range(2):
        scalar_potential_integral(ops, ops.grad(rng.standard_normal(ops.shape)))
    assert band_factorizations == [16, 16]


def test_copy_after_integral_factors_its_own_band(order, rng,
                                                  band_factorizations):
    op = build_operator_1d(order, Grid1D(0.0, 1.0, 32))
    u = op.apply_d(rng.standard_normal(32))
    v = op.invert_on_v0(u)
    bad = corrupt_operator(op)
    x = rng.standard_normal(31)
    solved = operators1d._banded_lu_solve(bad._integral_lu, x)
    assert np.allclose(bad.dense()[1:, 1:] @ solved, x, rtol=0, atol=1e-9)
    # the oscillation at construction, the integral of op, then bad's own
    assert len(band_factorizations) == 3
    # a copy with D doubled integrates to half
    doubled = dataclasses.replace(op, interior_stencil=2 * op.interior_stencil,
                                  boundary_block=2 * op.boundary_block)
    assert np.allclose(doubled.invert_on_v0(u), v / 2, rtol=0,
                       atol=1e-13 * np.max(np.abs(v)))


def test_entries_are_cached_and_read_only(op_1d):
    entries = op_1d._entries
    assert op_1d._entries is entries
    for a in entries:
        with pytest.raises(ValueError):
            a[0] = 0


def test_singular_band_raises_nullspace_error(op_1d):
    zero = dataclasses.replace(op_1d, interior_stencil=0 * op_1d.interior_stencil,
                               boundary_block=0 * op_1d.boundary_block)
    with pytest.raises(NullspaceDimensionUnexpected):
        grid_oscillation_1d(zero)
    with pytest.raises(NullspaceDimensionUnexpected):
        zero._integral_lu
