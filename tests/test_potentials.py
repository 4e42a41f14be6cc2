import numpy as np
import pytest

from sbphodge.errors import (
    ConditionsViolated,
    NonFiniteEncountered,
    NotDivCurlFree,
    NotInImage,
    TooLarge,
)
from sbphodge.grid import Grid1D
from sbphodge.potentials import (
    check_potential_conditions,
    dense_curl,
    dense_divergence,
    dense_gradient,
    dense_rot,
    harmonic_neumann_potential,
    kernel_dimension,
    scalar_potential_integral,
)
from sbphodge.tensor import build_tensor_ops, square_tensor_ops


def place(ops, arr, slot):
    comps = [np.zeros(ops.shape) for _ in range(ops.dim)]
    comps[slot] = arr
    return np.stack(comps)


# -- kernel dimension oracle -----------------------------------------------


def test_kernel_dims_2d_order2():
    ops = square_tensor_ops(2, 6, 2)
    n = ops.n_total
    assert kernel_dimension(dense_curl(ops)).kernel_dim == n + 1 == 37
    assert kernel_dimension(dense_divergence(ops)).kernel_dim == n + 1 == 37
    grad = kernel_dimension(dense_gradient(ops))
    assert grad.numerical_rank == n - 1 == 35
    assert kernel_dimension(dense_rot(ops)).numerical_rank == n - 1


def test_kernel_dims_2d_order4_minimum_grid():
    ops = square_tensor_ops(4, 8, 2)
    assert kernel_dimension(dense_divergence(ops)).kernel_dim == 65


def test_kernel_dims_3d_order2():
    ops = square_tensor_ops(2, 4, 3)
    n = ops.n_total
    curl_report = kernel_dimension(dense_curl(ops))
    assert curl_report.kernel_dim == n + 2 == 66
    assert curl_report.numerical_rank == 2 * n - 2 == 126
    assert kernel_dimension(dense_divergence(ops)).kernel_dim == 2 * n + 1 == 129


def test_kernel_dims_3d_div_5cubed():
    ops = square_tensor_ops(2, 5, 3)
    assert kernel_dimension(dense_divergence(ops)).kernel_dim == 2 * 125 + 1


def test_oracle_rejects_large_matrices():
    with pytest.raises(TooLarge):
        kernel_dimension(np.zeros((2, 5000)))


def test_report_serialization():
    report = kernel_dimension(np.eye(4), expected_dim=0, name="identity")
    payload = report.as_dict()
    assert payload["matches"] and payload["kernel_dim"] == 0


# -- compatibility conditions -------------------------------------------------


def test_conditions_for_gradient(ops_2d, rng):
    f = rng.standard_normal(ops_2d.shape)
    cond = check_potential_conditions(ops_2d, ops_2d.field(ops_2d.grad(f)))
    assert cond.curl_residual <= 1e-12
    assert all(c <= 1e-11 for c in cond.oscillation_components)
    assert cond.within(1e-8)


def test_conditions_for_oscillation(ops_2d):
    u = place(ops_2d, ops_2d.oscillations[(0,)], 0)
    cond = check_potential_conditions(ops_2d, ops_2d.field(u))
    assert cond.curl_residual <= 1e-12
    assert np.isclose(cond.oscillation_components[0], 1.0, atol=1e-12)


def test_conditions_for_sampled_irrotational_field():
    ops = square_tensor_ops(4, 24, 2)
    x, y = ops.meshgrid()
    u = np.stack([np.pi * np.cos(np.pi * (x + y))] * 2)
    cond = check_potential_conditions(ops, ops.field(u))
    assert 0 < cond.curl_residual < 1e-2   # discretization level, not zero
    assert all(c < 1e-3 for c in cond.oscillation_components)


# -- integral potential ---------------------------------------------------------


def test_integral_potential_zero_field(ops_2d):
    phi = scalar_potential_integral(ops_2d, ops_2d.field(
        np.zeros((2, *ops_2d.shape))))
    assert np.array_equal(phi.data, np.zeros(ops_2d.shape))


@pytest.mark.parametrize("order,n", [(2, 6), (4, 9), (6, 13)])
def test_integral_potential_roundtrip_2d(order, n, rng):
    ops = square_tensor_ops(order, n, 2)
    f = rng.standard_normal(ops.shape)
    u = ops.grad(f)
    phi = scalar_potential_integral(ops, ops.field(u)).data
    assert ops.norm(ops.grad(phi) - u) <= 1e-9 * ops.norm(u)


def test_integral_potential_roundtrip_3d(rng):
    ops = square_tensor_ops(2, 5, 3)
    f = rng.standard_normal(ops.shape)
    u = ops.grad(f)
    phi = scalar_potential_integral(ops, ops.field(u)).data
    assert ops.norm(ops.grad(phi) - u) <= 1e-9 * ops.norm(u)


@pytest.mark.parametrize("order", [4, 6, 8])
def test_integral_potential_roundtrip_3d_high_order(order, rng):
    # unequal axes, so each integrates with its own operator's factors
    ops = build_tensor_ops(order, [Grid1D(0.0, 1.0, 17), Grid1D(-1.0, 1.0, 19),
                                   Grid1D(0.0, 2.0, 21)])
    f = rng.standard_normal(ops.shape)
    u = ops.grad(f)
    phi = scalar_potential_integral(ops, ops.field(u)).data
    assert ops.norm(ops.grad(phi) - u) <= 1e-9 * ops.norm(u)
    assert all("_integral_lu" in op.__dict__ for op in ops.axis_ops)


def test_integral_potential_matches_up_to_constant(ops_2d, rng):
    f = rng.standard_normal(ops_2d.shape)
    u = ops_2d.grad(f)
    phi = scalar_potential_integral(ops_2d, ops_2d.field(u)).data
    diff = phi - f
    assert np.max(np.abs(diff - diff.flat[0])) <= 1e-9 * np.max(np.abs(f))


def test_integral_potential_rejects_oscillation(ops_2d):
    u = place(ops_2d, ops_2d.oscillations[(0,)], 0)
    with pytest.raises(ConditionsViolated) as err:
        scalar_potential_integral(ops_2d, ops_2d.field(u))
    assert any("axis 1" in item for item in err.value.failed)


@pytest.mark.parametrize("dim", [2, 3])
def test_integral_potential_of_gradients_with_a_roundoff_component(dim, order, rng):
    """Exact discrete gradients whose y- or z-component is only roundoff
    (of x^2, and of x^2 + y^3 in 3D) have a potential: each overlap is
    measured against the whole field.  Adding an axis oscillation of
    relative size 1e-3 to any component is still refused."""
    ops = square_tensor_ops(order, 33 if dim == 2 else 17, dim)
    x, y = ops.meshgrid()[:2]
    for f in (x**2, x**2 + y**3, rng.standard_normal(ops.shape)):
        u = ops.grad(f)
        phi = scalar_potential_integral(ops, u).data
        assert ops.norm(ops.grad(phi) - u) <= 1e-10 * ops.norm(u)
        for i in range(dim):
            bad = u + 1e-3 * ops.norm(u) * place(ops, ops.oscillations[(i,)], i)
            with pytest.raises(ConditionsViolated) as err:
                scalar_potential_integral(ops, bad)
            assert any(f"axis {i + 1}" in item for item in err.value.failed)
    assert np.max(np.abs(ops.grad(x**2)[-1])) <= 1e-10  # a roundoff component


def _line_families(ops, u):
    """``(axis operator, lines)`` of each line family the integral reads,
    its lines along the last axis: the edge, then the 2D ``u_1``, or the 3D
    plane and volume."""
    a = ops.axis_ops
    if ops.dim == 2:
        return [(a[0], u[0][:, 0]), (a[1], u[1])]
    return [(a[0], u[0][:, 0, 0]), (a[1], u[1][:, :, 0]), (a[2], u[2])]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [49, 97])
def test_line_family_integral_agrees_with_invert_on_v0(dim, n, order, rng):
    """Each line family integrated along its last axis equals
    ``invert_on_v0`` of its lines: bit for bit above the dense rule, where
    both are the banded solve, and to roundoff at or below it."""
    ops = square_tensor_ops(order, n, dim)
    u = ops.grad(rng.standard_normal(ops.shape))
    floor = ops.norm(u)
    for op, lines in _line_families(ops, u):
        got = op._invert_last_axis(lines, 1e-8, floor)
        want = np.moveaxis(op.invert_on_v0(np.moveaxis(lines, -1, 0), tol=1e-8,
                                           norm_floor=floor), 0, -1)
        if n > 64:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [49, 97])
def test_integral_potential_refuses_one_oscillating_line(dim, n):
    """A gradient with one line of its last component shifted by an axis
    oscillation passes the field's conditions at a tolerance the line's
    own overlap exceeds: only the per-line check refuses it."""
    ops = square_tensor_ops(6, n, dim)
    x, y = ops.meshgrid()[:2]
    u = ops.grad(x * y)
    op, eps = ops.axis_ops[-1], 1e-6
    line = (dim - 1, *(n // 2,) * (dim - 1))
    u[line] += eps * op.grid_oscillation
    cond = check_potential_conditions(ops, u)
    tol = 2 * max(cond.curl_residual, *cond.oscillation_components)
    assert cond.within(tol)
    assert eps > 2 * tol * max(op.mass_norm(u[line]), ops.norm(u))
    with pytest.raises(NotInImage):
        scalar_potential_integral(ops, u, tol=tol)


@pytest.mark.parametrize("dim", [2, 3])
def test_condition_overlaps_are_the_oscillation_inner_products(dim, rng):
    ops = square_tensor_ops(6, 17, dim)
    u = rng.standard_normal((dim, *ops.shape))
    got = check_potential_conditions(ops, u).oscillation_components
    unorm = ops.norm(u)
    want = [abs(ops.inner(u[i], ops.oscillations[(i,)])) / unorm
            for i in range(dim)]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_integral_potential_rejects_rotational_field(ops_2d, rng):
    u = ops_2d.rot(rng.standard_normal(ops_2d.shape))
    with pytest.raises(ConditionsViolated):
        scalar_potential_integral(ops_2d, ops_2d.field(u))


# -- Neumann problem --------------------------------------------------------------


def test_neumann_zero_field(ops_2d):
    phi = harmonic_neumann_potential(ops_2d, ops_2d.field(
        np.zeros((2, *ops_2d.shape))))
    assert ops_2d.norm(phi.data) <= 1e-12


def test_neumann_linear_harmonic_all_orders(order):
    n = {2: 9, 4: 9, 6: 13, 8: 17}[order]
    ops = square_tensor_ops(order, n, 2)
    u = ops.grad(ops.meshgrid()[0])
    phi = harmonic_neumann_potential(ops, ops.field(u)).data
    assert ops.norm(ops.grad(phi) - u) <= 1e-9 * ops.norm(u)
    assert abs(np.sum(ops.mass * phi)) <= 1e-10


def test_neumann_bilinear_harmonic_order4():
    ops = square_tensor_ops(4, 10, 2)
    x, y = ops.meshgrid()
    h = x * y
    u = ops.grad(h)
    phi = harmonic_neumann_potential(ops, ops.field(u)).data
    assert ops.norm(ops.grad(phi) - u) <= 1e-9 * ops.norm(u)
    # phi agrees with h up to the mean shift
    assert ops.norm(phi - ops.mean_zero(h)) <= 1e-9 * ops.norm(h)


def test_neumann_3d(ops_3d):
    x = ops_3d.meshgrid()[0]
    u = ops_3d.grad(x)
    phi = harmonic_neumann_potential(ops_3d, ops_3d.field(u)).data
    assert ops_3d.norm(ops_3d.grad(phi) - u) <= 1e-9 * ops_3d.norm(u)


@pytest.mark.parametrize("dim", [2, 3])
def test_neumann_right_hand_side_is_the_full_boundary_sum(dim, rng):
    """The Neumann potential, its right-hand side summed on the boundary
    faces, has the bits of the pseudo-inverse of the full-size
    ``sum_i E_i u_i``, on an anisotropic grid."""
    grids = [Grid1D(-1, 1, 11), Grid1D(0, 2, 13), Grid1D(-1, 3, 9)][:dim]
    ops = build_tensor_ops(4, grids)
    u = ops.grad(rng.standard_normal(ops.shape))
    rhs = sum(ops.e_weight(i) * u[i] for i in range(dim))
    want = ops.mean_zero(ops.gram_pinv(rhs))
    got = harmonic_neumann_potential(ops, u, tol=np.inf).data
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_integral_potential_measures_the_field_once(dim, inner_calls):
    """``scalar_potential_integral`` takes ``||u||_M`` once: its inner
    products are that norm and the curl's norm.  The oscillation overlaps
    come from the separable mode contraction, so no oscillation field is
    built."""
    ops = square_tensor_ops(4, 9, dim)
    u = ops.grad(ops.meshgrid()[0] ** 2)
    inner_calls.clear()
    scalar_potential_integral(ops, u)
    assert len(inner_calls) == 2
    assert "oscillations" not in vars(ops)


def test_neumann_rejects_generic_field(ops_2d, rng):
    u = rng.standard_normal((2, *ops_2d.shape))
    with pytest.raises(NotDivCurlFree):
        harmonic_neumann_potential(ops_2d, ops_2d.field(u))


def test_integral_potential_rejects_non_finite_field(ops_2d):
    # NaN residuals compare False against the tolerance, so the conditions
    # check alone would let a NaN in an entry the integral never reads pass
    u = ops_2d.grad(ops_2d.meshgrid()[0])
    u[0, 3, 3] = np.nan
    with pytest.raises(NonFiniteEncountered):
        scalar_potential_integral(ops_2d, ops_2d.field(u))
    with pytest.raises(NonFiniteEncountered):
        check_potential_conditions(ops_2d, u)
