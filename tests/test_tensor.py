import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbphodge.errors import (
    BadDomain,
    DimensionMismatch,
    GridTooSmall,
    KindMismatch,
    WrongDimension,
)
from sbphodge.grid import Grid1D
from sbphodge.hodge import helmholtz, project_im_curl, project_im_grad
from sbphodge.potentials import (
    check_potential_conditions,
    dense_curl,
    dense_divergence,
    dense_gradient,
    dense_rot,
    harmonic_neumann_potential,
    scalar_potential_integral,
)
from sbphodge.tensor import (
    GridField,
    TensorOps,
    build_tensor_ops,
    curl,
    divergence,
    filter_field,
    gradient,
    inner_product,
    m_norm,
    rot,
    square_tensor_ops,
)


def random_scalar(ops, rng):
    return rng.standard_normal(ops.shape)


def random_vector(ops, rng):
    return rng.standard_normal((ops.dim, *ops.shape))


# -- construction ---------------------------------------------------------


def test_wrong_axis_count():
    with pytest.raises(WrongDimension):
        build_tensor_ops(2, [Grid1D(0, 1, 5)])
    with pytest.raises(WrongDimension):
        build_tensor_ops(2, [Grid1D(0, 1, 5)] * 4)


def test_equal_axes_share_one_operator():
    ops = square_tensor_ops(6, 17, 3)
    assert len({id(op) for op in ops.axis_ops}) == 1
    aniso = build_tensor_ops(2, [Grid1D(0, 1, 5), Grid1D(0, 1, 6), Grid1D(0, 1, 5)])
    assert aniso.axis_ops[0] is aniso.axis_ops[2]
    assert aniso.axis_ops[0] is not aniso.axis_ops[1]


def test_mass_and_oscillations_built_on_first_read():
    ops = square_tensor_ops(4, 9, 3)
    assert "mass" not in vars(ops) and "oscillations" not in vars(ops)
    w = [op.mass_weights for op in ops.axis_ops]
    assert np.allclose(ops.mass, np.einsum("i,j,k->ijk", *w), rtol=1e-15, atol=0)
    osc = [op.grid_oscillation for op in ops.axis_ops]
    keys = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert list(ops.oscillations) == keys
    for key in keys:
        parts = [osc[j] if j in key else np.ones(9) for j in range(3)]
        expect = np.einsum("i,j,k->ijk", *parts)
        expect /= np.sqrt(np.sum(ops.mass * expect**2))
        assert np.allclose(ops.oscillations[key], expect, rtol=1e-14, atol=0)
    with pytest.raises(WrongDimension):
        TensorOps(ops.axis_ops[:1])


def test_gradient_of_coordinate_is_one(ops_2d):
    x, _ = ops_2d.meshgrid()
    g = ops_2d.grad(x)
    assert np.max(np.abs(g[0] - 1.0)) <= 1e-13
    assert np.max(np.abs(g[1])) <= 1e-13


def test_mass_total_is_volume():
    ops = square_tensor_ops(2, 9, 2)
    assert np.isclose(np.sum(ops.mass), 4.0, atol=1e-13)
    ops3 = square_tensor_ops(4, 9, 3)
    assert np.isclose(np.sum(ops3.mass), 8.0, atol=1e-12)


def test_axis_derivatives_commute(ops_2d, rng):
    f = random_scalar(ops_2d, rng)
    d12 = ops_2d.apply_axis(0, ops_2d.apply_axis(1, f))
    d21 = ops_2d.apply_axis(1, ops_2d.apply_axis(0, f))
    dx = ops_2d.axis_ops[0].grid.dx
    assert ops_2d.norm(d12 - d21) <= 1e-12 * ops_2d.norm(f) / dx**2


# -- mimetic identities ------------------------------------------------------


def test_curl_grad_zero_2d(ops_2d, rng):
    f = random_scalar(ops_2d, rng)
    dx = ops_2d.axis_ops[0].grid.dx
    assert ops_2d.norm(ops_2d.curl(ops_2d.grad(f))) <= (
        1e-12 * ops_2d.norm(f) / dx**2
    )


def test_div_rot_zero_2d(ops_2d, rng):
    v = random_scalar(ops_2d, rng)
    dx = ops_2d.axis_ops[0].grid.dx
    assert ops_2d.norm(ops_2d.div(ops_2d.rot(v))) <= (
        1e-12 * ops_2d.norm(v) / dx**2
    )


def test_curl_grad_zero_3d(ops_3d, rng):
    f = random_scalar(ops_3d, rng)
    dx = ops_3d.axis_ops[0].grid.dx
    assert ops_3d.norm(ops_3d.curl(ops_3d.grad(f))) <= (
        1e-12 * ops_3d.norm(f) / dx**2
    )


def test_div_curl_zero_3d(ops_3d, rng):
    w = random_vector(ops_3d, rng)
    dx = ops_3d.axis_ops[0].grid.dx
    assert ops_3d.norm(ops_3d.div(ops_3d.curl(w))) <= (
        1e-12 * ops_3d.norm(w) / dx**2
    )


def test_divergence_of_identity_field_3d(ops_3d):
    coords = np.stack(ops_3d.meshgrid())
    assert np.max(np.abs(ops_3d.div(coords) - 3.0)) <= 1e-12


# -- analytic accuracy --------------------------------------------------------


def test_gradient_analytic_interior_order():
    errs = []
    for n in (30, 60):
        ops = square_tensor_ops(6, n, 2)
        x, y = ops.meshgrid()
        f = np.sin(np.pi * (x + y))
        g = ops.grad(f)
        exact = np.pi * np.cos(np.pi * (x + y))
        b = ops.axis_ops[0].n_closure_rows
        sl = (slice(b, -b), slice(b, -b))
        err = max(np.max(np.abs(g[0] - exact)[sl]), np.max(np.abs(g[1] - exact)[sl]))
        errs.append(err)
    rate = np.log(errs[0] / errs[1]) / np.log(59 / 29)
    assert rate > 5.3


def test_rot_analytic():
    ops = square_tensor_ops(6, 60, 2)
    x, y = ops.meshgrid()
    v = -np.sin(np.pi * x) * np.sin(np.pi * y) / np.pi
    r = ops.rot(v)
    expected = np.stack([
        -np.sin(np.pi * x) * np.cos(np.pi * y),
        np.cos(np.pi * x) * np.sin(np.pi * y),
    ])
    b = ops.axis_ops[0].n_closure_rows
    sl = (slice(None), slice(b, -b), slice(b, -b))
    assert np.max(np.abs(r - expected)[sl]) <= 5e-7


# -- inner products ------------------------------------------------------------


def test_constant_inner_product_is_area():
    ops = square_tensor_ops(4, 10, 2)
    one = np.ones(ops.shape)
    assert np.isclose(ops.inner(one, one), 4.0, atol=1e-13)


def test_oscillation_fields_mutually_orthogonal(ops_2d, ops_3d):
    for ops in (ops_2d, ops_3d):
        keys = list(ops.oscillations)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                val = ops.inner(ops.oscillations[keys[a]],
                                ops.oscillations[keys[b]])
                assert abs(val) <= 1e-13


def test_oscillation_membership(ops_3d):
    # osc_i is annihilated by D_i* = M^-1 D_i^T M and by D_j for j != i
    dx = ops_3d.axis_ops[0].grid.dx
    mass = ops_3d.mass
    for i in range(3):
        osc = ops_3d.oscillations[(i,)]
        d_star = ops_3d.apply_axis_transpose(i, mass * osc) / mass
        assert ops_3d.norm(d_star) <= 1e-11 / dx
        for j in range(3):
            if j != i:
                assert ops_3d.norm(ops_3d.apply_axis(j, osc)) <= 1e-11 / dx


def test_per_axis_integration_by_parts(ops_2d, rng):
    f = random_scalar(ops_2d, rng)
    g = random_scalar(ops_2d, rng)
    for i in range(2):
        lhs = ops_2d.inner(ops_2d.apply_axis(i, f), g) + ops_2d.inner(
            f, ops_2d.apply_axis(i, g)
        )
        rhs = ops_2d.boundary_pairing(i, f, g)
        assert abs(lhs - rhs) <= 1e-12 * ops_2d.norm(f) * ops_2d.norm(g) / (
            ops_2d.axis_ops[i].grid.dx
        )


def test_divergence_theorem(ops_2d, rng):
    f = random_scalar(ops_2d, rng)
    w = random_vector(ops_2d, rng)
    lhs = ops_2d.inner(ops_2d.grad(f), w) + ops_2d.inner(f, ops_2d.div(w))
    rhs = sum(ops_2d.boundary_pairing(i, f, w[i]) for i in range(2))
    scale = ops_2d.norm(f) * ops_2d.norm(w) / ops_2d.axis_ops[0].grid.dx
    assert abs(lhs - rhs) <= 1e-12 * scale


# -- filter ---------------------------------------------------------------------


def test_filter_annihilates_oscillation(ops_2d):
    out = ops_2d.filter_scalar(ops_2d.oscillations[(0,)])
    assert ops_2d.norm(out) <= 1e-13


def test_filter_preserves_orthogonal_fields(ops_2d, rng):
    u = random_scalar(ops_2d, rng)
    # make u orthogonal to the single oscillations first
    u = ops_2d.filter_scalar(u)
    assert ops_2d.norm(ops_2d.filter_scalar(u) - u) <= 1e-13 * ops_2d.norm(u)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_filter_projection_properties(seed):
    ops = square_tensor_ops(4, 9, 2)
    gen = np.random.default_rng(seed)
    u = gen.standard_normal(ops.shape)
    w = gen.standard_normal(ops.shape)
    fu = ops.filter_scalar(u)
    unorm = ops.norm(u)
    assert ops.norm(ops.filter_scalar(fu) - fu) <= 1e-13 * unorm
    assert ops.norm(fu) <= unorm * (1 + 1e-13)
    lhs = ops.inner(fu, w)
    rhs = ops.inner(u, ops.filter_scalar(w))
    assert abs(lhs - rhs) <= 1e-12 * unorm * ops.norm(w)


def test_filter_extended_removes_pair_mode(ops_2d):
    top = ops_2d.oscillations[(0, 1)]
    kept = ops_2d.filter_scalar(top)
    removed = ops_2d.filter_scalar(top, extended=True)
    assert ops_2d.norm(kept - top) <= 1e-13
    assert ops_2d.norm(removed) <= 1e-13


# -- GridField API ---------------------------------------------------------------


def test_gridfield_kinds(ops_2d, rng):
    f = ops_2d.field(random_scalar(ops_2d, rng))
    u = ops_2d.field(random_vector(ops_2d, rng))
    assert f.kind == "scalar" and u.kind == "vector"
    with pytest.raises(KindMismatch):
        gradient(ops_2d, u)
    with pytest.raises(KindMismatch):
        divergence(ops_2d, f)
    with pytest.raises(KindMismatch):
        rot(ops_2d, u)
    with pytest.raises(KindMismatch):
        inner_product(ops_2d, f, u)


def test_gridfield_shape_validation(ops_2d):
    with pytest.raises(KindMismatch):
        GridField(np.zeros((3, *ops_2d.shape)), ops_2d.bounds)


def test_rot_requires_2d(ops_3d, rng):
    with pytest.raises(WrongDimension):
        ops_3d.rot(random_scalar(ops_3d, rng))


def test_field_level_roundtrip(ops_2d, rng):
    f = ops_2d.field(random_scalar(ops_2d, rng))
    g = gradient(ops_2d, f)
    assert g.kind == "vector"
    c = curl(ops_2d, g)
    dx = ops_2d.axis_ops[0].grid.dx
    assert m_norm(ops_2d, c) <= 1e-12 * m_norm(ops_2d, f) / dx**2
    filtered = filter_field(ops_2d, g)
    assert filtered.kind == "vector"


def test_inner_dimension_mismatch(ops_2d, ops_3d):
    with pytest.raises(DimensionMismatch):
        ops_2d.inner(np.zeros(ops_2d.shape), np.zeros((3, *ops_2d.shape)))


# -- the matrix-free operators against the dense Kronecker oracle ----------


@pytest.mark.parametrize("order,sizes", [
    (2, (7, 9)), (4, (9, 11)), (6, (13, 15)), (8, (17, 19)),
    (2, (5, 6, 7)), (4, (8, 9, 10)),
], ids=["2d-order2", "2d-order4", "2d-order6", "2d-order8", "3d-order2",
        "3d-order4"])
def test_matrix_free_operators_match_dense_oracle(order, sizes, rng):
    """Every axis has its own size and domain, so a swapped axis shows."""
    ops = build_tensor_ops(order, [Grid1D(-1.0 + j, 1.0 + 2 * j, n)
                                   for j, n in enumerate(sizes)])
    f = random_scalar(ops, rng)
    u = random_vector(ops, rng)
    w = f if ops.dim == 2 else u  # the codomain of curl
    grad, div, curl_ = dense_gradient(ops), dense_divergence(ops), dense_curl(ops)
    pairs = [
        (ops.grad(f), grad @ f.ravel()),
        (ops.div(u), div @ u.ravel()),
        (ops.curl(u), curl_ @ u.ravel()),
        (ops.grad_transpose(u), grad.T @ u.ravel()),
        (ops.curl_transpose(w), curl_.T @ w.ravel()),
    ]
    if ops.dim == 2:
        pairs.append((ops.rot(f), dense_rot(ops) @ f.ravel()))
    for got, want in pairs:
        assert got.size == want.size
        assert np.linalg.norm(got.ravel() - want) <= 1e-13 * np.linalg.norm(want)


# -- fields on another domain ------------------------------------------------


FIELD_CALLS = {
    "helmholtz": lambda ops, f, u: helmholtz(ops, u),
    "project_im_grad": lambda ops, f, u: project_im_grad(ops, u),
    "project_im_curl": lambda ops, f, u: project_im_curl(ops, u),
    "check_potential_conditions":
        lambda ops, f, u: check_potential_conditions(ops, u),
    "scalar_potential_integral":
        lambda ops, f, u: scalar_potential_integral(ops, u),
    "harmonic_neumann_potential":
        lambda ops, f, u: harmonic_neumann_potential(ops, u),
    "gradient": lambda ops, f, u: gradient(ops, f),
    "divergence": lambda ops, f, u: divergence(ops, u),
    "curl": lambda ops, f, u: curl(ops, u),
    "rot": lambda ops, f, u: rot(ops, f),
    "filter_field_scalar": lambda ops, f, u: filter_field(ops, f),
    "filter_field_vector": lambda ops, f, u: filter_field(ops, u, True),
    "inner_product": lambda ops, f, u: inner_product(ops, u, u),
    "m_norm": lambda ops, f, u: m_norm(ops, f),
}


@pytest.mark.parametrize("name", FIELD_CALLS)
def test_field_on_another_domain_is_rejected(name):
    """A GridField must lie on the operators' domain, up to roundoff in its
    bounds; a field of the right shape on [0, 5]^2 is not accepted on
    [-1, 1]^2."""
    call = FIELD_CALLS[name]
    ops = square_tensor_ops(4, 17, 2)
    f = sum((j + 1.0) * x for j, x in enumerate(ops.meshgrid()))
    u = ops.grad(f)  # curl and div free, with no oscillation content
    call(ops, ops.field(f), ops.field(u))
    nudged = tuple((lo + 1e-15, hi - 1e-15) for lo, hi in ops.bounds)
    call(ops, GridField(f, nudged), GridField(u, nudged))
    other = square_tensor_ops(4, 17, 2, 0.0, 5.0)
    with pytest.raises(DimensionMismatch):
        call(ops, other.field(f), other.field(u))
    for bounds in (((-1.0, 1.0), (-1.0, 1.0 + 1e-6)),
                   ((-1.0, 1.0), (-1.0, np.nan))):
        with pytest.raises(DimensionMismatch):
            call(ops, GridField(f, bounds), GridField(u, bounds))


def test_helmholtz_3d_rejects_a_field_on_another_domain(ops_3d, rng):
    u = random_vector(ops_3d, rng)
    other = square_tensor_ops(2, 7, 3, -1.0, 2.0)
    with pytest.raises(DimensionMismatch):
        helmholtz(ops_3d, other.field(u))
    # raw arrays carry no domain and stay accepted
    dec = helmholtz(ops_3d, u)
    assert dec.remainder.bounds == ops_3d.bounds


def test_raw_arrays_are_accepted_by_every_field_call():
    """A raw array of the right shape passes the same field rule as a
    GridField, and gives the same result."""
    ops = square_tensor_ops(4, 17, 2)
    f = sum((j + 1.0) * x for j, x in enumerate(ops.meshgrid()))
    u = ops.grad(f)
    for name, call in FIELD_CALLS.items():
        raw, wrapped = call(ops, f, u), call(ops, ops.field(f), ops.field(u))
        if isinstance(raw, GridField):
            assert np.array_equal(raw.data, wrapped.data), name
        elif isinstance(raw, float):
            assert raw == wrapped, name


# -- misuse: one typed error per input, raised where it enters ------------------


def _ops2():
    return square_tensor_ops(2, 9, 2)


def _ops3():
    return square_tensor_ops(2, 5, 3)


MISUSE = {
    "2d divergence of 3 components":
        (lambda: divergence(_ops2(), np.ones((3, 9, 9))), DimensionMismatch),
    "2d curl of 5 components":
        (lambda: curl(_ops2(), np.ones((5, 9, 9))), DimensionMismatch),
    "3d curl_transpose of 4 components":
        (lambda: _ops3().curl_transpose(np.ones((4, 5, 5, 5))), DimensionMismatch),
    "3d curl of 2 components":
        (lambda: _ops3().curl(np.ones((2, 5, 5, 5))), DimensionMismatch),
    "2d m_norm of 3 components":
        (lambda: m_norm(_ops2(), np.ones((3, 9, 9))), DimensionMismatch),
    "helmholtz of complex data":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)) + 1j), KindMismatch),
    "gradient of complex data":
        (lambda: gradient(_ops2(), np.ones((9, 9)) + 1j), KindMismatch),
    "operators on [0, inf]":
        (lambda: square_tensor_ops(2, 9, 2, 0.0, np.inf), BadDomain),
    "grid on an empty interval": (lambda: Grid1D(1.0, 0.0, 5), BadDomain),
    "grid with a nan end": (lambda: Grid1D(0.0, np.nan, 5), BadDomain),
    "field on a reversed and a nan axis":
        (lambda: GridField(np.zeros((3, 3)), ((1.0, -1.0), (0.0, np.nan))),
         BadDomain),
    "field with a one-node axis":
        (lambda: GridField(np.zeros((1, 3)), ((0.0, 1.0), (0.0, 1.0))),
         GridTooSmall),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", MISUSE)
def test_misuse_raises_its_typed_error(name):
    """No misuse returns garbage, warns, or raises a bare numpy error."""
    call, error = MISUSE[name]
    with pytest.raises(error):
        call()
