import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbphodge.errors import (
    BadDomain,
    DimensionMismatch,
    GridTooSmall,
    InvalidConfig,
    KindMismatch,
    NonFiniteEncountered,
    WrongDimension,
)
import sbphodge.operators1d as operators1d
import sbphodge.tensor as tensor
from sbphodge.grid import Grid1D
from sbphodge.operators1d import build_operator_1d
from sbphodge.hodge import helmholtz, project_im_curl, project_im_grad
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

from conftest import MIN_NODES, assert_within_forward_error


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


def _read_only_slot():
    slot = np.zeros(9)
    slot.flags.writeable = False
    return slot


MISUSE = {
    "2d divergence of 3 components":
        (lambda: divergence(_ops2(), np.ones((3, 9, 9))), DimensionMismatch),
    "2d curl of 5 components":
        (lambda: curl(_ops2(), np.ones((5, 9, 9))), DimensionMismatch),
    "3d curl_transpose of 4 components":
        (lambda: _ops3().curl_transpose(np.ones((4, 5, 5, 5))), DimensionMismatch),
    "3d curl of 2 components":
        (lambda: _ops3().curl(np.ones((2, 5, 5, 5))), DimensionMismatch),
    "2d curl_star": (lambda: _ops2().curl_star(np.ones((2, 9, 9))), WrongDimension),
    "3d grad_star of 2 components":
        (lambda: _ops3().grad_star(np.ones((2, 5, 5, 5))), DimensionMismatch),
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
    "grid with a non-integer node count":
        (lambda: Grid1D(-1, 1, 33.5), BadDomain),
    "lsqr with a negative max_iter":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)), solver="lsqr",
                           max_iter=-1), InvalidConfig),
    "lsqr with a nan atol":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)), solver="lsqr",
                           atol=np.nan), InvalidConfig),
    "lsqr with a negative atol":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)), solver="lsqr",
                           atol=-1.0), InvalidConfig),
    "direct helmholtz with a negative max_iter":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)), max_iter=-1),
         InvalidConfig),
    "direct helmholtz with a nan atol":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)), atol=np.nan),
         InvalidConfig),
    "direct helmholtz with a negative btol":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)), btol=-1.0),
         InvalidConfig),
    "direct grad stage with an infinite btol":
        (lambda: project_im_grad(_ops3(), np.ones((3, 5, 5, 5)), btol=np.inf),
         InvalidConfig),
    "direct curl stage with a fractional max_iter":
        (lambda: project_im_curl(_ops2(), np.ones((2, 9, 9)), max_iter=2.5),
         InvalidConfig),
    "sweep into a read-only slot":
        (lambda: _ops2().axis_ops[0].apply_d(np.ones(9), out=_read_only_slot()),
         KindMismatch),
    "field on a reversed and a nan axis":
        (lambda: GridField(np.zeros((3, 3)), ((1.0, -1.0), (0.0, np.nan))),
         BadDomain),
    "field with a one-node axis":
        (lambda: GridField(np.zeros((1, 3)), ((0.0, 1.0), (0.0, 1.0))),
         GridTooSmall),
    "discrete integral of a line with a nan":
        (lambda: _ops2().axis_ops[0].invert_on_v0(np.r_[0.0, np.nan, [0.0] * 7]),
         NonFiniteEncountered),
    "discrete integral of lines with an inf":
        (lambda: _ops2().axis_ops[0].invert_on_v0(
            np.c_[np.zeros(9), np.r_[[0.0] * 8, np.inf]]),
         NonFiniteEncountered),
    "integral potential with a nan tol":
        (lambda: scalar_potential_integral(_ops2(), np.ones((2, 9, 9)),
                                           tol=np.nan), InvalidConfig),
    "neumann potential with a nan tol":
        (lambda: harmonic_neumann_potential(_ops2(), np.ones((2, 9, 9)),
                                            tol=np.nan), InvalidConfig),
    "neumann potential with a negative tol":
        (lambda: harmonic_neumann_potential(_ops2(), np.ones((2, 9, 9)),
                                            tol=-1.0), InvalidConfig),
    "discrete integral with a nan tol":
        (lambda: _ops2().axis_ops[0].invert_on_v0(np.ones(9), tol=np.nan),
         InvalidConfig),
    "discrete integral with a nan norm_floor":
        (lambda: _ops2().axis_ops[0].invert_on_v0(np.ones(9), norm_floor=np.nan),
         InvalidConfig),
    "sweep of complex data":
        (lambda: _ops2().axis_ops[0].apply_d(np.ones(9) + 1j), KindMismatch),
    "sweep of an object array of None":
        (lambda: _ops2().axis_ops[0].apply_d_star(np.array([None] * 9)),
         KindMismatch),
    "discrete integral of complex data":
        (lambda: _ops2().axis_ops[0].invert_on_v0(np.zeros(9) + 1j),
         KindMismatch),
    "rank of a vector":
        (lambda: kernel_dimension(np.ones(5)), DimensionMismatch),
    "rank of a nan matrix":
        (lambda: kernel_dimension(np.full((3, 3), np.nan)), NonFiniteEncountered),
    "neumann potential with a string tol":
        (lambda: harmonic_neumann_potential(_ops2(), np.ones((2, 9, 9)),
                                            tol="1e-8"), InvalidConfig),
    "integral potential with a string tol":
        (lambda: scalar_potential_integral(_ops2(), np.ones((2, 9, 9)),
                                           tol="1e-8"), InvalidConfig),
    "discrete integral with a string tol":
        (lambda: _ops2().axis_ops[0].invert_on_v0(np.ones(9), tol="1e-8"),
         InvalidConfig),
    "discrete integral with a None norm_floor":
        (lambda: _ops2().axis_ops[0].invert_on_v0(np.ones(9), norm_floor=None),
         InvalidConfig),
    "direct helmholtz with a string atol":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)), atol="1e-3"),
         InvalidConfig),
    "direct helmholtz with a None atol":
        (lambda: helmholtz(_ops2(), np.ones((2, 9, 9)), atol=None),
         InvalidConfig),
    "field of complex data":
        (lambda: _ops2().field(np.ones((9, 9)) + 1j), KindMismatch),
    "field of None entries":
        (lambda: _ops2().field([[None] * 9] * 9), KindMismatch),
    "field of strings":
        (lambda: _ops2().field(np.full((9, 9), "1.0")), KindMismatch),
    "2d apply_axis along axis 2":
        (lambda: _ops2().apply_axis(2, np.ones((9, 9))), WrongDimension),
    "2d apply_axis along axis -1":
        (lambda: _ops2().apply_axis(-1, np.ones((9, 9))), WrongDimension),
    "3d apply_axis_transpose along axis 3":
        (lambda: _ops3().apply_axis_transpose(3, np.ones((5, 5, 5))),
         WrongDimension),
    "2d apply_axis along axis 1.0":
        (lambda: _ops2().apply_axis(1.0, np.ones((9, 9))), WrongDimension),
    "2d e_weight of axis 5": (lambda: _ops2().e_weight(5), WrongDimension),
    "2d e_weight of axis -1": (lambda: _ops2().e_weight(-1), WrongDimension),
    "2d boundary_pairing of axis 5":
        (lambda: _ops2().boundary_pairing(5, np.ones((9, 9)), np.ones((9, 9))),
         WrongDimension),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", MISUSE)
def test_misuse_raises_its_typed_error(name):
    """No misuse returns garbage, warns, or raises a bare numpy error."""
    call, error = MISUSE[name]
    with pytest.raises(error):
        call()


# -- the sweeps against their temporary-per-term formulas --------------------


def _sweep_d(op, u):
    """D along axis 0 with a fresh temporary per term, zero terms included."""
    n, b, w = op.n_nodes, op.n_closure_rows, op.halfwidth
    wt = op.boundary_block.shape[1]
    trailing = (1,) * (u.ndim - 1)
    out = np.empty_like(u)
    s = op.interior_stencil
    core = s[0] * u[b - w : n - b - w]
    for k in range(1, 2 * w + 1):
        core = core + s[k] * u[b - w + k : n - b - w + k]
    out[b : n - b] = core
    for rows, block, first in ((slice(0, b), op.boundary_block, 0),
                               (slice(n - b, n), -op.boundary_block[::-1, ::-1],
                                n - wt)):
        acc = block[:, 0].reshape(-1, *trailing) * u[first]
        for j in range(1, wt):
            acc = acc + block[:, j].reshape(-1, *trailing) * u[first + j]
        out[rows] = acc
    return out


def _sweep_d_transpose(op, u):
    """D^T along axis 0: the reversed band, truncated at both ends, summed
    into zeros term by term with a fresh temporary, then the corner
    corrections, the closure block minus the band it replaces."""
    n, w, s = op.n_nodes, op.halfwidth, op.interior_stencil
    b, wt = op.boundary_block.shape
    k = np.arange(wt) - np.arange(b)[:, None] + w
    corr = op.boundary_block - np.where((k >= 0) & (k < len(s)),
                                        s[np.clip(k, 0, len(s) - 1)], 0.0)
    band_rev = s[::-1]
    out = np.zeros_like(u)
    for k in range(2 * w + 1):
        m, c = k - w, band_rev[k]
        if c == 0.0:
            continue
        if m >= 0:
            out[: n - m] += c * u[m:]
        else:
            out[-m:] += c * u[: n + m]
    out[:wt] += np.tensordot(corr, u[:b], axes=(0, 0))
    out[n - wt :] += np.tensordot(-corr[::-1, ::-1], u[n - b :], axes=(0, 0))
    return out


# (1D method, the entries of its matrix, its reference formula), for D and D^T
SWEEPS = (("apply_d", lambda op: op._entries, _sweep_d),
          ("apply_d_transpose",
           lambda op: (op._entries[1], op._entries[0], op._entries[2]),
           _sweep_d_transpose))


SWEEP_GRIDS = {
    "2d": (6, [Grid1D(-1.0, 1.0, 23), Grid1D(0.0, 2.0, 19)]),
    "3d": (4, [Grid1D(-1.0, 1.0, 11), Grid1D(0.0, 1.0, 13),
               Grid1D(0.0, 3.0, 9)]),
    "3d-order2-min": (2, [Grid1D(0.0, 1.0, 2), Grid1D(0.0, 1.0, 3),
                          Grid1D(0.0, 1.0, 4)]),
    # above operators1d._DENSE_NODES: the banded forms
    "2d-order8-banded": (8, [Grid1D(-1.0, 1.0, 67), Grid1D(0.0, 2.0, 90)]),
}


@pytest.mark.parametrize("name", SWEEP_GRIDS)
def test_axis_sweeps_within_the_forward_error_of_reference_formulas(name, rng):
    """Along every axis, ``apply_axis``/``apply_axis_transpose`` and the 1D
    sweeps with and without ``out=`` (a contiguous, a strided and an
    aliased slot) agree with the reference formulas to the forward-error
    bound, and every slot gets the bits of the sweep without one."""
    order, grids = SWEEP_GRIDS[name]
    ops = build_tensor_ops(order, grids)
    u = random_scalar(ops, rng)
    for i, op in enumerate(ops.axis_ops):
        moved = np.moveaxis(u, i, 0)
        for (method, entries, reference), axis_method in zip(
                SWEEPS, (ops.apply_axis, ops.apply_axis_transpose)):
            want, sweep = reference(op, moved), getattr(op, method)
            got = sweep(moved)
            assert_within_forward_error(got, entries(op), moved, want)
            assert np.array_equal(np.moveaxis(axis_method(i, u), i, 0), got)
            slots = [np.empty(moved.shape),
                     np.empty((*moved.shape, 2))[..., 1],
                     np.moveaxis(np.empty((*moved.shape[1:], moved.shape[0])),
                                 -1, 0)]
            for slot in slots:
                assert sweep(moved, out=slot) is slot
                assert np.array_equal(slot, got)
            alias = np.moveaxis(u.copy(), i, 0)  # laid out as moved
            assert np.array_equal(sweep(alias, out=alias), got)


def test_sweep_output_slot_is_checked():
    op = build_operator_1d(4, Grid1D(0.0, 1.0, 12))
    u = np.ones((12, 3))
    with pytest.raises(DimensionMismatch):
        op.apply_d(u, out=np.empty((12, 4)))
    with pytest.raises(KindMismatch):
        op.apply_d_transpose(u, out=np.empty((12, 3), dtype=np.float32))
    with pytest.raises(KindMismatch):
        op.apply_d(u, out=[[0.0] * 3] * 12)


@pytest.mark.parametrize("name", SWEEP_GRIDS)
def test_calculus_bit_identical_to_reference_compositions(name, rng):
    """grad, div, curl, rot and the transposes, written row by row into
    their results, equal the compositions of ``apply_axis`` and
    ``apply_axis_transpose`` bit for bit."""
    order, grids = SWEEP_GRIDS[name]
    ops = build_tensor_ops(order, grids)
    f, u = random_scalar(ops, rng), random_vector(ops, rng)
    d, dt = ops.apply_axis, ops.apply_axis_transpose

    assert np.array_equal(ops.grad(f), np.stack([d(i, f) for i in range(ops.dim)]))
    for div, dd in ((ops.div, d), (ops.grad_transpose, dt)):
        want = dd(0, u[0])
        for i in range(1, ops.dim):
            want = want + dd(i, u[i])
        assert np.array_equal(div(u), want)
    if ops.dim == 2:
        assert np.array_equal(ops.rot(f), np.stack([d(1, f), -d(0, f)]))
        assert np.array_equal(ops.curl(u), d(0, u[1]) - d(1, u[0]))
        assert np.array_equal(ops.curl_transpose(f),
                              -np.stack([dt(1, f), -dt(0, f)]))
        return
    for curl_, dd, sign in ((ops.curl, d, 1.0), (ops.curl_transpose, dt, -1.0)):
        want = np.stack([dd(1, u[2]) - dd(2, u[1]), dd(2, u[0]) - dd(0, u[2]),
                         dd(0, u[1]) - dd(1, u[0])])
        assert np.array_equal(curl_(u), sign * want)


def test_calculus_is_independent_of_the_input_layout(rng):
    """A sweep runs along memory as one line only for some layouts; fields
    stored in Fortran order, as strided views or as transposed views give
    the results of their C-ordered copies bit for bit (``inner``, whose
    summation follows the memory order, to roundoff)."""
    ops = build_tensor_ops(4, [Grid1D(0.0, 1.0, 11), Grid1D(0.0, 2.0, 13),
                               Grid1D(-1.0, 1.0, 9)])
    u = random_vector(ops, rng)
    wide = np.zeros((3, 22, 13, 9))
    wide[:, ::2] = u
    reversed_axes = np.ascontiguousarray(u.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
    calls = (ops.div, ops.curl, ops.curl_transpose, ops.grad_transpose,
             lambda a: ops.grad(a[0]), lambda a: ops.filter_vector(a, True))
    for view in (np.asfortranarray(u), wide[:, ::2], reversed_axes):
        for call in calls:
            assert np.array_equal(call(view), call(u))
        assert abs(ops.inner(view, view) - ops.inner(u, u)) <= 1e-14 * ops.inner(u, u)


@pytest.mark.parametrize("dim", [2, 3])
def test_every_returned_field_is_c_contiguous(dim, rng):
    """The tensor layer and both decompositions return C-ordered fields, so
    the sweeps of a later call run on contiguous rows."""
    grids = [Grid1D(0.0, 1.0, 11), Grid1D(0.0, 2.0, 13), Grid1D(-1.0, 1.0, 9)]
    ops = build_tensor_ops(4, grids[:dim])
    f, u = random_scalar(ops, rng), random_vector(ops, rng)
    w = f if dim == 2 else u
    fields = {
        "grad": ops.grad(f), "div": ops.div(u), "curl": ops.curl(u),
        "grad_transpose": ops.grad_transpose(u),
        "curl_transpose": ops.curl_transpose(w),
        "gram_pinv": ops.gram_pinv(ops.mean_zero(f)),
        "mean_zero": ops.mean_zero(f),
        "filter_scalar": ops.filter_scalar(f, True),
        "filter_vector": ops.filter_vector(u, True),
    }
    if dim == 2:
        fields["rot"] = ops.rot(f)
    else:
        fields["curl_gram_pinv"] = ops.curl_gram_pinv(ops.curl_transpose(u))
    for order in ("grad-first", "curl-first"):
        dec = helmholtz(ops, u, order=order)
        for name in ("phi", "v", "grad_phi", "sol_part", "remainder"):
            fields[f"{order} {name}"] = getattr(dec, name).data
    for name, a in fields.items():
        assert a.flags.c_contiguous, name


# -- the separable oscillation filter and the weighted inner product ----------


FILTER_GRIDS = {
    "2d": (6, [Grid1D(-1.0, 1.0, 33)] * 2),
    "3d": (4, [Grid1D(-1.0, 1.0, 13)] * 3),
    "2d-anisotropic": (4, [Grid1D(-1.0, 1.0, 17), Grid1D(0.0, 3.0, 24)]),
    "3d-anisotropic": (2, [Grid1D(0.0, 1.0, 7), Grid1D(-2.0, 1.0, 9),
                           Grid1D(0.0, 0.5, 6)]),
}


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("name", FILTER_GRIDS)
def test_separable_filter_matches_sequential_gram_schmidt(name, extended, rng):
    """The one-pass projection equals removing the modes of ``oscillations``
    one after another, for scalars and vectors."""
    ops = build_tensor_ops(*FILTER_GRIDS[name])
    u = random_vector(ops, rng)

    def sequential(a):
        for key, osc in ops.oscillations.items():
            if extended or len(key) == 1:
                a = a - ops.inner(osc, a) * osc
        return a

    want = np.stack([sequential(c) for c in u])
    got = ops.filter_vector(u, extended)
    assert got.flags.c_contiguous
    assert ops.norm(got - want) <= 1e-13 * ops.norm(u)
    scalar = ops.filter_scalar(u[0], extended)
    assert ops.norm(scalar - want[0]) <= 1e-13 * ops.norm(u[0])


@pytest.mark.parametrize("name", FILTER_GRIDS)
def test_mode_factors_are_m_orthonormal(name):
    """Per axis the constant and the oscillation are M-orthonormal, and so
    are all 2^d tensor-product modes, the constant one included."""
    ops = build_tensor_ops(*FILTER_GRIDS[name])
    for op, factor in zip(ops.axis_ops, ops._mode_factors):
        gram = factor.T @ (op.mass_weights[:, None] * factor)
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-13
    modes = [ops.oscillations[k] for k in ops.oscillations]
    modes.append(np.ones(ops.shape) / np.sqrt(np.sum(ops.mass)))
    gram = np.array([[ops.inner(a, b) for b in modes] for a in modes])
    assert np.max(np.abs(gram - np.eye(len(modes)))) <= 1e-13


@pytest.mark.parametrize("name", FILTER_GRIDS)
def test_inner_matches_full_mass_product(name, rng):
    ops = build_tensor_ops(*FILTER_GRIDS[name])
    for a, b in ((random_scalar(ops, rng), random_scalar(ops, rng)),
                 (random_vector(ops, rng), random_vector(ops, rng))):
        for x, y in ((a, b), (a, a + 0.5 * b)):
            want = np.vdot(ops.mass * x, y)
            scale = np.sqrt(np.vdot(ops.mass * x, x) * np.vdot(ops.mass * y, y))
            assert abs(ops.inner(x, y) - want) <= 1e-14 * scale


# -- the windowed sweeps -----------------------------------------------------


def _assert_sweeps_match_reference(ops, u):
    """Along every axis, both 1D sweeps agree with the reference formulas to
    the forward-error bound, and give the same bits into a contiguous, a
    strided and an aliased ``out=`` slot as without one."""
    for i, op in enumerate(ops.axis_ops):
        moved = np.moveaxis(u, i, 0)
        for method, entries, reference in SWEEPS:
            sweep = getattr(op, method)
            got = sweep(moved)
            assert_within_forward_error(got, entries(op), moved,
                                        reference(op, moved))
            for slot in (np.empty(moved.shape),
                         np.empty((*moved.shape, 2))[..., 1]):
                assert sweep(moved, out=slot) is slot
                assert np.array_equal(slot, got)
            alias = np.moveaxis(u.copy(), i, 0)  # laid out as moved
            assert np.array_equal(sweep(alias, out=alias), got)


def test_blocked_sweeps_bit_identical_across_block_boundaries(rng):
    """An order-6 300 x 200 field is swept in 35 or 36 blocks along axis 0
    and 22 or 23 along axis 1, with and without a ragged tail.  An order-4
    9 x 11 x 5000 field has one dense block along its short axes, and 624
    blocks along its last axis.  Across every block
    boundary each slot gets the bits of the sweep without one, and the
    sweep agrees with the reference formulas to the forward-error bound."""
    ops = build_tensor_ops(6, [Grid1D(-1.0, 1.0, 300), Grid1D(0.0, 2.0, 200)])
    _assert_sweeps_match_reference(ops, random_scalar(ops, rng))
    ops3 = build_tensor_ops(4, [Grid1D(0.0, 1.0, 9), Grid1D(0.0, 1.0, 11),
                                Grid1D(0.0, 1.0, 5000)])
    _assert_sweeps_match_reference(ops3, random_scalar(ops3, rng))


# the views the benchmark workloads sweep: 2D n=49 (neumann2d) and n=129
# (hodge2d_rough), 3D n=25 (hodge3d_rough), all at order 6
BENCHMARK_GRIDS = {"2d-n49": (6, 49, 2), "2d-n129": (6, 129, 2),
                   "3d-n25": (6, 25, 3)}


@pytest.mark.parametrize("name", BENCHMARK_GRIDS)
def test_sweeps_bit_identical_on_the_benchmark_views(name, rng):
    """Along every axis of the benchmark grids, ``apply_axis`` and
    ``apply_axis_transpose`` give the bits of the 1D sweeps, as does every
    contiguous, strided and aliased ``out=`` slot; the sweeps agree with
    the reference formulas to the forward-error bound."""
    ops = square_tensor_ops(*BENCHMARK_GRIDS[name])
    u = random_scalar(ops, rng)
    _assert_sweeps_match_reference(ops, u)
    for i, op in enumerate(ops.axis_ops):
        moved = np.moveaxis(u, i, 0)
        assert np.array_equal(np.moveaxis(ops.apply_axis(i, u), i, 0),
                              op.apply_d(moved))
        assert np.array_equal(np.moveaxis(ops.apply_axis_transpose(i, u), i, 0),
                              op.apply_d_transpose(moved))


def test_sweeps_bit_identical_on_vectors_and_batches(order, rng):
    """1D vectors and (n, 7) batches, C- and F-ordered, an empty batch and
    negative zeros, at the smallest grid, a few rows more and n=49: a
    sweep into a slot gives the bits of the sweep without one, and both
    agree with the reference formulas to the forward-error bound."""
    for n in (MIN_NODES[order], MIN_NODES[order] + 3, 49):
        op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
        batch = rng.standard_normal((n, 7))
        for u in (rng.standard_normal(n), batch, np.asfortranarray(batch),
                  np.empty((n, 0)), -np.zeros((n, 3))):
            for method, entries, reference in SWEEPS:
                want, sweep = reference(op, u), getattr(op, method)
                slot = np.empty_like(u)
                assert sweep(u, out=slot) is slot
                got = sweep(u)
                assert_within_forward_error(got, entries(op), u, want)
                assert np.array_equal(slot, got)


def _form_matrix(form, n):
    """The n x n matrix of a form, placed block by block: the top block,
    the rows of the band between the end blocks, the bottom block."""
    top, band, bottom = form
    rows, width = band.shape
    w = (width - rows) // 2
    a = np.zeros((n, n))
    a[: len(top), : top.shape[1]] = top
    if len(bottom):
        a[n - len(bottom) :, n - bottom.shape[1] :] = bottom
    for i in range(len(top), n - len(bottom)):
        a[i, i - w : i + w + 1] = band[0, : 2 * w + 1]
    return a


@pytest.mark.parametrize("transpose", [False, True], ids=["d", "d_transpose"])
def test_forms_rebuild_the_dense_matrices(order, transpose):
    """The forms of D and D^T rebuild the matrix of the entries of D (or
    its transpose), ``dense()`` and ``dense().T`` entry for entry: at the
    smallest grid and at the most nodes of one dense block, and above it
    where the interior rows of D^T leave a ragged tail of 15, 0 and 1 rows
    after the blocks of 16, and at n=129.  Each band is the Toeplitz block
    of its stencil, and every block is a read-only C-ordered array."""
    dense_nodes = operators1d._DENSE_NODES
    top_rows = len(build_operator_1d(order, Grid1D(0.0, 1.0, 129))._dt_form[0])
    sizes = [dense_nodes + 2 * top_rows + k for k in (-1, 0, 1)]
    for n in (MIN_NODES[order], dense_nodes, *sizes, 129):
        op = build_operator_1d(order, Grid1D(0.0, 1.0, n))
        rows, cols, vals = op._entries
        want = np.zeros((n, n))
        want[rows, cols] = vals
        form, stencil = op._d_form, op.interior_stencil
        if transpose:
            want, form, stencil = want.T, op._dt_form, stencil[::-1]
        top, band, bottom = form
        assert np.array_equal(_form_matrix(form, n), want), n
        assert np.array_equal(op.dense().T if transpose else op.dense(), want), n
        assert (len(bottom) == 0) == (n <= dense_nodes)
        for r in range(len(band)):
            assert np.array_equal(band[r], np.r_[np.zeros(r), stencil,
                                                 np.zeros(len(band) - 1 - r)])
        assert all(a.flags.c_contiguous and not a.flags.writeable for a in form)


def test_d_star_form_rebuilds_the_m_adjoint(order, rng):
    """The form of D* = M^-1 E - D rebuilds ``M^-1 dense()^T M`` to
    roundoff (the identity M D + D^T M = E holds to the roundoff of the
    float coefficients), and is exactly minus the matrix of the entries of
    D with -1/m_0 and 1/m_(n-1) added at its corners: on the smallest
    grid, on both sides of the dense rule and at n=129.  ``apply_d_star``
    sweeps it, into an ``out=`` slot as without one, within the
    forward-error bound of the dense product."""
    eps = np.finfo(np.float64).eps
    for n in (MIN_NODES[order], 64, 65, 129):
        op = build_operator_1d(order, Grid1D(0.0, 1.0, n))
        d, m = op.dense(), op.mass_weights
        got = _form_matrix(op._ds_form, n)
        want = -d
        want[0, 0] -= 1.0 / m[0]
        want[-1, -1] += 1.0 / m[-1]
        assert np.array_equal(got, want), n
        adjoint = d.T * m / m[:, None]
        assert np.max(np.abs(got - adjoint)) <= 4 * eps * np.max(np.abs(d)), n
        assert all(a.flags.c_contiguous and not a.flags.writeable
                   for a in op._ds_form)
        u = rng.standard_normal((n, 3))
        swept, slot = op.apply_d_star(u), np.empty((n, 3))
        assert op.apply_d_star(u, out=slot) is slot
        assert np.array_equal(slot, swept)
        rows, cols = np.nonzero(got)
        assert_within_forward_error(swept, (rows, cols, got[rows, cols]), u,
                                    got @ u)


@pytest.mark.parametrize("name", {**SWEEP_GRIDS, **BENCHMARK_GRIDS})
def test_every_slot_and_layout_gives_equal_bits(name, rng):
    """Every sweep runs one product on C-ordered operands.  Through the
    tensor layer, a field in Fortran order, a strided view or reversed
    axes gives the bits of its C-ordered copy.  Through the 1D sweeps,
    along every axis, a strided view that the sweep copies gives the bits
    of its C-ordered copy, and a contiguous, a strided or an aliased slot
    the bits of the sweep without one.  (A view that the 1D sweep reads in
    place, such as a moved-axis view, may round differently from its
    copy.)"""
    grids = SWEEP_GRIDS.get(name)
    ops = (build_tensor_ops(*grids) if grids else
           square_tensor_ops(*BENCHMARK_GRIDS[name]))
    u = random_scalar(ops, rng)
    wide = np.zeros((2 * ops.shape[0], *ops.shape[1:]))
    wide[::2] = u
    views = (np.asfortranarray(u), wide[::2], np.ascontiguousarray(u.T).T)
    for i, op in enumerate(ops.axis_ops):
        for method, axis_method in (("apply_d", ops.apply_axis),
                                    ("apply_d_transpose", ops.apply_axis_transpose)):
            want = axis_method(i, u)
            for view in views:
                assert np.array_equal(axis_method(i, view), want)
            sweep = getattr(op, method)
            copy = np.ascontiguousarray(np.moveaxis(u, i, 0))
            got = sweep(copy)
            if i == 0:
                assert np.array_equal(got, want)
            strided = np.empty((*copy.shape, 2))
            strided[..., 0] = copy
            slots = (np.empty(copy.shape), np.empty((*copy.shape, 3))[..., 2])
            for source in (copy, strided[..., 0]):
                assert np.array_equal(sweep(source), got)
                for slot in slots:
                    assert np.array_equal(sweep(source, out=slot), got)
            alias = strided[..., 0]
            assert np.array_equal(sweep(alias, out=alias), got)


@pytest.mark.parametrize("method", ["apply_d", "apply_d_transpose"])
def test_sweep_scratch_is_bounded(method, rng):
    """A sweep into an ``out=`` slot allocates no full-size scratch: the
    traced peak stays under 1 MiB on an 8 MiB 1025 x 1025 field along
    either axis, and on a 7 MiB 97^3 field along each of its three axes,
    the middle one included."""
    import tracemalloc

    for shape in ((1025, 1025), (97, 97, 97)):
        op = build_operator_1d(6, Grid1D(0.0, 1.0, shape[0]))
        u, out = rng.standard_normal(shape), np.empty(shape)
        for i in range(len(shape)):
            sweep = getattr(op, method)
            a, slot = np.moveaxis(u, i, 0), np.moveaxis(out, i, 0)
            sweep(a, out=slot)  # builds the cached forms
            tracemalloc.start()
            try:
                sweep(a, out=slot)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (shape, i, peak)


@pytest.mark.parametrize("n", [33, 129])
def test_sweeps_on_interior_slices_give_fresh_bits(order, n, rng):
    """``apply_d`` and ``apply_d_star``, on one dense (n <= 64) and one
    banded grid, read an input and write an ``out=`` slot that are interior
    slices of larger arrays, at a nonzero offset into their buffers: a
    vector, lines along the first axis, and lines along the middle axis of
    a block.  Every result has the bits of a sweep of a fresh copy of the
    input, laid out alike, into a fresh array."""
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
    for shape in ((n + 5,), (n + 5, 4), (6, n, 5)):
        big, buffer = rng.standard_normal(shape), np.zeros(shape)
        if len(shape) == 3:
            u, slot, copy = (np.moveaxis(a, 1, 0) for a in
                             (big[2:5], buffer[2:5], big[2:5].copy()))
        else:
            u, slot, copy = big[3 : 3 + n], buffer[3 : 3 + n], big[3 : 3 + n].copy()
        assert u.base is big and slot.base is buffer
        for method in ("apply_d", "apply_d_star"):
            sweep = getattr(op, method)
            want = sweep(copy)
            assert sweep(u, out=slot) is slot
            assert np.array_equal(slot, want), (shape, method)
            assert np.array_equal(sweep(u), want), (shape, method)


# -- the blocked accumulation of div and curl, and the blocked filter ---------


def _dt_entries(op):
    rows, cols, vals = op._entries
    return cols, rows, vals


def _ds_entries(op):
    a = _form_matrix(op._ds_form, op.n_nodes)
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


# TensorOps method -> (the form it sweeps, the entries of that form's
# matrix, the sign of its curl); the transposes and M-adjoints of curl are
# minus the curl with D^T and D* in place of D
CALCULUS = {
    "div": ("_d_form", lambda op: op._entries, 1),
    "grad_transpose": ("_dt_form", _dt_entries, 1),
    "grad_star": ("_ds_form", _ds_entries, 1),
    "curl": ("_d_form", lambda op: op._entries, 1),
    "curl_transpose": ("_dt_form", _dt_entries, -1),
    "curl_star": ("_ds_form", _ds_entries, -1),
}

# fields of several blocks of tensor._BLOCK_NODES nodes, swept by banded forms
MULTI_BLOCK_GRIDS = {
    "2d-order8-banded": (8, [Grid1D(-1.0, 1.0, 300), Grid1D(0.0, 2.0, 297)]),
    "3d-order6-banded": (6, [Grid1D(-1.0, 1.0, 70), Grid1D(0.0, 1.0, 69),
                             Grid1D(0.0, 2.0, 71)]),
}


@pytest.mark.parametrize("name", MULTI_BLOCK_GRIDS)
def test_blocked_calculus_within_the_forward_error_of_the_compositions(name, rng):
    """On banded grids of several blocks, each term of div, curl, their
    transposes and M-adjoints, fed one component at a time, agrees with
    the sweep of ``apply_axis``, ``apply_axis_transpose`` or the form of
    D* over the whole field to the forward-error bound, and the term
    written first (along the lowest axis) has its bits."""
    order, grids = MULTI_BLOCK_GRIDS[name]
    ops = build_tensor_ops(order, grids)
    assert ops.n_total > tensor._BLOCK_NODES
    d = ops.dim
    for call, (form, entries, sign) in CALCULUS.items():
        if call in ("curl_transpose", "curl_star") and d == 2:
            continue  # -rot of a scalar, which accumulates nothing, or 3D only
        for k in range(d):
            x = random_scalar(ops, rng)
            u = np.zeros((d, *ops.shape))
            u[k] = x
            got = getattr(ops, call)(u)
            # (axis of the term, output row, its sign, written first) fed by
            # component k: a curl writes the term along the lower axis of
            # its pair first, div the term along axis 0
            if call.startswith("curl"):
                terms = [(j, got if d == 2 else got[3 - j - k],
                          sign * (1 if (3 - j - k + 1) % 3 == j else -1), j < k)
                         for j in range(d) if j != k]
            else:
                terms = [(k, got, 1, k == 0)]
            for j, row, s, first in terms:
                want = ops._along(j, x, form)
                if first:
                    assert np.array_equal(s * row, want), (call, j, k)
                assert_within_forward_error(
                    np.moveaxis(s * row, j, 0), entries(ops.axis_ops[j]),
                    np.moveaxis(x, j, 0), np.moveaxis(want, j, 0))


def test_blocked_calculus_bit_identical_on_a_dense_grid(rng):
    """On a 3D n=60 grid (dense forms) of several blocks, div, curl, their
    transposes and M-adjoints equal the compositions of the sweeps over
    the whole field bit for bit."""
    ops = square_tensor_ops(6, 60, 3)
    assert ops.n_total > tensor._BLOCK_NODES
    u = random_vector(ops, rng)
    for call, (form, _, sign) in CALCULUS.items():
        dd = lambda i, a: ops._along(i, a, form)  # noqa: E731
        if call.startswith("curl"):
            want = np.stack([dd(1, u[2]) - dd(2, u[1]), dd(2, u[0]) - dd(0, u[2]),
                             dd(0, u[1]) - dd(1, u[0])])
            want = sign * want
        else:
            want = dd(0, u[0]) + dd(1, u[1]) + dd(2, u[2])
        assert np.array_equal(getattr(ops, call)(u), want), call


def _whole_field_filter(ops, u, extended):
    """``u - c @ F^T`` in one product over the whole field: the overlaps
    with the kept modes, expanded along every axis but the last, times the
    last axis's mode factor."""
    d, shape, factors = ops.dim, ops.shape, ops._mode_factors
    batch = u.shape[: u.ndim - d]
    count = np.array([bin(m).count("1") for m in range(2**d)])
    c = ops._mode_overlaps(u) * ((count >= 1) if extended else (count == 1))
    for j in range(d - 1):
        c = factors[j] @ c.reshape(*batch, *shape[:j], 2, -1)
    return u - (c.reshape(-1, 2) @ factors[-1].T).reshape(u.shape)


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("grids, several", [
    ((6, [Grid1D(-1.0, 1.0, 49), Grid1D(0.0, 2.0, 50)]), False),
    ((4, [Grid1D(-1.0, 1.0, 385), Grid1D(0.0, 2.0, 300)]), True),
    ((6, [Grid1D(-1.0, 1.0, 40), Grid1D(0.0, 1.0, 45), Grid1D(0.0, 2.0, 68)]), True),
], ids=["2d-one-block", "2d", "3d"])
def test_blocked_filter_bit_identical_to_the_whole_field_formula(
        grids, several, extended, rng):
    """On a field of one block and on fields of several blocks (whose last
    block is the rest, or joins a one-row rest), ``filter_scalar`` and
    ``filter_vector`` equal the whole-field formula bit for bit."""
    ops = build_tensor_ops(*grids)
    assert (ops.n_total > tensor._BLOCK_NODES) == several
    u = random_vector(ops, rng)
    assert np.array_equal(ops.filter_vector(u, extended),
                          _whole_field_filter(ops, u, extended))
    assert np.array_equal(ops.filter_scalar(u[1], extended),
                          _whole_field_filter(ops, u[1], extended))


def test_inner_scratch_is_bounded(rng):
    """The M-inner product of two 1025 x 1025 vector fields (16 MiB each)
    allocates under 1 MiB: its products with the mass diagonal go block by
    block into one scratch, with no full-size temporary.  The first call on
    fresh operators also builds and keeps that N-node diagonal (8 MiB), and
    nothing else of full size."""
    import tracemalloc

    ops = square_tensor_ops(6, 1025, 2)
    a, b = random_vector(ops, rng), random_vector(ops, rng)
    tracemalloc.start()
    try:
        ops.inner(a, b)  # builds the cached mass diagonal
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        ops.inner(a, b)
        peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    assert first < ops.mass.nbytes + 2**20, first
    assert peak < 2**20, peak


@pytest.mark.parametrize("dim, n", [(2, 300), (3, 45)])
def test_blocked_inner_matches_full_mass_product(dim, n, rng):
    """On a grid larger than one scratch block, the blocked inner product
    agrees with the full product ``vdot(mass * a, b)`` to roundoff."""
    ops = square_tensor_ops(2, n, dim)
    assert ops.n_total > tensor._BLOCK_NODES
    for a, b in ((random_scalar(ops, rng), random_scalar(ops, rng)),
                 (random_vector(ops, rng), random_vector(ops, rng))):
        want = np.vdot(ops.mass * a, b)
        scale = np.sqrt(np.vdot(ops.mass * a, a) * np.vdot(ops.mass * b, b))
        assert abs(ops.inner(a, b) - want) <= 1e-14 * scale


def test_calculus_scratch_is_bounded(rng):
    """div, curl and grad* of an 8 MiB-per-component 1025 x 1025 field, and
    curl* of a 97^3 field, allocate their result and at most 1 MiB more:
    no full-size temporary; the filter allocates its result alone."""
    import tracemalloc

    ops2, ops3 = square_tensor_ops(6, 1025, 2), square_tensor_ops(6, 97, 3)
    u2, u3 = random_vector(ops2, rng), random_vector(ops3, rng)
    calls = [(ops2.div, u2), (ops2.curl, u2), (ops2.grad_star, u2),
             (ops3.curl_star, u3),
             (lambda u: ops2.filter_vector(u, True), u2)]
    for call, u in calls:
        size = call(u).nbytes  # builds the cached forms and mode factors
        tracemalloc.start()
        try:
            call(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size + 2**20, (call, size, peak)
