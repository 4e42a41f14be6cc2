import numpy as np
import pytest

from sbphodge.errors import SbpHodgeError, UnknownProjectionOrder
from sbphodge.hodge import (
    ProjectionOrder,
    helmholtz,
    project_im_curl,
    project_im_grad,
)
from sbphodge.tensor import square_tensor_ops


def place(ops, arr, slot):
    comps = [np.zeros(ops.shape) for _ in range(ops.dim)]
    comps[slot] = arr
    return np.stack(comps)


# -- single projections --------------------------------------------------------


def test_grad_projection_recovers_gradient(ops_2d, rng):
    f = ops_2d.mean_zero(rng.standard_normal(ops_2d.shape))
    u = ops_2d.grad(f)
    phi, grad_phi, stats = project_im_grad(ops_2d, ops_2d.field(u),
                                           atol=1e-14, btol=1e-14)
    assert ops_2d.norm(phi.data - f) <= 1e-8 * ops_2d.norm(f)
    assert ops_2d.norm(grad_phi.data - u) <= 1e-8 * ops_2d.norm(u)
    assert abs(np.sum(ops_2d.mass * phi.data)) <= 1e-10


def test_grad_projection_residual_orthogonality(ops_2d, rng):
    # input from the rotational image: the projection need not vanish, but
    # the residual must be M-orthogonal to every gradient
    u = ops_2d.rot(rng.standard_normal(ops_2d.shape))
    _, grad_phi, _ = project_im_grad(ops_2d, ops_2d.field(u),
                                     atol=1e-14, btol=1e-14)
    residual = u - grad_phi.data
    for _ in range(5):
        f = rng.standard_normal(ops_2d.shape)
        gf = ops_2d.grad(f)
        val = ops_2d.inner(residual, gf)
        assert abs(val) <= 1e-8 * ops_2d.norm(residual) * ops_2d.norm(gf)


def test_curl_projection_recovers_rotation(ops_2d, rng):
    w = ops_2d.mean_zero(rng.standard_normal(ops_2d.shape))
    u = ops_2d.rot(w)
    v, sol, _ = project_im_curl(ops_2d, ops_2d.field(u), atol=1e-14, btol=1e-14)
    assert ops_2d.norm(sol.data - u) <= 1e-8 * ops_2d.norm(u)
    assert ops_2d.norm(v.data - w) <= 1e-7 * ops_2d.norm(w)


def test_curl_projection_zero_field(ops_2d):
    v, sol, _ = project_im_curl(ops_2d, ops_2d.field(np.zeros((2, *ops_2d.shape))))
    assert ops_2d.norm(v.data) == 0.0
    assert ops_2d.norm(sol.data) == 0.0


def test_curl_projection_3d(ops_3d, rng):
    w = rng.standard_normal((3, *ops_3d.shape))
    u = ops_3d.curl(w)
    v, sol, _ = project_im_curl(ops_3d, ops_3d.field(u), solver="lsmr",
                                atol=1e-13, btol=1e-13)
    assert ops_3d.norm(sol.data - u) <= 1e-7 * ops_3d.norm(u)


# -- full decomposition -----------------------------------------------------------


def smooth_problem(ops):
    x, y = ops.meshgrid()
    pi = np.pi
    u_irr = np.stack([pi * np.cos(pi * (x + y))] * 2)
    u_sol = np.stack([-np.sin(pi * x) * np.cos(pi * y),
                      np.cos(pi * x) * np.sin(pi * y)])
    return u_irr + u_sol


def test_additivity_bitwise(ops_2d, rng):
    u = rng.standard_normal((2, *ops_2d.shape))
    dec = helmholtz(ops_2d, u)
    recomputed = (u - dec.grad_phi.data) - dec.sol_part.data
    assert np.array_equal(recomputed, dec.remainder.data)
    assert np.max(np.abs(u - dec.grad_phi.data - dec.sol_part.data
                         - dec.remainder.data)) == 0.0


def test_remainder_orthogonal_to_second_image(ops_2d, rng):
    # each stage leaves its residual orthogonal to its own image; the final
    # remainder is therefore orthogonal to the image projected second
    u = rng.standard_normal((2, *ops_2d.shape))
    dec = helmholtz(ops_2d, u, order="grad-first", atol=1e-14, btol=1e-14)
    r = dec.remainder.data
    rnorm = ops_2d.norm(r)
    for _ in range(20):
        w = rng.standard_normal(ops_2d.shape)
        rw = ops_2d.rot(w)
        assert abs(ops_2d.inner(r, rw)) <= 1e-8 * rnorm * ops_2d.norm(rw)
    dec = helmholtz(ops_2d, u, order="curl-first", atol=1e-14, btol=1e-14)
    r = dec.remainder.data
    rnorm = ops_2d.norm(r)
    for _ in range(20):
        f = rng.standard_normal(ops_2d.shape)
        gf = ops_2d.grad(f)
        assert abs(ops_2d.inner(r, gf)) <= 1e-8 * rnorm * ops_2d.norm(gf)


def test_first_stage_residual_orthogonal_to_first_image(ops_2d, rng):
    u = rng.standard_normal((2, *ops_2d.shape))
    dec = helmholtz(ops_2d, u, order="grad-first", atol=1e-14, btol=1e-14)
    t = u - dec.grad_phi.data
    tnorm = ops_2d.norm(t)
    for _ in range(20):
        f = rng.standard_normal(ops_2d.shape)
        gf = ops_2d.grad(f)
        assert abs(ops_2d.inner(t, gf)) <= 1e-8 * tnorm * ops_2d.norm(gf)


def test_remainder_orthogonal_to_both_images_for_obstruction(ops_2d, rng):
    # fields outside both images survive untouched: their remainder is
    # orthogonal to every gradient and every rotation
    u = place(ops_2d, ops_2d.oscillations[(0, 1)], 0)
    dec = helmholtz(ops_2d, u, atol=1e-14, btol=1e-14)
    r = dec.remainder.data
    rnorm = ops_2d.norm(r)
    for _ in range(20):
        f = rng.standard_normal(ops_2d.shape)
        w = rng.standard_normal(ops_2d.shape)
        gf, rw = ops_2d.grad(f), ops_2d.rot(w)
        assert abs(ops_2d.inner(r, gf)) <= 1e-8 * rnorm * ops_2d.norm(gf)
        assert abs(ops_2d.inner(r, rw)) <= 1e-8 * rnorm * ops_2d.norm(rw)


def test_pythagoras(ops_2d, rng):
    u = rng.standard_normal((2, *ops_2d.shape))
    dec = helmholtz(ops_2d, u, atol=1e-14, btol=1e-14)
    total = ops_2d.inner(u, u)
    parts = (dec.diagnostics["norm_grad_phi"] ** 2
             + dec.diagnostics["norm_sol_part"] ** 2
             + dec.diagnostics["norm_remainder"] ** 2)
    assert abs(total - parts) <= 1e-6 * total


def test_idempotence(ops_2d, rng):
    u = rng.standard_normal((2, *ops_2d.shape))
    dec = helmholtz(ops_2d, u, atol=1e-14, btol=1e-14)
    again = helmholtz(ops_2d, dec.grad_phi.data, atol=1e-14, btol=1e-14)
    scale = ops_2d.norm(dec.grad_phi.data)
    assert again.diagnostics["norm_sol_part"] <= 1e-7 * scale
    assert again.diagnostics["norm_remainder"] <= 1e-7 * scale


def test_zero_field(ops_2d):
    dec = helmholtz(ops_2d, np.zeros((2, *ops_2d.shape)))
    assert dec.diagnostics["norm_grad_phi"] == 0.0
    assert dec.diagnostics["norm_sol_part"] == 0.0
    assert dec.diagnostics["norm_remainder"] == 0.0


def test_oscillation_witness_is_pure_remainder(ops_2d):
    # the checkerboard-in-one-component field lies outside both images
    u = place(ops_2d, ops_2d.oscillations[(0, 1)], 0)
    dec = helmholtz(ops_2d, u, atol=1e-14, btol=1e-14)
    unorm = ops_2d.norm(u)
    assert dec.diagnostics["norm_grad_phi"] <= 1e-6 * unorm
    assert dec.diagnostics["norm_sol_part"] <= 1e-6 * unorm
    assert ops_2d.norm(dec.remainder.data - u) <= 1e-6 * unorm


def test_projection_orders_give_valid_decompositions(ops_2d):
    u = smooth_problem(ops_2d)
    by_order = {}
    for order in ProjectionOrder:
        dec = helmholtz(ops_2d, u, order=order, atol=1e-14, btol=1e-14)
        assert dec.projection_order is order
        if order is ProjectionOrder.GRAD_FIRST:
            rebuilt = (u - dec.grad_phi.data) - dec.sol_part.data
        else:
            rebuilt = (u - dec.sol_part.data) - dec.grad_phi.data
        assert np.array_equal(rebuilt, dec.remainder.data)
        by_order[order] = dec
    # the component split depends on the order; observational, logged only
    gap = ops_2d.norm(by_order[ProjectionOrder.GRAD_FIRST].grad_phi.data
                      - by_order[ProjectionOrder.CURL_FIRST].grad_phi.data)
    rscale = max(dec.diagnostics["norm_remainder"] for dec in by_order.values())
    print(f"projection-order split gap {gap:.3e} (remainder scale {rscale:.3e})")


def test_solvers_agree_on_grad_projection():
    # the direct engine, LSQR and LSMR deliver the same projection of the
    # separable problem
    ops = square_tensor_ops(4, 24, 2)
    u = smooth_problem(ops)
    results = {}
    for solver in (None, "lsqr", "lsmr"):
        _, grad_phi, _ = project_im_grad(ops, ops.field(u), solver=solver,
                                         atol=1e-14, btol=1e-14)
        results[solver] = grad_phi.data
    for solver in ("lsqr", "lsmr"):
        gap = ops.norm(results[solver] - results[None])
        assert gap <= 1e-8 * ops.norm(results[None])


def test_smooth_problem_orthogonality_diagnostics():
    ops = square_tensor_ops(6, 24, 2)
    u = smooth_problem(ops)
    dec = helmholtz(ops, u, order="grad-first", atol=1e-14, btol=1e-14)
    u2 = ops.inner(u, u)
    assert abs(dec.diagnostics["first_stage_orthogonality"]) <= 1e-12 * u2
    assert abs(dec.diagnostics["remainder_inner_sol_part"]) <= 1e-12 * u2


def test_helmholtz_3d(ops_3d, rng):
    u = rng.standard_normal((3, *ops_3d.shape))
    dec = helmholtz(ops_3d, u, order="curl-first", solver="lsmr",
                    atol=1e-13, btol=1e-13)
    assert dec.v.data.shape == (3, *ops_3d.shape)
    r = dec.remainder.data
    rnorm = ops_3d.norm(r)
    # curl-first: the remainder is orthogonal to the image projected second
    for _ in range(5):
        f = rng.standard_normal(ops_3d.shape)
        assert abs(ops_3d.inner(r, ops_3d.grad(f))) <= (
            1e-7 * rnorm * ops_3d.norm(ops_3d.grad(f))
        )
    # and the first-stage residual is orthogonal to the curl image
    t = u - dec.sol_part.data
    for _ in range(5):
        w = rng.standard_normal((3, *ops_3d.shape))
        cw = ops_3d.curl(w)
        assert abs(ops_3d.inner(t, cw)) <= 1e-7 * ops_3d.norm(t) * ops_3d.norm(cw)


def test_curl_potential_of_curl_w_projects_w_onto_curl_coimage(ops_3d, rng):
    # the least-M-norm preimage p of curl w is the M-orthogonal projection
    # of w onto (ker curl)^perp_M: w - p lies in ker curl, and p is
    # M-orthogonal to ker curl = im grad + span{osc_i in slot i}
    w = rng.standard_normal((3, *ops_3d.shape))
    cw = ops_3d.curl(w)
    p = project_im_curl(ops_3d, ops_3d.field(cw), atol=1e-13,
                        btol=1e-13)[0].data
    assert ops_3d.norm(w - p) >= 0.1 * ops_3d.norm(w)  # w has a kernel part
    assert ops_3d.norm(ops_3d.curl(w - p)) <= 1e-10 * ops_3d.norm(cw)
    kernel = [ops_3d.grad(rng.standard_normal(ops_3d.shape)) for _ in range(3)]
    kernel += [place(ops_3d, ops_3d.oscillations[(i,)], i) for i in range(3)]
    for k in kernel:
        assert abs(ops_3d.inner(p, k)) <= 1e-10 * ops_3d.norm(p) * ops_3d.norm(k)


def test_diagnostics_serializable(ops_2d, rng):
    import json

    u = rng.standard_normal((2, *ops_2d.shape))
    dec = helmholtz(ops_2d, u)
    text = json.dumps(dec.diagnostics_json())
    assert "solver_stats" in text


@pytest.mark.parametrize("bad", ["sideways", None, 3, "grad first "])
def test_unknown_projection_order_is_a_typed_error(ops_2d, ops_3d, rng, bad):
    for ops in (ops_2d, ops_3d):
        u = rng.standard_normal((ops.dim, *ops.shape))
        with pytest.raises(UnknownProjectionOrder) as err:
            helmholtz(ops, u, order=bad)
        assert isinstance(err.value, SbpHodgeError)
        assert isinstance(err.value, ValueError)
        assert repr(bad) in str(err.value)
    assert ProjectionOrder.parse("Curl_First") is ProjectionOrder.CURL_FIRST
