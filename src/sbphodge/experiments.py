"""Experiment drivers: theorem verification, oscillation dumps, the remainder
study, 2D/3D convergence tables, and MHD wave-mode separation.

Every driver is a pure function of its configuration (plus the seed), so runs
are reproducible and independent grid sizes may execute concurrently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidConfig, NoPlaneNode
from .grid import Grid1D
from .hodge import ProjectionOrder, helmholtz, project_im_grad
from .operators1d import build_operator_1d, corrupt_operator, grid_oscillation_1d
from .potentials import (
    dense_curl,
    dense_divergence,
    dense_gradient,
    dense_rot,
    harmonic_neumann_potential,
    kernel_dimension,
)
from .stencils import coefficient_table
from .tensor import TensorOps, square_tensor_ops

BREAK_ENV = "SBP_HODGE_BREAK_OPERATOR"


@dataclass(frozen=True)
class ExperimentConfig:
    order: int = 6
    sizes: tuple = (17, 33, 49, 65)
    dim: int = 2
    solver: str | None = None           # None: the library default
    projection_order: str | None = None  # default: grad-first 2D, curl-first 3D
    atol: float = 1e-14
    btol: float = 1e-14
    seed: int = 2023

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise InvalidConfig(f"dim must be 2 or 3, got {self.dim}")
        if any(s2 <= s1 for s1, s2 in zip(self.sizes, self.sizes[1:])):
            raise InvalidConfig("grid sizes must be strictly increasing")
        minimum = coefficient_table(self.order).min_nodes
        if not self.sizes or self.sizes[0] < minimum:
            raise InvalidConfig(f"need grid sizes of at least {minimum} nodes "
                                f"for order {self.order}, got {self.sizes}")

    @property
    def projection(self) -> ProjectionOrder:
        default = "grad-first" if self.dim == 2 else "curl-first"
        return ProjectionOrder.parse(self.projection_order or default)

    def ops(self, n: int) -> TensorOps:
        return square_tensor_ops(self.order, n, self.dim)


@dataclass
class ConvergenceRow:
    n: int
    errors: dict
    eoc: dict = field(default_factory=dict)  # pairwise, empty in the first row


@dataclass(frozen=True)
class MhdConfig:
    k1: float = 5 * np.pi
    k3: float = 5 * np.pi
    eps_alfven: float = 1e-3
    eps_magnetosonic: float = 1e-2
    n: int = 101
    order: int = 6
    projection_order: str = "grad-first"
    solver: str | None = None
    atol: float = 1e-12
    btol: float = 1e-12

    def __post_init__(self):
        if self.eps_alfven < 0 or self.eps_magnetosonic < 0:
            raise InvalidConfig("wave amplitudes must be nonnegative")
        if self.eps_alfven == 0 and self.eps_magnetosonic == 0:
            raise InvalidConfig("at least one wave amplitude must be positive")


# -- analytic test problems ---------------------------------------------------


def separable_problem_2d(ops: TensorOps) -> dict:
    """Smooth 2D field with known irrotational and solenoidal parts."""
    x, y = ops.meshgrid()
    pi = np.pi
    phi = np.sin(pi * (x + y))
    v = -np.sin(pi * x) * np.sin(pi * y) / pi
    u_irr = np.stack([pi * np.cos(pi * (x + y))] * 2)
    u_sol = np.stack([-np.sin(pi * x) * np.cos(pi * y),
                      np.cos(pi * x) * np.sin(pi * y)])
    return {"phi": phi, "v": v, "u_irr": u_irr, "u_sol": u_sol,
            "u": u_irr + u_sol}


def separable_problem_3d(ops: TensorOps) -> dict:
    """Smooth 3D field with known potentials; the vector potential is
    divergence free at the continuous level."""
    x, y, z = ops.meshgrid()
    pi = np.pi
    sx, cx = np.sin(pi * x), np.cos(pi * x)
    sy, cy = np.sin(pi * y), np.cos(pi * y)
    sz, cz = np.sin(pi * z), np.cos(pi * z)
    phi = sx * sy * sz / pi
    v = np.stack([sx * cy * cz, cx * sy * cz, -2.0 * cx * cy * sz]) / pi
    u_irr = np.stack([cx * sy * sz, sx * cy * sz, sx * sy * cz])
    u_sol = 3.0 * np.stack([cx * sy * sz, -sx * cy * sz, np.zeros_like(x)])
    return {"phi": phi, "v": v, "u_irr": u_irr, "u_sol": u_sol,
            "u": u_irr + u_sol}


# -- theorem verification -------------------------------------------------------


def verify_theorems(config: ExperimentConfig) -> dict:
    """Run the kernel-dimension, membership, and orthogonality checks on a
    small grid; every check carries its expected and observed values."""
    n = config.sizes[0]
    checks = []
    broken = os.environ.get(BREAK_ENV, "") == "1"
    try:
        if broken:
            grid = Grid1D(-1.0, 1.0, n)
            axis = corrupt_operator(build_operator_1d(config.order, grid))
            grid_oscillation_1d(axis)  # the nullspace check, which it fails
            ops = TensorOps((axis,) * config.dim)
        else:
            ops = config.ops(n)
        kernel, gap = _rank_checks(ops)
        checks.extend(kernel)
        checks.extend(check for predicted, check in
                      _oscillation_claims(ops, config.seed) if predicted)
        checks.extend(gap)
        checks.append(_neumann_check(ops))
    except Exception as exc:  # deliberate corruption must fail loudly
        checks.append({
            "name": "construction",
            "passed": False,
            "detail": f"{type(exc).__name__}: {exc}",
        })
    return {
        "order": config.order,
        "dim": config.dim,
        "n": n,
        "broken_operator": broken,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _rank_checks(ops: TensorOps) -> tuple:
    """The kernel-dimension checks (and in 3D ``image_dim_curl``), and the
    ``div_rank_gap`` check, from one SVD per dense operator.

    The expected dimensions follow from the oscillation rule: ker curl is
    im grad ⊕ span{osc_(i,) e_i}, and div has rank nt - 1, its cokernel
    being M times the all-axes mode.  No divergence-free gauge exists: the
    rank of div exceeds the rank of div on ker curl, which is
    ``dim ker curl - dim(ker curl ∩ ker div)``; the intersection is the
    kernel of curl stacked on div.
    """
    d, nt = ops.dim, ops.n_total
    curl, div = dense_curl(ops), dense_divergence(ops)
    expected = [("curl", curl, nt - 1 + d), ("div", div, (d - 1) * nt + 1),
                ("grad", dense_gradient(ops), 1)]
    if d == 2:
        expected.append(("rot", dense_rot(ops), 1))
    out, reports = [], {}
    for name, mat, dim_expected in expected:
        report = reports[name] = kernel_dimension(mat, dim_expected, name)
        out.append({
            "name": f"kernel_dim_{name}",
            "expected": dim_expected,
            "observed": report.kernel_dim,
            "passed": report.matches,
            "detail": report.as_dict(),
        })
    if ops.dim == 3:
        rank = reports["curl"].numerical_rank
        out.append({"name": "image_dim_curl", "expected": 2 * nt - 2,
                    "observed": rank, "passed": rank == 2 * nt - 2})
    both = kernel_dimension(np.vstack([curl, div]), None, "curl and div")
    full = reports["div"].numerical_rank
    restricted = reports["curl"].kernel_dim - both.kernel_dim
    gap = [{
        "name": "div_rank_gap",
        "observed": {"im_div": full, "im_div_on_ker_curl": restricted},
        "passed": bool(full > restricted),
    }]
    return out, gap


def _check(name: str, observed: float, tolerance: float) -> dict:
    return {"name": name, "observed": observed, "tolerance": tolerance,
            "passed": bool(observed <= tolerance)}


def _oscillation_claims(ops: TensorOps, seed: int):
    """Yield ``(predicted, check)`` for four claims on every field
    ``osc_K e_i`` (mode K of ``ops.oscillations`` in slot i), by the paper's
    rule ``D_j osc_K = 0`` for j not in K and ``D_j* osc_K = 0`` for j in K:
    it is in ker curl iff K = {i}, in ker div iff i is not in K, M-orthogonal
    to im grad iff i is in K, and to im rot (2D) or im curl (3D) iff K holds
    every axis but i.  Orthogonality is checked against three random images,
    drawn as ``f`` then ``w`` per trial."""
    rng = np.random.default_rng(seed)
    sol_name, sol, w_shape = (("rot", ops.rot, ops.shape) if ops.dim == 2
                              else ("curl", ops.curl, (3, *ops.shape)))
    images = [(ops.grad(rng.standard_normal(ops.shape)),
               sol(rng.standard_normal(w_shape))) for _ in range(3)]
    tol = 1e-11 * max(1.0 / op.grid.dx for op in ops.axis_ops)
    for key, osc in ops.oscillations.items():
        for i in range(ops.dim):
            field = np.zeros((ops.dim, *ops.shape))
            field[i] = osc
            name = "osc" + "".join(str(j + 1) for j in key) + f"_slot{i + 1}"
            yield set(key) == {i}, _check(f"{name}_in_ker_curl",
                                          ops.norm(ops.curl(field)), tol)
            yield i not in key, _check(f"{name}_in_ker_div",
                                       ops.norm(ops.div(field)), tol)
            holds = {"grad": i in key,
                     sol_name: set(range(ops.dim)) - {i} <= set(key)}
            for trial, pair in enumerate(images):
                for (image_name, predicted), image in zip(holds.items(), pair):
                    yield predicted, _check(
                        f"{name}_perp_im_{image_name}_{trial}",
                        abs(ops.inner(field, image)), 1e-11 * ops.norm(image))


def _neumann_check(ops: TensorOps) -> dict:
    u = ops.grad(ops.meshgrid()[0])
    phi = harmonic_neumann_potential(ops, ops.field(u)).data
    err = ops.norm(ops.grad(phi) - u) / ops.norm(u)
    return _check("neumann_harmonic_recovery", err, 1e-9)


# -- oscillation dump ------------------------------------------------------------


def oscillation_table(order: int, n: int) -> dict:
    op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
    osc = op.grid_oscillation
    x = op.grid.nodes()
    return {
        "order": order,
        "n": n,
        "nodes": x,
        "values": osc,
        "inner_product_with_ones": float(np.dot(op.mass_weights * osc, np.ones(n))),
        "m_norm": op.mass_norm(osc),
    }


# -- remainder study --------------------------------------------------------------


def remainder_study(config: ExperimentConfig) -> dict:
    """Decompose the separable 2D problem on the finest grid of ``sizes``."""
    if config.dim != 2:
        raise InvalidConfig("the remainder study is a 2D experiment")
    ops = config.ops(config.sizes[-1])
    prob = separable_problem_2d(ops)
    dec = helmholtz(ops, prob["u"], order=config.projection,
                    solver=config.solver, atol=config.atol,
                    btol=config.btol)
    u = prob["u"]
    u2 = ops.inner(u, u)
    diag = dict(dec.diagnostics)
    diag.update({
        "norm_u_squared": u2,
        "remainder_rel_m": diag["norm_remainder"] / diag["norm_u"],
        "remainder_rel_inf": float(np.max(np.abs(dec.remainder.data))
                                   / np.max(np.abs(u))),
    })
    return {"ops": ops, "decomposition": dec, "problem": prob,
            "diagnostics": diag}


# -- convergence ------------------------------------------------------------------


def fit_eoc(ns, errors) -> float:
    """Least-squares slope of log error against log grid size, sign flipped."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
    return float(-slope)


def pairwise_eoc(n_prev: int, n_cur: int, e_prev: float, e_cur: float) -> float:
    return float(np.log(e_prev / e_cur) / np.log(n_cur / n_prev))


def _relative(ops: TensorOps, got, exact) -> float:
    denom = ops.norm(exact)
    return ops.norm(got - exact) / denom if denom > 0 else ops.norm(got)


def _curl_coimage_part(ops: TensorOps, v: np.ndarray,
                       config: ExperimentConfig) -> np.ndarray:
    """The least-M-norm preimage of ``curl v``: v minus its M-orthogonal
    projection onto ker curl = im grad ⊕ span{osc_(i,) e_i} (the
    ``kernel_dim_curl`` theorem; the osc fields are M-orthonormal and
    M-orthogonal to im grad), so no curl solve is needed."""
    out = v - project_im_grad(ops, v, config.solver, atol=config.atol,
                              btol=config.btol)[1].data
    modes = ops._mode_overlaps(v)
    for i in range(ops.dim):
        out[i] -= modes[i, ops._mode((i,))] * ops.oscillations[(i,)]
    return out


def convergence_study(config: ExperimentConfig) -> dict:
    """Decompose the separable problem on each grid size and tabulate
    relative M-norm errors with experimental orders of convergence."""
    if len(config.sizes) < 3:
        raise InvalidConfig("need at least 3 grid sizes for a convergence study")
    rows, solver_stats = [], {}
    for n in config.sizes:
        ops = config.ops(n)
        prob = (separable_problem_2d if config.dim == 2
                else separable_problem_3d)(ops)
        dec = helmholtz(ops, prob["u"], order=config.projection,
                        solver=config.solver, atol=config.atol,
                        btol=config.btol)
        errors = {
            "phi": _relative(ops, ops.mean_zero(dec.phi.data),
                             ops.mean_zero(prob["phi"])),
            "u_irr": _relative(ops, dec.grad_phi.data, prob["u_irr"]),
            "u_sol": _relative(ops, dec.sol_part.data, prob["u_sol"]),
            "remainder": dec.diagnostics["norm_remainder"]
            / dec.diagnostics["norm_u"],
        }
        if config.dim == 2:
            errors["v"] = _relative(ops, ops.mean_zero(dec.v.data),
                                    ops.mean_zero(prob["v"]))
        else:
            errors["v_raw"] = _relative(ops, dec.v.data, prob["v"])
            errors["v_gauged"] = _relative(
                ops, dec.v.data, _curl_coimage_part(ops, prob["v"], config))
        rows.append(ConvergenceRow(n=n, errors=errors))
        solver_stats[n] = dec.diagnostics["solver_stats"]

    for prev, cur in zip(rows, rows[1:]):
        cur.eoc = {
            q: pairwise_eoc(prev.n, cur.n, prev.errors[q], cur.errors[q])
            for q in cur.errors
        }
    summary = {
        q: fit_eoc([r.n for r in rows], [r.errors[q] for r in rows])
        for q in rows[0].errors
    }
    return {"config": config, "rows": rows, "eoc_summary": summary,
            "solver_stats": solver_stats}


# -- MHD wave modes ---------------------------------------------------------------


def _plane_index(nodes: np.ndarray, span: float) -> int:
    idx = int(np.argmin(np.abs(nodes)))
    if abs(nodes[idx]) > 1e-9 * span:
        raise NoPlaneNode(
            f"no node on the extraction plane; closest at {nodes[idx]:.3e}"
        )
    return idx


def mhd_study(config: MhdConfig) -> dict:
    """Separate the Alfven and magnetosonic currents of a composite magnetic
    field through the in-plane Helmholtz Hodge decomposition.

    The magnetic field is sampled on a 3D grid, its current density is the
    discrete curl, and the first two components on the mid plane form the
    perpendicular current analyzed in 2D.  Errors are reported globally and
    on the centered square covering one quarter of the plane area.

    Before the decomposition the axis grid-oscillation components of the
    current are split off with the M-orthogonal filter and returned as
    ``j_osc``, so that ``j_perp = grad_phi + sol_part + remainder + j_osc``.
    The projections cannot route such a component to the remainder: an
    axis oscillation in the x-component is M-orthogonal to im grad but not
    to im rot, so the rot stage would absorb part of it into the solenoidal
    current.  The report's ``oscillation_content`` gives the relative M-norm
    of ``j_osc`` per component.
    """
    ops3 = square_tensor_ops(config.order, config.n, 3)
    x1, _, x3 = ops3.meshgrid()
    theta = config.k1 * x1 + config.k3 * x3
    b_field = np.stack([
        np.zeros_like(theta),
        config.eps_alfven * np.sin(theta),
        1.0 - config.eps_magnetosonic * np.sin(theta),
    ])
    current = ops3.curl(b_field)
    idx = _plane_index(ops3.coords()[2], ops3.axis_ops[2].grid.length)
    j_perp = current[:2, :, :, idx]

    ops2 = square_tensor_ops(config.order, config.n, 2)
    j_filtered = ops2.filter_vector(j_perp)
    j_osc = j_perp - j_filtered
    dec = helmholtz(ops2, j_filtered, order=ProjectionOrder.parse(
        config.projection_order), solver=config.solver,
        atol=config.atol, btol=config.btol)

    x, y = ops2.meshgrid()
    alfven_exact = np.stack([
        -config.eps_alfven * config.k3 * np.cos(config.k1 * x),
        np.zeros_like(x),
    ])
    magnetosonic_exact = np.stack([
        np.zeros_like(x),
        config.eps_magnetosonic * config.k1 * np.cos(config.k1 * x),
    ])
    interior = (np.abs(x) <= 0.5) & (np.abs(y) <= 0.5)

    def masked_relative(got, exact, mask=None):
        weight = ops2.mass if mask is None else ops2.mass * mask
        diff = got - exact
        denom = float(np.sqrt(np.sum(weight * exact * exact)))
        num = float(np.sqrt(np.sum(weight * diff * diff)))
        return num / denom if denom > 0 else num

    report = {
        "config": config,
        "errors": {
            "alfven_global": masked_relative(dec.grad_phi.data, alfven_exact),
            "alfven_interior": masked_relative(dec.grad_phi.data, alfven_exact,
                                               interior),
            "magnetosonic_global": masked_relative(dec.sol_part.data,
                                                   magnetosonic_exact),
            "magnetosonic_interior": masked_relative(dec.sol_part.data,
                                                     magnetosonic_exact,
                                                     interior),
        },
        # each mode lives in one component of the perpendicular current;
        # the per-component errors exclude spill into the other component
        "component_errors": {
            "alfven_interior": masked_relative(dec.grad_phi.data[0],
                                               alfven_exact[0], interior),
            "magnetosonic_interior": masked_relative(dec.sol_part.data[1],
                                                     magnetosonic_exact[1],
                                                     interior),
        },
        "analytic_norms": {
            "alfven": ops2.norm(alfven_exact),
            "magnetosonic": ops2.norm(magnetosonic_exact),
        },
        # relative change of each component of j_perp under the filter
        "oscillation_content": [masked_relative(j_filtered[i], j_perp[i])
                                for i in range(2)],
    }
    return {"ops": ops2, "decomposition": dec, "j_perp": j_perp,
            "j_osc": j_osc,
            "alfven_exact": alfven_exact,
            "magnetosonic_exact": magnetosonic_exact, "report": report}


def mhd_order_comparison(config: MhdConfig) -> dict:
    """Run both projection orders on the same current and report the errors."""
    out = {}
    for order in ("grad-first", "curl-first"):
        res = mhd_study(replace(config, projection_order=order))
        out[order] = res["report"]["errors"]
    return out
