"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criteria 10-12 run the full experiment drivers and take a few minutes
combined; everything else is fast.
"""

import time

import numpy as np

from sbphodge.experiments import (
    ExperimentConfig,
    MhdConfig,
    convergence_study,
    mhd_study,
    remainder_study,
)
from sbphodge.grid import Grid1D
from sbphodge.hodge import helmholtz
from sbphodge.krylov import LinearMap, lsmr, lsqr
from sbphodge.operators1d import build_operator_1d
from sbphodge.potentials import (
    dense_curl,
    dense_divergence,
    dense_gradient,
    harmonic_neumann_potential,
    kernel_dimension,
    scalar_potential_integral,
)
from sbphodge.tensor import square_tensor_ops

MIN_NODES = {2: 2, 4: 8, 6: 12, 8: 16}


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_01_sbp_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for order in (2, 4, 6, 8):
        for n in range(MIN_NODES[order], 65):
            op = build_operator_1d(order, Grid1D(-1.0, 1.0, n), validate=False)
            scale = np.max(np.abs(op.mass_weights[:, None] * op.dense()))
            worst = max(worst, op.sbp_residual() / (1e-13 * max(scale, 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 1.0
    assert report(1, ok, f"max residual at {worst:.3f} of budget, {elapsed:.2f}s")


def test_criterion_02_kernel_dimensions():
    t0 = time.perf_counter()
    ops2 = square_tensor_ops(2, 6, 2)
    ops3 = square_tensor_ops(2, 4, 3)
    observed = {
        "2d_ker_curl": kernel_dimension(dense_curl(ops2)).kernel_dim,
        "2d_ker_div": kernel_dimension(dense_divergence(ops2)).kernel_dim,
        "2d_im_grad": kernel_dimension(dense_gradient(ops2)).numerical_rank,
        "3d_ker_curl": kernel_dimension(dense_curl(ops3)).kernel_dim,
        "3d_ker_div": kernel_dimension(dense_divergence(ops3)).kernel_dim,
        "3d_im_curl": kernel_dimension(dense_curl(ops3)).numerical_rank,
    }
    expected = {
        "2d_ker_curl": 37, "2d_ker_div": 37, "2d_im_grad": 35,
        "3d_ker_curl": 66, "3d_ker_div": 129, "3d_im_curl": 126,
    }
    elapsed = time.perf_counter() - t0
    ok = observed == expected and elapsed < 30.0
    assert report(2, ok, f"{observed}, {elapsed:.1f}s")
    assert observed == expected


def test_criterion_03_oscillation_structure():
    ok = True
    notes = []
    for n in (50, 51):
        op = build_operator_1d(2, Grid1D(-1.0, 1.0, n))
        osc = op.grid_oscillation
        alt = osc[0] * (-1.0) ** np.arange(n)
        exact = np.max(np.abs(osc - alt)) <= 1e-12
        ok &= exact
        notes.append(f"order2/N{n} exact={exact}")
    margin = 20  # closure modes decay geometrically; gone 20 nodes in
    for order in (4, 6, 8):
        for n in (50, 51):
            op = build_operator_1d(order, Grid1D(-1.0, 1.0, n))
            osc = op.grid_oscillation
            core = osc[margin : n - margin]
            mags = np.abs(core)
            equal = np.max(np.abs(mags - mags[0])) <= 1e-10 * mags[0]
            alternates = bool(np.all(np.sign(core[1:]) != np.sign(core[:-1])))
            b = op.n_closure_rows
            boundary_dev = float(np.max(np.abs(np.abs(osc[:b]) - mags[0]))
                                 / mags[0])
            ok &= equal and alternates and boundary_dev > 0.01
            notes.append(f"order{order}/N{n} dev={boundary_dev:.2f}")
    assert report(3, ok, "; ".join(notes))


def test_criterion_04_filter_projection():
    ops = square_tensor_ops(4, 12, 2)
    gen = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        u = gen.standard_normal(ops.shape)
        w = gen.standard_normal(ops.shape)
        fu = ops.filter_scalar(u)
        unorm = ops.norm(u)
        worst = max(worst, ops.norm(ops.filter_scalar(fu) - fu) / unorm)
        worst = max(worst, max(0.0, (ops.norm(fu) - unorm) / unorm))
        adj = abs(ops.inner(fu, w) - ops.inner(u, ops.filter_scalar(w)))
        worst = max(worst, adj / (unorm * ops.norm(w)))
    ok = worst <= 1e-12
    assert report(4, ok, f"worst relative defect {worst:.2e}")


def test_criterion_05_integral_potential_roundtrip():
    gen = np.random.default_rng(505)
    worst = 0.0
    ops2 = square_tensor_ops(4, 9, 2)
    ops3 = square_tensor_ops(2, 5, 3)
    for ops, count in ((ops2, 25), (ops3, 25)):
        for _ in range(count):
            f = gen.standard_normal(ops.shape)
            u = ops.grad(f)
            phi = scalar_potential_integral(ops, ops.field(u)).data
            worst = max(worst, ops.norm(ops.grad(phi) - u) / ops.norm(u))
    ok = worst <= 1e-9
    assert report(5, ok, f"worst relative gradient error {worst:.2e}")


def test_criterion_06_harmonic_neumann():
    worst = 0.0
    for order, h_of in ((2, lambda x, y: x), (4, lambda x, y: x * y)):
        ops = square_tensor_ops(order, 10, 2)
        x, y = ops.meshgrid()
        u = ops.grad(h_of(x, y))
        phi = harmonic_neumann_potential(ops, ops.field(u)).data
        worst = max(worst, ops.norm(ops.grad(phi) - u) / ops.norm(u))
    ok = worst <= 1e-9
    assert report(6, ok, f"worst relative recovery error {worst:.2e}")


def test_criterion_07_krylov_min_norm():
    gen = np.random.default_rng(707)
    worst_err = 0.0
    mono_ok = True
    for trial in range(20):
        m = int(gen.integers(8, 31))
        n = int(gen.integers(8, 31))
        rank = int(gen.integers(2, min(m, n)))
        a = gen.standard_normal((m, rank)) @ gen.standard_normal((rank, n))
        b = gen.standard_normal(m)
        x_pinv = np.linalg.pinv(a) @ b
        scale = max(np.linalg.norm(x_pinv), 1e-12)
        for solver in (lsqr, lsmr):
            x, stats = solver(LinearMap.from_dense(a), b, atol=1e-13,
                              btol=1e-13, keep_iterates=True)
            worst_err = max(worst_err, np.linalg.norm(x - x_pinv) / scale)
            if solver is lsqr:
                seq = [np.linalg.norm(b - a @ xk) for xk in stats.iterates]
            else:
                seq = [np.linalg.norm(a.T @ (b - a @ xk))
                       for xk in stats.iterates]
            mono_ok &= all(cur <= prev * (1 + 1e-10)
                           for prev, cur in zip(seq, seq[1:]))
    ok = worst_err <= 1e-6 and mono_ok
    assert report(7, ok, f"worst pinv deviation {worst_err:.2e}, "
                         f"monotone={mono_ok}")


def test_criterion_08_remainder_study():
    t0 = time.perf_counter()
    config = ExperimentConfig(order=6, sizes=(60,), dim=2)
    d = remainder_study(config)["diagnostics"]
    elapsed = time.perf_counter() - t0
    u2 = d["norm_u_squared"]
    orth1 = abs(d["first_stage_orthogonality"])
    orth2 = abs(d["remainder_inner_sol_part"])
    rel = d["remainder_rel_m"]
    ok = orth1 <= 1e-12 * u2 and orth2 <= 1e-12 * u2 and rel <= 1e-3
    ok = ok and elapsed < 120.0
    assert report(8, ok, f"orthogonality {orth1:.2e}/{orth2:.2e} "
                         f"(budget {1e-12 * u2:.2e}), |r|/|u|={rel:.2e}, "
                         f"{elapsed:.1f}s")


def test_criterion_09_impossibility_witness():
    ok = True
    notes = []
    for order, n in ((2, 10), (4, 12)):
        ops = square_tensor_ops(order, n, 2)
        u = np.stack([ops.oscillations[(0, 1)], np.zeros(ops.shape)])
        dec = helmholtz(ops, u, atol=1e-14, btol=1e-14)
        unorm = ops.norm(u)
        parts = (dec.diagnostics["norm_grad_phi"]
                 + dec.diagnostics["norm_sol_part"])
        drift = ops.norm(dec.remainder.data - u)
        ok &= parts <= 1e-6 * unorm and drift <= 1e-6 * unorm
        notes.append(f"order{order}: parts={parts:.1e}, drift={drift:.1e}")
    assert report(9, ok, "; ".join(notes))


def test_criterion_10_convergence_2d():
    t0 = time.perf_counter()
    summaries = {}
    for order in (2, 4, 6, 8):
        config = ExperimentConfig(order=order, sizes=(17, 33, 49, 65), dim=2)
        summaries[order] = convergence_study(config)["eoc_summary"]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    notes = []
    for order, eoc in summaries.items():
        p = order // 2
        for q in ("u_irr", "u_sol", "phi"):
            good = p + 0.6 <= eoc[q] <= p + 2.1
            ok &= good
            notes.append(f"o{order}.{q}={eoc[q]:.2f}{'' if good else '!'}")
    v6 = summaries[6]["v"]
    ok &= 4.0 <= v6 <= 5.2
    notes.append(f"o6.v={v6:.2f}")
    assert report(10, ok, ", ".join(notes) + f", {elapsed:.0f}s")


def test_criterion_11_convergence_3d():
    t0 = time.perf_counter()
    ok = True
    notes = []
    for order in (2, 4):
        config = ExperimentConfig(order=order, sizes=(9, 13, 17, 21), dim=3)
        eoc = convergence_study(config)["eoc_summary"]
        p = order // 2
        for q in ("u_irr", "u_sol"):
            good = eoc[q] >= p + 0.6
            ok &= good
            notes.append(f"o{order}.{q}={eoc[q]:.2f}{'' if good else '!'}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 900.0
    assert report(11, ok, ", ".join(notes) + f", {elapsed:.0f}s")


def test_criterion_11_convergence_3d_orders_6_8():
    """Criterion 11's rule, ``EOC >= p + 0.6`` with ``p = order/2``, at the
    higher orders, on the direct default path.

    The sizes lie past the pre-asymptotic range: at order 6, n=17-41 gives a
    ``u_sol`` EOC of 3.55, below the rule's 3.6 (pairwise 3.36/3.65/3.77).
    On n=33-65 the order-6 pairwise ``u_sol`` EOCs are 3.77/3.84/3.88/3.90,
    still rising slightly, for a least-squares 3.84; ``u_irr`` is 4.25.  At
    order 8, n=25-49 gives ``u_sol`` 5.98 and ``u_irr`` 5.18.
    """
    t0 = time.perf_counter()
    ok = True
    notes = []
    for order, sizes in ((6, (33, 41, 49, 57, 65)), (8, (25, 33, 41, 49))):
        result = convergence_study(
            ExperimentConfig(order=order, sizes=sizes, dim=3))
        eoc = result["eoc_summary"]
        p = order // 2
        for q in ("u_irr", "u_sol"):
            good = eoc[q] >= p + 0.6
            ok &= good
            notes.append(f"o{order}.{q}={eoc[q]:.2f}{'' if good else '!'}")
        ok &= all(st["stop_reason"] == "direct"
                  for stages in result["solver_stats"].values()
                  for st in stages.values())
    elapsed = time.perf_counter() - t0
    assert report(11, ok, ", ".join(notes) + f", {elapsed:.0f}s")


def test_criterion_12_mhd_wave_modes():
    """Faithful transcription of the stated thresholds.

    The projection-order asymmetry of the underlying experiments is
    reproduced (see the run report printed below).  ``mhd_study`` splits the
    axis grid-oscillation component off the current before the
    decomposition; without that split the rot stage absorbs part of it into
    the solenoidal current, and the primary grad-first interior magnetosonic
    error is 0.144 instead of 1.75e-4 at this resolution.
    """
    t0 = time.perf_counter()
    k = 5 * np.pi

    def run(eps_a, eps_m, order):
        cfg = MhdConfig(k1=k, k3=k, eps_alfven=eps_a, eps_magnetosonic=eps_m,
                        n=101, order=6, projection_order=order)
        return mhd_study(cfg)["report"]["errors"]

    primary_gf = run(1e-2, 1e-5, "grad-first")
    primary_cf = run(1e-2, 1e-5, "curl-first")
    mirrored_cf = run(1e-5, 1e-2, "curl-first")
    mirrored_gf = run(1e-5, 1e-2, "grad-first")
    elapsed = time.perf_counter() - t0

    checks = {
        "gf_alfven_interior<=0.1": primary_gf["alfven_interior"] <= 0.1,
        "gf_magnetosonic_interior<=0.1":
            primary_gf["magnetosonic_interior"] <= 0.1,
        "cf/gf_magnetosonic_interior>=10":
            primary_cf["magnetosonic_interior"]
            >= 10 * primary_gf["magnetosonic_interior"],
        "mirrored_cf_alfven_interior<=0.1":
            mirrored_cf["alfven_interior"] <= 0.1,
        "mirrored_cf_magnetosonic_interior<=0.1":
            mirrored_cf["magnetosonic_interior"] <= 0.1,
        "mirrored_gf/cf_alfven_interior>=10":
            mirrored_gf["alfven_interior"]
            >= 10 * mirrored_cf["alfven_interior"],
        "runtime<600s": elapsed < 600.0,
    }
    detail = (
        f"primary GF int: alf={primary_gf['alfven_interior']:.3e} "
        f"mag={primary_gf['magnetosonic_interior']:.3e}; "
        f"primary CF int mag={primary_cf['magnetosonic_interior']:.3e} "
        f"(global CF/GF={primary_cf['magnetosonic_global'] / primary_gf['magnetosonic_global']:.0f}x); "
        f"mirrored CF int: alf={mirrored_cf['alfven_interior']:.3e} "
        f"mag={mirrored_cf['magnetosonic_interior']:.3e}; "
        f"mirrored GF/CF alf ratio="
        f"{mirrored_gf['alfven_interior'] / mirrored_cf['alfven_interior']:.0f}x; "
        f"{elapsed:.0f}s"
    )
    report(12, all(checks.values()), detail)
    for name, good in checks.items():
        assert good, f"criterion 12 sub-check failed: {name} ({detail})"
