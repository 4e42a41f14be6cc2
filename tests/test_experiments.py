import csv
import json
import runpy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sbphodge.cli import _config, main, warn_max_iter
from sbphodge.errors import InvalidConfig, NoPlaneNode, SbpHodgeError
from sbphodge.experiments import (
    BREAK_ENV,
    ExperimentConfig,
    MhdConfig,
    _curl_coimage_part,
    _oscillation_claims,
    convergence_study,
    fit_eoc,
    mhd_order_comparison,
    mhd_study,
    oscillation_table,
    pairwise_eoc,
    remainder_study,
    verify_theorems,
)
from sbphodge.fieldio import read_field_csv
from sbphodge.hodge import helmholtz, project_im_curl, project_im_grad
from sbphodge.tensor import square_tensor_ops


# -- EOC helpers ------------------------------------------------------------


def test_fit_eoc_recovers_synthetic_rate():
    ns = np.array([10, 20, 40, 80])
    for q in (1.0, 2.5, 4.0):
        errors = 3.7 * ns.astype(float) ** (-q)
        assert abs(fit_eoc(ns, errors) - q) <= 1e-10


def test_pairwise_eoc():
    assert abs(pairwise_eoc(10, 20, 1.0, 0.25) - 2.0) <= 1e-12


# -- configs ----------------------------------------------------------------


def test_config_rejects_nonincreasing_sizes():
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=(9, 9, 13))


def test_config_rejects_sizes_below_operator_minimum():
    with pytest.raises(ValueError):
        ExperimentConfig(order=8, sizes=(15, 33))


INVALID_SETTINGS = {
    "dim 4": (lambda: ExperimentConfig(dim=4), None),
    "no sizes": (lambda: ExperimentConfig(sizes=()), None),
    "repeated size": (lambda: ExperimentConfig(order=2, sizes=(9, 9, 13)),
                      ["convergence", "--order", "2", "--n", "9", "--n", "9",
                       "--n", "13"]),
    "size below the order minimum":
        (lambda: ExperimentConfig(order=8, sizes=(15,)),
         ["remainder", "--order", "8", "--n", "15"]),
    "zero amplitudes":
        (lambda: MhdConfig(eps_alfven=0.0, eps_magnetosonic=0.0),
         ["mhd", "--eps-alfven", "0", "--eps-magnetosonic", "0"]),
    "negative amplitude": (lambda: MhdConfig(eps_alfven=-1.0),
                           ["mhd", "--eps-alfven=-1"]),
    "two-size convergence":
        (lambda: convergence_study(ExperimentConfig(order=2, sizes=(9, 13))),
         ["convergence", "--order", "2", "--n", "9", "--n", "13"]),
    "3d remainder study":
        (lambda: remainder_study(ExperimentConfig(dim=3, sizes=(12,))), None),
}


@pytest.mark.parametrize("name", INVALID_SETTINGS)
def test_invalid_settings_raise_invalid_config(tmp_path, capsys, name):
    """A bad setting raises the typed InvalidConfig; on the command line it
    stays a usage error: exit 2, one line, no output written."""
    make, argv = INVALID_SETTINGS[name]
    with pytest.raises(InvalidConfig):
        make()
    assert issubclass(InvalidConfig, SbpHodgeError)
    if argv is not None:
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")
        assert not (tmp_path / "out").exists()


def test_config_defaults_by_dimension():
    assert ExperimentConfig(dim=2).projection.value == "grad-first"
    assert ExperimentConfig(dim=3).projection.value == "curl-first"


def test_mhd_config_defaults():
    config = MhdConfig()
    assert config.k1 == config.k3 == 5 * np.pi
    assert (config.eps_alfven, config.eps_magnetosonic) == (1e-3, 1e-2)


def test_mhd_config_validation():
    with pytest.raises(ValueError):
        MhdConfig(k1=1.0, k3=1.0, eps_alfven=0.0, eps_magnetosonic=0.0)
    with pytest.raises(ValueError):
        MhdConfig(k1=1.0, k3=1.0, eps_alfven=-1.0, eps_magnetosonic=1.0)


# -- theorem suite -----------------------------------------------------------


def test_verify_theorems_2d():
    report = verify_theorems(ExperimentConfig(order=2, sizes=(6,), dim=2))
    assert report["passed"]
    dims = {c["name"]: c for c in report["checks"] if "kernel_dim" in c["name"]}
    assert dims["kernel_dim_curl"]["observed"] == 37
    assert dims["kernel_dim_div"]["observed"] == 37
    assert len(report["checks"]) == 34


def test_verify_theorems_3d():
    report = verify_theorems(ExperimentConfig(order=2, sizes=(4,), dim=3))
    assert report["passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["kernel_dim_curl"]["observed"] == 66
    assert by_name["kernel_dim_div"]["observed"] == 129
    assert by_name["image_dim_curl"]["observed"] == 126
    assert len(report["checks"]) == 72


@pytest.mark.parametrize("dim,order", [(2, 2), (2, 4), (2, 6), (2, 8),
                                       (3, 2), (3, 4)])
def test_oscillation_rule_is_sharp(dim, order):
    """At each CI configuration, every claim the paper's rule predicts holds
    (measured: at most 1.1e-5 of its tolerance), and every claim it does not
    predict fails by far (measured: at least 2.5e6 times its tolerance)."""
    config = _config(ExperimentConfig, {"command": "verify-theorems",
                                        "dim": dim, "order": order})
    ops = config.ops(config.sizes[0])
    claims = list(_oscillation_claims(ops, config.seed))
    modes = 2 ** dim - 1
    assert len(claims) == modes * dim * (2 + 2 * 3)
    assert sum(predicted for predicted, _ in claims) == {2: 28, 3: 66}[dim]
    for predicted, check in claims:
        if predicted:
            assert check["passed"], check
        else:
            assert check["observed"] >= 1e3 * check["tolerance"], check


def test_verify_theorems_broken_operator(monkeypatch):
    monkeypatch.setenv(BREAK_ENV, "1")
    report = verify_theorems(ExperimentConfig(order=2, sizes=(6,), dim=2))
    assert report["broken_operator"]
    assert not report["passed"]
    # also at each order's minimum size, which has no interior rows, so the
    # corruption must hit a closure coefficient to show
    for order, n in ((2, 2), (4, 8), (6, 12), (8, 16)):
        report = verify_theorems(ExperimentConfig(order=order, sizes=(n,)))
        assert [c["name"] for c in report["checks"]] == ["construction"]
        assert "NullspaceDimensionUnexpected" in report["checks"][0]["detail"]


# -- oscillation dump ----------------------------------------------------------


def test_oscillation_table_footer_values():
    table = oscillation_table(4, 30)
    assert abs(table["inner_product_with_ones"]) <= 1e-12
    assert np.isclose(table["m_norm"], 1.0, atol=1e-12)
    assert len(table["values"]) == 30


def test_oscillation_table_order2_alternation():
    table = oscillation_table(2, 51)
    values = table["values"]
    assert np.allclose(values, values[0] * (-1.0) ** np.arange(51), atol=1e-12)


# -- remainder study --------------------------------------------------------------


def test_remainder_study_small():
    config = ExperimentConfig(order=2, sizes=(20,), dim=2, atol=1e-13,
                              btol=1e-13)
    result = remainder_study(config)
    d = result["diagnostics"]
    assert d["remainder_rel_m"] < 0.1
    u2 = d["norm_u_squared"]
    assert abs(d["first_stage_orthogonality"]) <= 1e-11 * u2
    assert abs(d["remainder_inner_sol_part"]) <= 1e-11 * u2


def test_remainder_study_rejects_3d():
    with pytest.raises(ValueError):
        remainder_study(ExperimentConfig(dim=3, sizes=(9, 13, 17)))


# -- convergence -------------------------------------------------------------------


def test_convergence_study_minimal_2d():
    config = ExperimentConfig(order=2, sizes=(9, 13, 17), dim=2,
                              atol=1e-12, btol=1e-12)
    result = convergence_study(config)
    rows = result["rows"]
    assert [r.n for r in rows] == [9, 13, 17]
    assert all(r2.errors["u_irr"] < r1.errors["u_irr"]
               for r1, r2 in zip(rows, rows[1:]))
    assert 1.0 < result["eoc_summary"]["u_irr"] < 3.5
    assert rows[0].eoc == {} and "phi" in rows[1].eoc


def test_convergence_study_requires_three_sizes():
    with pytest.raises(ValueError):
        convergence_study(ExperimentConfig(sizes=(9, 13), dim=2))


def test_convergence_study_minimal_3d():
    config = ExperimentConfig(order=2, sizes=(7, 9, 11), dim=3,
                              atol=1e-11, btol=1e-11)
    result = convergence_study(config)
    errs = result["rows"][-1].errors
    assert set(errs) == {"phi", "u_irr", "u_sol", "remainder", "v_raw",
                         "v_gauged"}
    assert errs["v_gauged"] <= errs["v_raw"] * (1 + 1e-9)
    assert result["eoc_summary"]["u_irr"] > 1.0
    # the library default: both stages direct
    for stats in result["solver_stats"].values():
        for stage in ("grad", "curl"):
            assert stats[stage]["stop_reason"] == "direct"
            assert stats[stage]["iterations"] == 0


@pytest.mark.parametrize("order,n,solver", [(2, 9, None), (4, 9, "lsqr"),
                                            (6, 12, None), (8, 16, None)])
def test_curl_coimage_part_matches_the_curl_projection(order, n, solver, rng):
    """The closed form that gauges the exact 3D potential is the potential
    of the Krylov curl projection of ``curl v``."""
    config = ExperimentConfig(order=order, sizes=(n,), dim=3, solver=solver)
    ops = config.ops(n)
    v = rng.standard_normal((3, *ops.shape))
    got = _curl_coimage_part(ops, v, config)
    want = project_im_curl(ops, ops.curl(v), atol=1e-14, btol=1e-14)[0].data
    assert ops.norm(got - want) <= 1e-10 * ops.norm(want)


# -- MHD ---------------------------------------------------------------------------


def test_mhd_study_small():
    config = MhdConfig(k1=np.pi, k3=np.pi, eps_alfven=1e-2,
                       eps_magnetosonic=1e-2, n=21, order=2)
    result = mhd_study(config)
    errors = result["report"]["errors"]
    assert set(errors) == {"alfven_global", "alfven_interior",
                           "magnetosonic_global", "magnetosonic_interior"}
    assert all(np.isfinite(v) for v in errors.values())
    assert result["j_perp"].shape == (2, 21, 21)


def test_mhd_order_comparison_reports_both_orders():
    config = MhdConfig(n=25)
    out = mhd_order_comparison(config)
    assert list(out) == ["grad-first", "curl-first"]
    for order, errors in out.items():
        study = mhd_study(replace(config, projection_order=order))
        assert errors == study["report"]["errors"]


def test_mhd_pure_alfven_mode_reproduced():
    # single-mode field, matching projection order: the in-plane current is
    # recovered up to its own grid-oscillation content (~1.0e-3 for
    # cos(5 pi x) on 101 nodes at order 6), which the projection removes
    config = MhdConfig(k1=5 * np.pi, k3=5 * np.pi, eps_alfven=1e-3,
                       eps_magnetosonic=0.0, n=101, order=6,
                       projection_order="grad-first")
    errors = mhd_study(config)["report"]["errors"]
    assert errors["alfven_interior"] <= 2e-3


def test_mhd_interior_error_below_global():
    config = MhdConfig(k1=5 * np.pi, k3=5 * np.pi, eps_alfven=1e-3,
                       eps_magnetosonic=1e-2, n=41, order=6,
                       projection_order="curl-first")
    errors = mhd_study(config)["report"]["errors"]
    assert errors["alfven_interior"] < errors["alfven_global"]
    assert errors["magnetosonic_interior"] < errors["magnetosonic_global"]


def test_mhd_current_split_off_grid_oscillations():
    # the x-component of cos(k1 x) sampled on 41 nodes carries an axis-0
    # grid-oscillation component of ~4.6e-2; it is split off as j_osc
    # before the decomposition instead of leaking into sol_part through
    # the rot stage (unfiltered, the magnetosonic interior error is 7.3)
    config = MhdConfig(k1=5 * np.pi, k3=5 * np.pi, eps_alfven=1e-2,
                       eps_magnetosonic=1e-5, n=41, order=6,
                       projection_order="grad-first")
    result = mhd_study(config)
    ops, dec = result["ops"], result["decomposition"]
    j_perp, j_osc = result["j_perp"], result["j_osc"]
    decomposed = dec.grad_phi.data + dec.sol_part.data + dec.remainder.data
    for i in range(2):
        for key, osc in ops.oscillations.items():
            if len(key) == 1:
                assert abs(ops.inner(decomposed[i], osc)) \
                    <= 1e-13 * ops.norm(j_perp)
    assert ops.norm(j_perp - decomposed - j_osc) <= 1e-14 * ops.norm(j_perp)
    content = result["report"]["oscillation_content"]
    assert content[0] == pytest.approx(0.0461, rel=1e-2)
    assert content[1] <= 1e-10
    assert result["report"]["errors"]["magnetosonic_interior"] <= 0.1


def test_mhd_requires_plane_node():
    config = MhdConfig(k1=np.pi, k3=np.pi, eps_alfven=1e-2,
                       eps_magnetosonic=1e-2, n=20, order=2)
    with pytest.raises(NoPlaneNode):
        mhd_study(config)


# -- CLI ----------------------------------------------------------------------------


def test_cli_verify_theorems_exit_codes(tmp_path, monkeypatch):
    out = str(tmp_path / "ok")
    assert main(["verify-theorems", "--order", "2", "--n", "6",
                 "--out", out]) == 0
    report = json.loads((tmp_path / "ok" / "theorem_report.json").read_text())
    assert report["passed"]
    monkeypatch.setenv(BREAK_ENV, "1")
    assert main(["verify-theorems", "--order", "2", "--n", "6",
                 "--out", str(tmp_path / "broken")]) == 1


def test_warn_max_iter_names_stalled_stages(capsys):
    ops = square_tensor_ops(2, 7, 3)
    u = np.random.default_rng(5).standard_normal((3, *ops.shape))
    # only Krylov stages can stall; u M-orthogonal to im grad lets the LSQR
    # grad stage converge at once while the LSQR curl stage stalls
    u = u - project_im_grad(ops, u)[1].data
    dec = helmholtz(ops, u, order="grad-first", solver="lsqr", max_iter=3)
    stats = dec.diagnostics["solver_stats"]
    assert stats["curl"]["stop_reason"] == "max_iter"
    assert stats["grad"]["stop_reason"] != "max_iter"
    assert warn_max_iter("mhd", stats) == 1
    err = capsys.readouterr().err
    assert "mhd: curl stage stopped on max_iter after 3 iterations" in err
    assert "grad stage" not in err
    done = helmholtz(ops, u, order="curl-first").diagnostics["solver_stats"]
    assert warn_max_iter("mhd", done) == 0
    assert capsys.readouterr().err == ""


def test_cli_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


def test_cli_oscillations(tmp_path):
    out = tmp_path / "osc"
    assert main(["oscillations", "--order", "4", "--n", "30",
                 "--out", str(out)]) == 0
    path = out / "oscillations_order4_n30.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["index", "x", "osc"]
    assert any(line.startswith("# inner_product_with_ones=") for line in lines)


def test_cli_oscillations_beyond_dense_ceiling(tmp_path):
    out = tmp_path / "osc"
    assert main(["oscillations", "--order", "6", "--n", "4097",
                 "--out", str(out)]) == 0
    assert (out / "oscillations_order6_n4097.csv").exists()


def test_cli_unknown_solver_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"solver": "gmres", "n": [16]}))
    assert main(["remainder", "--config", str(cfg),
                 "--out", str(tmp_path / "rem")]) == 2  # as --solver gmres
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "'gmres'" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_cli_remainder_roundtrip(tmp_path):
    out = tmp_path / "rem"
    assert main(["remainder", "--order", "2", "--n", "16",
                 "--out", str(out)]) == 0
    diag = json.loads((out / "remainder_diagnostics.json").read_text())
    assert "remainder_rel_m" in diag
    u = read_field_csv(out / "remainder_u.csv")
    g = read_field_csv(out / "remainder_grad_phi.csv")
    s = read_field_csv(out / "remainder_sol_part.csv")
    r = read_field_csv(out / "remainder_remainder.csv")
    rebuilt = (u.data - g.data) - s.data
    assert np.array_equal(rebuilt, r.data)  # serialization is bit exact


def test_cli_convergence_csv(tmp_path):
    out = tmp_path / "conv"
    assert main(["convergence", "--dim", "2", "--order", "2",
                 "--n", "9", "--n", "13", "--n", "17",
                 "--atol", "1e-12", "--btol", "1e-12",
                 "--out", str(out)]) == 0
    with open(out / "convergence_2d_order2.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n"
    assert [r[0] for r in rows[1:]] == ["9", "13", "17"]
    summary = json.loads((out / "convergence_2d_order2.json").read_text())
    assert "u_irr" in summary["eoc_summary"]


def test_cli_mhd(tmp_path):
    out = tmp_path / "mhd"
    assert main(["mhd", "--order", "2", "--n", "15",
                 "--k1", str(np.pi), "--k3", str(np.pi),
                 "--eps-alfven", "1e-2", "--eps-magnetosonic", "1e-2",
                 "--format", "binary",
                 "--out", str(out)]) == 0
    report = json.loads((out / "mhd_report.json").read_text())
    assert "alfven_interior" in report["errors"]
    assert (out / "mhd_j_perp.bin").exists()
    assert (out / "mhd_j_osc.bin").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"order": 4, "n": [30], "out": str(tmp_path / "a")}))
    assert main(["oscillations", "--config", str(cfg),
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "oscillations_order4_n30.csv").exists()


def test_cli_config_dim_is_honoured(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"dim": 3, "order": 2, "n": [4]}))
    assert main(["verify-theorems", "--config", str(cfg),
                 "--out", str(tmp_path / "thm")]) == 0
    report = json.loads((tmp_path / "thm" / "theorem_report.json").read_text())
    assert report["dim"] == 3
    cfg.write_text(json.dumps({"dim": 3, "order": 2, "n": [5, 7, 9]}))
    assert main(["convergence", "--config", str(cfg),
                 "--out", str(tmp_path / "conv")]) == 0
    summary = json.loads(
        (tmp_path / "conv" / "convergence_3d_order2.json").read_text())
    assert summary["dim"] == 3 and summary["solver"] is None
    assert {st["grad"]["stop_reason"]
            for st in summary["solver_stats"].values()} == {"direct"}


def test_cli_config_format_is_honoured(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"format": "binary", "order": 2, "n": [16]}))
    out = tmp_path / "rem"
    assert main(["remainder", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "remainder_u.bin").exists()
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("text", ['{"format": "xml"}', '["order", "n"]'])
def test_cli_config_values_are_checked(tmp_path, capsys, text):
    cfg = tmp_path / "conf.json"
    cfg.write_text(text)
    assert main(["remainder", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


@pytest.mark.parametrize("command,key", [
    ("remainder", "tol"),
    ("remainder", "seed"),
    ("remainder", "dim"),
    ("convergence", "tol"),
    ("oscillations", "solver"),
    ("mhd", "eps_alfvén"),
    ("verify-theorems", "ordr"),
])
def test_cli_config_rejects_keys_the_command_does_not_take(tmp_path, capsys,
                                                           command, key):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"order": 2, key: 1}))
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert key in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["oscillations", "--solver", "lsqr"],
    ["verify-theorems", "--tol", "1e-8"],
    ["remainder", "--dim", "3"],
    ["convergence", "--format", "binary"],
])
def test_cli_rejects_flags_the_command_does_not_take(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


COMMANDS = ["verify-theorems", "oscillations", "remainder", "convergence", "mhd"]
USAGE_ERRORS = [
    ("oscillations", ["--n", "30", "--n", "40"], None),
    ("verify-theorems", ["--n", "6", "--n", "8"], None),
    ("remainder", ["--n", "17", "--n", "21"], None),
    ("mhd", ["--n", "15", "--n", "21"], None),
    *[(command, [], {"n": []}) for command in COMMANDS],
    *[(command, [], {"n": 17.5}) for command in COMMANDS],
    ("remainder", [], {"n": "89"}),
    ("remainder", [], {"n": [17, 21]}),
    *[(command, [], {"order": 2.7}) for command in COMMANDS],
    ("convergence", [], {"order": [4]}),
    ("mhd", [], {"k1": "3.14"}),
    ("mhd", [], {"solver": 1}),
]


@pytest.mark.parametrize("command,flags,config", [
    pytest.param(*case, id=" ".join([case[0], *case[1], json.dumps(case[2])]))
    for case in USAGE_ERRORS
])
def test_cli_usage_errors(tmp_path, capsys, command, flags, config):
    """A repeated --n outside convergence, and a config value its flag would
    not take as text, exit 2 with one line before any output is written."""
    argv = [command, *flags, "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "conf.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "conf.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert not (tmp_path / "out").exists()


def test_cli_config_value_reads_as_its_flag(tmp_path):
    flags = ["--order", "2", "--n", "15", "--k1", str(np.pi),
             "--eps-alfven", "1e-2", "--projection-order", "curl-first"]
    assert main(["mhd", *flags, "--out", str(tmp_path / "flags")]) == 0
    (tmp_path / "conf.json").write_text(json.dumps({
        "order": 2, "n": [15], "k1": np.pi, "eps_alfven": 1e-2,
        "projection_order": "curl-first"}))
    assert main(["mhd", "--config", str(tmp_path / "conf.json"),
                 "--out", str(tmp_path / "file")]) == 0
    for name in ("mhd_report.json", "mhd_sol_part.csv"):
        assert ((tmp_path / "flags" / name).read_bytes()
                == (tmp_path / "file" / name).read_bytes())


@pytest.mark.parametrize("argv,options", [
    (["remainder"], {"order": 2, "n": 9, "atol": 1e-12, "format": "binary",
                     "projection_order": "curl-first"}),
    (["convergence"], {"order": 2, "n": [9, 13, 17], "dim": 3,
                       "solver": "lsmr"}),
])
def test_cli_toml_config_matches_json(tmp_path, argv, options):
    """The same options from a TOML and from a JSON config file write
    byte-identical outputs."""
    (tmp_path / "run.json").write_text(json.dumps(options))
    (tmp_path / "run.toml").write_text(
        "".join(f"{key} = {json.dumps(value)}\n" for key, value in options.items()))
    for suffix in ("json", "toml"):
        assert main([*argv, "--config", str(tmp_path / f"run.{suffix}"),
                     "--out", str(tmp_path / suffix)]) == 0
    written = sorted(p.name for p in (tmp_path / "json").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "toml").iterdir())
    assert len(written) >= 2
    for name in written:
        assert ((tmp_path / "json" / name).read_bytes()
                == (tmp_path / "toml" / name).read_bytes()), name


def test_cli_n_default_per_subcommand(tmp_path):
    assert main(["oscillations", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "oscillations_order6_n50.csv").exists()
    assert main(["verify-theorems", "--dim", "3", "--order", "2",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "theorem_report.json").read_text())
    assert (report["dim"], report["n"]) == (3, 4)
    # the default size is shifted up to the order's minimum grid size: bare
    # verify-theorems runs order 6 on n = 12, not on the order-2 default 6
    assert main(["verify-theorems", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "theorem_report.json").read_text())
    assert (report["order"], report["n"], report["passed"]) == (6, 12, True)
    ladders = {order: _config(ExperimentConfig, {"command": "convergence",
                                                 "dim": 3, "order": order}).sizes
               for order in (2, 4, 6, 8)}
    assert ladders == {2: (9, 13, 17, 21), 4: (9, 13, 17, 21),
                       6: (12, 16, 20, 24), 8: (16, 20, 24, 28)}


def test_theorem_script_writes_a_report_per_dimension(tmp_path, monkeypatch):
    script = Path(__file__).parents[1] / "scripts" / "run_theorem_checks.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 0
    for dim, orders in ((2, (2, 4, 6, 8)), (3, (2, 4))):
        for order in orders:
            report = json.loads((tmp_path / f"{dim}d" / f"order{order}"
                                 / "theorem_report.json").read_text())
            assert report["dim"] == dim and report["passed"]
            assert report["order"] == order
