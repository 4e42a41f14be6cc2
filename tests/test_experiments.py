import csv
import json

import numpy as np
import pytest

from sbphodge.cli import main, warn_max_iter
from sbphodge.errors import NoPlaneNode
from sbphodge.experiments import (
    BREAK_ENV,
    ExperimentConfig,
    MhdConfig,
    convergence_study,
    fit_eoc,
    mhd_study,
    oscillation_table,
    pairwise_eoc,
    remainder_study,
    verify_theorems,
)
from sbphodge.fieldio import read_field_csv
from sbphodge.hodge import helmholtz
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


def test_config_defaults_by_dimension():
    assert ExperimentConfig(dim=2).projection.value == "grad-first"
    assert ExperimentConfig(dim=3).projection.value == "curl-first"


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


def test_verify_theorems_3d():
    report = verify_theorems(ExperimentConfig(order=2, sizes=(4,), dim=3))
    assert report["passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["kernel_dim_curl"]["observed"] == 66
    assert by_name["kernel_dim_div"]["observed"] == 129
    assert by_name["image_dim_curl"]["observed"] == 126


def test_verify_theorems_broken_operator(monkeypatch):
    monkeypatch.setenv(BREAK_ENV, "1")
    report = verify_theorems(ExperimentConfig(order=2, sizes=(6,), dim=2))
    assert report["broken_operator"]
    assert not report["passed"]


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
    # the library default: a direct grad stage and an LSQR curl stage
    for stats in result["solver_stats"].values():
        assert stats["grad"]["stop_reason"] == "direct"
        assert stats["curl"]["iterations"] > 0


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
    dec = helmholtz(ops, u, order="curl-first", max_iter=3)
    stats = dec.diagnostics["solver_stats"]
    assert stats["curl"]["stop_reason"] == "max_iter"
    assert warn_max_iter("mhd", stats) == 1
    err = capsys.readouterr().err
    assert "mhd: curl stage stopped on max_iter after 3 iterations" in err
    assert "grad stage" not in err  # the direct grad stage cannot stall
    done = helmholtz(ops, u, order="curl-first").diagnostics["solver_stats"]
    assert warn_max_iter("mhd", done) == 0
    assert capsys.readouterr().err == ""


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


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
                 "--out", str(tmp_path / "rem")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown solver 'gmres'")
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
def test_cli_rejects_flags_the_command_does_not_take(tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path)])
    assert err.value.code == 2
