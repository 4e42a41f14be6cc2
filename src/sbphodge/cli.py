"""Command-line harness for the experiment suite.

Subcommands and the options each takes (every one takes ``--config``,
``--order``, ``--n`` and ``--out``):

    verify-theorems  --dim, --seed
    oscillations     (no others)
    remainder        --solver, --projection-order, --atol, --btol, --format
    convergence      --solver, --projection-order, --atol, --btol, --dim
    mhd              --solver, --projection-order, --atol, --btol, --format,
                     --k1, --k3, --eps-alfven, --eps-magnetosonic

Exit codes: 0 success, 1 check failure, 2 usage error.  Options may come from
a flat JSON (or TOML, where the interpreter provides ``tomllib``) config file
whose keys are the option names with ``_`` for ``-`` (``projection_order``);
command-line flags override file values, and a key the subcommand does not
take is a usage error.  Flags carry no defaults, so a file value is only ever
overridden by a flag that was given.  Setting the environment variable
``SBP_HODGE_BREAK_OPERATOR=1`` corrupts the operators under verify-theorems as
a negative control: the run must then fail.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .errors import SbpHodgeError
from .experiments import (
    ExperimentConfig,
    MhdConfig,
    convergence_study,
    mhd_study,
    oscillation_table,
    remainder_study,
    verify_theorems,
)
from .fieldio import write_field_binary, write_field_csv
from .krylov import SOLVERS


def _load_config_file(path: str) -> dict:
    text = Path(path).read_bytes()
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11 without tomli
            raise SystemExit(
                f"TOML config requires Python >= 3.11; use JSON instead ({exc})"
            )
        return tomllib.loads(text.decode())
    return json.loads(text)


def _merged_options(args: argparse.Namespace) -> dict:
    """The config file's options overridden by the flags that were given.

    Raises ValueError for a file key that is not an option of the
    subcommand."""
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "func", "config")}
    options = _load_config_file(args.config) if args.config else {}
    if not isinstance(options, dict):
        raise ValueError(f"config file {args.config} does not hold a table")
    unknown = sorted(set(options) - set(flags))
    if unknown:
        raise ValueError(f"{args.command} takes no option {', '.join(unknown)}")
    options.update((k, v) for k, v in flags.items() if v is not None)
    return options


def _field_writer(options: dict):
    """``(writer, suffix)`` for the ``format`` option, CSV by default."""
    fmt = options.get("format", "csv")
    if fmt not in ("csv", "binary"):
        raise ValueError(f"format must be csv or binary, got {fmt!r}")
    if fmt == "binary":
        return write_field_binary, "bin"
    return write_field_csv, "csv"


def _experiment_config(options: dict) -> ExperimentConfig:
    sizes = options.get("n") or ExperimentConfig.sizes
    if isinstance(sizes, int):
        sizes = [sizes]
    return ExperimentConfig(
        order=int(options.get("order", 6)),
        sizes=tuple(int(s) for s in sizes),
        dim=int(options.get("dim", 2)),
        solver=options.get("solver"),
        projection_order=options.get("projection_order"),
        atol=float(options.get("atol", 1e-14)),
        btol=float(options.get("btol", 1e-14)),
        out_dir=str(options.get("out", "out")),
        seed=int(options.get("seed", 2023)),
    )


def _out_dir(config_out: str) -> Path:
    out = Path(config_out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")


def _json_default(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


def warn_max_iter(label: str, solver_stats: dict) -> int:
    """Warn on stderr for every stage of a decomposition's ``solver_stats``
    that stopped on ``max_iter``; return the number of such stages."""
    stalled = {stage: st for stage, st in solver_stats.items()
               if st["stop_reason"] == "max_iter"}
    for stage, st in stalled.items():
        print(f"warning: {label}: {stage} stage stopped on max_iter after "
              f"{st['iterations']} iterations (normal residual "
              f"{st['final_normal_residual_norm']:.3e})", file=sys.stderr)
    return len(stalled)


def cmd_verify_theorems(args) -> int:
    options = _merged_options(args)
    sizes = options.get("n") or ([6] if int(options.get("dim", 2)) == 2 else [4])
    if isinstance(sizes, int):
        sizes = [sizes]
    options["n"] = sizes
    config = _experiment_config(options)
    report = verify_theorems(config)
    out = _out_dir(config.out_dir)
    _write_json(out / "theorem_report.json", report)
    for check in report["checks"]:
        status = "ok" if check["passed"] else "FAIL"
        shown = {k: v for k, v in check.items() if k not in ("name", "passed")}
        if check["passed"]:
            shown.pop("detail", None)
        print(f"[{status}] {check['name']}: "
              + ", ".join(f"{k}={v}" for k, v in shown.items()))
    print(f"report written to {out / 'theorem_report.json'}")
    if not report["passed"]:
        failing = next(c["name"] for c in report["checks"] if not c["passed"])
        print(f"FAILED: first failing check is {failing}", file=sys.stderr)
        return 1
    return 0


def cmd_oscillations(args) -> int:
    options = _merged_options(args)
    order = int(options.get("order", 6))
    n = int(options.get("n", 50) if not isinstance(options.get("n"), list)
            else options["n"][0])
    table = oscillation_table(order, n)
    out = _out_dir(str(options.get("out", "out")))
    path = out / f"oscillations_order{order}_n{n}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "osc"])
        for i, (x, v) in enumerate(zip(table["nodes"], table["values"])):
            writer.writerow([i + 1, repr(float(x)), repr(float(v))])
        fh.write(f"# inner_product_with_ones={table['inner_product_with_ones']!r}\n")
        fh.write(f"# m_norm={table['m_norm']!r}\n")
    print(f"oscillation vector written to {path}")
    return 0


def cmd_remainder(args) -> int:
    options = _merged_options(args)
    options.setdefault("n", [60])
    writer, suffix = _field_writer(options)
    config = _experiment_config(options)
    result = remainder_study(config)
    out = _out_dir(config.out_dir)
    ops, dec = result["ops"], result["decomposition"]
    warn_max_iter("remainder", dec.diagnostics["solver_stats"])
    for name, data in (("u", result["problem"]["u"]),
                       ("grad_phi", dec.grad_phi.data),
                       ("sol_part", dec.sol_part.data),
                       ("remainder", dec.remainder.data)):
        writer(out / f"remainder_{name}.{suffix}", ops.field(data))
    _write_json(out / "remainder_diagnostics.json", result["diagnostics"])
    d = result["diagnostics"]
    print(f"|<u - grad phi, grad phi>_M| = {abs(d['first_stage_orthogonality']):.3e}")
    print(f"|<r, sol part>_M|            = {abs(d['remainder_inner_sol_part']):.3e}")
    print(f"|r|_M / |u|_M                = {d['remainder_rel_m']:.3e}")
    print(f"outputs in {out}")
    return 0


def cmd_convergence(args) -> int:
    options = _merged_options(args)
    dim = int(options.get("dim", 2))
    if not options.get("n"):
        options["n"] = [17, 33, 49, 65] if dim == 2 else [9, 13, 17, 21]
    config = _experiment_config(options)
    result = convergence_study(config)
    for n, stats in result["solver_stats"].items():
        warn_max_iter(f"convergence n={n}", stats)
    out = _out_dir(config.out_dir)
    rows = result["rows"]
    quantities = list(rows[0].errors)
    path = out / f"convergence_{dim}d_order{config.order}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"err_{q}" for q in quantities]
                        + [f"eoc_{q}" for q in quantities])
        for row in rows:
            writer.writerow(
                [row.n]
                + [repr(row.errors[q]) for q in quantities]
                + [repr(row.eoc[q]) if q in row.eoc else "" for q in quantities]
            )
    _write_json(out / f"convergence_{dim}d_order{config.order}.json", {
        "order": config.order,
        "dim": dim,
        "solver": config.solver,  # null: the library default
        "projection_order": config.projection.value,
        "sizes": list(config.sizes),
        "eoc_summary": result["eoc_summary"],
        "solver_stats": result["solver_stats"],
    })
    print(f"EOC summary (least-squares slopes): "
          + ", ".join(f"{q}={v:.2f}" for q, v in result["eoc_summary"].items()))
    print(f"table written to {path}")
    return 0


def cmd_mhd(args) -> int:
    options = _merged_options(args)
    writer, suffix = _field_writer(options)
    n = options.get("n", 101)
    if isinstance(n, list):
        n = n[0]
    config = MhdConfig(
        k1=float(options.get("k1", 5 * 3.141592653589793)),
        k3=float(options.get("k3", 5 * 3.141592653589793)),
        eps_alfven=float(options.get("eps_alfven", 1e-3)),
        eps_magnetosonic=float(options.get("eps_magnetosonic", 1e-2)),
        n=int(n),
        order=int(options.get("order", 6)),
        projection_order=str(options.get("projection_order", "grad-first")),
        solver=options.get("solver"),
        atol=float(options.get("atol", 1e-12)),
        btol=float(options.get("btol", 1e-12)),
    )
    result = mhd_study(config)
    out = _out_dir(str(options.get("out", "out")))
    ops, dec = result["ops"], result["decomposition"]
    warn_max_iter("mhd", dec.diagnostics["solver_stats"])
    for name, data in (("j_perp", result["j_perp"]),
                       ("grad_phi", dec.grad_phi.data),
                       ("sol_part", dec.sol_part.data),
                       ("remainder", dec.remainder.data),
                       ("j_osc", result["j_osc"])):
        writer(out / f"mhd_{name}.{suffix}", ops.field(data))
    _write_json(out / "mhd_report.json", result["report"])
    for key, val in result["report"]["errors"].items():
        print(f"{key}: {val:.4e}")
    for key, val in result["report"]["component_errors"].items():
        print(f"{key} (own component): {val:.4e}")
    print("oscillation_content (x, y): " + ", ".join(
        f"{val:.4e}" for val in result["report"]["oscillation_content"]))
    print(f"outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbp-hodge",
        description="Discrete vector calculus and Helmholtz Hodge "
                    "decompositions with SBP finite differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solver=False, with_format=False):
        p.add_argument("--config", help="JSON (or TOML) config file")
        p.add_argument("--order", type=int, help="interior order 2p")
        p.add_argument("--n", type=int, action="append",
                       help="grid size per axis (repeatable)")
        p.add_argument("--out", help="output directory")
        if solver:
            p.add_argument("--solver", choices=list(SOLVERS),
                           help="Krylov reference for every stage "
                                "(default: direct, LSQR for the 3D curl stage)")
            p.add_argument("--projection-order", dest="projection_order",
                           choices=["grad-first", "curl-first"])
            p.add_argument("--atol", type=float, help="solver atol")
            p.add_argument("--btol", type=float, help="solver btol")
        if with_format:
            p.add_argument("--format", choices=["csv", "binary"],
                           help="field file format (default: csv)")

    p = sub.add_parser("verify-theorems",
                       help="kernel/membership/orthogonality oracle suite")
    common(p)
    p.add_argument("--dim", type=int, choices=[2, 3], help="default: 2")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser("oscillations", help="dump the 1D oscillation vector")
    common(p)
    p.set_defaults(func=cmd_oscillations)

    p = sub.add_parser("remainder", help="2D decomposition remainder study")
    common(p, solver=True, with_format=True)
    p.set_defaults(func=cmd_remainder)

    p = sub.add_parser("convergence", help="2D/3D convergence study with EOC")
    common(p, solver=True)
    p.add_argument("--dim", type=int, choices=[2, 3], help="default: 2")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("mhd", help="MHD wave-mode separation")
    common(p, solver=True, with_format=True)
    p.add_argument("--k1", type=float, help="wavenumber k1")
    p.add_argument("--k3", type=float, help="wavenumber k3")
    p.add_argument("--eps-alfven", dest="eps_alfven", type=float)
    p.add_argument("--eps-magnetosonic", dest="eps_magnetosonic", type=float)
    p.set_defaults(func=cmd_mhd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SbpHodgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
