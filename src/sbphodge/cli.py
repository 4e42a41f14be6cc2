"""Command-line harness for the experiment suite.

Subcommands and the options each takes (every one takes ``--config``,
``--order``, ``--n`` and ``--out``; ``--n`` repeats only on ``convergence``,
the one subcommand that reads a ladder of grid sizes):

    verify-theorems  --dim, --seed
    oscillations     (no others)
    remainder        --solver, --projection-order, --atol, --btol, --format
    convergence      --solver, --projection-order, --atol, --btol, --dim
    mhd              --solver, --projection-order, --atol, --btol, --format,
                     --k1, --k3, --eps-alfven, --eps-magnetosonic

Exit codes: 0 success, 1 check failure, 2 usage error (one ``usage error:``
line).  Options may come from a flat JSON (or TOML, where the interpreter
provides ``tomllib``) config file whose keys are the option names with ``_``
for ``-`` (``projection_order``).  A file value is read as the same text given
to its flag, so argparse checks both alike; it must be a number for a numeric
flag and a string otherwise, and only ``n`` may be a list (``--n`` per item).
Flags that were given override the file.  Each default is written once: in
``ExperimentConfig`` and ``MhdConfig``, and for ``--n`` in ``N_DEFAULT``,
whose sizes are shifted up together when the first falls below the order's
minimum grid size.
Setting ``SBP_HODGE_BREAK_OPERATOR=1`` corrupts the operators under
verify-theorems as a negative control: the run must then fail.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .errors import InvalidConfig, SbpHodgeError
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
from .stencils import coefficient_table

# --n by (subcommand, --dim, 2 where it has none) if neither a flag nor the
# file gives it, shifted up as a whole until its first size reaches the
# order's minimum; convergence 2D and mhd take their config dataclass default
N_DEFAULT = {("verify-theorems", 2): [6], ("verify-theorems", 3): [4],
             ("oscillations", 2): [50], ("remainder", 2): [60],
             ("convergence", 3): [9, 13, 17, 21]}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it as one usage-error line
        raise ValueError(f"{self.prog}: {message}")


class _OneSize(argparse.Action):
    """``--n`` outside convergence: a second size is an error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(
                self, "takes one size; only convergence takes a ladder")
        setattr(namespace, self.dest, value)


def _load_config_file(path: str) -> dict:
    text = Path(path).read_bytes()
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            raise ValueError("TOML config requires Python >= 3.11") from None
        return tomllib.loads(text.decode())
    return json.loads(text)


def _file_flags(path: str, parser: argparse.ArgumentParser) -> list:
    """The config file's values as the flags of the subcommand ``parser``."""
    table = _load_config_file(path)
    if not isinstance(table, dict):
        raise ValueError("it does not hold a table")
    actions = {a.dest: a for a in parser._actions
               if a.dest not in ("help", "config")}
    unknown = sorted(set(table) - set(actions))
    if unknown:
        raise ValueError(f"{parser.prog} takes no option {', '.join(unknown)}")
    flags = []
    for key, value in table.items():
        items = value if key == "n" and isinstance(value, list) else [value]
        if not items:
            raise ValueError("n is an empty list")
        action = actions[key]
        numeric = action.type in (int, float)
        for item in items:  # a list for another key is one bad item
            if isinstance(item, str) == numeric:
                kind = "a number" if numeric else "a string"
                raise ValueError(f"{key} takes {kind}, not {item!r}")
            flags.append(f"{action.option_strings[0]}={item}")
    return flags


def _options(argv) -> dict:
    """The subcommand's options: the config file's values overridden by the
    flags that were given (flags carry no defaults)."""
    given = vars(build_parser().parse_args(argv))
    path, parser, from_file = given["config"], given["parser"], {}
    if path:
        try:
            from_file = vars(parser.parse_args(_file_flags(path, parser)))
        except ValueError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
    return {key: value for layer in (from_file, given)
            for key, value in layer.items() if value is not None}


def _config(cls, options: dict):
    """``cls`` from the options it has fields for; for ExperimentConfig,
    ``n`` (or the subcommand's N_DEFAULT, shifted to the order) gives
    ``sizes``."""
    kwargs = {f.name: options[f.name] for f in dataclasses.fields(cls)
              if f.name in options}
    if cls is ExperimentConfig:
        n = options.get("n")
        default = N_DEFAULT.get((options["command"], kwargs.get("dim", cls.dim)))
        if n is None and default is not None:
            order = kwargs.get("order", cls.order)
            shift = max(0, coefficient_table(order).min_nodes - default[0])
            n = [size + shift for size in default]
        if n is not None:
            kwargs["sizes"] = tuple(n) if isinstance(n, list) else (n,)
    return cls(**kwargs)


def _field_writer(options: dict):
    """``(writer, suffix)`` for the ``format`` option, CSV by default."""
    if options.get("format") == "binary":
        return write_field_binary, "bin"
    return write_field_csv, "csv"


def _out_dir(options: dict) -> Path:
    out = Path(options.get("out", "out"))
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


def cmd_verify_theorems(options: dict) -> int:
    report = verify_theorems(_config(ExperimentConfig, options))
    out = _out_dir(options)
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


def cmd_oscillations(options: dict) -> int:
    config = _config(ExperimentConfig, options)
    order, n = config.order, config.sizes[0]
    table = oscillation_table(order, n)
    out = _out_dir(options)
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


def cmd_remainder(options: dict) -> int:
    writer, suffix = _field_writer(options)
    result = remainder_study(_config(ExperimentConfig, options))
    out = _out_dir(options)
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


def cmd_convergence(options: dict) -> int:
    config = _config(ExperimentConfig, options)
    result = convergence_study(config)
    for n, stats in result["solver_stats"].items():
        warn_max_iter(f"convergence n={n}", stats)
    out = _out_dir(options)
    rows = result["rows"]
    quantities = list(rows[0].errors)
    stem = f"convergence_{config.dim}d_order{config.order}"
    path = out / f"{stem}.csv"
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
    _write_json(out / f"{stem}.json", {
        "order": config.order,
        "dim": config.dim,
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


def cmd_mhd(options: dict) -> int:
    writer, suffix = _field_writer(options)
    result = mhd_study(_config(MhdConfig, options))
    out = _out_dir(options)
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
    parser = _Parser(
        prog="sbp-hodge",
        description="Discrete vector calculus and Helmholtz Hodge "
                    "decompositions with SBP finite differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, solver=False, with_format=False, dim=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="JSON (or TOML) config file")
        p.add_argument("--order", type=int, help="interior order 2p")
        ladder = name == "convergence"
        p.add_argument("--n", type=int, action="append" if ladder else _OneSize,
                       help="grid size per axis" + " (repeatable)" * ladder)
        p.add_argument("--out", help="output directory")
        if solver:
            p.add_argument("--solver", choices=list(SOLVERS),
                           help="Krylov reference for every stage "
                                "(default: every stage direct)")
            p.add_argument("--projection-order", dest="projection_order",
                           choices=["grad-first", "curl-first"])
            p.add_argument("--atol", type=float, help="solver atol")
            p.add_argument("--btol", type=float, help="solver btol")
        if with_format:
            p.add_argument("--format", choices=["csv", "binary"],
                           help="field file format (default: csv)")
        if dim:
            p.add_argument("--dim", type=int, choices=[2, 3],
                           help=f"default: {ExperimentConfig.dim}")
        return p

    p = add("verify-theorems", cmd_verify_theorems,
            "kernel/membership/orthogonality oracle suite", dim=True)
    p.add_argument("--seed", type=int)
    add("oscillations", cmd_oscillations, "dump the 1D oscillation vector")
    add("remainder", cmd_remainder, "2D decomposition remainder study",
        solver=True, with_format=True)
    add("convergence", cmd_convergence, "2D/3D convergence study with EOC",
        solver=True, dim=True)
    p = add("mhd", cmd_mhd, "MHD wave-mode separation",
            solver=True, with_format=True)
    p.add_argument("--k1", type=float, help="wavenumber k1")
    p.add_argument("--k3", type=float, help="wavenumber k3")
    p.add_argument("--eps-alfven", dest="eps_alfven", type=float)
    p.add_argument("--eps-magnetosonic", dest="eps_magnetosonic", type=float)
    return parser


def main(argv=None) -> int:
    try:
        options = _options(argv)
        return options["func"](options)
    except (SbpHodgeError, ValueError, OSError) as exc:
        # a bad setting or flag is a usage error; a failed computation is not
        usage = isinstance(exc, InvalidConfig) or not isinstance(exc, SbpHodgeError)
        print(f"{'usage error' if usage else 'error'}: {exc}", file=sys.stderr)
        return 2 if usage else 1


if __name__ == "__main__":
    sys.exit(main())
