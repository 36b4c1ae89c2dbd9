"""Command-line front end.

Subcommands
-----------
mesh            generate a triangulation and write it in the text format
infsup          inf-sup constants and spurious modes for one case
spectrum        eigenvalues of a chosen pencil past its zero cluster
coercivity      coercivity constant on the divergence-free subspace
laplace-eig     mixed Laplace eigenvalue past the spurious modes
stokes-infsup   inf-sup constant in the full gradient norm
converge        source-problem convergence study
tables          recompute the golden stability tables (T1..T4)

The single-case commands (infsup to stokes-infsup) load their case
through one helper, call the computations whose results they print and
nothing else, and format those results themselves; every command but
mesh writes through one emitter.  CSV artifacts start with a provenance
line ``# mixed-stab <version> <config-hash>`` so golden files detect
configuration drift; JSON output carries the same data under a
"provenance" key.  Exit codes: 0 success, 1 numerical failure, 2 usage
error, which includes an r outside 1..MAX_SPACE_DEGREE, an r given to a
table that fixes it (T2..T4) and an n that is not an even integer >= 4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .assembly import MAX_SPACE_DEGREE, write_matrix_market
from .errors import MixedStabError
from .mesh import (Family, GENERATED_FAMILIES, check_grid_size, export_mesh,
                   generate, read_mesh, singular_vertices)
from .stability import (DEFAULT_THRESHOLD, PENCILS, SWEEP_THRESHOLDS,
                        TABLE_DEFAULTS, babuska_infsup, brezzi_coercivity,
                        brezzi_infsup, case_forms, laplace_eigenvalue,
                        pencil_spectrum, reproduce_table, spurious_modes,
                        stokes_infsup, threshold_sweep)
from .poisson import ConvergenceReport, convergence_study

PROG = "mixed-stab"
THRESHOLD_ENV = "MIXEDSTAB_THRESHOLD"

# fields that locate outputs or control scheduling; they never change the
# numbers, so they stay out of the provenance hash
UNHASHED_FIELDS = ("out", "jobs", "dump_matrices", "plot_data")


@dataclass
class RunConfig:
    """Everything one invocation is going to do.

    Every field but UNHASHED_FIELDS enters the provenance hash.
    """

    command: str
    family: str | None = None
    n: int | None = None
    n_values: list | None = None
    r: int = 1
    r_values: list | None = None
    threshold: float = DEFAULT_THRESHOLD
    mesh: str | None = None
    which: str | None = None
    fmt: str = "json"
    out: str | None = None
    with_gamma: bool = False
    with_alpha: bool = False
    with_stokes: bool = False
    sweep: list | None = None
    pencil: str = "infsup"
    jobs: int = 1
    dump_matrices: str | None = None
    plot_data: str | None = None

    def config_hash(self):
        data = asdict(self)
        for name in UNHASHED_FIELDS:
            data.pop(name, None)
        canon = json.dumps(data, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def provenance_line(self):
        return f"# {PROG} {__version__} {self.config_hash()}"

    def provenance_dict(self):
        return {"tool": PROG, "version": __version__,
                "config_hash": self.config_hash()}


def parse_n_values(text):
    """Parse an n argument: "8", "4,8,16" or an inclusive range "4..16"
    stepping by 2.  ValueError unless it names at least one n and every n
    is even and >= 4, as the generated families require."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty n range {text!r}")
        values = list(range(lo, hi + 1, 2))
    else:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no n values in {text!r}")
    return [check_grid_size(n) for n in values]


def parse_r_values(command, text):
    """Parse a comma list of degrees.  UsageError unless it names at least
    one degree and every one is in 1..MAX_SPACE_DEGREE; ValueError
    unless every entry is an integer."""
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values or any(not 1 <= r <= MAX_SPACE_DEGREE for r in values):
        raise UsageError(f"{command}: r must be in 1..{MAX_SPACE_DEGREE}, "
                         f"got {text!r}")
    return values


def _threshold(value, source):
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"{source}: threshold must be finite and positive, "
                         f"got {value!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="stability constants and convergence studies for "
                    "vector-Lagrange / discontinuous-pressure pairs")
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    family_names = [f.value for f in GENERATED_FAMILIES]

    def add_case_args(p, with_mesh=True):
        p.add_argument("--family", choices=family_names)
        p.add_argument("--n", help="subdivisions: int, list (4,8) or range 4..16")
        p.add_argument("--r", type=int, default=1,
                       help="velocity degree (pressure degree is r-1)")
        if with_mesh:
            p.add_argument("--mesh", help="mesh file instead of --family/--n")
        p.add_argument("--threshold", type=float, default=None,
                       help=f"zero threshold (default {DEFAULT_THRESHOLD:g}, "
                            f"or ${THRESHOLD_ENV})")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default=None)
        p.add_argument("--out", "-o", help="output path (default stdout)")

    p_mesh = sub.add_parser("mesh", help="generate a triangulation")
    p_mesh.add_argument("--family", choices=family_names, required=True)
    p_mesh.add_argument("--n", required=True)
    p_mesh.add_argument("--out", "-o", help="output path (default stdout)")

    p_inf = sub.add_parser("infsup", help="inf-sup constants for one case")
    add_case_args(p_inf)
    p_inf.add_argument("--with-gamma", action="store_true",
                       help="also compute the full-pencil constant")
    p_inf.add_argument("--with-alpha", action="store_true",
                       help="also compute the coercivity constant")
    p_inf.add_argument("--with-stokes", action="store_true",
                       help="also compute the gradient-norm constant")
    p_inf.add_argument("--sweep", nargs="?", const="default", default=None,
                       help="threshold sweep; optional comma list of thresholds")
    p_inf.add_argument("--dump-matrices", metavar="DIR",
                       help="export assembled matrices (Matrix Market)")

    p_spec = sub.add_parser(
        "spectrum", help="pencil eigenvalues past the zero cluster, each with "
                         "its index, by spectrum slicing")
    add_case_args(p_spec)
    p_spec.add_argument("--pencil", choices=PENCILS, default="infsup")
    p_spec.add_argument("--dump-matrices", metavar="DIR",
                        help="export assembled matrices (Matrix Market)")

    p_coer = sub.add_parser("coercivity",
                            help="coercivity on the divergence-free subspace")
    add_case_args(p_coer)

    p_lap = sub.add_parser("laplace-eig",
                           help="mixed Laplace eigenvalue past the spurious modes")
    add_case_args(p_lap)

    p_sto = sub.add_parser("stokes-infsup",
                           help="inf-sup constant in the gradient norm")
    add_case_args(p_sto)

    p_conv = sub.add_parser("converge", help="convergence study")
    p_conv.add_argument("--family", choices=family_names, default="diagonal")
    p_conv.add_argument("--r", help="degree or comma list (default 2)",
                        default="2")
    p_conv.add_argument("--n", help="mesh list (default 4,8,16,32 resp. 4,8,16)")
    p_conv.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default=None)
    p_conv.add_argument("--out", "-o")
    p_conv.add_argument("--plot-data", metavar="DIR",
                        help="write normalized-error panel files")

    p_tab = sub.add_parser("tables", help="recompute golden tables")
    p_tab.add_argument("--which", required=True,
                       help="one of T1, T2, T3, T4")
    p_tab.add_argument("--n", help="n values (list or range)")
    p_tab.add_argument("--r", help="degree list for T1 (default 1,2,3)")
    p_tab.add_argument("--threshold", type=float, default=None)
    p_tab.add_argument("--jobs", type=int, default=1)
    p_tab.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default=None)
    p_tab.add_argument("--out", "-o")

    return parser


def resolve_threshold(args):
    value = getattr(args, "threshold", None)
    if value is not None:
        return _threshold(float(value), "--threshold")
    env = os.environ.get(THRESHOLD_ENV)
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise UsageError(f"bad {THRESHOLD_ENV} value {env!r}")
        return _threshold(value, THRESHOLD_ENV)
    return DEFAULT_THRESHOLD


class UsageError(Exception):
    pass


def config_from_args(args):
    command = args.command
    cfg = RunConfig(command=command)
    cfg.family = getattr(args, "family", None)
    cfg.mesh = getattr(args, "mesh", None)
    cfg.out = getattr(args, "out", None)

    if command in ("mesh", "infsup", "spectrum", "coercivity", "laplace-eig",
                   "stokes-infsup"):
        if cfg.mesh is None:
            if cfg.family is None or getattr(args, "n", None) is None:
                raise UsageError(f"{command}: need --family and --n, or --mesh")
            ns = parse_n_values(args.n)
            if len(ns) != 1:
                raise UsageError(f"{command}: exactly one n expected, got {ns}")
            cfg.n = ns[0]
    if command == "mesh":
        cfg.fmt = "mesh"
        return cfg

    # converge refuses spurious modes at DEFAULT_THRESHOLD, so it reads no
    # threshold, and its hash keeps the default
    if command != "converge":
        cfg.threshold = resolve_threshold(args)
    if command not in ("converge", "tables"):
        cfg.r = args.r
        if not 1 <= cfg.r <= MAX_SPACE_DEGREE:
            raise UsageError(f"{command}: r must be in 1..{MAX_SPACE_DEGREE}, "
                             f"got {cfg.r}")
    default_fmt = "csv" if command in ("converge", "tables") else "json"
    cfg.fmt = getattr(args, "fmt", None) or default_fmt

    if command == "infsup":
        cfg.with_gamma = args.with_gamma
        cfg.with_alpha = args.with_alpha
        cfg.with_stokes = args.with_stokes
        cfg.dump_matrices = args.dump_matrices
        if args.sweep is not None:
            cfg.sweep = (list(SWEEP_THRESHOLDS) if args.sweep == "default"
                         else [_threshold(float(t), "--sweep")
                               for t in args.sweep.split(",") if t.strip()])
    elif command == "spectrum":
        cfg.pencil = args.pencil
        cfg.dump_matrices = args.dump_matrices
    elif command == "converge":
        cfg.r_values = parse_r_values(command, args.r)
        cfg.n_values = parse_n_values(args.n) if args.n is not None else None
        cfg.plot_data = args.plot_data
        cfg.family = cfg.family or "diagonal"
    elif command == "tables":
        which = args.which.upper()
        if which not in ("T1", "T2", "T3", "T4"):
            raise UsageError(f"tables: unknown table {args.which!r}")
        cfg.which = which
        cfg.n_values = parse_n_values(args.n) if args.n is not None else None
        if args.r is not None:
            if which != "T1":
                raise UsageError(f"tables: --r applies to T1 only; {which} "
                                 f"fixes r = {TABLE_DEFAULTS[which][0]}")
            cfg.r_values = parse_r_values(command, args.r)
        cfg.jobs = max(1, args.jobs)
    return cfg


def _write(cfg, text):
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(cfg, payload, csv_lines):
    """Write ``payload`` as JSON, or the provenance line and ``csv_lines``
    (header first) as CSV, as the configured format asks."""
    if cfg.fmt == "json":
        body = {"provenance": cfg.provenance_dict(), **payload}
        _write(cfg, json.dumps(body, indent=2, sort_keys=True) + "\n")
    else:
        _write(cfg, "\n".join([cfg.provenance_line(), *csv_lines]) + "\n")


def _case_forms(cfg):
    """Assembled forms of a single case, on the mesh file or the generated
    family and n; the matrices are written out when the config asks."""
    mesh = None if cfg.mesh is None else read_mesh(cfg.mesh)
    forms = case_forms(cfg.family, cfg.n, cfg.r, mesh=mesh)
    if cfg.dump_matrices:
        write_matrix_market(forms, cfg.dump_matrices)
    return forms


def cmd_mesh(cfg):
    _write(cfg, export_mesh(generate(Family.parse(cfg.family), cfg.n)))
    return 0


def cmd_infsup(cfg):
    forms = _case_forms(cfg)
    mesh = forms.mesh
    sigma = singular_vertices(mesh).sigma
    infsup = brezzi_infsup(forms, threshold=cfg.threshold)
    payload = {"family": mesh.family.value, "n": mesh.n, "r": cfg.r,
               "sigma": sigma, "dimN": infsup.dim_spurious,
               "beta_div": infsup.beta,
               "beta_div_reduced": infsup.beta_reduced,
               "threshold": cfg.threshold}
    warning = infsup.warning
    if warning:
        payload["warnings"] = [warning]
    diagnostics = {"mu_bound": infsup.mu_bound}
    if cfg.with_alpha:
        coercivity = brezzi_coercivity(forms, infsup.dim_spurious)
        payload["alpha"] = coercivity.alpha
        diagnostics["alpha_residual"] = coercivity.residual
    if cfg.with_gamma:
        payload["gamma"] = babuska_infsup(infsup).gamma
    if cfg.with_stokes:
        stokes = stokes_infsup(forms, infsup.dim_spurious, cfg.threshold)
        diagnostics["stokes_factorizations"] = stokes.factorizations
        payload.update(beta_h1=stokes.beta, beta_h1_reduced=stokes.beta_reduced,
                       stokes_constant_mode=stokes.constant_mode)
    row = [mesh.family.value, "" if mesh.n is None else str(mesh.n),
           str(cfg.r), str(sigma), str(infsup.dim_spurious)]
    # constants not computed leave their cells empty
    row += [f"{payload[key]:.6f}" if key in payload else ""
            for key in ("beta_div", "beta_div_reduced", "alpha", "beta_h1")]
    lines = ["family,n,r,sigma,dimN,beta_div,beta_div_reduced,alpha,beta_h1,"
             "threshold", ",".join([*row, f"{cfg.threshold:g}"])]
    if cfg.sweep:
        rows = threshold_sweep(infsup, cfg.sweep)
        payload["sweep"] = [{"threshold": t, "dimN": d, "beta_reduced": b}
                            for t, d, b in rows]
        lines.append("threshold,dimN,beta_reduced")
        lines += [f"{t:g},{d},{b:.6f}" for t, d, b in rows]
    # how the numbers were computed, JSON only: the factorizations made
    # for the Brezzi constant and every read of its pencil above
    diagnostics["factorizations"] = infsup.factorizations
    payload["diagnostics"] = diagnostics
    _emit(cfg, payload, lines)
    return 0


def cmd_spectrum(cfg):
    first, values = pencil_spectrum(_case_forms(cfg), cfg.pencil,
                                    threshold=cfg.threshold)
    indices = list(range(first, first + len(values)))
    values = [float(v) for v in values]
    _emit(cfg, {"pencil": cfg.pencil, "count": len(values),
                "indices": indices, "values": values},
          ["index,value"] + [f"{i},{v:.12e}" for i, v in zip(indices, values)])
    return 0


def cmd_coercivity(cfg):
    forms = _case_forms(cfg)
    _, _, dim = spurious_modes(forms, cfg.threshold)
    res = brezzi_coercivity(forms, dim)
    _emit(cfg, {"alpha": res.alpha, "kernel_dim": res.kernel_dim, "r": cfg.r},
          ["alpha,kernel_dim,r", f"{res.alpha:.12f},{res.kernel_dim},{cfg.r}"])
    return 0


def cmd_laplace(cfg):
    res = laplace_eigenvalue(brezzi_infsup(_case_forms(cfg),
                                           threshold=cfg.threshold))
    _emit(cfg, {"mu": res.mu, "threshold": cfg.threshold,
                "smallest_eigenvalues": res.smallest, "r": cfg.r},
          ["mu,threshold,r", f"{res.mu:.12f},{cfg.threshold:g},{cfg.r}"])
    return 0


def cmd_stokes(cfg):
    forms = _case_forms(cfg)
    _, _, dim = spurious_modes(forms, cfg.threshold)
    res = stokes_infsup(forms, dim, cfg.threshold)
    _emit(cfg, {"beta_h1": res.beta, "beta_h1_reduced": res.beta_reduced,
                "dimN": res.dim_spurious, "constant_mode": res.constant_mode,
                "threshold": cfg.threshold, "r": cfg.r},
          ["beta_h1,beta_h1_reduced,dimN,constant_mode,threshold,r",
           f"{res.beta:.6f},{res.beta_reduced:.6f},{res.dim_spurious},"
           f"{res.constant_mode:.6f},{cfg.threshold:g},{cfg.r}"])
    return 0


def _write_plot_data(cfg, reports):
    """Normalized-error panels, one whitespace table per norm."""
    directory = Path(cfg.plot_data)
    directory.mkdir(parents=True, exist_ok=True)
    panels = {"p_l2": "normalized_p_L2.dat", "u_l2": "normalized_u_L2.dat",
              "u_hdiv": "normalized_u_Hdiv.dat"}
    all_n = sorted({n for rep in reports for n in rep.n_values})
    for key, fname in panels.items():
        lines = [cfg.provenance_line(),
                 "# n " + " ".join(f"r={rep.r}" for rep in reports)]
        for n in all_n:
            cells = [str(n)]
            for rep in reports:
                if n in rep.n_values:
                    cells.append(f"{rep.normalized[key][rep.n_values.index(n)]:.6e}")
                else:
                    cells.append("-")
            lines.append(" ".join(cells))
        (directory / fname).write_text("\n".join(lines) + "\n")


def cmd_converge(cfg):
    family = Family.parse(cfg.family)
    reports = [convergence_study(r, n_values=cfg.n_values, family=family)
               for r in cfg.r_values]
    if cfg.plot_data:
        _write_plot_data(cfg, reports)
    payload = {"studies": [
        {"r": rep.r, "family": rep.family, "n_values": rep.n_values,
         "errors": rep.errors, "rates": rep.rates, "normalized": rep.normalized}
        for rep in reports]}
    _emit(cfg, payload, [ConvergenceReport.CSV_HEADER]
          + [row for rep in reports for row in rep.csv_rows()])
    return 0


def cmd_tables(cfg):
    table = reproduce_table(cfg.which, n_values=cfg.n_values,
                            r_values=cfg.r_values, threshold=cfg.threshold,
                            jobs=cfg.jobs)
    _emit(cfg, {"which": table.which, "r": table.r,
                "threshold": table.threshold, "header": table.header,
                "rows": table.rows}, table.to_csv().splitlines())
    return 0


COMMANDS = {
    "mesh": cmd_mesh,
    "infsup": cmd_infsup,
    "spectrum": cmd_spectrum,
    "coercivity": cmd_coercivity,
    "laplace-eig": cmd_laplace,
    "stokes-infsup": cmd_stokes,
    "converge": cmd_converge,
    "tables": cmd_tables,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (UsageError, ValueError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[cfg.command](cfg)
    except MixedStabError as exc:
        print(f"{PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
