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

infsup, coercivity, laplace-eig and stokes-infsup are one command,
``cmd_case``: it prints the COLUMNS of its command, fields of one
``stability.Case`` that are computed on their first read, so a command
computes what it prints and nothing else.  converge generates its meshes
from --family and --n and measures ``poisson.SINE`` on them
(``poisson.convergence_study``).  Every command but mesh writes through
one emitter.  CSV artifacts start with a provenance
line ``# mixed-stab <version> <config-hash>`` so golden files detect
configuration drift; JSON output carries the same data under a
"provenance" key.  Exit codes: 0 success, 1 numerical failure or a
malformed mesh file, 2 usage error or a path that cannot be read or
written.  Each argument parses and checks its own value (an r outside
1..MAX_SPACE_DEGREE, an n that is not an even integer >= 4, a threshold
that is not finite and positive, --jobs below 1); ``config_from_args``
checks the two rules that tie arguments together, and ``check_outputs``
every output path (--out, --plot-data, --dump-matrices), before any case
is built.
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
from .assembly import MAX_SPACE_DEGREE, case_forms, write_matrix_market
from .errors import MixedStabError
from .mesh import (GENERATED_FAMILIES, check_grid_size, export_mesh, generate,
                   read_mesh)
from .poisson import NORM_KEYS, SINE, convergence_study
from .stability import (DEFAULT_THRESHOLD, PENCILS, SWEEP_THRESHOLDS, TABLES,
                        Case, reproduce_table)

PROG = "mixed-stab"

# what each single-case command prints of its Case, in CSV order: (key,
# CSV format[, flag]).  A key with no format is printed in the JSON only,
# and one with a flag only when the flag is set (its CSV cell is left
# empty otherwise).  A key names a Case field, through FIELDS where the
# two differ; a field that is None (n of a mesh file) leaves its cell empty
COLUMNS = {
    "infsup": (("family", ""), ("n", ""), ("r", ""), ("sigma", ""),
               ("dimN", ""), ("beta_div", ".6f"), ("beta_div_reduced", ".6f"),
               ("alpha", ".6f", "with_alpha"), ("beta_h1", ".6f", "with_stokes"),
               ("threshold", "g"), ("gamma", None, "with_gamma"),
               ("beta_h1_reduced", None, "with_stokes"),
               ("stokes_constant_mode", None, "with_stokes")),
    "coercivity": (("alpha", ".12f"), ("kernel_dim", ""), ("r", "")),
    "laplace-eig": (("mu", ".12f"), ("threshold", "g"), ("r", ""),
                    ("smallest_eigenvalues", None)),
    "stokes-infsup": (("beta_h1", ".6f"), ("beta_h1_reduced", ".6f"),
                      ("dimN", ""), ("constant_mode", ".6f"),
                      ("threshold", "g"), ("r", "")),
}
FIELDS = {"stokes_constant_mode": "constant_mode"}
# how infsup computed its numbers, in the JSON's "diagnostics" block only,
# (field[, flag]); factorizations comes last, to count every read before it
DIAGNOSTICS = (("mu_bound",), ("alpha_residual", "with_alpha"),
               ("stokes_factorizations", "with_stokes"), ("factorizations",))

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


class UsageError(Exception):
    pass


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


def parse_r_values(text):
    """Parse a comma list of degrees.  ValueError unless it names at least
    one degree and every one is an integer in 1..MAX_SPACE_DEGREE."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or any(not 1 <= r <= MAX_SPACE_DEGREE for r in values):
        raise ValueError(f"r must be in 1..{MAX_SPACE_DEGREE}, got {text!r}")
    return values


def parse_threshold(text, source="--threshold"):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{source}: threshold must be finite and positive, "
                         f"got {text!r}")
    return value


def parse_sweep(text):
    values = [parse_threshold(t, "--sweep") for t in text.split(",") if t.strip()]
    if not values:
        raise ValueError(f"--sweep: no thresholds in {text!r}")
    return values


def parse_table(text):
    if text.upper() not in TABLES:
        raise ValueError(f"tables: unknown table {text!r}")
    return text.upper()


def parse_jobs(text):
    if not text.strip().isdigit() or int(text) < 1:
        raise ValueError(f"--jobs must be an integer >= 1, got {text!r}")
    return int(text)


def _single(parse, name):
    def one(text):
        values = parse(text)
        if len(values) != 1:
            raise ValueError(f"exactly one {name} expected, got {values}")
        return values[0]
    return one


def _arg(parse):
    """argparse ``type`` of ``parse``: its ValueError becomes a UsageError,
    which argparse lets through to main, so a bad value is reported in one
    line and exit code 2, not argparse's usage message."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise UsageError(exc) from None
    return convert


def build_parser():
    """Every argument parses, checks and defaults itself; its ``dest`` is
    the RunConfig field it fills."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="stability constants and convergence studies for "
                    "vector-Lagrange / discontinuous-pressure pairs")
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    family_names = [f.value for f in GENERATED_FAMILIES]
    one_n = _arg(_single(parse_n_values, "n"))
    n_values = _arg(parse_n_values)
    threshold = _arg(parse_threshold)

    def add_output(p, fmt):
        p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                       default=fmt)
        p.add_argument("--out", "-o", help="output path (default stdout)")

    p_mesh = sub.add_parser("mesh", help="generate a triangulation")
    p_mesh.add_argument("--family", choices=family_names, required=True)
    p_mesh.add_argument("--n", type=one_n, required=True)
    p_mesh.add_argument("--out", "-o", help="output path (default stdout)")
    p_mesh.set_defaults(fmt="mesh")

    case = {}
    for name, text in (
            ("infsup", "inf-sup constants for one case"),
            ("spectrum", "pencil eigenvalues past the zero cluster, each with "
                         "its index, by spectrum slicing"),
            ("coercivity", "coercivity on the divergence-free subspace"),
            ("laplace-eig", "mixed Laplace eigenvalue past the spurious modes"),
            ("stokes-infsup", "inf-sup constant in the gradient norm")):
        case[name] = p = sub.add_parser(name, help=text)
        p.add_argument("--family", choices=family_names)
        p.add_argument("--n", type=one_n, help="subdivisions: one even n >= 4")
        p.add_argument("--r", type=_arg(_single(parse_r_values, "r")),
                       default=1, help="velocity degree (pressure degree is r-1)")
        p.add_argument("--mesh", help="mesh file instead of --family/--n")
        p.add_argument("--threshold", type=threshold, default=DEFAULT_THRESHOLD,
                       help=f"zero threshold (default {DEFAULT_THRESHOLD:g})")
        add_output(p, "json")
    for name in ("infsup", "spectrum"):
        case[name].add_argument("--dump-matrices", metavar="DIR",
                                help="export assembled matrices (Matrix Market)")
    p_inf = case["infsup"]
    p_inf.add_argument("--with-gamma", action="store_true",
                       help="also compute the full-pencil constant")
    p_inf.add_argument("--with-alpha", action="store_true",
                       help="also compute the coercivity constant")
    p_inf.add_argument("--with-stokes", action="store_true",
                       help="also compute the gradient-norm constant")
    p_inf.add_argument("--sweep", nargs="?", type=_arg(parse_sweep),
                       const=list(SWEEP_THRESHOLDS),
                       help="threshold sweep; optional comma list of thresholds")
    case["spectrum"].add_argument("--pencil", choices=PENCILS, default="infsup")

    # converge solves on (V_h, div V_h) and counts no spurious mode, so it
    # takes no threshold, and its hash keeps the default
    p_conv = sub.add_parser("converge", help="convergence study")
    p_conv.add_argument("--family", choices=family_names, default="diagonal")
    p_conv.add_argument("--r", dest="r_values", metavar="R", default="2",
                        type=_arg(parse_r_values),
                        help="degree or comma list (default 2)")
    p_conv.add_argument("--n", dest="n_values", metavar="N", type=n_values,
                        help="mesh list (default 4,8,16,32 resp. 4,8,16)")
    add_output(p_conv, "csv")
    p_conv.add_argument("--plot-data", metavar="DIR",
                        help="write normalized-error panel files")

    p_tab = sub.add_parser("tables", help="recompute golden tables")
    p_tab.add_argument("--which", type=_arg(parse_table), required=True,
                       help="one of " + ", ".join(TABLES))
    p_tab.add_argument("--n", dest="n_values", metavar="N", type=n_values,
                       help="n values (list or range)")
    p_tab.add_argument("--r", dest="r_values", metavar="R",
                       type=_arg(parse_r_values),
                       help="degree list for T1 (default 1,2,3)")
    p_tab.add_argument("--threshold", type=threshold, default=DEFAULT_THRESHOLD)
    p_tab.add_argument("--jobs", type=_arg(parse_jobs), default=1,
                       help="worker processes, at least 1 (capped at the "
                            "cases and the cores)")
    add_output(p_tab, "csv")

    return parser


def config_from_args(args):
    """RunConfig of the parsed arguments, each already checked on its own;
    only the rules that tie two arguments together are left."""
    cfg = RunConfig(**vars(args))
    if hasattr(args, "mesh"):   # the single-case commands
        if cfg.mesh is not None:
            if cfg.family is not None or cfg.n is not None:
                raise UsageError(f"{cfg.command}: --mesh fixes the grid; "
                                 f"give no --family or --n with it")
        elif cfg.family is None or cfg.n is None:
            raise UsageError(f"{cfg.command}: need --family and --n, or --mesh")
    if cfg.r_values is not None and cfg.which not in (None, "T1"):
        raise UsageError(f"tables: --r applies to T1 only; {cfg.which} "
                         f"fixes r = {TABLES[cfg.which][0]}")
    return cfg


def check_outputs(cfg):
    """Refuse an --out that is a directory or whose directory is missing or
    not writable, and a --plot-data or --dump-matrices whose nearest
    existing path is not a writable directory.  Opens and creates nothing,
    so a refused or failed run leaves an existing --out as it was."""
    def writable_dir(path):
        return path.is_dir() and os.access(path, os.W_OK | os.X_OK)

    if cfg.out:
        out = Path(cfg.out)
        if out.is_dir() or not writable_dir(out.parent):
            raise UsageError(f"--out: cannot write {out}: a directory, or its "
                             f"directory is missing or not writable")
    for flag, directory in (("--plot-data", cfg.plot_data),
                            ("--dump-matrices", cfg.dump_matrices)):
        if directory:
            path = Path(directory)
            if not writable_dir(next(p for p in (path, *path.parents)
                                     if p.exists())):
                raise UsageError(f"{flag}: {path} cannot be a writable directory")


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
    mesh = (generate(cfg.family, cfg.n) if cfg.mesh is None
            else read_mesh(cfg.mesh))
    forms = case_forms(mesh, cfg.r)
    if cfg.dump_matrices:
        write_matrix_market(forms, cfg.dump_matrices)
    return forms


def cmd_mesh(cfg):
    _write(cfg, export_mesh(generate(cfg.family, cfg.n)))
    return 0


def cmd_case(cfg):
    """infsup, coercivity, laplace-eig and stokes-infsup: the COLUMNS of the
    command, read off one Case in order; infsup then reads the cluster
    warning, the sweep and the DIAGNOSTICS, in that order."""
    case = Case(_case_forms(cfg), cfg.threshold)
    payload, header, cells = {}, [], []
    for key, fmt, *flag in COLUMNS[cfg.command]:
        if flag and not getattr(cfg, flag[0]):
            value = None
        else:
            value = payload[key] = getattr(case, FIELDS.get(key, key))
        if fmt is not None:
            header.append(key)
            cells.append("" if value is None else format(value, fmt))
    lines = [",".join(header), ",".join(cells)]
    infsup = cfg.command == "infsup"
    warning = case.warning if infsup else None
    if warning:
        payload["warnings"] = [warning]
    if cfg.sweep:
        rows = case.sweep(cfg.sweep)
        payload["sweep"] = [{"threshold": t, "dimN": d, "beta_reduced": b}
                            for t, d, b in rows]
        lines.append("threshold,dimN,beta_reduced")
        lines += [f"{t:g},{d},{b:.6f}" for t, d, b in rows]
    if infsup:
        payload["diagnostics"] = {key: getattr(case, key)
                                  for key, *flag in DIAGNOSTICS
                                  if not flag or getattr(cfg, flag[0])}
    _emit(cfg, payload, lines)
    return 0


def cmd_spectrum(cfg):
    first, values = Case(_case_forms(cfg), cfg.threshold).spectrum(cfg.pencil)
    indices = list(range(first, first + len(values)))
    values = [float(v) for v in values]
    _emit(cfg, {"pencil": cfg.pencil, "count": len(values),
                "indices": indices, "values": values},
          ["index,value"] + [f"{i},{v:.12e}" for i, v in zip(indices, values)])
    return 0


def _write_plot_data(cfg, studies):
    """Normalized-error panels, one whitespace table per norm."""
    directory = Path(cfg.plot_data)
    directory.mkdir(parents=True, exist_ok=True)
    panels = {"p_l2": "normalized_p_L2.dat", "u_l2": "normalized_u_L2.dat",
              "u_hdiv": "normalized_u_Hdiv.dat"}
    all_n = sorted({n for st in studies for n in st["n_values"]})
    for key, fname in panels.items():
        lines = [cfg.provenance_line(),
                 "# n " + " ".join(f"r={st['r']}" for st in studies)]
        for n in all_n:
            cells = [f"{st['normalized'][key][st['n_values'].index(n)]:.6e}"
                     if n in st["n_values"] else "-" for st in studies]
            lines.append(" ".join([str(n), *cells]))
        (directory / fname).write_text("\n".join(lines) + "\n")


def _converge_csv(studies):
    """CSV lines of the studies, header first: per r and n the errors, then
    the rates into n, empty on the first n and where n does not double."""
    lines = ["r,n,err_p_L2,err_u_div,err_u_L2,err_u_Hdiv,rate_p,rate_u_div,rate_u_L2"]
    for st in studies:
        rates = [[None, *st["rates"][k]] for k in ("p_l2", "u_div", "u_l2")]
        lines += [",".join([str(st["r"]), str(n),
                            *(f"{st['errors'][k][i]:.6e}" for k in NORM_KEYS),
                            *("" if v[i] is None else f"{v[i]:.6f}" for v in rates)])
                  for i, n in enumerate(st["n_values"])]
    return lines


def converge_n_values(r):
    """The n of a converge study at degree r when --n is not given."""
    return [4, 8, 16, 32] if r <= 2 else [4, 8, 16]


def cmd_converge(cfg):
    studies = []
    for r in cfg.r_values:
        n_values = cfg.n_values or converge_n_values(r)
        meshes = [generate(cfg.family, n) for n in n_values]
        studies.append({"r": r, "family": cfg.family, "n_values": n_values,
                        **convergence_study(meshes, r, SINE)})
    if cfg.plot_data:
        _write_plot_data(cfg, studies)
    _emit(cfg, {"studies": studies}, _converge_csv(studies))
    return 0


def _table_csv(table):
    """CSV lines of a table, header first: floats to 6 decimals."""
    return [",".join(table["header"])] + [
        ",".join(f"{x:.6f}" if isinstance(x, float) else str(x) for x in row)
        for row in table["rows"]]


def cmd_tables(cfg):
    table = reproduce_table(cfg.which, n_values=cfg.n_values,
                            r_values=cfg.r_values, threshold=cfg.threshold,
                            jobs=cfg.jobs)
    _emit(cfg, table, _table_csv(table))
    return 0


COMMANDS = {
    "mesh": cmd_mesh,
    "infsup": cmd_case,
    "spectrum": cmd_spectrum,
    "coercivity": cmd_case,
    "laplace-eig": cmd_case,
    "stokes-infsup": cmd_case,
    "converge": cmd_converge,
    "tables": cmd_tables,
}


def main(argv=None):
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
        check_outputs(cfg)
    except UsageError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[cfg.command](cfg)
    except MixedStabError as exc:
        print(f"{PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # a path that cannot be read or written
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
