#!/usr/bin/env python3
"""Time the inf-sup constants, the assembly and the mesh generation of one
or more source trees, one record per case and tree.

    python scripts/bench_cases.py --src PARENT/src src --out BENCH.json

The cases are read from this script's own tree (``ROOT/src``), so every
source tree runs the same grid: ``tables``, the distinct (family, n, r) of
each of T1-T4 at default n in the order ``reproduce_table`` runs them;
``converge``, diagonal at ``cli.converge_n_values(r)`` for r = 1..4; and
``large``, eight cases that no workload runs, up to nQ 55,296.

Each case runs in REPEATS fresh processes per tree, with that tree first
on the path.  The processes of one case alternate between the trees, the
first tree turning each repeat, so that the trees of a pair are timed
under the same machine load.  A process generates and assembles once,
times the first read of ``Case.beta_div_reduced`` and then of
``Case.beta_h1_reduced`` (the ``stokes_`` fields), each with its
factorizations and the peak RSS after it.  Only then, to keep them out of
the RSS, it takes the median of TIMINGS calls of ``generate`` and of
``assemble``, the tracemalloc peak of one more ``assemble``, and the same
two of the first read of ``forms.A_1`` on forms assembled untraced and
untimed (``h1_s`` and ``h1_tracemalloc_peak_mb``: the H1 norm that only
the Stokes fields read is built on that read).  ``assemble_s`` and
``tracemalloc_peak_mb`` cover the four stored forms and not A_div, which
is summed on its first read.  nnz counts A_div plus twice B; reading it
forms A_div, after the measured constants.  nnz_K and nnz_B count the
stored entries of K and of B.  local_entries is the C*m^2 entries of a
velocity form.  An entry keeps the first process's
sizes and values, the median of each measured field and its single runs
(``<field>_runs``).  One run per tree (its git commit, BLAS, cores, repeat
counts, per-group totals) is appended, in --src order, to the "runs" list
of --out.
"""
import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from mixedstab import stability  # noqa: E402
from mixedstab.cli import converge_n_values  # noqa: E402


def table_cases():
    """The distinct (family, n, r) of each table, in the order its run makes
    them: row by row, each row's cells left to right."""
    cases = []
    for families, n_values, degrees, columns in stability.TABLES.values():
        table = {}
        for family, n, r in itertools.product(families, n_values, degrees):
            table.update(dict.fromkeys(((col_family or family).value, n, r)
                                       for _, col_family, _ in columns))
        cases += table
    return cases


GRID = {
    "tables": table_cases(),
    "converge": [("diagonal", n, r) for r in (1, 2, 3, 4)
                 for n in converge_n_values(r)],
    "large": [("diagonal", 24, 2), ("unionjack", 32, 2), ("diagonal", 48, 2),
              ("unionjack", 48, 2), ("diagonal", 32, 3), ("diagonal", 64, 2),
              ("diagonal", 96, 2), ("diagonal", 48, 3)],
}
REPEATS = 3   # fresh processes per case
TIMINGS = 7   # generate and assemble calls per process
EXACT = ("nV", "nQ", "nnz", "nnz_K", "nnz_B", "local_entries", "dimN",
         "beta_reduced", "factorizations", "beta_h1_reduced",
         "stokes_factorizations")
MEASURED = ("wall_s", "peak_rss_mb", "stokes_wall_s", "stokes_peak_rss_mb",
            "assemble_s", "generate_s", "tracemalloc_peak_mb", "h1_s",
            "h1_tracemalloc_peak_mb")

CHILD = """
import json, resource, statistics, sys, time, tracemalloc
from mixedstab.assembly import assemble
from mixedstab.mesh import generate
from mixedstab.stability import Case
family, n, r, timings = sys.argv[1], *map(int, sys.argv[2:])

def timed(read):
    t0 = time.perf_counter()
    value = read()
    return value, time.perf_counter() - t0

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

forms = assemble(generate(family, n), r)
case = Case(forms)
out = {}
out["beta_reduced"], out["wall_s"] = timed(lambda: case.beta_div_reduced)
out["factorizations"], out["peak_rss_mb"] = case.factorizations, rss_mb()
out["beta_h1_reduced"], out["stokes_wall_s"] = timed(lambda: case.beta_h1_reduced)
out["stokes_factorizations"], out["stokes_peak_rss_mb"] = (
    case.stokes_factorizations, rss_mb())
C, m = forms.V_h.cell_dofs.shape
out.update(nV=forms.V_h.ndofs, nQ=forms.Q_h.ndofs, dimN=case.dimN,
           nnz=int(forms.A_div.nnz + 2 * forms.B.nnz), nnz_K=forms.K.nnz,
           nnz_B=forms.B.nnz, local_entries=C * m * m)
del case, forms
out["generate_s"] = statistics.median(
    timed(lambda: generate(family, n))[1] for _ in range(timings))
mesh = generate(family, n)
out["assemble_s"] = statistics.median(
    timed(lambda: assemble(mesh, r))[1] for _ in range(timings))
tracemalloc.start()
assemble(mesh, r)
out["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()

def first_h1_read(traced=False):
    forms = assemble(mesh, r)
    if traced:
        tracemalloc.start()
    return timed(lambda: forms.A_1)[1]

out["h1_s"] = statistics.median(first_h1_read() for _ in range(timings))
first_h1_read(traced=True)
out["h1_tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
print(json.dumps(out))
"""


def run_once(src, family, n, r):
    """The fields of one fresh process on one case."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, family, str(n), str(r), str(TIMINGS)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def measure(srcs, family, n, r, repeats=REPEATS):
    """One case's entry per tree of ``srcs``, each over ``repeats`` fresh
    processes; repeat j runs the trees in turn from tree j (mod their
    number)."""
    runs = [[] for _ in srcs]
    for j in range(repeats):
        for t in range(len(srcs)):
            k = (j + t) % len(srcs)
            runs[k].append(run_once(srcs[k], family, n, r))
    return [entry(family, n, r, tree_runs) for tree_runs in runs]


def entry(family, n, r, runs):
    """The entry of one case on one tree from its processes' fields."""
    out = {"family": family, "n": n, "r": r}
    out.update((key, runs[0][key]) for key in EXACT)
    for key in MEASURED:
        out[key + "_runs"] = [run[key] for run in runs]
        out[key] = statistics.median(out[key + "_runs"])
    return out


def totals(entries):
    """Per-group sums of the timings and maxima of the memory fields."""
    out = {key: sum(e[key] for e in entries) for key in
           ("wall_s", "stokes_wall_s", "assemble_s", "generate_s", "h1_s")}
    out.update((f"max_{key}", max(e[key] for e in entries)) for key in
               ("peak_rss_mb", "stokes_peak_rss_mb", "tracemalloc_peak_mb",
                "h1_tracemalloc_peak_mb"))
    return out


def blas_library():
    deps = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return f"{deps['name']} {deps.get('version', '')}".strip()


def source_commit(src):
    proc = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", required=True, nargs="+",
                    help="directories holding the mixedstab package, one "
                         "per tree")
    ap.add_argument("--out", required=True,
                    help="JSON file; the runs are appended to its 'runs' list")
    args = ap.parse_args()

    records = [{"commit": source_commit(src), "blas": blas_library(),
                "nproc": os.cpu_count(), "repeats": REPEATS, "timings": TIMINGS}
               for src in args.src]
    for group, cases in GRID.items():
        per_tree = [[] for _ in args.src]
        for family, n, r in cases:
            for t, e in enumerate(measure(args.src, family, n, r)):
                print(f"{group:8s} {family:10s} n={n:2d} r={r} "
                      f"nQ={e['nQ']:5d} tree {t}  "
                      f"beta {e['wall_s']:.3f} s ({e['factorizations']} LU)  "
                      f"stokes {e['stokes_wall_s']:.3f} s "
                      f"({e['stokes_factorizations']} LU)  "
                      f"rss {e['stokes_peak_rss_mb']:.0f} MB  "
                      f"assemble {e['assemble_s']:.4f} s  "
                      f"A_1 {e['h1_s']:.4f} s", flush=True)
                per_tree[t].append(e)
        for record, entries in zip(records, per_tree):
            record[group] = {"totals": totals(entries), "cases": entries}

    out = Path(args.out)
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    out.write_text(json.dumps({"runs": runs + records}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
