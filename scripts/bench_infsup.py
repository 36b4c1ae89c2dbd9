#!/usr/bin/env python3
"""Time the Brezzi and Stokes inf-sup constants of a source tree on a
fixed case grid.

    python scripts/bench_infsup.py --src src --out BENCH.json

Every case runs REPEATS times, each in a fresh Python process with --src
first on its path.  The process assembles the forms, times the first
read of ``Case(forms).beta_div_reduced`` (the count of dimN, the A_div
check and the slice of mu) and reports its own peak RSS and the sparse
factorizations it made.  It then times the first read of
``Case.beta_h1_reduced`` (the A_1 check, the count at tau h^2 and the
slice of (K, A_1)) and reports the peak RSS after it and its
factorizations, as the ``stokes_`` fields; ``beta_h1`` would read 0.0
with no slice on a case with spurious modes (unionjack).  The entry
keeps the sizes, the median wall times and peak RSS and the single
runs.  The child reads ``stability.Case``,
so it times only sources that have it; the runs of older sources are
kept in BENCH_13.json.  The run (with the
source's git commit, the BLAS library and the core count) is appended to
the "runs" list of --out, so one file holds the before and after runs of
a change.  On a source that still forms the dense nQ x nQ Schur
complement, the cases past the first seven (nQ 6,144 to 55,296) would
need 0.3 GB to 24 GB for it alone; time such a source with its own copy
of this script, which stops at the first seven.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

# (family, r, n): diagonal and unionjack at each degree, one larger case,
# then the cases only spectrum slicing reaches, up to the longer tables'
# range (nQ 24,576 to 55,296)
CASES = [
    ("diagonal", 1, 16), ("unionjack", 1, 16),
    ("diagonal", 2, 14), ("unionjack", 2, 14),
    ("diagonal", 3, 12), ("unionjack", 3, 12),
    ("diagonal", 2, 24),
    ("diagonal", 2, 32), ("unionjack", 2, 32),
    ("diagonal", 2, 48), ("unionjack", 2, 48),
    ("diagonal", 3, 32),
    ("diagonal", 2, 64), ("diagonal", 2, 96), ("diagonal", 3, 48),
]
REPEATS = 3

CHILD = """
import json, resource, sys, time
from mixedstab.assembly import assemble, build_spaces
from mixedstab.mesh import generate
from mixedstab.stability import Case
family, r, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
# assemble and build_spaces, which every source tree has, so that one
# script times the trees before and after a change
forms = assemble(*build_spaces(generate(family, n), r))
case = Case(forms)
t0 = time.perf_counter()
beta_reduced = case.beta_div_reduced
wall = time.perf_counter() - t0
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
t0 = time.perf_counter()
beta_h1_reduced = case.beta_h1_reduced
stokes_wall = time.perf_counter() - t0
print(json.dumps({"nV": forms.V_h.ndofs, "nQ": forms.Q_h.ndofs,
                  "nnz": int(forms.A_div.nnz + 2 * forms.B.nnz),
                  "dimN": case.dimN, "beta_reduced": beta_reduced,
                  "factorizations": case.factorizations,
                  "wall_s": wall, "peak_rss_mb": peak_rss_mb,
                  "beta_h1_reduced": beta_h1_reduced,
                  "stokes_factorizations": case.stokes_factorizations,
                  "stokes_wall_s": stokes_wall,
                  "stokes_peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_once(src, family, r, n):
    """One fresh process: sizes, inf-sup wall times and peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    proc = subprocess.run([sys.executable, "-c", CHILD, family, str(r), str(n)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def measure(src, family, r, n, repeats=REPEATS):
    runs = [run_once(src, family, r, n) for _ in range(repeats)]
    entry = {"family": family, "r": r, "n": n}
    for key in ("nV", "nQ", "nnz", "dimN", "beta_reduced", "factorizations",
                "beta_h1_reduced", "stokes_factorizations"):
        entry[key] = runs[0][key]
    for prefix in ("", "stokes_"):
        walls = [run[prefix + "wall_s"] for run in runs]
        entry[prefix + "wall_s"] = statistics.median(walls)
        entry[prefix + "peak_rss_mb"] = statistics.median(
            run[prefix + "peak_rss_mb"] for run in runs)
        entry[prefix + "wall_s_runs"] = walls
    return entry


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
    ap.add_argument("--src", required=True,
                    help="directory holding the mixedstab package")
    ap.add_argument("--out", required=True,
                    help="JSON file; the run is appended to its 'runs' list")
    args = ap.parse_args()

    cases = []
    for family, r, n in CASES:
        entry = measure(args.src, family, r, n)
        print(f"{family:10s} r={r} n={n:2d} nQ={entry['nQ']:5d} "
              f"wall {entry['wall_s']:.3f} s  rss {entry['peak_rss_mb']:.0f} MB  "
              f"stokes {entry['stokes_wall_s']:.3f} s "
              f"({entry['stokes_factorizations']} LU)  "
              f"rss {entry['stokes_peak_rss_mb']:.0f} MB", flush=True)
        cases.append(entry)

    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {"runs": []}
    record["runs"].append({"commit": source_commit(args.src),
                           "blas": blas_library(), "nproc": os.cpu_count(),
                           "repeats": REPEATS, "cases": cases})
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
