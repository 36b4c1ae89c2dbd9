#!/usr/bin/env python3
"""Time and trace ``assembly.assemble`` of a source tree on the benchmark's meshes.

    python scripts/bench_assembly.py --src src --out BENCH.json

The cases are the 117 of ``tables`` T1-T4 at their default n and the 14
meshes of ``converge --r 1,2,3,4`` (diagonal).  One fresh Python process,
with --src first on its path, runs every case: it generates the mesh
(timed), builds the spaces, times REPEATS calls of ``assemble`` and then
one more under tracemalloc.  Each entry keeps nV, nQ, nnz (A_div plus
twice B, as the benchmark tracer counts it), the local entry count C*m^2
of the velocity forms (m = 2 * scalar basis size), the median assembly
and generation times and the tracemalloc peak of ``assemble``.  The run,
with per-workload totals, the source's git commit, the BLAS library and
the core count, is appended to the "runs" list of --out, so one file
holds the before and after runs of a change.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_infsup import blas_library, source_commit

FAMILIES = ("diagonal", "zigzag", "flipped", "crisscross", "unionjack")
T2_T4 = ("diagonal", "zigzag", "flipped", "unionjack")
TABLES = ([(f, n, r) for f in FAMILIES for n in (4, 6, 8) for r in (1, 2, 3)]
          + [(f, n, 1) for n in range(4, 17, 2) for f in T2_T4]
          + [(f, n, 2) for n in range(4, 15, 2) for f in T2_T4]
          + [(f, n, 3) for n in range(4, 13, 2) for f in T2_T4])
CONVERGE = [("diagonal", n, r) for r in (1, 2, 3, 4)
            for n in ((4, 8, 16, 32) if r <= 2 else (4, 8, 16))]
REPEATS = 7

CHILD = """
import json, statistics, sys, time, tracemalloc
from mixedstab.assembly import assemble, build_spaces
from mixedstab.mesh import generate
out = []
for family, n, r in json.loads(sys.argv[1]):
    gen = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        mesh = generate(family, n)
        gen.append(time.perf_counter() - t0)
    v_h, q_h = build_spaces(mesh, r)
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        forms = assemble(v_h, q_h)
        walls.append(time.perf_counter() - t0)
        del forms
    tracemalloc.start()
    forms = assemble(v_h, q_h)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    C, m = v_h.cell_dofs.shape
    out.append({"family": family, "n": n, "r": r,
                "nV": v_h.ndofs, "nQ": q_h.ndofs,
                "nnz": int(forms.A_div.nnz + 2 * forms.B.nnz),
                "local_entries": C * m * m,
                "assemble_s": statistics.median(walls),
                "generate_s": statistics.median(gen),
                "tracemalloc_peak_mb": peak / 2**20})
    del forms
print(json.dumps(out))
""".replace("REPEATS", str(REPEATS))


def run(src, cases):
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(cases)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", required=True,
                    help="directory holding the mixedstab package")
    ap.add_argument("--out", required=True,
                    help="JSON file; the run is appended to its 'runs' list")
    args = ap.parse_args()

    record = {"commit": source_commit(args.src), "blas": blas_library(),
              "nproc": os.cpu_count(), "repeats": REPEATS}
    for name, cases in (("tables", TABLES), ("converge", CONVERGE)):
        entries = run(args.src, cases)
        totals = {key: sum(e[key] for e in entries)
                  for key in ("assemble_s", "generate_s")}
        totals["max_tracemalloc_peak_mb"] = max(e["tracemalloc_peak_mb"]
                                                for e in entries)
        print(f"{name:8s} {len(entries)} cases: assemble {totals['assemble_s']:.3f} s, "
              f"generate {totals['generate_s']:.3f} s, tracemalloc peak "
              f"{totals['max_tracemalloc_peak_mb']:.1f} MB", flush=True)
        record[name] = {"totals": totals, "cases": entries}

    out = Path(args.out)
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    out.write_text(json.dumps({"runs": runs + [record]}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
