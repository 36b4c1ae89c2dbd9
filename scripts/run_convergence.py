#!/usr/bin/env python3
"""Convergence study of the source problem for r = 1..4 on diagonal meshes.

Writes results/convergence.csv plus normalized-error panel files
(results/normalized_*.dat) ready for gnuplot.  Runs
``mixed-stab converge --format csv --out ... --plot-data ...``, so the
files are byte-identical to the command's, provenance hash included.
"""
import argparse
import sys
from pathlib import Path

from mixedstab.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", default="1,2,3,4", help="comma list of degrees")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    status = cli_main(["converge", "--r", args.r, "--format", "csv",
                       "--out", str(outdir / "convergence.csv"),
                       "--plot-data", str(outdir)])
    if status == 0:
        print(f"wrote {outdir}/convergence.csv and normalized panels")
    return status


if __name__ == "__main__":
    sys.exit(main())
