#!/usr/bin/env python3
"""Recompute the golden stability tables into results/.

Usage: python scripts/run_tables.py [T1 T2 ...] [--jobs N] [--outdir DIR]
Defaults to all four tables at their standard n ranges.  Each table is
written by ``mixed-stab tables --which T --format csv --out ...``, so the
files are byte-identical to the command's.
"""
import argparse
import sys
import time
from pathlib import Path

from mixedstab.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("tables", nargs="*", default=["T1", "T2", "T3", "T4"],
                    help="which tables (default: all)")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for which in args.tables:
        t0 = time.time()
        path = outdir / f"{which.lower()}.csv"
        status = cli_main(["tables", "--which", which, "--jobs", str(args.jobs),
                           "--format", "csv", "--out", str(path)])
        if status != 0:
            return status
        print(f"{which}: {path} ({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
