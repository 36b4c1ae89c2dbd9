#!/usr/bin/env python3
"""How the zero threshold changes the reported spurious-mode count.

Runs the sweep on meshes with known spurious modes and prints one block
per case; optionally writes results/threshold_sweep.csv.
"""
import argparse
import sys
from pathlib import Path

from mixedstab import Family
from mixedstab.stability import brezzi_infsup, case_forms, threshold_sweep

CASES = [
    (Family.FLIPPED, 8, 1),
    (Family.CRISSCROSS, 4, 1),
    (Family.UNIONJACK, 6, 1),
    (Family.UNIONJACK, 6, 2),
]
THRESHOLDS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=None,
                    help="also write a CSV under this directory")
    args = ap.parse_args()

    rows = []
    for family, n, r in CASES:
        infsup = brezzi_infsup(case_forms(family, n, r))
        print(f"--- {family.value} n={n} r={r} ---")
        for thr, dim, beta_reduced in threshold_sweep(infsup, THRESHOLDS):
            print(f"  threshold {thr:8.0e}: dimN={dim:3d} "
                  f"beta_reduced={beta_reduced:.6f}")
            rows.append(f"{family.value},{n},{r},{thr:g},{dim},{beta_reduced:.6f}")

    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        text = "family,n,r,threshold,dimN,beta_reduced\n" + "\n".join(rows) + "\n"
        (outdir / "threshold_sweep.csv").write_text(text)
        print(f"wrote {outdir}/threshold_sweep.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
