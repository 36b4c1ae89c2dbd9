#!/usr/bin/env python3
"""Compare the command outputs of this tree with those of another tree.

Usage: python scripts/compare_outputs.py --ref DIR

DIR is the root of another checkout of the repository, such as a
`git worktree` or an unpacked `git archive` of the parent commit.  Each
command line of COMMANDS runs in a fresh process, first with PYTHONPATH
set to this tree's src, then to DIR's src, each tree in its own scratch
working directory.  Their stdout, stderr and exit code are compared, and
one line is printed per command.  After the last command the two working
directories, which hold every file the commands wrote, are compared by
file set and by bytes, with one DIFF line per file that differs or lies
in one directory only.  The exit code is 1 when any command or file
differs, else 0.  Standard library only, so it runs against trees whose
package no longer imports.
"""
import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("diagonal", "zigzag", "flipped", "crisscross", "unionjack")
PENCILS = ("infsup", "laplace", "divdiv", "babuska", "stokes")
FULL_INFSUP = ["infsup", "--with-alpha", "--with-gamma", "--with-stokes",
               "--sweep"]

COMMANDS = [
    # written first: the imported golden case reads it by a relative path
    ["mesh", "--family", "crisscross", "--n", "4",
     "--out", "crisscross_n4.mesh"],
    *[["tables", "--which", f"T{t}", "--format", fmt]
      for t in (1, 2, 3, 4) for fmt in ("csv", "json")],
    ["converge", "--r", "1,2,3,4", "--format", "csv"],
    ["converge", "--r", "1,2,3,4", "--format", "json"],
    ["converge", "--r", "5,6", "--n", "4,8"],
    ["converge", "--family", "crisscross", "--r", "1,2", "--n", "4,8"],
    ["converge", "--family", "unionjack", "--r", "2,3", "--n", "4,8"],
    # the golden cases of tests/test_cli.py
    [*FULL_INFSUP, "--family", "unionjack", "--n", "4", "--r", "1",
     "--format", "csv"],
    [*FULL_INFSUP, "--mesh", "crisscross_n4.mesh", "--r", "1",
     "--format", "csv"],
    ["stokes-infsup", "--family", "diagonal", "--n", "4", "--r", "2",
     "--format", "csv"],
    ["coercivity", "--family", "diagonal", "--n", "4", "--r", "2",
     "--format", "csv"],
    ["converge", "--r", "1,3", "--n", "4,8,12", "--format", "csv"],
    *[[*command, "--family", family, "--n", "8", "--r", str(r)]
      for command in (FULL_INFSUP, ["laplace-eig"])
      for family in FAMILIES for r in (1, 2, 3)],
    *[["spectrum", "--family", "diagonal", "--n", "4", "--r", "1",
       "--pencil", pencil] for pencil in PENCILS],
    # commands whose files are compared along with their output
    *[["infsup", "--family", "crisscross", "--n", "4", "--r", str(r),
       "--dump-matrices", f"mtx_r{r}"] for r in range(1, 7)],
    ["converge", "--r", "1,2", "--n", "4,8", "--plot-data", "panels"],
]


def run(tree, workdir, argv):
    """(stdout, stderr, exit code) of ``mixed-stab argv`` on ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "mixedstab.cli", *argv],
                          cwd=workdir, env=env, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def differing_files(here, there):
    """Relative paths of the files under ``here`` and ``there`` that differ
    in content or exist under one of them only, sorted."""
    def files(root):
        return {p.relative_to(root) for p in Path(root).rglob("*") if p.is_file()}

    ours, theirs = files(here), files(there)
    both = sorted(ours & theirs)
    _, mismatch, errors = filecmp.cmpfiles(here, there, both, shallow=False)
    return sorted({*map(Path, mismatch + errors), *(ours ^ theirs)})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref", required=True, type=Path,
                    help="root of the tree to compare against")
    args = ap.parse_args()
    ref = args.ref.resolve()
    if not (ref / "src" / "mixedstab").is_dir():
        ap.error(f"{ref} holds no src/mixedstab")

    differ = 0
    with tempfile.TemporaryDirectory() as here, \
            tempfile.TemporaryDirectory() as there:
        for argv in COMMANDS:
            ours, theirs = run(ROOT, here, argv), run(ref, there, argv)
            parts = [name for name, a, b in zip(("stdout", "stderr", "exit"),
                                                ours, theirs) if a != b]
            differ += bool(parts)
            status = f"DIFF ({', '.join(parts)})" if parts else "same"
            print(f"{status:<12} {' '.join(argv)}", flush=True)
        files = differing_files(here, there)
    for path in files:
        print(f"DIFF (file)  {path}")
    print(f"{differ} of {len(COMMANDS)} commands differ, "
          f"{len(files)} written files differ")
    return 1 if differ or files else 0


if __name__ == "__main__":
    sys.exit(main())
