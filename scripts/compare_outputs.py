#!/usr/bin/env python3
"""Compare the command outputs of this tree with those of another tree.

Usage: python scripts/compare_outputs.py --ref DIR

DIR is the root of another checkout of the repository, such as a
`git worktree` or an unpacked `git archive` of the parent commit.  Each
command line of COMMANDS runs in a fresh process, first with PYTHONPATH
set to this tree's src, then to DIR's src, each tree in its own scratch
working directory.  Their stdout, stderr and exit code are compared, and
one line is printed per command.  When the two stdouts differ and both
parse as JSON, the DIFF line also gives the largest relative difference
of the floats at one path on both sides, and names each path that lies
on one side only or holds different non-floats (``json_difference``).  Right after the ``mesh`` command, each
working directory gets two variants of the mesh it wrote
(``write_variants``): one with every cell triple rotated and one with its
first cell clockwise; the commands after it read them.  After the last
command the two working directories, which hold every file the commands
wrote, are compared by file set and by bytes, with one DIFF line per file
that differs or lies in one directory only.  The exit code is 1 when any
command or file differs, else 0.  Standard library only, so it runs
against trees whose package no longer imports.
"""
import argparse
import filecmp
import json
import math
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
    # tables off their defaults: repeated and unsorted n and r, degrees past
    # T1's, another threshold, workers, a lower-case name
    ["tables", "--which", "T1", "--n", "4", "--r", "1,1", "--format", "csv"],
    ["tables", "--which", "T1", "--n", "4", "--r", "4,5,6", "--format", "json"],
    ["tables", "--which", "T2", "--n", "6,4", "--format", "csv"],
    ["tables", "--which", "T2", "--n", "4,4", "--jobs", "2", "--format", "json"],
    ["tables", "--which", "T3", "--n", "4..8", "--threshold", "1e-6",
     "--format", "csv"],
    ["tables", "--which", "t4", "--n", "4,6", "--jobs", "2", "--format", "json"],
    ["converge", "--r", "1,2,3,4", "--format", "csv"],
    ["converge", "--r", "1,2,3,4", "--format", "json"],
    ["converge", "--r", "5,6", "--n", "4,8"],
    ["converge", "--family", "crisscross", "--r", "1,2", "--n", "4,8"],
    ["converge", "--family", "unionjack", "--r", "2,3", "--n", "4,8"],
    # no halving of the largest edge, so every rate is empty
    ["converge", "--r", "1", "--n", "8,4"],
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
    # the same mesh relabelled: every cell lists its vertices in another
    # order
    *[[*command, "--mesh", "cc4_rotated.mesh", "--r", str(r)]
      for command in (FULL_INFSUP, ["laplace-eig"]) for r in (2, 3)],
    # refusals: a degree past the largest and a degree on a table that fixes
    # it (exit 2), a threshold above every eigenvalue, also in a worker, and
    # a clockwise cell (exit 1)
    ["infsup", "--family", "diagonal", "--n", "4", "--r", "7"],
    ["tables", "--which", "T2", "--r", "2"],
    [*FULL_INFSUP, "--family", "diagonal", "--n", "4", "--threshold", "1.5"],
    ["tables", "--which", "T1", "--n", "4", "--r", "1", "--threshold",
     "0.999999", "--jobs", "2"],
    ["infsup", "--mesh", "cc4_clockwise.mesh", "--r", "1"],
]


def write_variants(workdir):
    """Write cc4_rotated.mesh, with every cell triple of crisscross_n4.mesh
    rotated (a b c -> b c a), and cc4_clockwise.mesh, with its first cell
    reversed, into ``workdir``."""
    lines = (Path(workdir) / "crisscross_n4.mesh").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("cells")) + 1
    cells = [line.split() for line in lines[start:]]
    variants = {"cc4_rotated.mesh": [c[1:] + c[:1] for c in cells],
                "cc4_clockwise.mesh": [cells[0][::-1], *cells[1:]]}
    for name, body in variants.items():
        text = "\n".join(lines[:start] + [" ".join(c) for c in body]) + "\n"
        (Path(workdir) / name).write_text(text)


def run(tree, workdir, argv):
    """(stdout, stderr, exit code) of ``mixed-stab argv`` on ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "mixedstab.cli", *argv],
                          cwd=workdir, env=env, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def leaves(value, path=""):
    """(path, value) of every scalar of a parsed JSON document, with paths
    such as ``rows[2][1]`` and ``diagnostics.factorizations``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def json_difference(ours, theirs):
    """How two JSON texts differ, as one line: the largest relative
    difference of the floats at one path on both sides (and its path),
    then the paths on one side only and those that hold different
    non-floats (or a non-finite float), five of each at most.  None unless
    both texts parse as JSON."""
    try:
        ours, theirs = dict(leaves(json.loads(ours))), dict(leaves(json.loads(theirs)))
    except ValueError:
        return None
    worst, where, changed = 0.0, None, []
    for path in ours.keys() & theirs.keys():
        a, b = ours[path], theirs[path]
        if (type(a) is float and type(b) is float and math.isfinite(a)
                and math.isfinite(b)):
            rel = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            if rel > worst:
                worst, where = rel, path
        elif a != b and not (a != a and b != b):   # NaN matches NaN
            changed.append(path)
    parts = [f"floats within {worst:.1e}" + (f" ({where})" if where else "")]
    for name, paths in (("here only", ours.keys() - theirs.keys()),
                        ("ref only", theirs.keys() - ours.keys()),
                        ("changed", changed)):
        if paths:
            paths = sorted(paths)
            more = f" and {len(paths) - 5} more" if len(paths) > 5 else ""
            parts.append(f"{name}: {', '.join(paths[:5])}{more}")
    return "; ".join(parts)


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
            line = f"{status:<12} {' '.join(argv)}"
            if "stdout" in parts:
                detail = json_difference(ours[0], theirs[0])
                line += f"  [json: {detail}]" if detail else ""
            print(line, flush=True)
            if argv[0] == "mesh":
                write_variants(here)
                write_variants(there)
        files = differing_files(here, there)
    for path in files:
        print(f"DIFF (file)  {path}")
    print(f"{differ} of {len(COMMANDS)} commands differ, "
          f"{len(files)} written files differ")
    return 1 if differ or files else 0


if __name__ == "__main__":
    sys.exit(main())
