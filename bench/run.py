"""Benchmark of mixed-stab: tables, constants and converge workloads.

    python3 bench/run.py --workload {tables,constants,converge} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; mixedstab is imported from its ``src/``.
Each pass runs the workload's CLI commands serially in a fresh process
(``passes.py``) and checks every output against ``reference.json``.
Passes repeat until ``--seconds`` is used up (at least one).

``--trace 0`` reports the end-to-end metrics of untraced passes:
``wall_s`` (median pass wall time), ``peak_rss_mb`` (median of the
passes' own peak RSS) and ``setup_s`` (median time to import
``mixedstab.cli`` with numpy and scipy in a fresh process, sampled
several times before the passes).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``, the traced minus the untraced median wall time.
Either way the report also gives ``fail_frac``, the share of commands
that raised, exited non-zero or printed a number outside its tolerance.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, the run
record and the raw pass results are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import numpy, scipy.linalg, scipy.sparse, mixedstab.cli\n"
    "print(time.perf_counter() - start)\n")


def median_quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def child_env():
    env = dict(os.environ)
    # the threshold default must not come from the caller's environment
    env.pop("MIXEDSTAB_THRESHOLD", None)
    return env


def run_pass(args, inputs, deadline, spans=None):
    """Run one pass in a fresh process; returns (result, problem).

    ``result`` is the pass's JSON result, or None when the pass crashed or
    ran past the deadline; ``problem`` then says which.
    """
    cmd = [sys.executable, str(BENCH / "passes.py"), "--workload", args.workload,
           "--inputs", str(inputs)]
    if args.tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return None, "pass ran past the deadline"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), None
    except ValueError as exc:
        return None, f"pass printed no result: {exc}"


def setup_samples(count):
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(args, inputs, out_dir, n_commands, deadline):
    """Run passes (untraced, or untraced then traced) until time is up.

    Returns (plain, traced, broken, attempted, failed): the untraced and
    traced pass results, the problems of crashed passes, and the command
    counts over all passes.
    """
    plain, traced, broken = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        unit_start = time.monotonic()
        for is_traced in ([False, True] if args.trace else [False]):
            spans = out_dir / f"spans-{len(traced)}.jsonl" if is_traced else None
            result, problem = run_pass(args, inputs, deadline, spans)
            if result is None:
                # a crashed pass fails every one of its commands
                broken.append(problem)
                attempted += n_commands
                failed += n_commands
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            (traced if is_traced else plain).append(result)
        now = time.monotonic()
        unit = now - unit_start
        if broken or now - start + unit > args.seconds or now + 1.5 * unit > deadline:
            return plain, traced, broken, attempted, failed


def load_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one tiny case per workload (the smoke test)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "mixedstab" / "cli.py").is_file():
        print(f"no mixedstab sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_names()

    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    inputs = out_dir / "inputs"
    workloads.write_inputs(args.workload, args.seed, inputs, args.tiny)
    commands, _ = workloads.commands(args.workload, inputs, args.tiny)
    setup = setup_samples(SETUP_SAMPLES)

    plain, traced, broken, attempted, failed = measure(
        args, inputs, out_dir, len(commands), deadline)

    report = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
              "seed_reaches_inputs": args.workload == "constants",
              "setup_samples": setup, "passes": plain, "traced_passes": traced,
              "broken_passes": broken}
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    lines = [f"workload {args.workload}  seed {args.seed}"
             f"{' (seed unused: generated meshes)' if args.workload != 'constants' else ''}"
             f"  passes {len(plain)} untraced, {len(traced)} traced"]
    metrics = {}
    if plain:
        walls = [p["wall_s"] for p in plain]
        wall, q1, q3 = median_quartiles(walls)
        e2e = {"wall_s": wall,
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
               "setup_s": statistics.median(setup)}
        lines.append(f"wall_s       {wall:.4f} s  (median of {len(walls)} passes, "
                     f"quartiles {q1:.4f} .. {q3:.4f})")
        lines.append(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB  (own process, median)")
        lines.append(f"setup_s      {e2e['setup_s']:.4f} s  (median of {len(setup)} "
                     "fresh-process imports)")
        record = plain[0]["record"]
        lines.append("record       " + ", ".join(f"{k} {v}" for k, v in record.items()))
        report["end_to_end"] = e2e
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in e2e_units.items()}
    lines.append(f"fail_frac    {failed}/{attempted} = "
                 f"{failed / attempted if attempted else 1.0:.4f}")
    for problem in broken:
        lines.append(f"FAILED       {problem}")
    for failure in (f for p in plain + traced for f in p["failures"]):
        lines.append(f"FAILED       {' '.join(failure['argv'])}: "
                     + "; ".join(failure["problems"]))
    if traced and plain:
        layers = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        layers["trace.spans"] = statistics.median(t["spans"] for t in traced)
        report["per_layer"] = layers
        lines.append("per layer    (self times, medians of traced passes; counts "
                     "summed over a pass; dense_flops and dense_bytes computed from "
                     "sizes with standard LAPACK counts)")
        for name, unit in layer_units.items():
            lines.append(f"  {name:36s} {layers[name]:.6g} {unit}")
        lines.append(f"spans        {out_dir}/spans-*.jsonl")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_units.items()}
    (out_dir / "record.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
