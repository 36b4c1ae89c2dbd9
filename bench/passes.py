"""One pass of a workload in a fresh process.

    python3 bench/passes.py --workload NAME --inputs DIR [--tiny] [--spans FILE]

Runs the workload's commands serially through ``mixedstab.cli.main`` in
this process, checks each output, and prints one JSON line: the pass's
wall time (the sum over its commands; checking is outside it), peak RSS,
the number of commands attempted and failed, and the run record.  With
``--spans`` the pass is traced: the spans go to FILE and the per-layer
metrics join the JSON line.  mixedstab is imported from ``src/`` of the
checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def blas_record():
    """The OpenBLAS builds bundled with numpy and scipy, with their thread counts."""
    import numpy
    import scipy

    libs = {}
    for package in (numpy, scipy):
        bundled = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(bundled.glob("*openblas*")):
            libs[str(path)] = None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                libs[path] = fn()
                break

    def config_blas(module):
        try:
            blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{blas['name']} {blas.get('version', '')}".strip()
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {"numpy_blas": config_blas(numpy), "scipy_blas": config_blas(scipy),
            "blas_threads": {os.path.basename(p): t for p, t in libs.items()}}


def run_record():
    import numpy
    import scipy

    record = {"python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0))}
    record.update(blas_record())
    return record


def run_command(cli, command):
    """Run one command; returns (seconds, problems)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(command.argv)
    except (Exception, SystemExit):
        seconds = time.perf_counter() - start
        return seconds, [f"raised: {traceback.format_exc(limit=3)}"]
    seconds = time.perf_counter() - start
    if rc != 0:
        return seconds, [f"exit code {rc}: {err.getvalue().strip()}"]
    try:
        payload = json.loads(out.getvalue())
        return seconds, command.check(payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return seconds, [f"unreadable output ({type(exc).__name__}: {exc})"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401
    import mixedstab.cli as cli
    import_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"mixedstab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    commands, cases = workloads.commands(args.workload, args.inputs, args.tiny)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    wall, failures, per_command = 0.0, [], []
    for command in commands:
        seconds, problems = run_command(cli, command)
        wall += seconds
        per_command.append(seconds)
        if problems:
            failures.append({"argv": command.argv, "problems": problems[:10]})

    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "attempted": len(commands),
        "failed": len(failures),
        "failures": failures,
        "command_s": per_command,
        "cases": cases,
        "record": run_record(),
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = tracing.layer_metrics(tracer.spans, cases)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
