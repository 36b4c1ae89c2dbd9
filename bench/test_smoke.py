"""Smoke test of the benchmark: one tiny case per workload, untraced and traced.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

# the per-layer metrics the benchmark promises, whatever BENCHMARK.json lists
NAMED_LAYER_METRICS = [
    "mesh.generate_s", "mesh.singular_vertices_s", "mesh.import_s",
    "element.tabulate_s", "element.tabulate_calls",
    "assembly.assemble_s", "assembly.build_spaces_s", "assembly.nV",
    "assembly.nQ", "assembly.nnz", "assembly.cell_geometry_calls",
    "assembly.pressure_mass_solve_calls",
    "eigensolve.schur_s", "eigensolve.schur_calls", "eigensolve.eig_s",
    "eigensolve.eig_calls", "eigensolve.eig_dim", "eigensolve.dense_flops",
    "eigensolve.dense_bytes",
    "stability.infsup_s", "stability.coercivity_s", "stability.babuska_s",
    "stability.stokes_s", "stability.laplace_s", "stability.sweep_s",
    "stability.classify_s", "stability.eigsolves_per_case",
    "poisson.solve_s", "poisson.error_norms_s", "poisson.interpolate_s",
    "poisson.dense_solves", "poisson.cg_solves", "poisson.cg_iterations",
    "cli.self_s", "trace.overhead_s",
]
NAMED_E2E_METRICS = ["wall_s", "peak_rss_mb", "setup_s"]


def run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_lists_the_named_metrics():
    assert set(NAMED_LAYER_METRICS) <= {m["name"] for m in SPEC["per_layer"]}
    assert set(NAMED_E2E_METRICS) <= {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_emits_end_to_end_metrics(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_emits_layer_metrics_and_nested_spans(workload):
    metrics = result_of(run(workload, 1))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name, metric in metrics.items():
        if name != "trace.overhead_s":
            assert metric["value"] >= 0, name
    assert metrics["cli.self_s"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0
    if workload == "converge":
        assert metrics["poisson.dense_solves"]["value"] == 2
        assert metrics["eigensolve.eig_calls"]["value"] == 0
    else:
        assert metrics["assembly.nV"]["value"] > metrics["assembly.nQ"]["value"] > 0
        assert metrics["eigensolve.dense_flops"]["value"] > 0

    spans_file = BENCH / "out" / f"{workload}-seed{SEED}-tiny" / "spans-0.jsonl"
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(s["name"] == "cli.main" for s in roots)
    for s in spans:
        own = (s["end"] - s["start"]) - covered[s["id"]]
        assert own >= -1e-9, s
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert own <= parent["end"] - parent["start"] + 1e-9, s
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"], s


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("tables", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
