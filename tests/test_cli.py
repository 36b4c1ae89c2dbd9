import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedstab.cli import (RunConfig, build_parser, main, parse_n_values,
                           resolve_threshold, THRESHOLD_ENV)
from mixedstab.mesh import Family
from mixedstab.stability import case_forms

from oracles import (babuska_pencil_eigenvalues, divdiv_pencil_eigenvalues,
                     laplace_pencil_eigenvalues)

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


# --- config plumbing ---------------------------------------------------

config_strategy = st.builds(
    RunConfig,
    command=st.sampled_from(["infsup", "tables", "converge"]),
    family=st.none() | st.sampled_from(["diagonal", "unionjack"]),
    n=st.none() | st.integers(4, 16),
    r=st.integers(1, 4),
    threshold=st.sampled_from([1e-3, 1e-4, 1e-6]),
    fmt=st.sampled_from(["json", "csv"]),
    with_gamma=st.booleans(),
    sweep=st.none() | st.just([1e-3, 1e-5]),
    jobs=st.integers(1, 4),
)


@given(config_strategy)
@settings(max_examples=40, deadline=None)
def test_config_round_trips_through_json(cfg):
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        RunConfig.from_json('{"command": "infsup", "bogus": 1}')


def test_config_hash_ignores_output_location():
    a = RunConfig(command="tables", which="T2", out="x.csv", jobs=1)
    b = RunConfig(command="tables", which="T2", out="y.csv", jobs=8)
    c = RunConfig(command="tables", which="T3", out="x.csv", jobs=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 12


def test_parse_n_values():
    assert parse_n_values("8") == [8]
    assert parse_n_values("4..10") == [4, 6, 8, 10]
    assert parse_n_values("4,8,16") == [4, 8, 16]
    with pytest.raises(ValueError):
        parse_n_values("ten")
    with pytest.raises(ValueError):
        parse_n_values("8..4")


def test_threshold_resolution(monkeypatch):
    parser = build_parser()
    args = parser.parse_args(["infsup", "--family", "diagonal", "--n", "4"])
    monkeypatch.delenv(THRESHOLD_ENV, raising=False)
    assert resolve_threshold(args) == 1e-4
    monkeypatch.setenv(THRESHOLD_ENV, "1e-6")
    assert resolve_threshold(args) == 1e-6
    args = parser.parse_args(["infsup", "--family", "diagonal", "--n", "4",
                              "--threshold", "1e-3"])
    assert resolve_threshold(args) == 1e-3  # flag beats environment


# --- subcommands --------------------------------------------------------

def test_mesh_round_trip_produces_same_numbers(tmp_path, capsys):
    mesh_file = tmp_path / "cc.txt"
    assert run_cli("mesh", "--family", "crisscross", "--n", "4",
                   "--out", str(mesh_file)) == 0

    out_gen = tmp_path / "generated.json"
    out_imp = tmp_path / "imported.json"
    assert run_cli("infsup", "--family", "crisscross", "--n", "4", "--r", "1",
                   "--out", str(out_gen)) == 0
    assert run_cli("infsup", "--mesh", str(mesh_file), "--r", "1",
                   "--out", str(out_imp)) == 0
    gen = json.loads(out_gen.read_text())
    imp = json.loads(out_imp.read_text())
    for key in ("sigma", "dimN", "beta_div", "beta_div_reduced", "threshold"):
        assert gen[key] == imp[key], key
    assert gen["family"] == "crisscross" and imp["family"] == "imported"


def test_mesh_to_stdout(capsys):
    assert run_cli("mesh", "--family", "diagonal", "--n", "4") == 0
    out = capsys.readouterr().out
    assert out.startswith("mesh 2 triangle\nvertices 25\n")


def test_tables_t2_golden_rows(tmp_path):
    out = tmp_path / "t2.csv"
    assert run_cli("tables", "--which", "T2", "--n", "4..6",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# mixed-stab 0.1.0 ")
    assert lines[1] == ("n,beta_diagonal,beta_zigzag,beta_flipped_reduced,"
                        "dimN_flipped,beta_unionjack_reduced,dimN_unionjack")
    assert lines[2] == "4,0.847171,0.791967,0.945496,1,0.976985,4"
    assert lines[3] == "6,0.716677,0.626865,0.945619,4,0.976271,12"


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["tables", "--which", "T1", "--n", "4", "--r", "1"]
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_jobs_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("tables", "--which", "T2", "--n", "4", "--jobs", "1",
                   "--out", str(a)) == 0
    assert run_cli("tables", "--which", "T2", "--n", "4", "--jobs", "2",
                   "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_infsup_json_payload(tmp_path):
    out = tmp_path / "uj.json"
    assert run_cli("infsup", "--family", "unionjack", "--n", "6", "--r", "1",
                   "--with-alpha", "--with-gamma", "--with-stokes",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["dimN"] == 12 and data["sigma"] == 12
    assert data["gamma"] == 0.0
    assert abs(data["alpha"] - 1.0) < 1e-9
    assert data["beta_h1_reduced"] <= data["beta_div_reduced"]
    assert data["provenance"]["tool"] == "mixed-stab"


def test_infsup_sweep_monotone(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli("infsup", "--family", "flipped", "--n", "8", "--r", "1",
                   "--sweep", "--out", str(out)) == 0
    rows = json.loads(out.read_text())["sweep"]
    dims = [row["dimN"] for row in rows]
    thresholds = [row["threshold"] for row in rows]
    assert thresholds == sorted(thresholds, reverse=True)
    assert dims == sorted(dims, reverse=True)
    assert dims[1] == 9  # (n/2 - 1)^2 at the default threshold


def test_env_threshold_changes_output(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv(THRESHOLD_ENV, "0.5")
    assert run_cli("infsup", "--family", "diagonal", "--n", "4", "--r", "1",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["threshold"] == 0.5
    monkeypatch.setenv(THRESHOLD_ENV, "not-a-float")
    assert run_cli("infsup", "--family", "diagonal", "--n", "4", "--r", "1",
                   "--out", str(out)) == 2


def test_spectrum_csv_and_dump(tmp_path):
    out = tmp_path / "spec.csv"
    mats = tmp_path / "mats"
    assert run_cli("spectrum", "--family", "diagonal", "--n", "4", "--r", "1",
                   "--format", "csv", "--dump-matrices", str(mats),
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "index,value"
    assert len(lines) == 2 + 32  # dim Q_h rows
    assert sorted(p.name for p in mats.glob("*.mtx")) == [
        "A_1.mtx", "A_div.mtx", "B.mtx", "K.mtx", "M_Q.mtx", "M_V.mtx"]


def test_spectrum_babuska_has_negative_values(tmp_path):
    out = tmp_path / "b.json"
    assert run_cli("spectrum", "--family", "diagonal", "--n", "4", "--r", "1",
                   "--pencil", "babuska", "--out", str(out)) == 0
    values = json.loads(out.read_text())["values"]
    assert min(values) < 0 < max(values)


@pytest.mark.parametrize("family", ["diagonal", "unionjack"])
def test_spectrum_derived_pencils_match_oracles(tmp_path, family):
    forms = case_forms(Family.parse(family), 4, 2)
    n_v, n_q = forms.V_h.ndofs, forms.Q_h.ndofs
    cases = {"laplace": (n_q, laplace_pencil_eigenvalues),
             "divdiv": (n_v, divdiv_pencil_eigenvalues),
             "babuska": (n_v + n_q, babuska_pencil_eigenvalues)}
    for pencil, (count, oracle) in cases.items():
        out = tmp_path / f"{pencil}.json"
        assert run_cli("spectrum", "--family", family, "--n", "4", "--r", "2",
                       "--pencil", pencil, "--out", str(out)) == 0
        data = json.loads(out.read_text())
        values = np.array(data["values"])
        assert data["count"] == count == len(values), pencil
        assert np.all(np.diff(values) >= 0), pencil
        want = oracle(forms)
        assert np.max(np.abs(values - want) / (1.0 + np.abs(want))) < 1e-8, pencil


def test_every_constant_comes_from_two_solves(tmp_path, monkeypatch):
    import mixedstab.stability as stability

    calls = []

    def counting(name):
        fn = getattr(stability, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("schur_complement", "sym_generalized_eig"):
        monkeypatch.setattr(stability, name, counting(name))
    case = ["--family", "unionjack", "--n", "4", "--r", "2",
            "--out", str(tmp_path / "o.json")]
    assert run_cli("infsup", *case, "--with-alpha", "--with-gamma",
                   "--with-stokes", "--sweep") == 0
    assert sorted(calls) == ["schur_complement"] * 2 + ["sym_generalized_eig"] * 2
    calls.clear()
    assert run_cli("laplace-eig", *case) == 0
    assert sorted(calls) == ["schur_complement", "sym_generalized_eig"]


def test_coercivity_and_laplace_commands(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli("coercivity", "--family", "zigzag", "--n", "4", "--r", "2",
                   "--out", str(out)) == 0
    assert abs(json.loads(out.read_text())["alpha"] - 1.0) < 1e-9

    assert run_cli("laplace-eig", "--family", "diagonal", "--n", "8",
                   "--r", "2", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert abs(data["mu"] - 19.7392) < 5e-3
    assert len(data["smallest_eigenvalues"]) == 5


def test_stokes_command(tmp_path):
    out = tmp_path / "s.json"
    assert run_cli("stokes-infsup", "--family", "diagonal", "--n", "4",
                   "--r", "2", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert 0 < data["beta_h1"] < 1
    assert data["constant_mode"] > 0


def test_converge_csv_and_plot_data(tmp_path):
    out = tmp_path / "conv.csv"
    panels = tmp_path / "panels"
    assert run_cli("converge", "--r", "2", "--n", "4,8",
                   "--plot-data", str(panels), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("r,n,err_p_L2")
    assert len(lines) == 4
    for name in ("normalized_p_L2.dat", "normalized_u_L2.dat",
                 "normalized_u_Hdiv.dat"):
        panel = (panels / name).read_text().splitlines()
        assert panel[2].split() == ["4", "1.000000e+00"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-1e-4", "0"])
def test_bad_thresholds_exit_two(bad, monkeypatch, capsys):
    case = ["infsup", "--family", "diagonal", "--n", "4", "--r", "1"]
    monkeypatch.delenv(THRESHOLD_ENV, raising=False)
    assert run_cli(*case, f"--threshold={bad}") == 2
    assert run_cli(*case, "--sweep", f"1e-3,{bad}") == 2
    monkeypatch.setenv(THRESHOLD_ENV, bad)
    assert run_cli(*case) == 2
    assert capsys.readouterr().out == ""


def test_usage_errors_exit_two(capsys):
    assert run_cli("infsup", "--family", "diagonal") == 2
    assert run_cli("tables", "--which", "T7") == 2
    assert run_cli("infsup", "--family", "diagonal", "--n", "4,8") == 2
    with pytest.raises(SystemExit) as info:
        run_cli("no-such-command")
    assert info.value.code == 2


def test_numerical_failure_exits_one(capsys):
    assert run_cli("converge", "--family", "crisscross", "--r", "1",
                   "--n", "4,8") == 1
    assert "SpuriousModeError" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_mesh_file_exits_one(tmp_path, capsys, token):
    mesh_file = tmp_path / "bad.txt"
    assert run_cli("mesh", "--family", "diagonal", "--n", "4",
                   "--out", str(mesh_file)) == 0
    lines = mesh_file.read_text().splitlines()
    lines[3] = f"0.5 {token}"
    mesh_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("infsup", "--mesh", str(mesh_file), "--r", "1") == 1
    assert "MeshFormatError: line 4: non-finite" in capsys.readouterr().err


def test_overlapping_mesh_file_exits_one(tmp_path, capsys):
    # cell 2 runs along edge (0, 1) in the same direction as cell 0
    mesh_file = tmp_path / "folded.txt"
    mesh_file.write_text("mesh 2 triangle\nvertices 5\n0.0 0.0\n1.0 0.0\n"
                         "0.0 1.0\n1.0 1.0\n0.2 0.6\ncells 3\n0 1 2\n"
                         "1 3 2\n0 1 4\n")
    assert run_cli("infsup", "--mesh", str(mesh_file), "--r", "1") == 1
    err = capsys.readouterr().err
    assert "MeshTopologyError: cell 2: overlaps" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mixedstab.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "mixed-stab 0.1.0"


def run_script(name, *argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})


def test_threshold_sweep_script(tmp_path):
    proc = run_script("threshold_sweep.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "threshold_sweep.csv").read_text().splitlines()
    assert lines[0] == "family,n,r,threshold,dimN,beta_reduced"
    assert len(lines) == 1 + 4 * 6
    assert "flipped,8,1,0.0001,9," in (tmp_path / "threshold_sweep.csv").read_text()


def test_convergence_script_matches_cli(tmp_path):
    proc = run_script("run_convergence.py", "--r", "1",
                      "--outdir", str(tmp_path / "script"))
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "cli.csv"
    assert run_cli("converge", "--r", "1", "--format", "csv",
                   "--out", str(out)) == 0
    script_csv = (tmp_path / "script" / "convergence.csv").read_bytes()
    assert script_csv == out.read_bytes()
    assert (tmp_path / "script" / "normalized_p_L2.dat").exists()
