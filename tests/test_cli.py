import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mixedstab import __version__
from mixedstab.assembly import assemble
from mixedstab.cli import RunConfig, build_parser, main, parse_n_values
from mixedstab.mesh import generate, read_mesh
from mixedstab.stability import Case, _divdiv_shift, _first_shift

from oracles import (babuska_pencil_eigenvalues, divdiv_pencil_eigenvalues,
                     laplace_pencil_eigenvalues, schur_pencil_eigenvalues)

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


# --- config plumbing ---------------------------------------------------

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
    for bad in ("5", "2", "0", "-4", "4,7", "3..8", ",", ""):
        with pytest.raises(ValueError):
            parse_n_values(bad)


def test_threshold_resolution():
    parser = build_parser()
    case = ["infsup", "--family", "diagonal", "--n", "4"]
    assert parser.parse_args(case).threshold == 1e-4
    assert parser.parse_args([*case, "--threshold", "1e-3"]).threshold == 1e-3


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


def test_infsup_report_fields(tmp_path):
    out = tmp_path / "uj.json"
    case = ["infsup", "--family", "unionjack", "--n", "4", "--r", "1",
            "--with-alpha", "--with-gamma", "--with-stokes"]
    assert run_cli(*case, "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["family"] == "unionjack"
    assert data["sigma"] == 4 and data["dimN"] == 4
    assert data["gamma"] == 0.0
    assert abs(data["alpha"] - 1.0) < 1e-9
    assert data["beta_h1_reduced"] <= data["beta_div_reduced"]
    assert run_cli(*case, "--format", "csv", "--out", str(out)) == 0
    _, header, row = out.read_text().splitlines()
    assert len(row.split(",")) == len(header.split(","))


def test_infsup_with_imported_mesh(tmp_path):
    mesh_file, out = tmp_path / "cc.txt", tmp_path / "cc.json"
    assert run_cli("mesh", "--family", "crisscross", "--n", "4",
                   "--out", str(mesh_file)) == 0
    assert run_cli("infsup", "--mesh", str(mesh_file), "--r", "1",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["family"] == "imported"
    assert data["n"] is None
    assert data["sigma"] == 16 and data["dimN"] == 16


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


# provenance hashes of outputs no golden file covers; a change to how the
# arguments are read must leave every one of them as it is
HASH_PINS = {
    "converge": (["converge", "--r", "1", "--n", "4"], "8b8252a095d6"),
    "spectrum": (["spectrum", "--family", "diagonal", "--n", "4", "--r", "1",
                  "--format", "csv"], "ca6135e20d67"),
    "laplace-eig": (["laplace-eig", "--family", "zigzag", "--n", "4",
                     "--r", "2", "--format", "csv"], "b36772fd63b9"),
    "tables-T1": (["tables", "--which", "T1", "--n", "4", "--r", "1"],
                  "4eb3c6ceca6f"),
    "tables-T2": (["tables", "--which", "T2", "--n", "4"], "3831e702b569"),
    "infsup-sweep": (["infsup", "--family", "flipped", "--n", "4", "--r", "1",
                      "--sweep", "--format", "csv"], "0be9d06cc24e"),
}


@pytest.mark.parametrize("name", list(HASH_PINS))
def test_provenance_hash_pins(tmp_path, name):
    argv, digest = HASH_PINS[name]
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert out.read_text().startswith(f"# mixed-stab {__version__} {digest}\n")


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
    # every pencil is printed past its zero cluster, each value with its
    # index in the oracle's full spectrum; the Babuska pencil is ordered by
    # modulus
    forms = assemble(generate(family, 4), 2)
    n_v, n_q = forms.V_h.ndofs, forms.Q_h.ndofs
    dim = {"diagonal": 0, "unionjack": 4}[family]
    cases = {
        "infsup": (dim, lambda f: schur_pencil_eigenvalues(f, f.A_div)),
        "laplace": (dim, laplace_pencil_eigenvalues),
        "divdiv": (n_v - n_q + dim, divdiv_pencil_eigenvalues),
        "babuska": (dim, lambda f: sorted(babuska_pencil_eigenvalues(f), key=abs)),
        "stokes": (dim, lambda f: schur_pencil_eigenvalues(f, f.A_1))}
    for pencil, (first, oracle) in cases.items():
        out = tmp_path / f"{pencil}.json"
        assert run_cli("spectrum", "--family", family, "--n", "4", "--r", "2",
                       "--pencil", pencil, "--out", str(out)) == 0
        data = json.loads(out.read_text())
        values = np.array(data["values"])
        want = np.array(oracle(forms))
        assert data["indices"] == list(range(first, len(want))), pencil
        assert data["count"] == len(values), pencil
        want = want[data["indices"]]
        assert np.max(np.abs(values - want) / (1.0 + np.abs(want))) < 1e-8, pencil


PROVENANCE = r"# mixed-stab 0\.1\.0 [0-9a-f]{12}"
F6, F12, E12, INT = r"\d+\.\d{6}", r"\d+\.\d{12}", r"-?\d\.\d{12}e[-+]\d\d", r"\d+"


@pytest.mark.parametrize("argv, header, row", [
    (["infsup", "--sweep"],
     "family,n,r,sigma,dimN,beta_div,beta_div_reduced,alpha,beta_h1,threshold",
     ["diagonal", "4", "1", INT, INT, F6, F6, "", "", "0.0001"]),
    (["coercivity"], "alpha,kernel_dim,r", ["1.000000000000", "18", "1"]),
    (["laplace-eig"], "mu,threshold,r", [F12, "0.0001", "1"]),
    (["stokes-infsup"], "beta_h1,beta_h1_reduced,dimN,constant_mode,threshold,r",
     [F6, F6, INT, F6, "0.0001", "1"]),
    (["spectrum"], "index,value", ["0", E12]),
])
def test_single_case_csv_layout(tmp_path, argv, header, row):
    out = tmp_path / "o.csv"
    assert run_cli(*argv, "--family", "diagonal", "--n", "4", "--r", "1",
                   "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert re.fullmatch(PROVENANCE, lines[0])
    assert lines[1] == header
    body = lines[2:]
    if argv[0] == "infsup":
        assert body[1] == "threshold,dimN,beta_reduced"
        sweep, body = body[2:], body[:1]
        assert [line.split(",")[0] for line in sweep] == [
            "0.001", "0.0001", "1e-05", "1e-06"]
        for line in sweep:
            assert re.fullmatch(rf"[^,]+,{INT},{F6}", line), line
    elif argv[0] == "spectrum":
        assert len(body) == 32  # dim Q_h
        assert [line.split(",")[0] for line in body] == [str(i) for i in range(32)]
        body = [body[0]]
    assert len(body) == 1
    cells = body[0].split(",")
    assert len(cells) == len(header.split(",")) == len(row)
    for cell, pattern in zip(cells, row):
        assert re.fullmatch(pattern, cell), (cell, pattern)


INFSUP_KEYS = {"family", "n", "r", "sigma", "dimN", "beta_div",
               "beta_div_reduced", "threshold", "diagnostics", "provenance"}


@pytest.mark.parametrize("argv, keys, diagnostics", [
    (["infsup"], INFSUP_KEYS, {"factorizations"}),
    (["infsup", "--with-alpha", "--with-gamma", "--with-stokes", "--sweep"],
     INFSUP_KEYS | {"alpha", "gamma", "beta_h1", "beta_h1_reduced",
                    "stokes_constant_mode", "sweep"},
     {"factorizations", "alpha_residual", "stokes_factorizations"}),
    (["coercivity"], {"alpha", "kernel_dim", "r", "provenance"}, None),
    (["laplace-eig"], {"mu", "threshold", "smallest_eigenvalues", "r",
                       "provenance"}, None),
    (["stokes-infsup"], {"beta_h1", "beta_h1_reduced", "dimN", "constant_mode",
                         "threshold", "r", "provenance"}, None),
], ids=["infsup", "infsup-all-flags", "coercivity", "laplace-eig",
        "stokes-infsup"])
def test_single_case_json_keys(tmp_path, argv, keys, diagnostics):
    out = tmp_path / "o.json"
    assert run_cli(*argv, "--family", "unionjack", "--n", "4", "--r", "2",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert set(data) == keys
    if diagnostics is not None:
        assert set(data["diagnostics"]) == diagnostics


def test_laplace_eig_takes_mu_at_the_spurious_split(tmp_path):
    # at threshold 0.75 the smallest inf-sup eigenvalue 0.718 counts as
    # spurious, so mu belongs to the next one, the first spectrum prints
    case = ["--family", "diagonal", "--n", "4", "--r", "1", "--threshold", "0.75"]
    outs = {}
    for command in ("infsup", "spectrum", "laplace-eig"):
        outs[command] = tmp_path / f"{command}.json"
        assert run_cli(command, *case, "--out", str(outs[command])) == 0
    dim = json.loads(outs["infsup"].read_text())["dimN"]
    spectrum = json.loads(outs["spectrum"].read_text())
    lam = spectrum["values"][spectrum["indices"].index(dim)]
    assert dim == 1 == spectrum["indices"][0]
    mu = json.loads(outs["laplace-eig"].read_text())["mu"]
    assert mu == pytest.approx(lam / (1.0 - lam), rel=1e-12)


@pytest.fixture
def factorization_log(monkeypatch):
    """Records the splu calls (``calls``), the InertiaSlicers made
    (``pencils``, each with the number of splu calls before it as
    ``splu_before``) and the number of eigsh calls (``eigsh``)."""
    import mixedstab.eigensolve as eigensolve
    import mixedstab.stability as stability

    log = SimpleNamespace(calls=[], pencils=[], eigsh=0)

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            log.calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    class RecordedSlicer(stability.InertiaSlicer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.splu_before = log.calls.count("splu")
            log.pencils.append(self)

    eigsh = eigensolve.eigsh

    def counting_eigsh(*args, **kwargs):
        log.eigsh += 1
        return eigsh(*args, **kwargs)

    counting(eigensolve, "splu")
    monkeypatch.setattr(eigensolve, "eigsh", counting_eigsh)
    monkeypatch.setattr(stability, "InertiaSlicer", RecordedSlicer)
    return log


def test_every_constant_comes_from_sparse_factorizations(tmp_path,
                                                         factorization_log):
    log = factorization_log
    calls, pencils = log.calls, log.pencils

    def run(*argv):
        calls.clear()
        pencils.clear()
        log.eigsh = 0
        assert run_cli(*argv, "--family", "unionjack", "--n", "4", "--r", "2",
                       "--out", str(tmp_path / "o.json")) == 0

    # one slice per pencil, and every factorization is one of its own or
    # the one that certifies A_1, the Stokes pencil's norm matrix
    for argv, slices in ((["infsup", "--with-alpha", "--with-gamma",
                           "--with-stokes", "--sweep"], 2),
                         (["laplace-eig"], 1)):
        run(*argv)
        assert len(pencils) == slices, argv
        assert calls == ["splu"] * (slices - 1 + sum(p.factorizations
                                                     for p in pencils)), argv
        assert all(3 <= p.factorizations <= 15 for p in pencils), argv
    # stokes-infsup takes dim N_h from the Brezzi count (the count at tau,
    # no value), then slices (K, A_1) after the A_1 check
    run("stokes-infsup")
    count, stokes = pencils
    assert calls == ["splu"] * (1 + 1 + stokes.factorizations)
    assert count.factorizations == 1 and not count._values
    assert 3 <= stokes.factorizations <= 15
    # coercivity prints alpha and the kernel dimension, which need dim N_h
    # only: the count at tau and no eigenvalue
    run("coercivity")
    assert calls == ["splu"]
    assert [p.factorizations for p in pencils] == [1]
    assert log.eigsh == 0
    # spectrum slices every eigenvalue past the 66 zeros and the 4
    # spurious modes, and none of theirs; the stokes pencil after the
    # Brezzi count and the check of A_1
    for pencil in ("infsup", "laplace", "divdiv", "babuska", "stokes"):
        run("spectrum", "--pencil", pencil)
        *counts, sliced = pencils
        assert [p.factorizations for p in counts] == (
            [1] if pencil == "stokes" else []), pencil
        assert calls == ["splu"] * ((pencil == "stokes") + sum(
            p.factorizations for p in pencils)), pencil
        assert sorted(sliced._values) == list(range(70, 162)), pencil


def test_table_rows_factor_only_what_they_print(tmp_path, factorization_log):
    log = factorization_log

    def run(*argv):
        log.calls.clear()
        log.pencils.clear()
        log.eigsh = 0
        assert run_cli("tables", *argv, "--out", str(tmp_path / "t.csv")) == 0
        assert set(log.calls) == {"splu"}
        # case i makes the splu calls from its pencil's first count up to
        # the next case's
        starts = [p.splu_before for p in log.pencils] + [len(log.calls)]
        assert starts[0] == 0
        return [b - a for a, b in zip(starts, starts[1:])]

    def no_cluster_probes():
        # no table prints a cluster warning, so no row counts its probes
        probes = {_divdiv_shift(1e-4 / 10.0), _divdiv_shift(10.0 * 1e-4)}
        return all(probes.isdisjoint(p._counts) for p in log.pencils)

    # T1: the count at tau and no eigenvalue
    assert run("--which", "T1", "--n", "4", "--r", "1") == [1] * 5
    assert [p.factorizations for p in log.pencils] == [1] * 5
    assert log.eigsh == 0 and no_cluster_probes()
    # T2: the slice of the Brezzi constant and nothing else
    per_case = run("--which", "T2", "--n", "4")
    assert per_case == [p.factorizations for p in log.pencils]
    assert len(per_case) == 4 and log.eigsh >= 4 and no_cluster_probes()
    # T3, T4: the count at tau and the count at the first shift, whose
    # factor gives mu in one Lanczos run; every case needs at least one, so
    # four runs are one a case
    for which in ("T3", "T4"):
        assert run("--which", which, "--n", "4") == [2] * 4, which
        assert log.eigsh == 4 and no_cluster_probes(), which


def test_infsup_json_carries_diagnostics(tmp_path):
    out = tmp_path / "i.json"
    assert run_cli("infsup", "--family", "diagonal", "--n", "4", "--r", "2",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    mu = data["beta_div"] ** 2 / (1.0 - data["beta_div"] ** 2)
    # tau and the first shift, above mu, then tau / 10 and 10 tau for the
    # warning
    assert data["diagnostics"]["factorizations"] == 4
    assert mu < _first_shift(generate("diagonal", 4))
    assert "mu_bound" not in data["diagnostics"]
    assert "alpha_residual" not in data["diagnostics"]
    assert "stokes_factorizations" not in data["diagnostics"]
    assert run_cli("infsup", "--family", "diagonal", "--n", "4", "--r", "2",
                   "--with-alpha", "--with-stokes", "--out", str(out)) == 0
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert 0.0 <= diagnostics["alpha_residual"] <= 1e-10
    # A_1, tau h^2, two bisection counts and the midpoint factor; the top
    # 2, above every eigenvalue, is counted with no factor
    assert diagnostics["stokes_factorizations"] == 5


def test_infsup_reads_the_cluster_warning_once(tmp_path, monkeypatch):
    # the warning counts two probes when read; the command reads it once
    reads = []
    warning = Case.warning

    def counted(self):
        reads.append(self)
        return warning.func(self)
    monkeypatch.setattr(Case, "warning", property(counted))
    assert run_cli("infsup", "--family", "diagonal", "--n", "4", "--r", "1",
                   "--threshold", "0.75", "--out", str(tmp_path / "i.json")) == 0
    assert len(reads) == 1
    assert json.loads((tmp_path / "i.json").read_text())["warnings"] == [
        "threshold 0.75 splits a cluster: 0 eigenvalues below 0.075, "
        "1 eigenvalues below 0.75"]


GOLDEN = ROOT / "tests" / "golden"
FULL_INFSUP = ["infsup", "--with-alpha", "--with-gamma", "--with-stokes",
               "--sweep"]
# golden file -> command line, run with --format csv in a directory that
# holds the mesh file the mesh command writes, as the test below does.  The
# imported case reads that file by a relative path, because the path enters
# the provenance hash.  spectrum and laplace-eig print 12 digits that vary
# with the LAPACK build, so the oracle tests check them instead.
GOLDEN_CASES = {
    "infsup_unionjack_n4_r1.csv":
        [*FULL_INFSUP, "--family", "unionjack", "--n", "4", "--r", "1"],
    "infsup_imported_crisscross_n4_r1.csv":
        [*FULL_INFSUP, "--mesh", "crisscross_n4.mesh", "--r", "1"],
    "stokes-infsup_diagonal_n4_r2.csv":
        ["stokes-infsup", "--family", "diagonal", "--n", "4", "--r", "2"],
    "coercivity_diagonal_n4_r2.csv":
        ["coercivity", "--family", "diagonal", "--n", "4", "--r", "2"],
    # the r=1 stall, the r=3 rates and the empty rate cells of a step that
    # does not double n
    "converge_diagonal_r1_r3_n4_8_12.csv":
        ["converge", "--r", "1,3", "--n", "4,8,12"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_single_case_csv_matches_golden_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run_cli("mesh", "--family", "crisscross", "--n", "4",
                   "--out", "crisscross_n4.mesh") == 0
    assert run_cli(*GOLDEN_CASES[name], "--format", "csv", "--out", name) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_coercivity_and_laplace_commands(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli("coercivity", "--family", "zigzag", "--n", "4", "--r", "2",
                   "--out", str(out)) == 0
    assert abs(json.loads(out.read_text())["alpha"] - 1.0) < 1e-9

    assert run_cli("laplace-eig", "--family", "diagonal", "--n", "8",
                   "--r", "2", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert abs(data["mu"] - 19.7392) < 5e-3
    smallest = data["smallest_eigenvalues"]
    assert len(smallest) == 5
    assert smallest[0] == data["mu"] and smallest == sorted(smallest)


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


def test_converge_runs_to_the_largest_degree(capsys):
    # errors are measured against the closed-form solution, so converge
    # takes every r up to MAX_SPACE_DEGREE
    assert run_cli("converge", "--r", "5,6", "--n", "4,8") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [(row[0], row[1]) for row in rows] == [("5", "4"), ("5", "8"),
                                                 ("6", "4"), ("6", "8")]
    # the n = 8 rows carry the p, div u and u L2 rates
    assert all(cell for row in rows[1::2] for cell in row[-3:])


@pytest.mark.parametrize("bad", ["nan", "inf", "-1e-4", "0", "x"])
def test_bad_thresholds_exit_two(bad, capsys):
    case = ["infsup", "--family", "diagonal", "--n", "4", "--r", "1"]
    assert run_cli(*case, f"--threshold={bad}") == 2
    assert run_cli(*case, "--sweep", f"1e-3,{bad}") == 2
    assert run_cli("tables", "--which", "T2", "--n", "4",
                   f"--threshold={bad}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3 and all(line.startswith("mixed-stab: ")
                                   for line in lines)


def test_usage_errors_exit_two(capsys):
    assert run_cli("infsup", "--family", "diagonal") == 2
    assert run_cli("tables", "--which", "T7") == 2
    assert run_cli("infsup", "--family", "diagonal", "--n", "4,8") == 2
    with pytest.raises(SystemExit) as info:
        run_cli("no-such-command")
    assert info.value.code == 2


SINGLE_CASE_COMMANDS = ["infsup", "spectrum", "coercivity", "laplace-eig",
                        "stokes-infsup"]


@pytest.mark.parametrize("command",
                         SINGLE_CASE_COMMANDS + ["tables", "converge"])
@pytest.mark.parametrize("r", ["0", "-1", "7", "x", "1,x"])
def test_bad_degree_exits_two(command, r, capsys):
    case = (["--which", "T1", "--n", "4"] if command == "tables"
            else ["--family", "diagonal", "--n", "4"])
    assert run_cli(command, *case, "--r", r) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "1..6" in captured.err


@pytest.mark.parametrize("which", ["T2", "T3", "T4"])
def test_tables_with_fixed_degree_refuse_r(which, capsys):
    # T2, T3 and T4 fix r at 1, 2 and 3; an ignored --r would still enter
    # the provenance hash
    assert run_cli("tables", "--which", which, "--n", "4", "--r", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "T1 only" in captured.err


@pytest.mark.parametrize("argv", [
    ["infsup", "--family", "diagonal", "--n", "5"],
    ["spectrum", "--family", "diagonal", "--n", "2"],
    ["mesh", "--family", "diagonal", "--n", "3"],
    ["converge", "--n", "3"],
    ["converge", "--n", ","],
    ["tables", "--which", "T2", "--n", "5"],
    ["tables", "--which", "T2", "--n", ","],
    ["infsup", "--family", "diagonal", "--n", "x"],
    ["mesh", "--family", "diagonal", "--n", "4,8"],
    # every other argument checks its own value the same way
    ["tables", "--which", "T1", "--n", "4", "--jobs", "0"],
    ["tables", "--which", "T1", "--n", "4", "--jobs", "-3"],
    ["tables", "--which", "T1", "--n", "4", "--jobs", "x"],
    ["tables", "--which", "T0", "--n", "4"],
    ["infsup", "--family", "diagonal", "--n", "4", "--r", "1,2"],
    ["infsup", "--family", "diagonal", "--n", "4", "--sweep", "default"],
    ["infsup", "--family", "diagonal", "--n", "4", "--sweep", ","],
    # a path that cannot be read or written
    ["infsup", "--mesh", "missing.mesh", "--r", "1"],
    ["infsup", "--family", "diagonal", "--n", "4",
     "--out", "/nonexistent/dir/x.json"],
    # an output path is refused before any case is built
    ["tables", "--which", "T3", "--out", "/nonexistent/dir/x.csv"],
    ["tables", "--which", "T1", "--n", "4", "--out", str(ROOT / "tests")],
    ["converge", "--r", "1", "--n", "4",
     "--plot-data", str(ROOT / "pyproject.toml")],
    ["infsup", "--family", "diagonal", "--n", "4",
     "--dump-matrices", str(ROOT / "pyproject.toml")],
])
def test_bad_n_exits_two(argv, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a case was built")

    monkeypatch.setattr("mixedstab.stability.assemble", unreachable)
    monkeypatch.setattr("mixedstab.cli.assemble", unreachable)
    monkeypatch.setattr("mixedstab.poisson.assemble", unreachable)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mixed-stab: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("extra", [["--family", "zigzag", "--n", "6"],
                                   ["--family", "zigzag"], ["--n", "6"]])
def test_mesh_with_family_or_n_exits_two(extra, tmp_path, capsys):
    # the mesh file fixes the grid; an ignored --family would still enter
    # the provenance hash
    mesh_file = tmp_path / "d4.mesh"
    assert run_cli("mesh", "--family", "diagonal", "--n", "4",
                   "--out", str(mesh_file)) == 0
    assert run_cli("infsup", "--mesh", str(mesh_file), *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--mesh" in captured.err


def test_numerical_failure_exits_one(capsys):
    # at 1e-14 the shift lies within rounding of crisscross's spurious
    # zeros: K - s M_V is singular in its factorization, and no count is made
    assert run_cli("laplace-eig", "--family", "crisscross", "--n", "4",
                   "--r", "2", "--threshold", "1e-14") == 1
    assert "EigensolveError" in capsys.readouterr().err


def test_count_only_table_refuses_a_threshold_above_every_eigenvalue(capsys):
    assert run_cli("tables", "--which", "T1", "--n", "4", "--r", "1",
                   "--threshold", "0.999999") == 1
    assert ("all 32 eigenvalues fall below the threshold"
            in capsys.readouterr().err)


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


def test_hanging_vertex_mesh_file_exits_one(tmp_path, capsys):
    # vertex 4 hangs at the midpoint of the diagonal edge (0, 3) of cell 2
    mesh_file = tmp_path / "tjunction.txt"
    mesh_file.write_text("mesh 2 triangle\nvertices 5\n0.0 0.0\n1.0 0.0\n"
                         "0.0 1.0\n1.0 1.0\n0.5 0.5\ncells 3\n0 1 4\n"
                         "1 3 4\n0 3 2\n")
    assert run_cli("infsup", "--mesh", str(mesh_file), "--r", "2") == 1
    err = capsys.readouterr().err
    assert "MeshTopologyError: cell 2: vertex 4 hangs" in err


def test_vertex_in_no_cell_mesh_file_exits_one(tmp_path, capsys):
    mesh_file = tmp_path / "unused.txt"
    mesh_file.write_text("mesh 2 triangle\nvertices 5\n0.0 0.0\n1.0 0.0\n"
                         "0.0 1.0\n2.0 2.0\n1.0 1.0\ncells 2\n0 1 2\n"
                         "1 4 2\n")
    assert run_cli("infsup", "--mesh", str(mesh_file), "--r", "2") == 1
    err = capsys.readouterr().err
    assert "MeshTopologyError: vertex 3 belongs to no cell" in err


@pytest.mark.parametrize("count", ["-1", "100000000000"])
def test_bad_vertex_count_in_mesh_file_exits_one(tmp_path, capsys, count):
    mesh_file = tmp_path / "count.txt"
    mesh_file.write_text(f"mesh 2 triangle\nvertices {count}\n0.0 0.0\n")
    assert run_cli("infsup", "--mesh", str(mesh_file), "--r", "2") == 1
    err = capsys.readouterr().err
    assert "MeshFormatError: line 2: vertex count" in err
    assert "Traceback" not in err


def test_one_triangle_r2_slices_without_a_bound(tmp_path):
    # the first shift, 1.25 * 2 pi^2 on the unit bounding box, lies below
    # the triangle's mu, so it bounds nothing and the slice grows past it
    mesh_file = tmp_path / "triangle.txt"
    mesh_file.write_text("mesh 2 triangle\nvertices 3\n0.0 0.0\n1.0 0.0\n"
                         "0.0 1.0\ncells 1\n0 1 2\n")
    outs = {}
    for command in ("infsup", "laplace-eig"):
        outs[command] = tmp_path / f"{command}.json"
        assert run_cli(command, "--mesh", str(mesh_file), "--r", "2",
                       "--out", str(outs[command])) == 0
    infsup = json.loads(outs["infsup"].read_text())
    assert infsup["dimN"] == 0
    forms = assemble(read_mesh(mesh_file), 2)
    lam = schur_pencil_eigenvalues(forms, forms.A_div)[0]
    assert infsup["beta_div_reduced"] == pytest.approx(np.sqrt(lam), rel=1e-9)
    mu = json.loads(outs["laplace-eig"].read_text())["mu"]
    assert mu == pytest.approx(lam / (1.0 - lam), rel=1e-9)
    assert mu > _first_shift(forms.mesh)
    # the count at the shift lies at or below mu's index, so the bracket
    # grows from the shift, not from tau: the counts at tau, the shift and
    # 30 times it, then the Lanczos midpoint, whose window holds all three
    # eigenvalues past the zeros
    for read in (lambda c: c.mu, lambda c: c.smallest_eigenvalues):
        case = Case(forms)
        read(case)
        assert case.factorizations == 4


def run_python(*argv):
    """Run python with src/ ahead of the caller's PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point():
    proc = run_python("-m", "mixedstab.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "mixed-stab 0.1.0"


def load_script(monkeypatch, path):
    # registered, as dataclasses look their module up by name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


def test_bench_cases_grid_is_the_programs(monkeypatch, tmp_path):
    import mixedstab.stability as stability

    bench = load_script(monkeypatch, ROOT / "scripts" / "bench_cases.py")
    seen = []

    def record(args):
        seen.append((args[0].value, *args[1:3]))
        return [0] * len(args[4])

    monkeypatch.setattr(stability, "_table_case", record)
    tables = []   # a case recurs across tables, once within one
    for which in stability.TABLES:
        seen.clear()
        stability.reproduce_table(which, jobs=1)
        tables += dict.fromkeys(seen)
    assert bench.GRID["tables"] == tables
    workloads = load_script(monkeypatch, ROOT / "bench" / "workloads.py")
    for group in ("tables", "converge"):
        assert len(bench.GRID[group]) == workloads.commands(group, tmp_path)[1]


def test_bench_cases_script_one_case(monkeypatch, tmp_path):
    bench = load_script(monkeypatch, ROOT / "scripts" / "bench_cases.py")
    # two trees, whose processes alternate: a copy of src and src itself
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    order = []
    run_once = bench.run_once
    monkeypatch.setattr(bench, "run_once",
                        lambda src, *case: order.append(src) or run_once(src, *case))
    entries = bench.measure([copy, ROOT / "src"], "diagonal", 4, 1, repeats=2)
    assert order == [copy, ROOT / "src", ROOT / "src", copy]
    assert len(entries) == 2
    assert [entries[0][key] for key in bench.EXACT] == [
        entries[1][key] for key in bench.EXACT]
    entry = entries[1]
    assert (entry["nV"], entry["nQ"]) == (50, 32)
    assert entry["local_entries"] == 32 * 6**2 and entry["nnz"] > 0
    assert entry["factorizations"] == 2
    for key in bench.MEASURED:
        runs = entry[key + "_runs"]
        assert len(runs) == 2 and min(runs) > 0, key
        assert entry[key] == statistics.median(runs), key
    # the first read of A_1 assembles it, so it allocates at least A_1
    assert {"h1_s", "h1_tracemalloc_peak_mb"} <= set(bench.MEASURED)
    forms = assemble(generate("diagonal", 4), 1)
    assert (entry["nnz_K"], entry["nnz_B"]) == (forms.K.nnz, forms.B.nnz)
    a_1 = forms.A_1
    csr_bytes = a_1.data.nbytes + a_1.indices.nbytes + a_1.indptr.nbytes
    assert entry["h1_tracemalloc_peak_mb"] * 2**20 > csr_bytes
    assert bench.blas_library()


def test_compare_outputs_names_how_json_differs(monkeypatch):
    compare = load_script(monkeypatch, ROOT / "scripts" / "compare_outputs.py")
    here = {"rows": [[4, 0.5, 2.0]], "diagnostics": {"factorizations": 2},
            "nan": float("nan"), "mode": "csv"}
    ref = {"rows": [[4, 0.5, 2.0 * (1 + 3e-15)]],
           "diagnostics": {"factorizations": 3, "mu_bound": 20.0},
           "nan": float("nan"), "mode": "csv"}
    assert compare.json_difference(json.dumps(here), json.dumps(ref)) == (
        "floats within 3.1e-15 (rows[0][2]); ref only: diagnostics.mu_bound; "
        "changed: diagnostics.factorizations")
    assert compare.json_difference("n,r\n4,1\n", json.dumps(ref)) is None


def test_readme_programmatic_use_runs():
    # the block names library functions; a rename must not leave it stale
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Programmatic use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
