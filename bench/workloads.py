"""The benchmark's workloads: the CLI commands of one pass and their checks.

Every command is a ``mixed-stab`` argument list run through
``mixedstab.cli.main`` with ``--format json``; its check compares the
printed numbers with ``reference.json`` at the tolerances of
``tests/test_acceptance.py`` and returns a list of problems (empty when
the output is correct).

* ``tables``    T1-T4 at their default n ranges (117 cases).  Dense Schur
  complement plus dense eigensolve; the headline tables.
* ``constants`` every constant the paper reports, on all five families at
  n = 8 and r = 1, 2, 3 (15 cases): ``infsup --mesh <file> --with-alpha
  --with-gamma --with-stokes --sweep`` then ``laplace-eig --mesh <file>``.
  The mesh files are the generated meshes relabelled by the seed, so this
  workload also takes the imported-mesh (float singular-vertex) path.
* ``converge``  ``converge --r 1,2,3,4`` on ``diagonal`` at the default n
  ranges (14 source solves, dense Schur and CG branches, no eigensolve).

Only ``constants`` depends on the seed; ``tables`` and ``converge`` run the
generated meshes by design.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FAMILIES = ("diagonal", "zigzag", "flipped", "crisscross", "unionjack")
NAMES = ("tables", "constants", "converge")
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
BETA_TOL = REFERENCE["beta_tol"]
ALPHA_TOL = 1e-9      # criterion 6
GAMMA_TOL = 1e-9      # gamma = beta_div^2 on nonsingular cases
MAP_TOL = 1e-8        # criterion 5: mu = lambda / (1 - lambda)
RATE_BAND = 0.2       # criterion 8a


@dataclass
class Command:
    argv: list
    check: Callable[[dict], list]


def expected_sigma(family, n):
    if family == "crisscross":
        return n * n
    if family == "unionjack":
        return n * (n - 2) // 2
    return 0


def expected_dim_spurious(family, n, r):
    if family == "flipped":
        return (n // 2 - 1) ** 2 if r == 1 else 0
    if family in ("crisscross", "unionjack"):
        return expected_sigma(family, n)
    return 0


def _compare(problems, tag, got, want):
    """Integers exactly, floats to the table tolerance."""
    if isinstance(want, int):
        if got != want:
            problems.append(f"{tag}: {got} != {want}")
    elif not (isinstance(got, (int, float)) and abs(got - want) <= BETA_TOL):
        problems.append(f"{tag}: {got} != {want} +- {BETA_TOL:g}")


def _check_t1(payload, n_values, r_values):
    problems = []
    rows = payload["rows"]
    if len(rows) != len(FAMILIES) * len(n_values) * len(r_values):
        problems.append(f"T1: {len(rows)} rows")
    for family, n, r, sigma, dim in rows:
        _compare(problems, f"T1 sigma {family} n={n}", sigma,
                 expected_sigma(family, n))
        _compare(problems, f"T1 dimN {family} n={n} r={r}", dim,
                 expected_dim_spurious(family, n, r))
    return problems


def _check_table(which, n_values):
    reference = REFERENCE["tables"][which]

    def check(payload):
        problems = []
        rows = {row[0]: row[1:] for row in payload["rows"]}
        if sorted(rows) != sorted(n_values):
            problems.append(f"{which}: rows for n={sorted(rows)}")
        for n, row in rows.items():
            want = reference[str(n)]
            for col, got, ref in zip(payload["header"][1:], row, want):
                _compare(problems, f"{which} n={n} {col}", got, ref)
        return problems

    return check


def _tables(tiny):
    if tiny:
        specs = [("T1", [4], [1]), ("T2", [4], None)]
    else:
        specs = [("T1", [4, 6, 8], [1, 2, 3]),
                 ("T2", list(range(4, 17, 2)), None),
                 ("T3", list(range(4, 15, 2)), None),
                 ("T4", list(range(4, 13, 2)), None)]
    commands, cases = [], 0
    for which, n_values, r_values in specs:
        argv = ["tables", "--which", which, "--jobs", "1", "--format", "json"]
        if tiny:
            argv += ["--n", ",".join(map(str, n_values))]
        if which == "T1":
            if tiny:
                argv += ["--r", ",".join(map(str, r_values))]
            check = (lambda p, n=n_values, r=r_values: _check_t1(p, n, r))
            cases += len(FAMILIES) * len(n_values) * len(r_values)
        else:
            check = _check_table(which, n_values)
            cases += 4 * len(n_values)
        commands.append(Command(argv, check))
    return commands, cases


def _constants_cases(tiny):
    if tiny:
        return [("diagonal", 1), ("unionjack", 1)]
    return [(family, r) for family in FAMILIES for r in (1, 2, 3)]


def mesh_path(input_dir, family):
    return str(Path(input_dir) / f"{family}.mesh")


def _tagged(tag, check):
    return lambda payload: [f"{tag}: {p}" for p in check(payload)]


def _check_infsup(want, state):
    def check(payload):
        problems = []
        state["infsup"] = payload
        for key in ("sigma", "dimN"):
            _compare(problems, key, payload[key], want[key])
        for key in ("beta_div", "beta_div_reduced", "beta_h1", "beta_h1_reduced"):
            _compare(problems, key, payload[key], want[key])
        if abs(payload["alpha"] - 1.0) > ALPHA_TOL:
            problems.append(f"alpha = {payload['alpha']!r}, not 1 +- {ALPHA_TOL:g}")
        gamma_want = payload["beta_div"] ** 2 if payload["dimN"] == 0 else 0.0
        if abs(payload["gamma"] - gamma_want) > GAMMA_TOL:
            problems.append(f"gamma = {payload['gamma']!r}, expected {gamma_want!r}")
        if payload["beta_h1_reduced"] > payload["beta_div_reduced"] + 1e-9:
            problems.append("reduced H1 constant above the div constant")
        rows = [[s["threshold"], s["dimN"], s["beta_reduced"]]
                for s in payload["sweep"]]
        if len(rows) != len(want["sweep"]):
            problems.append(f"sweep has {len(rows)} rows")
        for (thr, dim, beta), (w_thr, w_dim, w_beta) in zip(rows, want["sweep"]):
            if thr != w_thr:
                problems.append(f"sweep threshold {thr} != {w_thr}")
            _compare(problems, f"sweep dimN at {thr:g}", dim, w_dim)
            _compare(problems, f"sweep beta at {thr:g}", beta, w_beta)
        return problems

    return check


def _check_laplace(want, state):
    def check(payload):
        problems = []
        mu = payload["mu"]
        if abs(mu - want["mu"]) > BETA_TOL * want["mu"]:
            problems.append(f"mu = {mu!r}, expected {want['mu']} (rel {BETA_TOL:g})")
        infsup = state.get("infsup")
        if infsup is None:
            problems.append("no inf-sup output to map mu against")
        else:
            lam = infsup["beta_div_reduced"] ** 2
            mapped = lam / (1.0 - lam)
            if abs(mu - mapped) > MAP_TOL * (1.0 + abs(mu)):
                problems.append(f"mu = {mu!r} but lambda/(1-lambda) = {mapped!r}")
        return problems

    return check


def _constants(input_dir, tiny):
    n = REFERENCE["constants_n"]
    commands = []
    cases = _constants_cases(tiny)
    for family, r in cases:
        want = REFERENCE["constants"][f"{family}-{r}"]
        state = {}
        path = mesh_path(input_dir, family)
        commands.append(Command(
            ["infsup", "--mesh", path, "--r", str(r), "--with-alpha",
             "--with-gamma", "--with-stokes", "--sweep", "--format", "json"],
            _tagged(f"{family} n={n} r={r}", _check_infsup(want, state))))
        commands.append(Command(
            ["laplace-eig", "--mesh", path, "--r", str(r), "--format", "json"],
            _tagged(f"{family} n={n} r={r}", _check_laplace(want, state))))
    return commands, len(cases)


def _check_converge(payload):
    """Criterion 8a; the preasymptotic r = 3 u_L2 rate (8b) is not checked."""
    problems = []
    studies = {s["r"]: s for s in payload["studies"]}
    if sorted(studies) != [1, 2, 3, 4]:
        return [f"studies for r={sorted(studies)}"]
    for key in ("p_l2", "u_l2"):
        final = studies[1]["normalized"][key][-1]
        if final < 0.9:
            problems.append(f"r=1 {key}: normalized error fell to {final:.3f}")
    bands = {2: {"p_l2": 2, "u_hdiv": 2, "u_l2": 2},
             3: {"p_l2": 3, "u_hdiv": 3},
             4: {"p_l2": 4, "u_hdiv": 4, "u_l2": 5}}
    for r, keys in bands.items():
        for key, want in keys.items():
            rate = studies[r]["rates"][key][-1]
            if rate is None or not want - RATE_BAND <= rate <= want + RATE_BAND:
                problems.append(f"r={r} {key}: rate {rate} not in {want}+-{RATE_BAND}")
    return problems


def _check_converge_tiny(payload):
    """Smoke-test size: only finite, positive, decreasing errors."""
    problems = []
    for study in payload["studies"]:
        for key, errs in study["errors"].items():
            if not all(math.isfinite(e) and e > 0 for e in errs):
                problems.append(f"r={study['r']} {key}: errors {errs}")
            elif errs[-1] >= errs[0]:
                problems.append(f"r={study['r']} {key}: error did not decrease")
    return problems


def _converge(tiny):
    if tiny:
        return [Command(["converge", "--family", "diagonal", "--r", "2",
                         "--n", "4,8", "--format", "json"],
                        _check_converge_tiny)], 2
    return [Command(["converge", "--family", "diagonal", "--r", "1,2,3,4",
                     "--format", "json"], _check_converge)], 14


def commands(name, input_dir, tiny=False):
    """(commands, cases) of one pass of workload ``name``.

    ``cases`` is the number of stability cases (or source solves for
    ``converge``) the pass runs.
    """
    if name == "tables":
        return _tables(tiny)
    if name == "constants":
        return _constants(input_dir, tiny)
    if name == "converge":
        return _converge(tiny)
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(name, seed, input_dir, tiny=False):
    """Write the seed's input files for ``name`` into ``input_dir``.

    For ``constants``: the generated n = 8 mesh of each family with a
    random vertex permutation, cell permutation and cyclic rotation of
    each cell's vertex triple (orientation is kept).  dimN and sigma are
    invariant under relabelling and the constants move by round-off only,
    so the checks do not depend on the seed.
    """
    if name != "constants":
        return
    import numpy as np
    from mixedstab.mesh import Family, Triangulation, generate, write_mesh

    rng = np.random.default_rng(seed)
    Path(input_dir).mkdir(parents=True, exist_ok=True)
    for family in sorted({f for f, _ in _constants_cases(tiny)}, key=FAMILIES.index):
        mesh = generate(family, REFERENCE["constants_n"])
        vperm = rng.permutation(mesh.num_vertices)
        vertices = np.empty_like(mesh.vertices)
        vertices[vperm] = mesh.vertices
        cells = vperm[mesh.cells][rng.permutation(mesh.num_cells)]
        shift = rng.integers(0, 3, size=len(cells))
        cells = np.take_along_axis(cells, (np.arange(3) + shift[:, None]) % 3, axis=1)
        path = mesh_path(input_dir, family)
        write_mesh(Triangulation(vertices, cells, family=Family.IMPORTED), path)
