import numpy as np
import pytest

from mixedstab.assembly import assemble
from mixedstab.mesh import Triangulation, generate

from oracles import schur_pencil_eigenvalues


def pytest_configure(config):
    config._acceptance_results = []


@pytest.fixture(scope="session")
def forms_for(request):
    """Session cache of assembled forms keyed by (family, n, r)."""
    cache = {}

    def get(family, n, r):
        key = (family, n, r)
        if key not in cache:
            cache[key] = assemble(generate(family, n), r)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def spectrum_for(forms_for):
    """Session cache of the full inf-sup spectra, Brezzi or with ``h1``
    Stokes, as ascending arrays from the dense oracle route."""
    cache = {}

    def get(family, n, r, h1=False):
        key = (family, n, r, h1)
        if key not in cache:
            forms = forms_for(family, n, r)
            cache[key] = schur_pencil_eigenvalues(
                forms, forms.A_1 if h1 else forms.A_div)
        return cache[key]

    return get


@pytest.fixture
def record(request):
    """Recorder for acceptance checks; one summary line per criterion."""
    results = request.config._acceptance_results

    def _record(criterion, passed, detail=""):
        results.append((criterion, bool(passed), detail))
        return bool(passed)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", [])
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {criterion}"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def relabel(rng):
    """Relabel a mesh: a random vertex permutation, a cell permutation and
    a cyclic rotation of each cell's triple, which keeps the orientation.
    Returns the relabelled mesh and vperm, the new index of each vertex."""

    def apply(mesh):
        vperm = rng.permutation(mesh.num_vertices)
        vertices = np.empty_like(mesh.vertices)
        vertices[vperm] = mesh.vertices
        cells = vperm[mesh.cells][rng.permutation(mesh.num_cells)]
        shift = rng.integers(0, 3, size=len(cells))
        cells = np.take_along_axis(cells, (np.arange(3) + shift[:, None]) % 3, axis=1)
        return Triangulation(vertices, cells), vperm

    return apply
