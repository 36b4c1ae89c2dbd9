"""Stability laboratory for vector-Lagrange / discontinuous-pressure pairs.

Computes inf-sup and coercivity constants, spurious pressure modes,
eigenvalue approximations and convergence rates for the mixed form of the
Laplacian on structured triangulations of the unit square.
"""

from .assembly import (
    AssembledForms,
    FunctionSpace,
    assemble,
    build_spaces,
    case_forms,
    discontinuous_space,
    scalar_lagrange_space,
    vector_lagrange_space,
    write_matrix_market,
)
from .element import (
    QuadratureRule,
    ReferenceElement,
    quadrature,
)
from .errors import (
    EigensolveError,
    MeshFormatError,
    MeshTopologyError,
    MixedStabError,
    NotPositiveDefiniteError,
    NumericalError,
    UnsupportedDegreeError,
)
from .mesh import (
    Family,
    Triangulation,
    generate,
    import_mesh,
    export_mesh,
    read_mesh,
    singular_vertices,
    write_mesh,
)
from .poisson import (
    SINE,
    Solution,
    convergence_study,
    error_norms,
    solve_mixed,
    source_errors,
)
from .stability import (
    DEFAULT_THRESHOLD,
    Case,
    reproduce_table,
)

__version__ = "0.1.0"
