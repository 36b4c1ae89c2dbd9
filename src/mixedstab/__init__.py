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
    discontinuous_space,
    scalar_lagrange_space,
    vector_lagrange_space,
    write_matrix_market,
)
from .element import (
    ElementKind,
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
    ErrorNorms,
    FieldCoefficients,
    error_norms,
    interpolate,
    manufactured_solution,
    solve_mixed,
)
from .stability import (
    DEFAULT_THRESHOLD,
    Case,
    TableReport,
    case_forms,
    convergence_study,
    reproduce_table,
)

__version__ = "0.1.0"
