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
    lagrange_basis,
    quadrature,
)
from .eigensolve import (
    Spectrum,
    schur_complement,
    sym_generalized_eig,
)
from .errors import (
    EigensolveError,
    MeshFormatError,
    MeshTopologyError,
    MixedStabError,
    NotPositiveDefiniteError,
    NumericalError,
    SpuriousModeError,
    UnsupportedDegreeError,
)
from .mesh import (
    Family,
    SingularVertexReport,
    Triangulation,
    generate,
    import_mesh,
    export_mesh,
    read_mesh,
    singular_vertices,
    write_mesh,
)
from .poisson import (
    ConvergenceReport,
    ErrorNorms,
    FieldCoefficients,
    convergence_study,
    error_norms,
    interpolate,
    manufactured_solution,
    solve_mixed,
)
from .stability import (
    DEFAULT_THRESHOLD,
    BabuskaResult,
    CoercivityResult,
    InfSupResult,
    LaplaceResult,
    StabilityReport,
    StokesResult,
    TableReport,
    babuska_infsup,
    brezzi_coercivity,
    brezzi_infsup,
    case_forms,
    classify_spectrum,
    divdiv_spectrum,
    infsup_to_laplace,
    laplace_eigenvalue,
    reproduce_table,
    run_case,
    stokes_infsup,
    threshold_sweep,
)

__version__ = "0.1.0"
