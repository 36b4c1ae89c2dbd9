"""Spans around the public functions of each mixedstab module.

The tracer is installed from outside the package: every public function
is replaced by a wrapper in *every* mixedstab module namespace that holds
it by name (``stability`` calls its own binding of ``schur_complement``,
``poisson`` its own ``pressure_mass_solve`` and ``cell_geometry``), and
the basis tabulation methods are wrapped on ``ReferenceElement``.  Calls
inside a module go through its globals, so they are traced as well.

Spans live in memory as ``[id, parent_id, name, start, end, attrs]`` and
are written out once, after the pass.  Per-layer numbers come only from
these spans; ``StabilityReport.timings`` is not used because it reports
``assemble`` as ~0 whenever the forms are passed in.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("mesh", "element", "assembly", "eigensolve", "stability",
          "poisson", "cli")

# wrapped beyond the package's exported API: the two call counts of
# open interest and the per-command entry point
EXTRA_TARGETS = (("assembly", "cell_geometry"),
                 ("assembly", "pressure_mass_solve"),
                 ("cli", "main"))
METHOD_TARGETS = (("element", "ReferenceElement", "tabulate"),
                  ("element", "ReferenceElement", "tabulate_gradients"))

# per-layer self-time metrics: metric -> span names whose self times add up
SELF_TIME_GROUPS = {
    "mesh.generate_s": ("mesh.generate",),
    "mesh.singular_vertices_s": ("mesh.singular_vertices",),
    "mesh.import_s": ("mesh.read_mesh", "mesh.import_mesh"),
    "element.tabulate_s": ("element.ReferenceElement.tabulate",
                           "element.ReferenceElement.tabulate_gradients"),
    "assembly.assemble_s": ("assembly.assemble",),
    "assembly.build_spaces_s": ("assembly.build_spaces",
                                "assembly.vector_lagrange_space",
                                "assembly.scalar_lagrange_space",
                                "assembly.discontinuous_space"),
    # cholesky is only reached through schur_complement
    "eigensolve.schur_s": ("eigensolve.schur_complement", "eigensolve.cholesky"),
    "eigensolve.eig_s": ("eigensolve.sym_generalized_eig",
                         "eigensolve.jacobi_generalized_eig"),
    "stability.infsup_s": ("stability.brezzi_infsup",),
    "stability.coercivity_s": ("stability.brezzi_coercivity",),
    "stability.babuska_s": ("stability.babuska_infsup",),
    "stability.stokes_s": ("stability.stokes_infsup",),
    "stability.laplace_s": ("stability.laplace_eigenvalue",),
    "stability.sweep_s": ("stability.threshold_sweep",),
    "stability.classify_s": ("stability.classify_spectrum",),
    "poisson.solve_s": ("poisson.solve_mixed",),
    "poisson.error_norms_s": ("poisson.error_norms",),
    "poisson.interpolate_s": ("poisson.interpolate",),
    "cli.self_s": ("cli.main",),
}

CALL_COUNTS = {
    "element.tabulate_calls": ("element.ReferenceElement.tabulate",
                               "element.ReferenceElement.tabulate_gradients"),
    "assembly.cell_geometry_calls": ("assembly.cell_geometry",),
    "assembly.pressure_mass_solve_calls": ("assembly.pressure_mass_solve",),
    "eigensolve.schur_calls": ("eigensolve.schur_complement",),
    "eigensolve.eig_calls": ("eigensolve.sym_generalized_eig",),
}

BYTES_PER_FLOAT = 8


def schur_cost(m, n, dense_limit):
    """(flops, bytes) of S = B A^{-1} B^T with B m x n and A n x n.

    Standard LAPACK counts: potrf n^3/3, two trsm with m right-hand sides
    2 n^2 m, and the gemm 2 m^2 n.  Above ``dense_limit`` A is factored by
    splu, whose cost depends on fill-in; only the gemm is counted then.
    Bytes are the dense operands: B^T and A^{-1} B^T (n x m), S (m x m)
    and, on the dense path, A itself.
    """
    flops = 2.0 * m * m * n
    nbytes = BYTES_PER_FLOAT * (2 * n * m + m * m)
    if n <= dense_limit:
        flops += n ** 3 / 3.0 + 2.0 * n * n * m
        nbytes += BYTES_PER_FLOAT * n * n
    return flops, nbytes


def eig_cost(dim, vectors):
    """(flops, bytes) of the dense generalized symmetric eigensolve.

    potrf N^3/3, sygst N^3, sytrd 4N^3/3 (eigenvalues from the tridiagonal
    form are O(N^2)); eigenvectors add the ormtr back-transform 2N^3 and
    the triangular back-solve N^3.  Bytes are the two dense N x N
    operands, plus the eigenvectors when requested.
    """
    flops = 8.0 * dim ** 3 / 3.0
    mats = 2
    if vectors:
        flops += 3.0 * dim ** 3
        mats += 1
    return flops, BYTES_PER_FLOAT * mats * dim * dim


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, on_exit=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name,
                    time.perf_counter(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if on_exit is not None:
                span[5] = on_exit(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


def _size_hooks():
    """Attribute recorders for the spans whose sizes feed counts."""
    from mixedstab import eigensolve

    def assemble_attrs(args, kwargs, forms):
        return {"nV": forms.V_h.ndofs, "nQ": forms.Q_h.ndofs,
                "nnz": int(forms.A_div.nnz + 2 * forms.B.nnz)}

    def schur_attrs(args, kwargs, result):
        b, a = args[0], args[1]
        flops, nbytes = schur_cost(b.shape[0], a.shape[0], eigensolve.DENSE_LIMIT)
        return {"m": b.shape[0], "n": a.shape[0], "flops": flops, "bytes": nbytes}

    def eig_attrs(args, kwargs, result):
        dim = len(result.values)
        flops, nbytes = eig_cost(dim, result.vectors is not None)
        return {"dim": dim, "flops": flops, "bytes": nbytes}

    return {"assembly.assemble": assemble_attrs,
            "eigensolve.schur_complement": schur_attrs,
            "eigensolve.sym_generalized_eig": eig_attrs}


def install(tracer):
    """Wrap every target in every mixedstab namespace that binds it."""
    import mixedstab
    import mixedstab.cli  # noqa: F401  (the entry point must be loaded)

    modules = [m for name, m in sys.modules.items()
               if name == "mixedstab" or name.startswith("mixedstab.")]
    targets = {}
    for attr in dir(mixedstab):
        obj = getattr(mixedstab, attr)
        module = getattr(obj, "__module__", "") or ""
        if (callable(obj) and not isinstance(obj, type)
                and module.startswith("mixedstab.")):
            targets[f"{module.split('.', 1)[1]}.{attr}"] = obj
    for layer, attr in EXTRA_TARGETS:
        targets[f"{layer}.{attr}"] = getattr(sys.modules[f"mixedstab.{layer}"], attr)

    hooks = _size_hooks()
    for name, fn in targets.items():
        wrapper = tracer.wrap(name, fn, hooks.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
    for layer, cls_name, meth in METHOD_TARGETS:
        cls = getattr(sys.modules[f"mixedstab.{layer}"], cls_name)
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    Spans come from one thread, so children never overlap and their
    durations add up to the part of the parent they cover.
    """
    child_total = defaultdict(float)
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child_total[parent] += end - start
    return [(end - start) - child_total[sid]
            for sid, parent, name, start, end, attrs in spans]


def layer_metrics(spans, cases):
    """Per-layer metrics of one traced pass.

    ``cases`` is the number of stability cases the workload runs; it is the
    base of ``stability.eigsolves_per_case``.
    """
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for span, own in zip(spans, selfs):
        name = span[2]
        self_by_name[name] += own
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own

    out = {}
    for metric, names in SELF_TIME_GROUPS.items():
        out[metric] = sum(self_by_name[n] for n in names)
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = layer_self[layer]
    for metric, names in CALL_COUNTS.items():
        out[metric] = sum(calls[n] for n in names)

    sums = defaultdict(float)
    for sid, parent, name, start, end, attrs in spans:
        if attrs:
            for key, value in attrs.items():
                sums[(name, key)] += value
    out["assembly.nV"] = int(sums[("assembly.assemble", "nV")])
    out["assembly.nQ"] = int(sums[("assembly.assemble", "nQ")])
    out["assembly.nnz"] = int(sums[("assembly.assemble", "nnz")])
    out["eigensolve.eig_dim"] = int(sums[("eigensolve.sym_generalized_eig", "dim")])
    out["eigensolve.dense_flops"] = (sums[("eigensolve.schur_complement", "flops")]
                                     + sums[("eigensolve.sym_generalized_eig", "flops")])
    out["eigensolve.dense_bytes"] = (sums[("eigensolve.schur_complement", "bytes")]
                                     + sums[("eigensolve.sym_generalized_eig", "bytes")])
    out["stability.eigsolves_per_case"] = (
        out["eigensolve.eig_calls"] / cases if cases else 0.0)

    # a solve that applied the pressure-mass preconditioner took the CG
    # branch; each application is one CG iteration (scipy's cg calls the
    # preconditioner once per iteration)
    precond = defaultdict(int)
    for sid, parent, name, start, end, attrs in spans:
        if name == "assembly.pressure_mass_solve" and parent is not None:
            precond[parent] += 1
    solves = [s[0] for s in spans if s[2] == "poisson.solve_mixed"]
    out["poisson.cg_solves"] = sum(1 for sid in solves if precond[sid])
    out["poisson.dense_solves"] = len(solves) - out["poisson.cg_solves"]
    out["poisson.cg_iterations"] = sum(precond[sid] for sid in solves)
    return out
