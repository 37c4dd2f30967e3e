"""Bipartite entanglement detection through two-qubit subspace witnesses and
a measurable lower bound on the convex-roof extended negativity.

The toolkit compresses an m x n state onto every pair of two-dimensional
local subspaces, runs CHSH and nonlinear two-qubit witnesses on the
compressed blocks, and assembles the per-subspace violations into a lower
bound on the convex-roof extended negativity that is tight on canonical
Schmidt-form pure states.  The modules, each with its conventions in its
docstring:

* qstate: states, validation, partial transpose and negativity;
* generators: the subspace generators, observables and rotations;
* witness: the subspace kernel and both witnesses' closed-form maxima;
* search: the numeric settings search that cross-checks those maxima;
* cren: the CREN lower bound;
* states: the reference state families;
* scan: parameter sweeps and threshold bisection;
* cli: the `entwit` console script (detect, bound, scan, selftest).

`import entwit` loads none of them: each name below is imported from its
home module on first access and then bound here.
"""

from importlib import import_module as _import_module

# home module -> the public names the package root re-exports from it
_API = {
    "qstate": (
        "TAU_HERM", "TAU_PSD", "TAU_TR", "DensityMatrix", "DimensionMismatchError", "Dims",
        "NotHermitianError", "NotPositiveError", "PureState", "SchmidtDecomposition",
        "StateValidationError", "TraceError", "from_json", "negativity", "partial_transpose",
        "partial_transpose_mat", "pure_negativity", "realignment_value", "schmidt", "to_json",
        "trace_norm", "validate_density", "validate_pure",
    ),
    "generators": (
        "PAULI", "EmbeddedObservable", "GeneratorPair", "ObservableTriad", "embed_observable",
        "generator_matrix", "rotation_zyz", "so_generators", "subspace_projector", "tilde_operator",
        "triad_from_rotation",
    ),
    "witness": (
        "TAU_C", "TAU_DETECT", "BellSettings", "ProjectedState", "SubspaceReport", "WitnessSettings",
        "bell_max", "bell_value", "best_report", "detect_entanglement", "estimate_mean_shots",
        "nonlinear_max", "nonlinear_normalized", "nonlinear_value", "project_state", "reports_to_csv",
        "subspace_report", "subspace_reports",
    ),
    "search": ("OptimizerConfig", "optimize_settings"),
    "cren": ("CrenBoundReport", "cren_lower_bound", "pure_sum_identity", "report_to_json"),
    "states": (
        "StateSpec", "bennett_rho", "example1_mixture", "example2_mixture", "isotropic", "max_entangled",
        "pure_from_schmidt", "random_density", "random_pure", "rho_a",
    ),
}
_HOME = {name: module for module, names in _API.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
