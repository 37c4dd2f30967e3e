"""Bipartite entanglement detection through two-qubit subspace witnesses and
a measurable lower bound on the convex-roof extended negativity.

The toolkit compresses an m x n state onto every pair of two-dimensional
local subspaces, runs CHSH and nonlinear two-qubit witnesses on the
compressed blocks, and assembles the per-subspace violations into a lower
bound on the convex-roof extended negativity that is tight on canonical
Schmidt-form pure states.  See the module docstrings of qstate, generators,
witness, cren, and states for the conventions; the `entwit` console script
(entwit.cli) exposes detection, bound computation, and parameter sweeps.
"""

from types import ModuleType as _ModuleType

from .qstate import (
    TAU_HERM,
    TAU_PSD,
    TAU_TR,
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    NotHermitianError,
    NotPositiveError,
    PureState,
    SchmidtDecomposition,
    StateValidationError,
    TraceError,
    from_json,
    negativity,
    partial_transpose,
    partial_transpose_mat,
    pure_negativity,
    realignment_value,
    schmidt,
    to_json,
    trace_norm,
    validate_density,
    validate_pure,
)
from .generators import (
    PAULI,
    EmbeddedObservable,
    GeneratorPair,
    ObservableTriad,
    embed_observable,
    generator_matrix,
    rotation_zyz,
    so_generators,
    subspace_projector,
    tilde_operator,
    triad_from_rotation,
)
from .witness import (
    TAU_C,
    TAU_DETECT,
    BellSettings,
    OptimizerConfig,
    ProjectedState,
    SubspaceReport,
    WitnessSettings,
    bell_max,
    bell_value,
    best_report,
    csv_rows,
    detect_entanglement,
    estimate_mean_shots,
    nonlinear_max,
    nonlinear_normalized,
    nonlinear_value,
    optimize_settings,
    project_state,
    reports_to_csv,
    subspace_report,
    subspace_reports,
)
from .cren import (
    CrenBoundReport,
    bound_from_rows,
    cren_lower_bound,
    cren_pure,
    pure_sum_identity,
    report_to_json,
)
from .states import (
    StateSpec,
    bennett_rho,
    example1_mixture,
    example2_mixture,
    isotropic,
    max_entangled,
    pure_from_schmidt,
    random_density,
    random_pure,
    rho_a,
)

__version__ = "0.1.0"

# every name imported above, so the import lists are the one list of the API
__all__ = sorted(
    name for name, obj in globals().items() if not name.startswith("_") and not isinstance(obj, _ModuleType)
) + ["__version__"]
