"""Critical points of the square loss of deep linear networks.

Construction, classification (global minimizer / strict saddle / non-strict
saddle), certified negative-curvature witnesses and saddle-escape
experiments.
"""

__version__ = "0.1.0"

from .classifier import (
    Classification,
    Pivot,
    PivotStaircase,
    analyze_pivot,
    classification_to_json,
    classify,
)
from .critical_points import (
    CriticalPointSpec,
    SupportResult,
    associated_support,
    build_critical_point,
    build_example_family,
    canonical_form,
    critical_value,
    enumerate_critical_values,
    spec_from_json,
    spec_to_json,
    transform_weights,
)
from .curvature import (
    CurvatureCache,
    FtStDecomposition,
    TightenedStructure,
    WitnessCase,
    c2_value,
    ft_st_decomposition,
    hessian_dense,
    hessian_min_eig,
    taylor_coeffs,
    witness_eigenswap,
    witness_untightened,
)
from .data_model import (
    DataMatrices,
    SigmaBundle,
    build_sigma_bundle,
    check_assumption_h,
    generate_gaussian_data,
    read_matrix_csv,
    write_matrix_csv,
)
from .errors import (
    AmbiguousProjector,
    AssumptionViolated,
    DegenerateBasis,
    IllConditioned,
    InternalInconsistency,
    InvalidPivot,
    InvalidRank,
    InvalidShape,
    LinSaddleError,
    NeedsCanonicalization,
    NoTightenedPointExists,
    NotApplicable,
    NotCritical,
    NotTightened,
    ProbeNotConverged,
    TooLarge,
)
from .experiments import (
    EscapeRun,
    ExperimentConfig,
    OptimizerConfig,
    escape_epoch,
    escape_gate,
    escape_threshold,
    perturb_near,
    run_experiment,
    summarize_runs,
    train_runs,
)
from .network import (
    Direction,
    NetworkShape,
    Weights,
    global_map,
    gradient,
    loss,
    weights_from_json,
    weights_to_json,
)
from .ranktol import RankTolerance, numeric_rank
