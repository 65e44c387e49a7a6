"""Energy-stable variable-step IMEX BDF2 solver for the periodic Cahn-Hilliard equation."""

from .spectral import Grid, SpectralField
from .timestep import (
    A1ViolationError,
    KernelResiduals,
    QuadraticFormCheck,
    SingularKernelError,
    TimeMesh,
    bdf_weights,
    dcc_kernels,
    doc_kernels,
    kernel_matrices,
    kernel_residuals,
    quadratic_form_check,
    r_max_root,
    random_mesh,
)
from .stepper import (
    GsavState,
    NonfiniteFieldError,
    RecordCheck,
    StepRecord,
    advance,
    energy,
    gamma_update,
    init_state,
    linear_solve,
    relax,
    validate_records,
)
from .policies import AdaptiveStep, FixedStep, MeshExhaustedError, PrescribedMesh, StepPolicy, run_with_policy
from .scenarios import (
    ConvergenceRow,
    DegenerateRatioError,
    DimMismatchError,
    Scenario,
    ic_bubble,
    ic_equilibrium,
    ic_kissing,
    ic_random,
    initial_field,
    order_of,
    run_convergence,
    run_scenario,
)
from .config import (
    SCENARIO_NAMES,
    ConfigParseError,
    ConfigValidationError,
    SimConfig,
    build_policy,
    build_scenario,
    parse_config,
)
from .recordio import (
    RECORD_FIELDS,
    RecordWriter,
    Snapshot,
    SnapshotFormatError,
    read_record_blocks,
    read_records,
    read_snapshot,
    write_records,
    write_snapshot,
)

__version__ = "0.1.0"
