"""Kepler-problem conserved quantities and LRL symmetry transformations."""

from .core import (
    ConservedSet,
    ExtendedState,
    KeplerSystem,
    OrbitClass,
    PhaseState,
    Vec3,
    acceleration,
    classify_orbit,
    conserved_set,
    lagrangian,
    material_derivative,
    set_from_constants,
)
from .errors import (
    ApsisError,
    CollisionError,
    DegenerateDirectionError,
    DegenerateStateError,
    FlowDegeneracyError,
    InadmissibleTransformError,
    IntegrationError,
    KeplerError,
    RadialStateError,
    SingularOriginError,
    StepUnderflowError,
    UsageError,
)
from .generators import (
    GeneratorClass,
    GeneratorId,
    GeneratorKind,
    GeneratorValue,
    characteristic,
    classify_generator,
    gauge_fixed_generator,
    noether_characteristic,
    prolonged_generator,
)
from .brackets import (
    BracketEntry,
    BracketReport,
    poisson_bracket,
    quadratic_invariants,
    structure_table,
    symmetry_action,
)
from .transforms import (
    TransformBatch,
    TransformResult,
    admissibility,
    direction_lrl_transform,
    lrl_transform,
    rotate,
    rotation_matrix,
    time_shift_quadrature,
    time_translate,
    transform_batch,
    transform_constants_direction,
    transform_constants_lrl,
)
from .flow import (
    FlowReport,
    SolutionMappingReport,
    SymmetryFlowResult,
    Trajectory,
    compare_flow_vs_closed_form,
    integrate_orbit,
    integrate_symmetry_flow,
    verify_solution_mapping,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
