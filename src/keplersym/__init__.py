"""Kepler-problem conserved quantities and LRL symmetry transformations.

Each submodule is imported on first use of one of its names (PEP 562), so that
`import keplersym.cli` loads only what a CLI call needs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package serves from it; each submodule is a name too
_EXPORTS = {
    "core": (
        "ConservedSet", "ExtendedState", "KeplerSystem", "OrbitClass", "PhaseState", "Vec3", "acceleration",
        "classify_orbit", "conserved_set", "lagrangian", "material_derivative", "set_from_constants",
    ),
    "errors": (
        "ApsisError", "CollisionError", "DegenerateDirectionError", "DegenerateStateError", "FlowDegeneracyError",
        "InadmissibleTransformError", "IntegrationError", "KeplerError", "RadialStateError",
        "SingularOriginError", "StepUnderflowError", "UsageError",
    ),
    "generators": (
        "GeneratorClass", "GeneratorId", "GeneratorKind", "GeneratorValue", "characteristic",
        "classify_generator", "gauge_fixed_generator", "noether_characteristic", "prolonged_generator",
    ),
    "brackets": (
        "BracketEntry", "BracketReport", "poisson_bracket", "quadratic_invariants", "structure_table",
        "symmetry_action",
    ),
    "transforms": (
        "TransformBatch", "TransformResult", "admissibility", "direction_lrl_transform", "lrl_transform", "rotate",
        "rotation_matrix", "time_shift_quadrature", "time_translate", "transform_batch",
        "transform_constants_direction", "transform_constants_lrl",
    ),
    "flow": (
        "FlowReport", "SolutionMappingReport", "SymmetryFlowResult", "Trajectory", "compare_flow_vs_closed_form",
        "integrate_orbit", "integrate_symmetry_flow", "verify_solution_mapping",
    ),
    "fields": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
