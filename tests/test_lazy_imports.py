"""The package and the CLI import each module only when something uses it.

Each check runs in a fresh interpreter, so that no module that another test
loaded is already in sys.modules.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BASE = ["cli", "core", "errors"]

# keplersym.__all__ as it stood when every name was imported eagerly
PUBLIC_NAMES = [
    "ApsisError", "BracketEntry", "BracketReport", "CollisionError", "ConservedSet", "DegenerateDirectionError",
    "DegenerateStateError", "ExtendedState", "FlowDegeneracyError", "FlowReport", "GeneratorClass", "GeneratorId",
    "GeneratorKind", "GeneratorValue", "InadmissibleTransformError", "IntegrationError", "KeplerError",
    "KeplerSystem", "OrbitClass", "PhaseState", "RadialStateError", "SingularOriginError", "SolutionMappingReport",
    "StepUnderflowError", "SymmetryFlowResult", "Trajectory", "TransformBatch", "TransformResult", "UsageError",
    "Vec3", "acceleration", "admissibility", "brackets", "characteristic", "classify_generator", "classify_orbit",
    "compare_flow_vs_closed_form", "conserved_set", "core", "direction_lrl_transform", "errors", "fields", "flow",
    "gauge_fixed_generator", "generators", "integrate_orbit", "integrate_symmetry_flow", "lagrangian",
    "lrl_transform", "material_derivative", "noether_characteristic", "poisson_bracket", "prolonged_generator",
    "quadratic_invariants", "rotate", "rotation_matrix", "set_from_constants", "structure_table", "symmetry_action",
    "time_shift_quadrature", "time_translate", "transform_batch", "transform_constants_direction",
    "transform_constants_lrl", "transforms", "verify_solution_mapping",
]

LOADED = """
import sys
def loaded():
    return sorted(m[len("keplersym."):] for m in sys.modules if m.startswith("keplersym."))
"""


def _run(code: str):
    """The JSON that code prints last, run in a fresh interpreter on this checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", LOADED + code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_only_core_and_errors():
    assert _run("import json, keplersym.cli\nprint(json.dumps(loaded()))") == BASE


STATE = ["--r", "1,0.1,0", "--v", "0.1,1.1,0"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["conserved", *STATE], BASE),
        (["transform", *STATE, "--kind", "rotation", "--eps", "0.1,0,0"],
         [*BASE, "fields", "generators", "transforms"]),
        (["transform", *STATE, "--kind", "lrl", "--eps", "0.1,0,0"],
         [*BASE, "fields", "flow", "generators", "transforms"]),
        (["brackets", *STATE], ["brackets", *BASE, "fields", "generators"]),
        (["orbit", *STATE, "--tmax", "0.5"], [*BASE, "fields", "flow", "generators", "transforms"]),
    ],
    ids=["conserved", "transform-rotation", "transform-lrl", "brackets", "orbit"],
)
def test_each_subcommand_loads_only_what_it_calls(argv, modules):
    got = _run(
        "import contextlib, io, json\nimport keplersym.cli as cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    code = cli.main({argv!r})\n"
        "print(json.dumps([code, loaded()]))"
    )
    assert got == [0, sorted(modules)]


def test_every_public_name_resolves_and_star_import_binds_it():
    got = _run(
        "import json, keplersym\n"
        "names = {}\nexec('from keplersym import *', names)\n"
        "print(json.dumps([keplersym.__all__, sorted(set(names) & set(keplersym.__all__)),\n"
        "    sorted(set(dir(keplersym)) & set(keplersym.__all__)), loaded()]))"
    )
    every, bound, listed, modules = got
    assert every == PUBLIC_NAMES
    assert bound == PUBLIC_NAMES and listed == PUBLIC_NAMES
    assert "verify" not in modules and "cli" not in modules


def test_public_names_are_the_submodules_objects():
    import keplersym

    for name in PUBLIC_NAMES:
        value = getattr(keplersym, name)
        home = keplersym._HOME.get(name)
        if home is None:
            assert value is importlib.import_module(f"keplersym.{name}")
        else:
            assert value is getattr(importlib.import_module(f"keplersym.{home}"), name)
    with pytest.raises(AttributeError):
        keplersym.no_such_name


def test_moved_constants_keep_their_old_names():
    from keplersym import core, flow, verify

    assert verify.DEFAULT_TOLERANCES is core.DEFAULT_TOLERANCES
    assert verify.SUITES is core.SUITES
    assert flow.RK_STEPS is core.RK_STEPS
    assert flow.ORBIT_TOL is core.ORBIT_TOL
