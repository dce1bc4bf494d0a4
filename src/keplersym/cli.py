"""Command-line front end.

Subcommands: conserved, transform, brackets, verify, orbit, sweep.  JSON
documents go to stdout as one compact line each, with a schema_version field
(`| python -m json.tool` indents them); orbit and sweep emit CSV.
Exit codes: 0 success/admissible, 1 verification failure, 2 usage or parse
error, 3 degenerate state, 4 inadmissible transform parameter (also a
transform whose reply says admissible: false, and a sweep with such a grid
point, before it writes any row).

Defaults may be supplied as a JSON config file via --config or the
KEPLERSYM_CONFIG environment variable; its keys are SETTINGS and
"tolerances", and any other key is a usage error.  `main` merges every given
flag that names a RunConfig field over the file once, validates the result
once, and the handlers read only that RunConfig.
The argument parser is built on the first call of `main` and shared by every
later call in the same process.  A flag's value may start with a minus sign in
both forms, `--r -1,0,0` and `--r=-1,0,0`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys as _sys
from dataclasses import dataclass, field

import numpy as np

from .brackets import structure_table
from .core import ExtendedState, KeplerSystem, PhaseState, conserved_set
from .errors import (
    DegenerateStateError,
    InadmissibleTransformError,
    IntegrationError,
    KeplerError,
    UsageError,
)
from .flow import CSV_COLUMNS, ORBIT_TOL, RK_STEPS, integrate_orbit, write_rows
from .generators import GeneratorKind
from .transforms import (
    TransformResult,
    direction_lrl_transform,
    lrl_transform,
    rotate,
    time_translate,
    transform_batch,
)
from .verify import DEFAULT_TOLERANCES, SUITES, run_suites

SCHEMA_VERSION = 1
CONFIG_ENV_VAR = "KEPLERSYM_CONFIG"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INADMISSIBLE = 4

# The RunConfig fields that a config file and a flag of the same name may set
SETTINGS = ("kappa", "rk_steps", "seed", "samples")
# A minus sign, then a digit or a point: a negative value, never a flag.  argparse takes
# it for a flag unless it is a plain decimal number, so "-1,0,0" and "-1e3" are joined
# to the flag before them.
NEGATIVE_VALUE = re.compile(r"-\.?\d")


@dataclass
class RunConfig:
    kappa: float = 1.0
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    rk_steps: int = RK_STEPS
    seed: int = 7
    samples: int = 200

    def validate(self) -> None:
        if self.kappa <= 0:
            raise UsageError("kappa must be positive")
        for name in ("samples", "rk_steps"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        for name, value in self.tolerances.items():
            if not (0.0 < value < float("inf")):
                raise UsageError(f"tolerance {name!r} must be positive and finite, got {value}")


def _load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return cfg
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("tolerances", {}), dict):
        raise UsageError(f"config file {path} must hold a JSON object, its tolerances an object")
    unknown = sorted(set(data) - {*SETTINGS, "tolerances"})
    if unknown:
        raise UsageError(f"config file {path}: unknown key(s) {', '.join(map(repr, unknown))}")
    try:
        for key in SETTINGS:
            if key in data:
                setattr(cfg, key, type(getattr(cfg, key))(data[key]))
        cfg.tolerances.update({k: float(v) for k, v in data.get("tolerances", {}).items()})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    return cfg


def parse_vec3(text: str, name: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{name} must be three comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from exc


def _emit_json(doc: dict) -> None:
    """One line of compact JSON: without indent, json encodes in C."""
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    _sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _state_from_args(args) -> ExtendedState:
    r = parse_vec3(args.r, "--r")
    v = parse_vec3(args.v, "--v")
    return ExtendedState(getattr(args, "t", 0.0) or 0.0, PhaseState(r, v))


def _simple_result(state: ExtendedState, out: ExtendedState, sys: KeplerSystem) -> TransformResult:
    """A rotation or time translation: every parameter is admissible, and the
    diagnostics report how well |r| (not kept by a time translation) and E held."""
    c_in = conserved_set(state.state, sys)
    c_out = conserved_set(out.state, sys)
    diagnostics = {
        "r_invariance": abs(out.state.r_mag - state.state.r_mag),
        "E_invariance": abs(c_out.E - c_in.E),
        "reconstruction_residual": 0.0,
    }
    return TransformResult(out, c_out, out.t - state.t, True, diagnostics, ())


def cmd_conserved(args, cfg: RunConfig) -> int:
    sys = KeplerSystem(kappa=cfg.kappa)
    state = _state_from_args(args)
    c = conserved_set(state.state, sys)
    _emit_json(c.as_dict())
    return EXIT_OK


def cmd_transform(args, cfg: RunConfig) -> int:
    sys = KeplerSystem(kappa=cfg.kappa)
    state = _state_from_args(args)
    kind = args.kind
    try:
        if kind == "rotation":
            result = _simple_result(state, rotate(state, parse_vec3(args.eps, "--eps")), sys)
        elif kind == "time":
            try:
                eps = float(args.eps)
            except ValueError as exc:
                raise UsageError("--eps for a time translation is a single number") from exc
            result = _simple_result(state, time_translate(state, eps, sys), sys)
        elif kind == "lrl":
            result = lrl_transform(state, sys, parse_vec3(args.eps, "--eps"))
        else:
            result = direction_lrl_transform(state, sys, parse_vec3(args.eps, "--eps"))
    except InadmissibleTransformError as exc:
        doc = {
            "admissible": False,
            "error": str(exc),
            "diagnostics": {"root_argument": exc.root_argument},
        }
        _emit_json(doc)
        return EXIT_INADMISSIBLE
    _emit_json(result.as_dict())
    return EXIT_OK if result.admissible else EXIT_INADMISSIBLE


def cmd_brackets(args, cfg: RunConfig) -> int:
    sys = KeplerSystem(kappa=cfg.kappa)
    state = _state_from_args(args)
    report = structure_table(state.state, sys, fd_check=args.fd_check)
    _emit_json(report.as_dict())
    ok = report.max_residual <= cfg.tolerances["bracket_analytic"]
    if args.fd_check and report.max_fd_residual is not None:
        ok = ok and report.max_fd_residual <= cfg.tolerances["bracket_fd"]
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_verify(args, cfg: RunConfig) -> int:
    results = run_suites(args.suite, cfg.samples, cfg.seed, cfg.kappa, cfg.rk_steps, tolerances=cfg.tolerances)
    for res in results:
        _sys.stdout.write(res.line() + "\n")
    failed = [r for r in results if not r.passed]
    _sys.stdout.write(
        f"{'FAIL' if failed else 'PASS'}: {len(results) - len(failed)}/{len(results)} properties\n"
    )
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def _write_rows(path, header: list[str], rows) -> None:
    """CSV rows to the file at path, or to stdout when path is None."""
    with open(path, "w") if path else contextlib.nullcontext(_sys.stdout) as fh:
        write_rows(fh, header, rows)


def cmd_orbit(args, cfg: RunConfig) -> int:
    sys = KeplerSystem(kappa=cfg.kappa)
    state = _state_from_args(args)
    traj = integrate_orbit(state, sys, args.tmax, tol=args.tol, dt_out=args.dt_out)
    _write_rows(args.out, list(CSV_COLUMNS), traj.csv_rows())
    return EXIT_OK


def cmd_sweep(args, cfg: RunConfig) -> int:
    if args.grid < 1:
        raise UsageError("--grid must be >= 1")
    sys = KeplerSystem(kappa=cfg.kappa)
    state = _state_from_args(args)
    axis = parse_vec3(args.eps_axis, "--eps-axis")
    axis_norm = float(np.linalg.norm(axis))
    if axis_norm == 0.0:
        raise UsageError("--eps-axis must be non-zero")
    axis = axis / axis_norm
    eps = np.linspace(0.0, args.eps_max, args.grid)[:, None] * axis
    if args.kind == "rotation":
        starts = [rotate(state, e) for e in eps]
    else:
        # one batch for the whole grid, so that an inadmissible point fails before any row is written
        kind = GeneratorKind.LRL if args.kind == "lrl" else GeneratorKind.LRL_DIRECTION
        n = len(eps)
        out = transform_batch(
            kind, np.full(n, state.t), np.tile(state.r, (n, 1)), np.tile(state.v, (n, 1)), eps, sys.kappa
        )
        if not out.admissible.all():
            bad = int(np.argmin(out.admissible))
            raise InadmissibleTransformError(
                f"grid point {bad} (|eps| = {float(np.linalg.norm(eps[bad])):.6g}) is not admissible: "
                f"reconstruction residual {out.diagnostics['reconstruction_residual'][bad]:.3e}, "
                f"r invariance {out.diagnostics['r_invariance'][bad]:.3e}"
            )
        starts = [ExtendedState(t, PhaseState(r, v)) for t, r, v in zip(out.t, out.r, out.v)]

    def families():
        for index, start in enumerate(starts):
            traj = integrate_orbit(start, sys, args.tmax, tol=args.tol, dt_out=args.dt_out)
            for row in traj.csv_rows():
                yield [float(index), *row]

    _write_rows(args.out, ["family", *CSV_COLUMNS], families())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="keplersym",
        description="Kepler-problem conserved quantities, LRL symmetry transformations, "
        "and numerical verification of their algebra.",
    )
    parser.add_argument("--config", help="JSON config file (or set KEPLERSYM_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p):
        p.add_argument("--r", required=True, help="position as x,y,z")
        p.add_argument("--v", required=True, help="velocity as x,y,z")
        p.add_argument("--t", type=float, default=0.0, help="initial time (default 0)")
        p.add_argument("--kappa", type=float, default=None)

    p = sub.add_parser("conserved", help="conserved quantities of a state")
    add_state(p)
    p.set_defaults(func=cmd_conserved)

    p = sub.add_parser("transform", help="apply a finite symmetry transformation")
    add_state(p)
    p.add_argument("--kind", required=True, choices=["rotation", "time", "lrl", "lrl-direction"])
    p.add_argument("--eps", required=True, help="parameter: x,y,z (a number for --kind time)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("brackets", help="Poisson bracket structure table")
    add_state(p)
    p.add_argument("--fd-check", action="store_true", help="add a finite-difference column")
    p.set_defaults(func=cmd_brackets)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--rk-steps", type=int, default=None)
    p.add_argument("--tol", dest="tolerance", metavar="TOL", type=float, default=None,
                   help="override every suite tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbit", help="integrate an orbit and emit CSV samples")
    add_state(p)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--dt-out", type=float, default=None)
    p.add_argument("--tol", type=float, default=ORBIT_TOL)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("sweep", help="one orbit per grid point of the transform parameter")
    add_state(p)
    p.add_argument("--kind", required=True, choices=["rotation", "lrl", "lrl-direction"])
    p.add_argument("--eps-axis", required=True, help="parameter direction as x,y,z")
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--grid", type=int, required=True, help="number of grid points")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--dt-out", type=float, default=0.01)
    p.add_argument("--tol", type=float, default=ORBIT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each NEGATIVE_VALUE written as --flag=value onto the flag before it."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(_sys.argv[1:] if argv is None else argv))
    try:
        cfg = _load_config(args.config)
        for key in SETTINGS:
            if getattr(args, key, None) is not None:
                setattr(cfg, key, getattr(args, key))
        if getattr(args, "tolerance", None) is not None:
            cfg.tolerances = dict.fromkeys(cfg.tolerances, args.tolerance)
        cfg.validate()
        return args.func(args, cfg)
    except BrokenPipeError:
        try:
            _sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except UsageError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except InadmissibleTransformError as exc:
        _sys.stderr.write(f"inadmissible: {exc}\n")
        return EXIT_INADMISSIBLE
    except (DegenerateStateError, IntegrationError) as exc:
        _sys.stderr.write(f"degenerate state: {exc}\n")
        return EXIT_DEGENERATE
    except KeplerError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
