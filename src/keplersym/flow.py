"""Numerical integration oracles.

Two integrators live here.  Orbits are propagated with an embedded
Dormand-Prince 5(4) pair under PI step-size control; this is the trusted
reference dynamics every closed-form result is checked against.  Its step runs
on six Python floats, the tableau unrolled: numpy's fixed cost per call is nearly
all of a step on a 6-component array, and the float step takes a quarter of the
time.  Symmetry flows (the ray from the identity to a finite LRL or
LRL-direction transformation) are integrated with fixed-step classical RK4 so
that runs are bit-reproducible and convergence-order checks are meaningful.

The symmetry-flow vector field at (t, r, v) for parameter direction eps is

    dr/ds = P_eps + tau v,      dv/ds = DtP_eps + tau a,
    dt/ds = -(r x L) . eps,     tau   = -(r . P_eps) / (r . v)

where P_eps is the contracted characteristic of the family.  tau keeps |r|
exactly invariant and is singular at apsides (r.v = 0), so flows must start
off-apsis.  The LRL-direction field is the LRL field at the projected axis
eps~ = (eps - (Theta.eps) Theta)/|A|, dt/ds still along eps, so one RK4 batch
may mix the two families row by row.  eps~ is a combination of (r, v, eps), so
is the field: `fields.gauge_field` forms its six coefficients per row from five
dot products.  The RK4 loop keeps r, v and eps in one (3, 3, N)
component-major buffer, t in an (N,) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .core import (
    ExtendedState,
    KeplerSystem,
    PhaseState,
    Vec3,
    _require_off_origin,
    as_vec3,
    conserved_set,
    norm,
)
from .errors import (
    CollisionError,
    DegenerateDirectionError,
    FlowDegeneracyError,
    StepUnderflowError,
    UsageError,
)
from .generators import FAMILY_LABEL, GeneratorId, GeneratorKind
from .transforms import QUAD_PANELS, TransformResult, _transform_one

# Default DP5 tolerance of integrate_orbit and RK4 step count of the symmetry flows
ORBIT_TOL = 1e-10
RK_STEPS = 10_000
COLLISION_FLOOR = 1e-8
FLOW_APSIS_FLOOR = 1e-9
# Largest dt_out grid: at about 0.8 kB per held sample, one orbit stays under 1 GB.
MAX_ORBIT_SAMPLES = 1_000_000

CSV_COLUMNS = ("t", "rx", "ry", "rz", "vx", "vy", "vz", "E", "Lx", "Ly", "Lz", "Ax", "Ay", "Az")

# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6, 1980), unrolled.  The
# fifth-order weights _B are the seventh stage's row (FSAL); _E are fifth- minus fourth-order weights.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40


@dataclass(frozen=True)
class Trajectory:
    """Ordered orbit samples, their `fields.values` (one call per orbit), and the
    accepted and rejected steps of the integrator that made them."""

    samples: tuple[ExtendedState, ...]
    values: dict
    steps_accepted: int = 0
    steps_rejected: int = 0

    @property
    def drift(self) -> dict:
        """Largest deviation of E, L and A over the samples from the first sample."""
        return self.deviations()

    def deviations(self, ref=None) -> dict:
        """Largest deviation of E, L and A over the samples from ref (default: the first sample)."""
        vals = self.values
        e, l_vec, a_vec = (vals["E"][0], vals["L"][0], vals["A"][0]) if ref is None else (ref.E, ref.L, ref.A)
        return {
            "dE": float(np.max(np.abs(vals["E"] - e))),
            "dL": float(np.max(np.linalg.norm(vals["L"] - l_vec, axis=1))),
            "dA": float(np.max(np.linalg.norm(vals["A"] - a_vec, axis=1))),
        }

    def csv_rows(self) -> list[list[float]]:
        """One CSV_COLUMNS row per sample."""
        vals = self.values
        _require_off_origin(float(np.min(vals["r_mag"])))
        r = [s.r for s in self.samples]
        v = [s.v for s in self.samples]
        t = [s.t for s in self.samples]
        return np.column_stack([t, r, v, vals["E"], vals["L"], vals["A"]]).tolist()

    def write_csv(self, fh) -> None:
        write_rows(fh, CSV_COLUMNS, self.csv_rows())


def write_rows(fh, header, rows) -> None:
    """CSV to fh: the header, then each row with every value at full precision."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(repr(float(x)) for x in row) + "\n")


@dataclass(frozen=True)
class SymmetryFlowResult:
    out: ExtendedState
    r_mag_drift: float


@dataclass(frozen=True)
class FlowReport:
    """Closed-form transform versus its independently integrated flow."""

    closed_form: ExtendedState
    integrated: ExtendedState
    max_component_residual: float
    r_mag_drift: float


@dataclass(frozen=True)
class SolutionMappingReport:
    """Conserved-set deviations of the orbit re-integrated from a transformed state."""

    residuals: dict
    max_residual: float


def _orbit_rhs(y, kappa: float) -> tuple:
    """(v, -kappa r / |r|^3) at the six floats y = (r, v)."""
    x0, x1, x2, v0, v1, v2 = y
    r_sq = x0 * x0 + x1 * x1 + x2 * x2
    r_mag = math.sqrt(r_sq)
    if r_mag < COLLISION_FLOOR:
        raise CollisionError(f"|r| = {r_mag:.3e} fell below the collision floor")
    # r_mag * r_sq, not r_mag**3: a float power raises OverflowError where a product gives inf
    g = -kappa / (r_mag * r_sq)
    return v0, v1, v2, g * x0, g * x1, g * x2


def _dp_step(y, f, h: float, kappa: float) -> tuple[list, tuple, list]:
    """One Dormand-Prince 5(4) step of size h from y, whose slope is f: the fifth-order
    state, its slope (the next step's f) and h times the fifth- minus fourth-order slope."""
    k2 = _orbit_rhs([a + h * (_A21 * p) for a, p in zip(y, f)], kappa)
    k3 = _orbit_rhs([a + h * (_A31 * p + _A32 * q) for a, p, q in zip(y, f, k2)], kappa)
    k4 = _orbit_rhs([a + h * (_A41 * p + _A42 * q + _A43 * u) for a, p, q, u in zip(y, f, k2, k3)], kappa)
    k5 = _orbit_rhs([a + h * (_A51 * p + _A52 * q + _A53 * u + _A54 * w)
                     for a, p, q, u, w in zip(y, f, k2, k3, k4)], kappa)
    k6 = _orbit_rhs([a + h * (_A61 * p + _A62 * q + _A63 * u + _A64 * w + _A65 * z)
                     for a, p, q, u, w, z in zip(y, f, k2, k3, k4, k5)], kappa)
    y_new = [a + h * (_B1 * p + _B3 * u + _B4 * w + _B5 * z + _B6 * x)
             for a, p, u, w, z, x in zip(y, f, k3, k4, k5, k6)]
    k7 = _orbit_rhs(y_new, kappa)
    err = [h * (_E1 * p + _E3 * u + _E4 * w + _E5 * z + _E6 * x + _E7 * b)
           for p, u, w, z, x, b in zip(f, k3, k4, k5, k6, k7)]
    return y_new, k7, err


def _rms_scaled(x, y, y_new, tol: float) -> float:
    """RMS of x over the mixed scale tol (1 + max(|y|, |y_new|))."""
    q = [xi / (tol + tol * max(abs(a), abs(b))) for xi, a, b in zip(x, y, y_new)]
    return math.sqrt(sum(c * c for c in q) / len(q))


def _initial_step(y0, f0, tol: float, span: float) -> float:
    d0, d1 = _rms_scaled(y0, y0, y0, tol), _rms_scaled(f0, y0, y0, tol)
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    return min(h, abs(span)) if span != 0 else h


def integrate_orbit(
    state: ExtendedState,
    sys: KeplerSystem,
    t_span: float,
    tol: float = ORBIT_TOL,
    max_step: float | None = None,
    dt_out: float | None = None,
) -> Trajectory:
    """Propagate the orbit over t_span (may be negative).

    Samples land on the dt_out grid when given, otherwise at every accepted
    step; the trajectory counts the accepted and rejected steps.  Raises
    UsageError for a non-finite t_span or dt_out, a tol or max_step that is not
    positive and finite, a tol too small to size the first step or a dt_out grid
    of more than MAX_ORBIT_SAMPLES samples, CollisionError if the radius reaches
    the collision floor and StepUnderflowError if adaptive control stalls.
    """
    if not math.isfinite(t_span):
        raise UsageError(f"t_span must be finite, got {t_span}")
    if dt_out is not None and not math.isfinite(dt_out):
        raise UsageError(f"dt_out must be finite, got {dt_out}")
    for name, value in (("tol", tol), ("max_step", max_step)):
        if value is not None and not 0.0 < value < math.inf:
            raise UsageError(f"{name} must be positive and finite, got {value}")
    if t_span == 0.0:
        return _finish_trajectory([state], sys)
    direction = 1.0 if t_span > 0 else -1.0
    kappa = sys.kappa
    t0 = state.t
    t_end = t0 + t_span
    targets = [t_end]
    if dt_out is not None:
        if dt_out <= 0:
            raise UsageError("dt_out must be positive")
        grid = abs(t_span) / dt_out
        if grid > MAX_ORBIT_SAMPLES:
            raise UsageError(f"the dt_out grid asks for {grid:.3g} samples, over {MAX_ORBIT_SAMPLES}")
        n_grid = max(1, math.ceil(grid - 1e-12))
        targets = (t0 + direction * dt_out * k if k < n_grid else t_end for k in range(1, n_grid + 1))

    y = [*state.r.tolist(), *state.v.tolist()]
    f = _orbit_rhs(y, kappa)
    h = direction * _initial_step(y, f, tol, t_span)
    if not math.isfinite(h):
        raise UsageError(f"tol = {tol:.3g} is too small to size the first step")
    if max_step is not None:
        h = direction * min(abs(h), max_step)
    h_min = 1e-14 * max(1.0, abs(t_span))
    err_prev = 1.0
    t = t0
    samples = [state]
    accepted = rejected = 0

    for target in targets:
        while direction * (target - t) > 1e-14 * max(1.0, abs(target)):
            h = direction * min(abs(h), abs(target - t))
            if max_step is not None:
                h = direction * min(abs(h), max_step)
            if not abs(h) >= h_min:  # also a NaN step
                r_now = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])
                if r_now < 1e3 * COLLISION_FLOOR:
                    raise CollisionError(
                        f"|r| = {r_now:.3e} is collapsing onto the singularity at t = {t:.6g}"
                    )
                raise StepUnderflowError(f"step size {h:.3e} underflowed at t = {t:.6g}")

            y_new, f_new, err_vec = _dp_step(y, f, h, kappa)
            err = _rms_scaled(err_vec, y, y_new, tol)

            if err <= 1.0:
                accepted += 1
                t += h
                y, f = y_new, f_new  # FSAL
                factor = 0.9 * max(err, 1e-16) ** -0.14 * max(err_prev, 1e-16) ** 0.08
                err_prev = max(err, 1e-16)
                h *= min(5.0, max(0.2, factor))
                if dt_out is None:
                    samples.append(ExtendedState(t, PhaseState(y[:3], y[3:])))
            else:
                rejected += 1
                h *= max(0.1, 0.9 * err**-0.2)
        t = target
        if dt_out is not None:
            samples.append(ExtendedState(t, PhaseState(y[:3], y[3:])))
    if dt_out is None and samples[-1].t != t:
        samples.append(ExtendedState(t, PhaseState(y[:3], y[3:])))
    return _finish_trajectory(samples, sys, accepted, rejected)


def _finish_trajectory(samples: list[ExtendedState], sys: KeplerSystem, *steps: int) -> Trajectory:
    vals = fields.values(np.array([s.r for s in samples]), np.array([s.v for s in samples]), sys.kappa)
    return Trajectory(tuple(samples), vals, *steps)


def _normalize_kind(gen) -> GeneratorKind:
    kind = gen.kind if isinstance(gen, GeneratorId) else gen
    if kind not in (GeneratorKind.LRL, GeneratorKind.LRL_DIRECTION):
        raise UsageError("symmetry flows exist for the LRL and LRL-direction families")
    return kind


class _Kinds(tuple):
    """The per-row kinds of a flow batch, with the mask of its LRL-direction
    rows worked out once: the RK4 loop passes one such batch on every call."""

    def __new__(cls, kinds):
        if isinstance(kinds, _Kinds):
            return kinds
        self = super().__new__(cls, map(_normalize_kind, kinds))
        self.direction_rows = np.array([k is GeneratorKind.LRL_DIRECTION for k in self], dtype=bool)
        return self


def symmetry_flow_rhs(
    kind, r: np.ndarray, v: np.ndarray, eps: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched (dt/ds, dr/ds, dv/ds) of the gauge-fixed symmetry flow.

    kind is one GeneratorKind for every row or a sequence of N kinds, one per
    row.  dr/ds and dv/ds are (N, 3) views of one (2, 3, N) array.  Raises
    FlowDegeneracyError if any row is at an apsis or is a direction row at a
    circular state.
    """
    family = FAMILY_LABEL[kind] if isinstance(kind, GeneratorKind) else _Kinds(kind).direction_rows
    basis, gram = fields.frame(r, v, eps)
    r_sq, r_dot_v, v_sq = gram[0, 0], gram[0, 1], gram[1, 1]
    # |r.v| <= FLOW_APSIS_FLOOR |r||v|, squared
    if np.count_nonzero(r_dot_v * r_dot_v <= FLOW_APSIS_FLOOR**2 * (r_sq * v_sq)):
        raise FlowDegeneracyError(
            "flow reached an apsis (r.v = 0); the radius-preserving field is singular there"
        )
    try:
        dt, d = fields.gauge_field(family, basis, gram, kappa)
    except DegenerateDirectionError as exc:
        raise FlowDegeneracyError("flow reached a circular state; direction undefined") from exc
    return dt, d[0].T, d[1].T


def integrate_symmetry_flows(
    kind,
    t: np.ndarray,
    r: np.ndarray,
    v: np.ndarray,
    eps: np.ndarray,
    kappa: float,
    steps: int = RK_STEPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of a batch of flows over s in [0, 1].

    kind is one GeneratorKind or a sequence of N kinds, one per row, so that
    flows of both families run as one batch.  Returns (t, r, v, r_mag_drift),
    each batched over the leading axis.
    """
    if steps < 1:
        raise UsageError("steps must be >= 1")
    if not isinstance(kind, GeneratorKind):
        kind = _Kinds(kind)
    t = np.array(t, dtype=float)
    # r, v and eps component-major, each (3, N); the steps update only r and v
    y = np.array([np.atleast_2d(x).T for x in (r, v, eps)], dtype=float)
    stage, k, k_t = y.copy(), np.empty((4, 2) + y.shape[1:]), np.empty((4, y.shape[2]))
    y_rv, stage_rv = y[:2], stage[:2]
    r_mag0 = np.sqrt(np.einsum("cn,cn->n", y[0], y[0]))
    drift = np.zeros_like(r_mag0)
    h = 1.0 / steps
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (h / 6.0)

    for _ in range(steps):
        at = y
        for i, node in enumerate((0.5 * h, 0.5 * h, h, None)):
            k_t[i], dr, dv = symmetry_flow_rhs(kind, at[0].T, at[1].T, at[2].T, kappa)
            k[i, 0], k[i, 1] = dr.T, dv.T
            if node is not None:
                at = stage
                np.multiply(k[i], node, out=stage_rv)
                stage_rv += y_rv
        y_rv += (weights @ k.reshape(4, -1)).reshape(y_rv.shape)
        t += weights @ k_t
        if not np.isfinite(y_rv).all():
            raise FlowDegeneracyError("symmetry flow produced a non-finite state")
        np.maximum(drift, np.abs(np.sqrt(np.einsum("cn,cn->n", y[0], y[0])) - r_mag0), out=drift)
    return t, y[0].T.copy(), y[1].T.copy(), drift


def integrate_symmetry_flow(
    gen,
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    steps: int = RK_STEPS,
) -> SymmetryFlowResult:
    """Integrate one symmetry flow; eps = 0 returns the state unchanged."""
    kind = _normalize_kind(gen)
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        return SymmetryFlowResult(state, 0.0)
    t, r, v, drift = integrate_symmetry_flows(
        kind, np.array([state.t]), state.r[None, :], state.v[None, :], eps[None, :], sys.kappa, steps
    )
    out = ExtendedState(float(t[0]), PhaseState(r[0], v[0]))
    return SymmetryFlowResult(out, float(drift[0]))


def _closed_form(gen, state: ExtendedState, sys: KeplerSystem, eps, quad_panels: int) -> TransformResult:
    return _transform_one(_normalize_kind(gen), state, sys, eps, quad_panels)


def compare_flow_vs_closed_form(
    gen,
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    steps: int = RK_STEPS,
    quad_panels: int = QUAD_PANELS,
) -> FlowReport:
    """Residual between the closed-form transform and its integrated flow."""
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        return FlowReport(state, state, 0.0, 0.0)
    closed = _closed_form(gen, state, sys, eps, quad_panels).out
    flown = integrate_symmetry_flow(gen, state, sys, eps, steps)
    gap = gaps((closed.t, closed.r, closed.v), (flown.out.t, flown.out.r, flown.out.v))
    return FlowReport(closed, flown.out, max(gap), flown.r_mag_drift)


def gaps(a, b) -> tuple[float, float]:
    """The largest t difference and the largest (r, v) component difference of two
    (t, r, v) triples, of one extended state each or of arrays over rows."""
    t_gap, *rv_gaps = (float(np.max(np.abs(np.subtract(x, y)), initial=0.0)) for x, y in zip(a[:3], b[:3]))
    return t_gap, max(rv_gaps)


def verify_solution_mapping(
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    gen,
    t_span: float,
) -> SolutionMappingReport:
    """Re-integrate the orbit from a transformed state and hold it to its
    predicted conserved set."""
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        start, predicted = state, conserved_set(state.state, sys)
    else:
        result = _closed_form(gen, state, sys, eps, QUAD_PANELS)
        start, predicted = result.out, result.constants_out
    residuals = integrate_orbit(start, sys, t_span).deviations(predicted)
    return SolutionMappingReport(residuals, max(residuals.values()))
