"""Orbit propagation and numerical integration oracles.

Three propagators live here.  Time translation runs on the closed form of the
Kepler flow in universal variables (`propagate_kepler`): one Newton solve of
the universal Kepler equation, on six Python floats, for every energy branch.
Orbits are integrated with an embedded Dormand-Prince 5(4) pair under PI
step-size control; this is the trusted reference dynamics every closed-form
transform is checked against.  Its step runs on six Python floats, the tableau
unrolled into scalar statements that also form the error norm: numpy's fixed
cost per call is nearly all of a step on a 6-component array.  A dt_out grid is
sampled from each step's quartic dense output, so the grid does not change the
steps, and the samples are the rows (t, r, v) of one array.  Symmetry flows (the
ray from the identity to a finite LRL or LRL-direction transformation) are
integrated with fixed-step classical RK4 so that runs are bit-reproducible and
convergence-order checks are meaningful.

The symmetry-flow vector field at (t, r, v) for parameter direction eps is

    dr/ds = P_eps + tau v,      dv/ds = DtP_eps + tau a,
    dt/ds = tau (+ (eps.A) |L|^2/|A|^2 for the LRL vector),   tau = -(r . P_eps) / (r . v)

where P_eps is the contracted characteristic of the family.  tau keeps |r|
exactly invariant and is singular at apsides (r.v = 0), so flows must start
off-apsis.  The added term is a constant of the motion; with it both fields keep
the time of periapsis passage t - tau_p (`time_since_periapsis`), and the finite
transforms shift t by the change of tau_p.  The LRL-direction field is the LRL
field at the projected axis eps~ = (eps - (Theta.eps) Theta)/|A|, so one RK4 batch
may mix the two families row by row.  eps~ is a combination of (r, v, eps), so
is the field: `fields.GaugeField` forms its six coefficients per row from five
dot products.  The RK4 loop puts the LRL-direction rows first, keeps t, r, v and
eps in one (10, N) component-major stack, and binds one field to the batch when
it starts: its buffers are made once, its basis at each stage is a view of the
stack, it writes each stage's slopes into their slot in place, and |r|^2 is read
from its gram after each first stage.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import fields
from .core import (
    ORBIT_TOL,
    RK_STEPS,
    ExtendedState,
    KeplerSystem,
    PhaseState,
    Vec3,
    _norm,
    _require_off_origin,
    as_vec3,
    conserved_set,
    norm,
)
from .errors import (
    CollisionError,
    DegenerateDirectionError,
    FlowDegeneracyError,
    InadmissibleTransformError,
    IntegrationError,
    StepUnderflowError,
    UsageError,
)
from .generators import GeneratorId, GeneratorKind
from .transforms import _transform_one

COLLISION_FLOOR = 1e-8
FLOW_APSIS_FLOOR = 1e-9
_APSIS_SQ = np.array(FLOW_APSIS_FLOOR**2)  # |r.v| <= FLOW_APSIS_FLOOR |r||v|, squared
_CIRCULAR = "flow reached a circular state; direction undefined"
SOLUTION_STEP = 0.1  # how far along its orbit verify_solution_mapping takes a second state
# Largest dt_out grid: a held sample takes 56 B (0.2 kB once its `values` are formed), and its CSV
# lines are formed CSV_CHUNK rows at a time, so one orbit stays under 0.25 GB.
MAX_ORBIT_SAMPLES = 1_000_000
# Most DP5 steps, accepted and rejected, over one span.  Without dt_out every accepted step is
# a held sample, so this is the same bound; a run that needs more is refused, not left running.
MAX_ORBIT_STEPS = MAX_ORBIT_SAMPLES
# The universal Kepler equation's solve: its iteration cap, and its stopping test, a residual
# within a few units of roundoff of the sum of the magnitudes of the equation's terms
KEPLER_ITERATIONS = 100
KEPLER_TOL = 4 * 2.0**-52
# Stumpff c2 and c3 to psi^9, highest power first: c_k(psi) = sum_j (-psi)^j / (2j + k)!.  The
# first omitted term is below 1e-18 for |psi| < 1, where the closed forms lose digits.
_C2_SERIES = tuple((-1) ** j / math.factorial(2 * j + 2) for j in reversed(range(10)))
_C3_SERIES = tuple((-1) ** j / math.factorial(2 * j + 3) for j in reversed(range(10)))

# Rows per `fields.values` call and per write of `Trajectory.write_csv`: about 3 MB of Python floats
CSV_CHUNK = 4096
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
# Its quartic continuous extension (Shampine, Math. Comp. 46, 1986; Hairer, Norsett & Wanner, Solving
# ODEs I, section II.6): b_i(theta) = sum_j c_ij theta^j, j = 1..4, for k1, k3, .., k7; k2's is 0.
_DENSE = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


@dataclass(frozen=True)
class Trajectory:
    """Ordered orbit samples as the read-only rows (t, r, v) of one (n, 7) array, the kappa
    of their orbit, and the accepted and rejected steps of the integrator that made them."""

    rows: np.ndarray
    kappa: float
    steps_accepted: int = 0
    steps_rejected: int = 0

    @property
    def samples(self) -> tuple[ExtendedState, ...]:
        return tuple(map(_sample, self.rows))

    @property
    def end(self) -> ExtendedState:
        return _sample(self.rows[-1])

    @functools.cached_property
    def values(self) -> dict:
        """`fields.values` of every sample, formed on first use."""
        return fields.values(self.rows[:, 1:4], self.rows[:, 4:], self.kappa)

    def deviations(self, ref=None) -> dict:
        """Largest deviation of E, L and A over the samples from ref (default: the first sample)."""
        vals = self.values
        e, l_vec, a_vec = (vals["E"][0], vals["L"][0], vals["A"][0]) if ref is None else (ref.E, ref.L, ref.A)
        return {
            "dE": float(np.max(np.abs(vals["E"] - e))),
            "dL": float(np.max(np.linalg.norm(vals["L"] - l_vec, axis=1))),
            "dA": float(np.max(np.linalg.norm(vals["A"] - a_vec, axis=1))),
        }

    def write_csv(self, fh, *lead) -> None:
        """One line per sample to fh: the lead values, then its CSV_COLUMNS, each value as
        repr(float(x)).  `fields.values` is formed per CSV_CHUNK rows; it is per row, so
        its bits do not depend on the chunk."""
        head = "".join(f"{float(x)!r}," for x in lead)
        for lo in range(0, len(self.rows), CSV_CHUNK):
            rows = self.rows[lo : lo + CSV_CHUNK]
            vals = fields.values(rows[:, 1:4], rows[:, 4:], self.kappa)
            table = np.column_stack([rows, vals["E"], vals["L"], vals["A"]]).tolist()
            fh.writelines(head + ",".join(map(repr, row)) + "\n" for row in table)


def _sample(row: np.ndarray) -> ExtendedState:
    return ExtendedState(float(row[0]), PhaseState(row[1:4], row[4:]))


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
    """Conserved-set deviations of the orbit re-integrated from a transformed state, and the "solution" gap."""

    residuals: dict
    max_residual: float


def _pull(x0: float, x1: float, x2: float, kappa: float) -> float:
    """-kappa / |r|^3 at the three floats r: the acceleration is this times r."""
    r_sq = x0 * x0 + x1 * x1 + x2 * x2
    r_mag = math.sqrt(r_sq)
    if r_mag < COLLISION_FLOOR:
        raise CollisionError(f"|r| = {r_mag:.3e} fell below the collision floor")
    # r_mag * r_sq, not r_mag**3: a float power raises OverflowError where a product gives inf
    return -kappa / (r_mag * r_sq)


def _dp_step(y, f, h: float, kappa: float, tol: float) -> tuple:
    """One Dormand-Prince 5(4) step of size h from the six floats y = (r, v), whose slope is f:
    the fifth-order state, its slope (the next step's f), the RMS of h times the fifth- minus
    fourth-order slope over the mixed scale tol (1 + max(|y|, |y_new|)), and the slopes k3..k6
    that the dense output reads.  kij is component j of stage i's slope; the r part of a
    stage's slope is that stage's v."""
    x0, x1, x2, u0, u1, u2 = y
    f0, f1, f2, f3, f4, f5 = f
    p0, p1, p2 = x0 + h * (_A21 * f0), x1 + h * (_A21 * f1), x2 + h * (_A21 * f2)
    k20, k21, k22 = u0 + h * (_A21 * f3), u1 + h * (_A21 * f4), u2 + h * (_A21 * f5)
    g = _pull(p0, p1, p2, kappa)
    k23, k24, k25 = g * p0, g * p1, g * p2
    p0, k30 = x0 + h * (_A31 * f0 + _A32 * k20), u0 + h * (_A31 * f3 + _A32 * k23)
    p1, k31 = x1 + h * (_A31 * f1 + _A32 * k21), u1 + h * (_A31 * f4 + _A32 * k24)
    p2, k32 = x2 + h * (_A31 * f2 + _A32 * k22), u2 + h * (_A31 * f5 + _A32 * k25)
    g = _pull(p0, p1, p2, kappa)
    k33, k34, k35 = g * p0, g * p1, g * p2
    p0, k40 = x0 + h * (_A41 * f0 + _A42 * k20 + _A43 * k30), u0 + h * (_A41 * f3 + _A42 * k23 + _A43 * k33)
    p1, k41 = x1 + h * (_A41 * f1 + _A42 * k21 + _A43 * k31), u1 + h * (_A41 * f4 + _A42 * k24 + _A43 * k34)
    p2, k42 = x2 + h * (_A41 * f2 + _A42 * k22 + _A43 * k32), u2 + h * (_A41 * f5 + _A42 * k25 + _A43 * k35)
    g = _pull(p0, p1, p2, kappa)
    k43, k44, k45 = g * p0, g * p1, g * p2
    p0 = x0 + h * (_A51 * f0 + _A52 * k20 + _A53 * k30 + _A54 * k40)
    p1 = x1 + h * (_A51 * f1 + _A52 * k21 + _A53 * k31 + _A54 * k41)
    p2 = x2 + h * (_A51 * f2 + _A52 * k22 + _A53 * k32 + _A54 * k42)
    k50 = u0 + h * (_A51 * f3 + _A52 * k23 + _A53 * k33 + _A54 * k43)
    k51 = u1 + h * (_A51 * f4 + _A52 * k24 + _A53 * k34 + _A54 * k44)
    k52 = u2 + h * (_A51 * f5 + _A52 * k25 + _A53 * k35 + _A54 * k45)
    g = _pull(p0, p1, p2, kappa)
    k53, k54, k55 = g * p0, g * p1, g * p2
    p0 = x0 + h * (_A61 * f0 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50)
    p1 = x1 + h * (_A61 * f1 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
    p2 = x2 + h * (_A61 * f2 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
    k60 = u0 + h * (_A61 * f3 + _A62 * k23 + _A63 * k33 + _A64 * k43 + _A65 * k53)
    k61 = u1 + h * (_A61 * f4 + _A62 * k24 + _A63 * k34 + _A64 * k44 + _A65 * k54)
    k62 = u2 + h * (_A61 * f5 + _A62 * k25 + _A63 * k35 + _A64 * k45 + _A65 * k55)
    g = _pull(p0, p1, p2, kappa)
    k63, k64, k65 = g * p0, g * p1, g * p2
    n0 = x0 + h * (_B1 * f0 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60)
    n1 = x1 + h * (_B1 * f1 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
    n2 = x2 + h * (_B1 * f2 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
    n3 = u0 + h * (_B1 * f3 + _B3 * k33 + _B4 * k43 + _B5 * k53 + _B6 * k63)
    n4 = u1 + h * (_B1 * f4 + _B3 * k34 + _B4 * k44 + _B5 * k54 + _B6 * k64)
    n5 = u2 + h * (_B1 * f5 + _B3 * k35 + _B4 * k45 + _B5 * k55 + _B6 * k65)
    g = _pull(n0, n1, n2, kappa)
    k73, k74, k75 = g * n0, g * n1, g * n2
    q0 = h * (_E1 * f0 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * n3) / (tol + tol * max(abs(x0), abs(n0)))
    q1 = h * (_E1 * f1 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * n4) / (tol + tol * max(abs(x1), abs(n1)))
    q2 = h * (_E1 * f2 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * n5) / (tol + tol * max(abs(x2), abs(n2)))
    q3 = h * (_E1 * f3 + _E3 * k33 + _E4 * k43 + _E5 * k53 + _E6 * k63 + _E7 * k73) / (tol + tol * max(abs(u0), abs(n3)))
    q4 = h * (_E1 * f4 + _E3 * k34 + _E4 * k44 + _E5 * k54 + _E6 * k64 + _E7 * k74) / (tol + tol * max(abs(u1), abs(n4)))
    q5 = h * (_E1 * f5 + _E3 * k35 + _E4 * k45 + _E5 * k55 + _E6 * k65 + _E7 * k75) / (tol + tol * max(abs(u2), abs(n5)))
    err = math.sqrt((q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4 + q5 * q5) / 6)
    stages = ((k30, k31, k32, k33, k34, k35), (k40, k41, k42, k43, k44, k45),
              (k50, k51, k52, k53, k54, k55), (k60, k61, k62, k63, k64, k65))
    return (n0, n1, n2, n3, n4, n5), (n3, n4, n5, k73, k74, k75), err, stages


def _dense(y, h: float, theta: float, slopes) -> list:
    """The state at the fraction theta of the step of size h from y by the quartic continuous
    extension y + h sum_i b_i(theta) k_i, whose slopes are (k1, k3, k4, k5, k6, k7)."""
    b1, b3, b4, b5, b6, b7 = (theta * (c1 + theta * (c2 + theta * (c3 + theta * c4))) for c1, c2, c3, c4 in _DENSE)
    return [a + h * (b1 * p + b3 * u + b4 * w + b5 * z + b6 * x + b7 * q) for a, p, u, w, z, x, q in zip(y, *slopes)]


def _rms_scaled(x, y, tol: float) -> float:
    """RMS of x over the mixed scale tol (1 + |y|)."""
    q = [xi / (tol + tol * abs(a)) for xi, a in zip(x, y)]
    return math.sqrt(sum(c * c for c in q) / len(q))


def _initial_step(y0, f0, tol: float, span: float) -> float:
    d0, d1 = _rms_scaled(y0, y0, tol), _rms_scaled(f0, y0, tol)
    # the fallback scales with the span, so that it stays above the loop's floor 1e-14 |span|
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6 * max(1.0, abs(span))
    return min(h, abs(span)) if span != 0 else h


def integrate_orbit(
    state: ExtendedState,
    sys: KeplerSystem,
    t_span: float,
    tol: float = ORBIT_TOL,
    dt_out: float | None = None,
) -> Trajectory:
    """Propagate the orbit over t_span (may be negative).

    Samples lie on the dt_out grid when given, from each step's dense output, and at the
    span's end; otherwise at every accepted step.  The grid does not change the steps, and
    only the last step is cut short, to land on the span's end.  The loop steps in the time
    s = t - t0 elapsed since the start, and a row's time is t0 + s, so the start time does
    not change the steps.  The trajectory counts the accepted and rejected steps.  Raises
    UsageError for a non-finite t_span or dt_out, a t_span != 0 too small to move the start
    time, a tol that is not positive and finite, a tol too small to size the first step or a
    dt_out grid of more than MAX_ORBIT_SAMPLES samples, SingularOriginError for a sample at
    the origin, CollisionError if the radius reaches the collision floor, StepUnderflowError
    if adaptive control stalls and IntegrationError if the span takes more than
    MAX_ORBIT_STEPS steps.
    """
    if not math.isfinite(t_span):
        raise UsageError(f"t_span must be finite, got {t_span}")
    if t_span != 0.0 and state.t + t_span == state.t:
        raise UsageError(f"t_span = {t_span:.6g} does not move the start time t = {state.t:.6g}")
    if dt_out is not None and not math.isfinite(dt_out):
        raise UsageError(f"dt_out must be finite, got {dt_out}")
    if not 0.0 < tol < math.inf:
        raise UsageError(f"tol must be positive and finite, got {tol}")
    y = (*state.r.tolist(), *state.v.tolist())
    t0 = state.t
    rows = array("d", (t0, *y))
    if t_span == 0.0:
        return _finish_trajectory(rows, sys)
    direction = 1.0 if t_span > 0 else -1.0
    kappa = sys.kappa
    t_end = t0 + t_span
    n_grid = 0  # samples after t0 on the dt_out grid: k = 1 .. n_grid - 1, then t_end
    if dt_out is not None:
        if dt_out <= 0:
            raise UsageError("dt_out must be positive")
        grid = abs(t_span) / dt_out
        if grid > MAX_ORBIT_SAMPLES:
            raise UsageError(f"the dt_out grid asks for {grid:.3g} samples, over {MAX_ORBIT_SAMPLES}")
        n_grid = max(1, math.ceil(grid - 1e-12))

    g = _pull(*y[:3], kappa)
    f = (*y[3:], g * y[0], g * y[1], g * y[2])
    h = direction * _initial_step(y, f, tol, t_span)
    if not math.isfinite(h):
        raise UsageError(f"tol = {tol:.3g} is too small to size the first step")
    h_min = 1e-14 * max(1.0, abs(t_span))
    err_prev = 1.0
    s = 0.0  # the time elapsed since t0
    k = 1  # the next grid point
    accepted = rejected = 0

    while direction * (t_span - s) > 1e-14 * max(1.0, abs(t_span)):
        h = direction * min(abs(h), abs(t_span - s))
        if not abs(h) >= h_min:  # also a NaN step
            r_now = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])
            if r_now < 1e3 * COLLISION_FLOOR:
                raise CollisionError(f"|r| = {r_now:.3e} is collapsing onto the singularity at t = {t0 + s:.6g}")
            raise StepUnderflowError(f"step size {h:.3e} underflowed at t = {t0 + s:.6g}")
        if accepted + rejected == MAX_ORBIT_STEPS:
            raise IntegrationError(f"{MAX_ORBIT_STEPS} steps reached t = {t0 + s:.6g} of a span to {t_end:.6g}")

        y_new, f_new, err, stages = _dp_step(y, f, h, kappa, tol)

        if err <= 1.0:
            accepted += 1
            s_new = s + h
            if n_grid == 0:
                rows.extend((t0 + s_new, *y_new))
            # the grid points inside the step; one on its end is the next step's start
            while k < n_grid and direction * (s_new - (s_k := direction * dt_out * k)) > 0.0:
                rows.extend((t0 + s_k, *_dense(y, h, (s_k - s) / h, (f, *stages, f_new))))
                k += 1
            s, y, f = s_new, y_new, f_new  # FSAL
            factor = 0.9 * max(err, 1e-16) ** -0.14 * max(err_prev, 1e-16) ** 0.08
            err_prev = max(err, 1e-16)
            h *= min(5.0, max(0.2, factor))
        else:
            rejected += 1
            h *= max(0.1, 0.9 * err**-0.2)
    # grid points within the loop's tolerance of t_end, and t_end itself, take its last state
    for j in range(k, n_grid):
        rows.extend((t0 + direction * dt_out * j, *y))
    if n_grid or s != t_span:
        rows.extend((t_end, *y))
    return _finish_trajectory(rows, sys, accepted, rejected)


def _finish_trajectory(rows: array, sys: KeplerSystem, *steps: int) -> Trajectory:
    samples = np.frombuffer(rows).reshape(-1, 7)
    samples.setflags(write=False)
    _require_off_origin(float(np.min(_norm(samples[:, 1:4].T))))
    return Trajectory(samples, sys.kappa, *steps)


def _stumpff_c2_c3(psi: float) -> tuple[float, float]:
    """The Stumpff functions c2(psi) and c3(psi).  A series below |psi| = 1, where
    (1 - cos x)/x^2 and (x - sin x)/x^3 cancel; inf where cosh would overflow."""
    if abs(psi) < 1.0:
        c2 = c3 = 0.0
        for a2, a3 in zip(_C2_SERIES, _C3_SERIES):
            c2, c3 = c2 * psi + a2, c3 * psi + a3
        return c2, c3
    if psi > 0.0:
        x = math.sqrt(psi)
        half = math.sin(0.5 * x) / x
        return 2.0 * half * half, (x - math.sin(x)) / (psi * x)
    x = math.sqrt(-psi)
    if x > 700.0:  # math.cosh raises OverflowError from about 710
        return math.inf, math.inf
    return (math.cosh(x) - 1.0) / -psi, (math.sinh(x) - x) / (-psi * x)


def _universal_terms(chi: float, r0: float, sigma0: float, alpha: float) -> tuple:
    """At the universal anomaly chi: sqrt(kappa) times the time to reach it, the sum of
    the magnitudes of that time's three terms, the radius there, c2 and c3."""
    chi_sq = chi * chi
    psi = alpha * chi_sq
    c2, c3 = _stumpff_c2_c3(psi)
    terms = (r0 * chi, sigma0 * chi_sq * c2, (1.0 - alpha * r0) * chi_sq * chi * c3)
    radius = chi_sq * c2 + sigma0 * chi * (1.0 - psi * c3) + r0 * (1.0 - psi * c2)
    return sum(terms), sum(map(abs, terms)), radius, c2, c3


def _universal_anomaly(tau: float, r0: float, sigma0: float, alpha: float, bound: float) -> tuple:
    """The universal anomaly chi at which sqrt(kappa) times the elapsed time is tau != 0,
    with the radius, c2 and c3 there; |chi| is at most bound.

    The time rises with chi at the slope |r| > 0, so Newton's method is kept inside a
    bracket of the root: a step that leaves it, or does not halve the step before it,
    bisects instead (rtsafe of Numerical Recipes).  Off the ellipse the bracket starts
    open on the far side; until it closes, a step that leaves it doubles chi instead.
    It starts from the best of the short-span guess tau/r0, the mean-anomaly guess
    (ellipses), the parabola's cubic (Cardano) and the hyperbola's logarithm (Vallado,
    Algorithm 8).  A time that overflows lies beyond the root on the side of chi's sign.
    """
    lo, hi = (0.0, bound) if tau > 0.0 else (-bound, 0.0)
    guesses = [tau / r0]
    if not math.isfinite(guesses[0]):
        raise IntegrationError(f"a span of sqrt(kappa) dt = {tau:.3e} overflows the universal anomaly")
    if alpha > 0.0:
        guesses.append(alpha * tau)
    p = 6.0 * r0 - 3.0 * sigma0 * sigma0
    if p >= 0.0:
        q = 2.0 * sigma0 * sigma0 * sigma0 - 6.0 * r0 * sigma0 - 6.0 * tau
        w = -0.5 * q - math.copysign(math.sqrt(0.25 * q * q + p * p * p / 27.0), q)
        s = math.copysign(abs(w) ** (1.0 / 3.0), w)
        guesses.append((s - p / (3.0 * s) if s != 0.0 else 0.0) - sigma0)
    if alpha < 0.0:
        # its denominator cancels on an inbound near-radial hyperbola: no guess then
        denominator = sigma0 + math.copysign((1.0 - alpha * r0) / math.sqrt(-alpha), tau)
        arg = -2.0 * alpha * tau / denominator if denominator != 0.0 and math.isfinite(denominator) else 0.0
        if arg > 0.0:
            guesses.append(math.copysign(math.log(arg) / math.sqrt(-alpha), tau))
    starts = (min(max(g, lo), hi) for g in guesses)
    chi, terms = min(
        ((g, _universal_terms(g, r0, sigma0, alpha)) for g in starts if math.isfinite(g)),
        key=lambda start: abs(start[1][0] - tau) if math.isfinite(start[1][0]) else math.inf,
    )
    last_step = hi - lo
    for _ in range(KEPLER_ITERATIONS):
        time, scale, radius, c2, c3 = terms
        residual = time - tau
        if not math.isfinite(residual):  # an overflowed time lies beyond the root, on chi's side
            residual = math.copysign(math.inf, chi)
        elif abs(residual) <= KEPLER_TOL * scale:
            return chi, radius, c2, c3
        if residual > 0.0:
            hi = chi
        else:
            lo = chi
        new = chi - residual / radius
        if math.isfinite(hi - lo) and (not lo < new < hi or abs(2.0 * residual) > abs(last_step * radius)):
            new = 0.5 * (lo + hi)
        elif not lo < new < hi:
            new = 2.0 * chi
        if new == chi:
            return chi, radius, c2, c3
        chi, last_step = new, new - chi
        terms = _universal_terms(chi, r0, sigma0, alpha)
    raise IntegrationError(
        f"the universal Kepler equation did not converge in {KEPLER_ITERATIONS} iterations "
        f"(time residual {residual:.3e})"
    )


def _elements(r, v, kappa: float) -> tuple:
    """(|r|, sqrt(kappa), sigma = r.v/sqrt(kappa), alpha = 2/|r| - |v|^2/kappa, the semi-latus
    rectum p = |L|^2/kappa, e) of the orbit through the three floats r and v."""
    (x0, x1, x2), (u0, u1, u2) = r, v
    r0 = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    root_mu = math.sqrt(kappa)
    alpha = 2.0 / r0 - (u0 * u0 + u1 * u1 + u2 * u2) / kappa
    l0, l1, l2 = x1 * u2 - x2 * u1, x2 * u0 - x0 * u2, x0 * u1 - x1 * u0
    p = (l0 * l0 + l1 * l1 + l2 * l2) / kappa
    return r0, root_mu, (x0 * u0 + x1 * u1 + x2 * u2) / root_mu, alpha, p, math.sqrt(max(1.0 - alpha * p, 0.0))


def _since_periapsis(r0: float, root_mu: float, sigma0: float, alpha: float, p: float, ecc: float) -> float:
    """The time since periapsis of an orbit's `_elements`, (r_p chi + e chi^3 c3(alpha chi^2))
    / sqrt(kappa) with r_p = p/(1 + e).  chi, the universal anomaly from periapsis, is the
    eccentric anomaly over sqrt(alpha) (within half a period), the hyperbolic one over
    sqrt(-alpha), or sigma on a parabola.  Every term has the sign of chi: none cancels near e = 1."""
    if alpha > 0.0:
        chi = math.atan2(sigma0 * math.sqrt(alpha), 1.0 - alpha * r0) / math.sqrt(alpha)
    elif alpha < 0.0:
        chi = math.asinh(sigma0 * math.sqrt(-alpha) / ecc) / math.sqrt(-alpha)
    else:
        chi = sigma0
    chi_sq = chi * chi
    return (p / (1.0 + ecc) + ecc * chi_sq * _stumpff_c2_c3(alpha * chi_sq)[1]) * chi / root_mu


def time_since_periapsis(r: np.ndarray, v: np.ndarray, sigma: np.ndarray, kappa: float) -> np.ndarray:
    """The time since periapsis tau_p of the rows r and v (N, 3), within half a period on an ellipse, of the
    given sign sigma (N,) of r.v, roundoff at an apoapsis.  Every LRL and LRL-direction flow keeps t - tau_p."""
    rows = zip(r.tolist(), v.tolist(), sigma.tolist())
    return np.array([math.copysign(_since_periapsis(*_elements(ri, vi, kappa)), s) for ri, vi, s in rows])


def _passes_periapsis(dt: float, period: float, elements: tuple) -> bool:
    """Does the orbit of `_elements` pass its periapsis within the span dt?  An ellipse passes
    once per period."""
    since = _since_periapsis(*elements)
    # a periapsis behind a forward span is never reached: -x % inf is inf
    return (-since if dt > 0.0 else since) % period <= abs(dt)


def propagate_kepler(r, v, dt: float, kappa: float) -> tuple[list, list]:
    """(r, v) after the time dt (may be negative) on the Kepler orbit through the three
    floats r and v.

    Universal variables (Danby 1988, section 6.9; Vallado, Algorithm 8): with
    alpha = 2/|r0| - |v0|^2/kappa, sigma0 = r0.v0/sqrt(kappa) and psi = alpha chi^2,
    the universal anomaly chi solves

        sqrt(kappa) dt = |r0| chi + sigma0 chi^2 c2(psi) + (1 - alpha |r0|) chi^3 c3(psi),

    and the Lagrange f and g functions give the state; one formula serves every energy
    branch.  An elliptic span is reduced modulo the period T first, so the phase error
    grows as about u |dt| / T (u the unit roundoff).  Runs on Python floats, one orbit
    per call.  Raises UsageError for a non-finite dt, CollisionError if the orbit comes
    within COLLISION_FLOOR of the origin during the span (at its start, its end or a
    periapsis passage), and IntegrationError if the solve does not converge within
    KEPLER_ITERATIONS or its state is not finite.
    """
    if not math.isfinite(dt):
        raise UsageError(f"the time span must be finite, got {dt}")
    elements = r0, root_mu, sigma0, alpha, p, ecc = _elements(r, v, kappa)
    if r0 < COLLISION_FLOOR:
        raise CollisionError(f"|r| = {r0:.3e} is below the collision floor")
    period = 2.0 * math.pi / (root_mu * alpha * math.sqrt(alpha)) if alpha > 0.0 else math.inf
    # the periapsis radius p / (1 + e)
    if p / (1.0 + ecc) < COLLISION_FLOOR and _passes_periapsis(dt, period, elements):
        raise CollisionError(
            f"the orbit passes its periapsis at |r| = {p / (1.0 + ecc):.3e}, below the collision floor"
        )
    span = math.remainder(dt, period)
    if span == 0.0:
        return list(r), list(v)
    # on an ellipse |chi| = |Delta E| / sqrt(alpha), and |Delta E| <= |Delta M| + 2e by Kepler's equation
    bound = alpha * abs(root_mu * span) + 2.0 / math.sqrt(alpha) if alpha > 0.0 else math.inf
    chi, radius, c2, c3 = _universal_anomaly(root_mu * span, r0, sigma0, alpha, bound)
    chi_sq = chi * chi
    f, g = 1.0 - chi_sq * c2 / r0, span - chi_sq * chi * c3 / root_mu
    f_dot, g_dot = root_mu * chi * (alpha * chi_sq * c3 - 1.0) / (radius * r0), 1.0 - chi_sq * c2 / radius
    r_out = [f * x + g * u for x, u in zip(r, v)]
    v_out = [f_dot * x + g_dot * u for x, u in zip(r, v)]
    if not math.isfinite(sum(r_out) + sum(v_out)):
        raise IntegrationError("universal-variable propagation gave a non-finite state")
    if radius < COLLISION_FLOOR:
        raise CollisionError(f"|r| = {radius:.3e} fell below the collision floor")
    return r_out, v_out


def _normalize_kind(gen) -> GeneratorKind:
    kind = gen.kind if isinstance(gen, GeneratorId) else gen
    if kind not in (GeneratorKind.LRL, GeneratorKind.LRL_DIRECTION):
        raise UsageError("symmetry flows exist for the LRL and LRL-direction families")
    return kind


def _direction_first(kind, n: int) -> tuple[np.ndarray, int]:
    """The order that puts the LRL-direction rows of a flow batch first, each family in its
    own order, and their count: the `fields.GaugeField` layout.  kind is one GeneratorKind
    for n rows or a sequence of kinds, one per row."""
    kinds = [_normalize_kind(kind)] * n if isinstance(kind, GeneratorKind) else list(map(_normalize_kind, kind))
    direction = np.array([k is GeneratorKind.LRL_DIRECTION for k in kinds], dtype=bool)
    return np.argsort(~direction, kind="stable"), int(np.count_nonzero(direction))


class _Stage:
    """A field bound to a basis (3, 3, N) and to a slope slot (7, N), dt/ds then dr/ds and dv/ds
    component-major, which it writes in place: one stage of an RK4 batch, or one RHS call."""

    __slots__ = ("field", "basis", "dt", "d", "slopes")

    def __init__(self, field: fields.GaugeField, basis: np.ndarray, slot: np.ndarray):
        self.field, self.basis, self.dt, self.d = field, basis, slot[0], slot[1:].reshape(2, 3, -1)
        self.slopes = self.dt, self.d[0].T, self.d[1].T


def symmetry_flow_rhs(
    kind, r: np.ndarray, v: np.ndarray, eps: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched (dt/ds, dr/ds, dv/ds) of the gauge-fixed symmetry flow.

    kind is one GeneratorKind for every row, a sequence of N kinds, one per
    row, or a stage of `integrate_symmetry_flows`, whose field reads the
    stage's basis (the memory of r, v and eps) and writes its slope slot.
    Like the RK4 batch, a one-shot call puts the LRL-direction rows first and
    hands its slopes back in the caller's row order.  dr/ds and dv/ds are
    (N, 3) views of one (7, N) slot.  Raises FlowDegeneracyError if any row
    is at an apsis or is a direction row at a circular state.
    """
    order = None
    if isinstance(kind, _Stage):
        stage = kind
        stage.field.gram_of(stage.basis)
    else:
        order, n_theta = _direction_first(kind, len(r))
        basis, gram = fields.frame(r[order], v[order], eps[order])
        slot = np.empty((7, len(r)))
        stage = _Stage(fields.GaugeField(n_theta, kappa, gram), basis, slot)
    if stage.field.at_apsis(_APSIS_SQ):
        if stage.field.circular_at_apsis():
            raise FlowDegeneracyError(_CIRCULAR)
        raise FlowDegeneracyError(
            "flow reached an apsis (r.v = 0); the radius-preserving field is singular there"
        )
    try:
        stage.field(stage.basis, stage.dt, stage.d)
    except DegenerateDirectionError as exc:
        raise FlowDegeneracyError(_CIRCULAR) from exc
    if order is None:
        return stage.slopes
    slopes = np.empty_like(slot)
    slopes[:, order] = slot
    return slopes[0], slopes[1:4].T, slopes[4:].T


def integrate_symmetry_flows(
    kind, t, r: np.ndarray, v: np.ndarray, eps: np.ndarray, kappa: float, steps: int = RK_STEPS
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of a batch of flows over s in [0, 1].

    kind is one GeneratorKind or a sequence of N kinds, one per row, so that
    flows of both families run as one batch; t is a scalar or one value per row.
    Returns (t, r, v, r_mag_drift), each batched over the leading axis, where the
    drift is the largest change of |r| over the step ends.  Raises UsageError for
    a steps that is not an integer >= 1 and for shapes that do not agree.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise UsageError(f"steps must be an integer >= 1, got {steps!r}")
    t, r, v, eps = (np.asarray(x, dtype=float) for x in (t, r, v, eps))
    n = len(r) if r.ndim == 2 else -1
    order, n_theta = _direction_first(kind, n)
    if any(x.shape != (n, 3) for x in (r, v, eps)) or t.shape not in ((), (n,)) or len(order) != n:
        raise UsageError(
            f"a flow batch takes r, v and eps of shape (N, 3), a scalar t or N and one kind or N; "
            f"got r {r.shape}, v {v.shape}, eps {eps.shape}, t {t.shape} and {len(order)} kinds"
        )
    # the LRL-direction rows first, and t, r, v, eps component-major in one (10, N) stack
    y = np.empty((10, n))
    y[0], y[1:4], y[4:7], y[7:] = np.broadcast_to(t, (n,))[order], r[order].T, v[order].T, eps[order].T
    stage, k = y.copy(), np.empty((4, 7, n))
    state, stage_state = y[:7], stage[:7]
    rows, stage_rows = (y[1:4].T, y[4:7].T, y[7:].T), (stage[1:4].T, stage[4:7].T, stage[7:].T)
    # one field for the batch; the first stage reads the state, the others the stage stack
    field = fields.GaugeField(n_theta, kappa, np.empty((2, 3, n)))
    first, *later = (_Stage(field, x[1:].reshape(3, 3, n), slot) for x, slot in zip((y, stage, stage, stage), k))
    h = 1.0 / steps
    nodes = list(zip(k[:3], (0.5 * h, 0.5 * h, h), later))
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (h / 6.0)
    slopes, increment, finite = k.reshape(4, -1), np.empty(7 * n), np.empty((7, n), dtype=bool)
    state_flat = state.reshape(-1)
    r_sq = field.gram_of(first.basis)[0, 0]  # |r|^2 in the field's gram, after each first stage
    r_sq0, r_sq_lo, r_sq_hi = r_sq.copy(), r_sq.copy(), r_sq.copy()

    for _ in range(steps):
        symmetry_flow_rhs(first, *rows, kappa)
        # |r|^2 at every step end but the last
        np.minimum(r_sq_lo, r_sq, out=r_sq_lo)
        np.maximum(r_sq_hi, r_sq, out=r_sq_hi)
        for slope, node, next_stage in nodes:
            np.multiply(slope, node, out=stage_state)
            stage_state += state
            symmetry_flow_rhs(next_stage, *stage_rows, kappa)
        state_flat += np.matmul(weights, slopes, out=increment)
        if not np.isfinite(state, out=finite).all():
            raise FlowDegeneracyError("symmetry flow produced a non-finite state")
    field.gram_of(first.basis)  # and at the last
    # |r| grows with |r|^2, so its largest change is at one of the two extremes
    r_mag0 = np.sqrt(r_sq0)
    drift = np.maximum(np.sqrt(np.maximum(r_sq_hi, r_sq)) - r_mag0, r_mag0 - np.sqrt(np.minimum(r_sq_lo, r_sq)))
    return tuple(x[np.argsort(order)] for x in (y[0], rows[0], rows[1], drift))


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
        kind, state.t, state.r[None, :], state.v[None, :], eps[None, :], sys.kappa, steps
    )
    out = ExtendedState(float(t[0]), PhaseState(r[0], v[0]))
    return SymmetryFlowResult(out, float(drift[0]))


def compare_flow_vs_closed_form(
    gen,
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    steps: int = RK_STEPS,
) -> FlowReport:
    """Residual between the closed-form transform and its integrated flow."""
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        return FlowReport(state, state, 0.0, 0.0)
    closed = _transform_one(_normalize_kind(gen), state, sys, eps).out
    flown = integrate_symmetry_flow(gen, state, sys, eps, steps)
    gap = gaps((closed.t, closed.r, closed.v), (flown.out.t, flown.out.r, flown.out.v))
    return FlowReport(closed, flown.out, float(np.max(gap)), flown.r_mag_drift)


def gaps(a, b) -> tuple[float, float]:
    """The largest t difference and the largest (r, v) component difference of two
    (t, r, v) triples, of one extended state each or of arrays over rows; a NaN difference gives NaN."""
    t_gap, *rv_gaps = (float(np.max(np.abs(np.subtract(x, y)), initial=0.0)) for x, y in zip(a[:3], b[:3]))
    return t_gap, float(np.max(rv_gaps))


def verify_solution_mapping(
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    gen,
    t_span: float,
) -> SolutionMappingReport:
    """Re-integrate the orbit from a transformed state T(x0) and hold it to its
    predicted conserved set.  Then, with x1 the state SOLUTION_STEP after x0 on its
    DP5 orbit, hold T(x1) to T(x0) integrated by t(T(x1)) - t(T(x0)): the residual
    "solution", absent where T(x1) is not admissible.
    """
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        residuals = integrate_orbit(state, sys, t_span).deviations(conserved_set(state.state, sys))
        return SolutionMappingReport(residuals, float(np.max(list(residuals.values()))))
    kind = _normalize_kind(gen)
    image = _transform_one(kind, state, sys, eps)
    residuals = integrate_orbit(image.out, sys, t_span).deviations(image.constants_out)
    try:
        later = _transform_one(kind, integrate_orbit(state, sys, SOLUTION_STEP).end, sys, eps).out
    except InadmissibleTransformError:  # T(x1) may not reach |r(x1)|
        pass
    else:
        end = integrate_orbit(image.out, sys, later.t - image.out.t).end
        residuals["solution"] = gaps((0.0, end.r, end.v), (0.0, later.r, later.v))[1]
    return SolutionMappingReport(residuals, float(np.max(list(residuals.values()))))
