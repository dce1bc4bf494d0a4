"""Orbit propagation and numerical integration oracles.

Three propagators live here.  Time translation runs on the closed form of the
Kepler flow in universal variables (`propagate_kepler`): one Newton solve of
the universal Kepler equation, on six Python floats, for every energy branch.
Orbits are integrated with an embedded Dormand-Prince 5(4) pair under PI
step-size control; this is the trusted reference dynamics every closed-form
transform is checked against.  Its step runs on six Python floats, the tableau
unrolled: numpy's fixed cost per call is nearly all of a step on a 6-component
array, and the float step takes a quarter of the time.  Symmetry flows (the
ray from the identity to a finite LRL or LRL-direction transformation) are
integrated with fixed-step classical RK4 so that runs are bit-reproducible and
convergence-order checks are meaningful.

The symmetry-flow vector field at (t, r, v) for parameter direction eps is

    dr/ds = P_eps + tau v,      dv/ds = DtP_eps + tau a,
    dt/ds = -(r x L) . eps,     tau   = -(r . P_eps) / (r . v)

where P_eps is the contracted characteristic of the family.  tau keeps |r|
exactly invariant and is singular at apsides (r.v = 0), so flows must start
off-apsis.  The LRL-direction field is the LRL field at the projected axis
eps~ = (eps - (Theta.eps) Theta)/|A|, dt/ds still along eps, so one RK4 batch
may mix the two families row by row.  eps~ is a combination of (r, v, eps), so
is the field: `fields.gauge_field` forms its six coefficients per row from five
dot products.  The RK4 loop puts the LRL-direction rows first, keeps t, r, v and
eps in one (10, N) component-major stack, and reads |r|^2 from each first stage.
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
    IntegrationError,
    StepUnderflowError,
    UsageError,
)
from .generators import GeneratorId, GeneratorKind
from .transforms import QUAD_PANELS, _transform_one

# Default DP5 tolerance of integrate_orbit and RK4 step count of the symmetry flows
ORBIT_TOL = 1e-10
RK_STEPS = 10_000
COLLISION_FLOOR = 1e-8
FLOW_APSIS_FLOOR = 1e-9
# Largest dt_out grid: at about 0.8 kB per held sample, one orbit stays under 1 GB.
MAX_ORBIT_SAMPLES = 1_000_000
# The universal Kepler equation's solve: its iteration cap, and its stopping test, a residual
# within a few units of roundoff of the sum of the magnitudes of the equation's terms
KEPLER_ITERATIONS = 100
KEPLER_TOL = 4 * 2.0**-52
# Stumpff c2 and c3 to psi^9, highest power first: c_k(psi) = sum_j (-psi)^j / (2j + k)!.  The
# first omitted term is below 1e-18 for |psi| < 1, where the closed forms lose digits.
_C2_SERIES = tuple((-1) ** j / math.factorial(2 * j + 2) for j in reversed(range(10)))
_C3_SERIES = tuple((-1) ** j / math.factorial(2 * j + 3) for j in reversed(range(10)))

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
        arg = -2.0 * alpha * tau / (sigma0 + math.copysign((1.0 - alpha * r0) / math.sqrt(-alpha), tau))
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


def _passes_periapsis(
    dt: float, period: float, r0: float, sigma0: float, alpha: float, ecc: float, root_mu: float
) -> bool:
    """Does the orbit pass its periapsis within the span dt?  An ellipse passes once per period."""
    if alpha > 0.0:
        chi = -math.atan2(sigma0 * math.sqrt(alpha), 1.0 - alpha * r0) / math.sqrt(alpha)
    elif alpha < 0.0:
        chi = -math.asinh(sigma0 * math.sqrt(-alpha) / ecc) / math.sqrt(-alpha)
    else:
        chi = -sigma0
    ahead = _universal_terms(chi, r0, sigma0, alpha)[0] / root_mu  # time from the start to that periapsis
    # a periapsis behind a forward span is never reached: -x % inf is inf
    return (ahead if dt > 0.0 else -ahead) % period <= abs(dt)


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
    (x0, x1, x2), (u0, u1, u2) = r, v
    r0 = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    if r0 < COLLISION_FLOOR:
        raise CollisionError(f"|r| = {r0:.3e} is below the collision floor")
    root_mu = math.sqrt(kappa)
    sigma0 = (x0 * u0 + x1 * u1 + x2 * u2) / root_mu
    alpha = 2.0 / r0 - (u0 * u0 + u1 * u1 + u2 * u2) / kappa
    period = 2.0 * math.pi / (root_mu * alpha * math.sqrt(alpha)) if alpha > 0.0 else math.inf
    # the periapsis radius p / (1 + e), from the semi-latus rectum p = |L|^2 / kappa
    l0, l1, l2 = x1 * u2 - x2 * u1, x2 * u0 - x0 * u2, x0 * u1 - x1 * u0
    p = (l0 * l0 + l1 * l1 + l2 * l2) / kappa
    ecc = math.sqrt(max(1.0 - alpha * p, 0.0))
    if p / (1.0 + ecc) < COLLISION_FLOOR and _passes_periapsis(dt, period, r0, sigma0, alpha, ecc, root_mu):
        raise CollisionError(
            f"the orbit passes its periapsis at |r| = {p / (1.0 + ecc):.3e}, below the collision floor"
        )
    span = math.remainder(dt, period)
    if span == 0.0:
        return [x0, x1, x2], [u0, u1, u2]
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


class _Kinds(tuple):
    """The per-row kinds of a flow batch, its LRL-direction rows as a mask and as the
    `gauge_field` family (a slice when they lead), and the |r|^2 of its last RHS."""

    def __new__(cls, kinds):
        if isinstance(kinds, _Kinds):
            return kinds
        self = super().__new__(cls, map(_normalize_kind, kinds))
        self.direction_rows = rows = np.array([k is GeneratorKind.LRL_DIRECTION for k in self], dtype=bool)
        n = int(np.count_nonzero(rows))
        self.theta_rows = "A" if n == 0 else slice(0, n) if rows[:n].all() else rows
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
    batch = _Kinds([kind] * len(r) if isinstance(kind, GeneratorKind) else kind)
    basis, gram = fields.frame(r, v, eps)
    r_sq, r_dot_v, v_sq = gram[0, 0], gram[0, 1], gram[1, 1]
    # |r.v| <= FLOW_APSIS_FLOOR |r||v|, squared
    if np.count_nonzero(r_dot_v * r_dot_v <= FLOW_APSIS_FLOOR**2 * (r_sq * v_sq)):
        raise FlowDegeneracyError(
            "flow reached an apsis (r.v = 0); the radius-preserving field is singular there"
        )
    try:
        dt, d = fields.gauge_field(batch.theta_rows, basis, gram, kappa)
    except DegenerateDirectionError as exc:
        raise FlowDegeneracyError("flow reached a circular state; direction undefined") from exc
    batch.r_sq = r_sq
    return dt, d[0].T, d[1].T


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
    kinds = _Kinds([kind] * n if isinstance(kind, GeneratorKind) else kind)
    if any(x.shape != (n, 3) for x in (r, v, eps)) or t.shape not in ((), (n,)) or len(kinds) != n:
        raise UsageError(
            f"a flow batch takes r, v and eps of shape (N, 3), a scalar t or N and one kind or N; "
            f"got r {r.shape}, v {v.shape}, eps {eps.shape}, t {t.shape} and {len(kinds)} kinds"
        )
    # the LRL-direction rows first, and t, r, v, eps component-major in one (10, N) stack
    order = np.argsort(~kinds.direction_rows, kind="stable")
    batch, y = _Kinds([kinds[i] for i in order]), np.empty((10, n))
    y[0], y[1:4], y[4:7], y[7:] = np.broadcast_to(t, (n,))[order], r[order].T, v[order].T, eps[order].T
    stage, k = y.copy(), np.empty((4, 7, n))
    state, stage_state = y[:7], stage[:7]
    rows, stage_rows = (y[1:4].T, y[4:7].T, y[7:].T), (stage[1:4].T, stage[4:7].T, stage[7:].T)
    (slope_t, slope_r, slope_v), *later = [(s[0], s[1:4].T, s[4:].T) for s in k]  # (dt/ds, dr/ds, dv/ds)
    h = 1.0 / steps
    nodes = list(zip(k[:3], (0.5 * h, 0.5 * h, h), later))
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (h / 6.0)
    r_sq_lo = r_sq_hi = r_sq0 = fields.frame(*rows)[1][0, 0]

    for _ in range(steps):
        slope_t[...], slope_r[...], slope_v[...] = symmetry_flow_rhs(batch, *rows, kappa)
        # |r|^2 at every step end but the last, from the gram of the next step's first stage
        r_sq_lo, r_sq_hi = np.minimum(r_sq_lo, batch.r_sq), np.maximum(r_sq_hi, batch.r_sq)
        for slope, node, (next_t, next_r, next_v) in nodes:
            np.multiply(slope, node, out=stage_state)
            stage_state += state
            next_t[...], next_r[...], next_v[...] = symmetry_flow_rhs(batch, *stage_rows, kappa)
        state += (weights @ k.reshape(4, -1)).reshape(state.shape)
        if not np.isfinite(state).all():
            raise FlowDegeneracyError("symmetry flow produced a non-finite state")
    r_sq = fields.frame(*rows)[1][0, 0]
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
    quad_panels: int = QUAD_PANELS,
) -> FlowReport:
    """Residual between the closed-form transform and its integrated flow."""
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        return FlowReport(state, state, 0.0, 0.0)
    closed = _transform_one(_normalize_kind(gen), state, sys, eps, quad_panels).out
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
        result = _transform_one(_normalize_kind(gen), state, sys, eps, QUAD_PANELS)
        start, predicted = result.out, result.constants_out
    residuals = integrate_orbit(start, sys, t_span).deviations(predicted)
    return SolutionMappingReport(residuals, max(residuals.values()))
