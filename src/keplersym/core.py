"""Kepler-problem state types, force law, and conserved quantities.

Everything is dimensionless: the force constant kappa defaults to 1 and all
lengths, velocities, and times are expressed in units where that is natural.
The attractive inverse-square law reads a = -kappa |r|^-2 rhat, and the
conserved quantities attached to a phase-space point (r, v) are

    energy            E = |v|^2 / 2 - kappa / |r|
    angular momentum  L = r x v
    LRL vector        A = v x L - kappa rhat = (|v|^2 - kappa/|r|) r - (r.v) v

with |A|^2 = kappa^2 + 2 E |L|^2, eccentricity |A|/kappa, LRL direction
Theta = A/|A| (undefined for circular orbits) and the rescaled vector
M = A/sqrt(2|E|) (undefined for parabolic orbits).  One writer,
`_write_labels`, forms them for `fields.values`, the label tables and the
gradients of `fields` on (3, N) stacks and for `conserved_set` on one state's
(3,) vectors, so the set of a state has the bits of its row of any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DegenerateStateError, SingularOriginError, UsageError

Vec3 = np.ndarray

# Degeneracy thresholds (relative; see the threshold helpers below).
CIRCULAR_TOL = 1e-10
RADIAL_TOL = 1e-10
ENERGY_BRANCH_TOL = 1e-12

# Central finite differences (central_differences) step by FD_SCALE * max(1, |component|).
FD_SCALE = 1e-6

# |r| below this is the force-law singularity (SingularOriginError).
ORIGIN_FLOOR = 1e-12

# The defaults of every CLI call, here so that parsing one loads neither verify nor flow:
# the DP5 tolerance of flow.integrate_orbit, the RK4 step count of the symmetry flows,
# and verify's suites and the gate of each property.
ORBIT_TOL = 1e-10
RK_STEPS = 10_000
SUITES = ("algebra", "transforms", "flows")
DEFAULT_TOLERANCES = {
    "bracket_analytic": 1e-10,
    "bracket_fd": 1e-5,
    "noether": 1e-5,
    "antisymmetry": 1e-12,
    "jacobi": 1e-8,
    "linearity": 1e-5,
    "classification": 0.5,
    "action": 1e-5,
    "transform_exact": 1e-10,
    "constants_match": 1e-9,
    "group_law": 1e-9,
    "flow_residual": 1e-6,
    "r_drift": 1e-8,
    "dt_ds": 1e-6,
    "orbit_closure": 1e-8,
    "energy_drift": 1e-9,
    "monotone_escape": 1e-12,
    "solution_mapping": 1e-8,
}


def as_vec3(value, name: str = "vector") -> Vec3:
    """Coerce to a read-only float64 array of shape (3,), checking finiteness."""
    arr = np.array(value, dtype=float)
    if arr.shape != (3,):
        raise UsageError(f"{name} must have exactly 3 components, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise UsageError(f"{name} has non-finite components: {arr}")
    arr.setflags(write=False)
    return arr


def norm(x: Vec3) -> float:
    return float(np.linalg.norm(x))


@dataclass(frozen=True)
class KeplerSystem:
    """Force-law parameters: the attraction strength."""

    kappa: float = 1.0

    def __post_init__(self):
        if not (self.kappa > 0 and 0.0 < self.kappa * self.kappa < math.inf):
            raise UsageError(f"kappa must be positive with kappa*kappa positive and finite, got {self.kappa}")


@dataclass(frozen=True)
class PhaseState:
    """A point (r, v) in phase space.  The origin is excluded."""

    r: Vec3
    v: Vec3

    def __post_init__(self):
        object.__setattr__(self, "r", as_vec3(self.r, "r"))
        object.__setattr__(self, "v", as_vec3(self.v, "v"))
        # on Python floats, which overflow to inf without a numpy warning
        (x, y, z), (vx, vy, vz) = self.r.tolist(), self.v.tolist()
        r_sq, v_sq = x * x + y * y + z * z, vx * vx + vy * vy + vz * vz
        if r_sq == 0.0:
            raise SingularOriginError("position at the origin is singular")
        # |A| <= |v|^2 |r| + kappa and |L|^2 <= max(|r|^2, (|v|^2 |r|)^2): with these
        # finite, so is every conserved quantity and every squared norm formed of one
        a_bound = v_sq * math.sqrt(r_sq)
        if not math.isfinite(r_sq + a_bound * a_bound):
            raise DegenerateStateError(
                "state too large: |r|^2, |v|^2 |r| or its square overflows, "
                "so its conserved quantities are not finite"
            )

    @property
    def r_mag(self) -> float:
        return norm(self.r)

    @property
    def v_mag(self) -> float:
        return norm(self.v)


@dataclass(frozen=True)
class ExtendedState:
    """A point (t, r, v) in coordinate space, as carried by gauge-fixed flows."""

    t: float
    state: PhaseState

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))

    @property
    def r(self) -> Vec3:
        return self.state.r

    @property
    def v(self) -> Vec3:
        return self.state.v


class OrbitClass(Enum):
    CIRCULAR = "circular"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    RADIAL = "radial"


@dataclass(frozen=True)
class ConservedSet:
    """All conserved quantities of one state, plus derived orbit data.

    Theta is None when the orbit is circular (|A| ~ 0); M is None when the
    energy sits in the parabolic branch (|E| below the branch threshold).
    period and semi_major are populated only for E < 0.  kappa records the
    force constant the set was computed with.
    """

    E: float
    L: Vec3
    A: Vec3
    A_mag: float
    Theta: Vec3 | None
    M: Vec3 | None
    eccentricity: float
    orbit_class: OrbitClass
    period: float | None
    semi_major: float | None
    kappa: float

    @property
    def L_mag(self) -> float:
        return float(_norm(self.L))

    def as_dict(self) -> dict:
        def v(x):
            return None if x is None else [float(c) for c in x]

        return {
            "E": self.E,
            "L": v(self.L),
            "A": v(self.A),
            "A_mag": self.A_mag,
            "Theta": v(self.Theta),
            "M": v(self.M),
            "eccentricity": self.eccentricity,
            "orbit_class": self.orbit_class.value,
            "period": self.period,
            "semi_major": self.semi_major,
            "kappa": self.kappa,
        }


def is_circular(a_mag: float, kappa: float) -> bool:
    return a_mag <= CIRCULAR_TOL * kappa


def is_radial(l_mag, rv_scale):
    """Whether |L| is negligible against rv_scale, a scale such as |r||v|; also row-wise."""
    return l_mag <= RADIAL_TOL * (rv_scale + 1e-300)


def is_parabolic(e, l_mag, r_mag, kappa: float):
    """Whether |E| is at or below the parabolic-branch threshold; also row-wise on arrays."""
    return np.abs(e) <= ENERGY_BRANCH_TOL * (kappa * kappa) / np.maximum(l_mag * l_mag, kappa * r_mag)


def _require_off_origin(r_mag: float) -> float:
    """r_mag, the smallest radius of a state or of a batch; SingularOriginError below ORIGIN_FLOOR."""
    if r_mag < ORIGIN_FLOOR:
        raise SingularOriginError(f"|r| = {r_mag:.3e} is below the origin floor {ORIGIN_FLOOR:.3e}")
    return r_mag


def _norm(x):
    """|x| of a component-major (3, ...) stack, summed as (x0^2 + x1^2) + x2^2."""
    x0, x1, x2 = x
    return np.sqrt((x0 * x0 + x1 * x1) + x2 * x2)


def _cross_components(a, b, out) -> None:
    """a x b of component-major (3, ...) stacks, written into out."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    out[0] = a1 * b2 - a2 * b1
    out[1] = a2 * b0 - a0 * b2
    out[2] = a0 * b1 - a1 * b0


def _invariants(r, v) -> tuple:
    """|r|, |v|^2 and r.v of the component-major (3, ...) stacks r and v.  A dot sums as
    (x0 y0 + x2 y2) + x1 y1 and a norm (`_norm`) as (x0^2 + x1^2) + x2^2, the orders of
    numpy's np.einsum("ni,ni->n") and np.linalg.norm(axis=1) over C-ordered (N, 3) rows
    (checked on numpy 2.4.6), so that `fields.values` keeps the bits those give."""
    (r0, r1, r2), (v0, v1, v2) = r, v
    return _norm(r), (v0 * v0 + v2 * v2) + v1 * v1, (r0 * v0 + r2 * v2) + r1 * v1


def _write_directions(e, a_vec, a_mag, theta, m_vec) -> None:
    """Theta = A/|A| into theta and, unless m_vec is None, M = A/sqrt(2|E|) into m_vec."""
    # Theta and M are simply unused by callers at circular or exactly parabolic
    # states; keep the division quiet there.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a_vec, a_mag, out=theta)
        if m_vec is not None:
            np.divide(a_vec, np.sqrt(2.0 * np.abs(e)), out=m_vec)


def _write_labels(r, v, kappa: float, e, l_vec, a_vec, theta, m_vec) -> tuple:
    """The one writer of the conserved quantities: E, L, A and, unless theta is None, Theta
    and M (unless m_vec is None) of the component-major (3, ...) stacks r and v, which
    broadcast, into the given (...) and (3, ...) arrays; returns |r|, |v|^2, r.v and |A|, with
    the sums of `_invariants`.  `conserved_set` calls it on two (3,) vectors, `fields` on (3, N)."""
    r_mag, v_sq, r_dot_v = _invariants(r, v)
    k_r = kappa / r_mag
    np.subtract(0.5 * v_sq, k_r, out=e)
    _cross_components(r, v, l_vec)
    np.subtract((v_sq - k_r) * r, r_dot_v * v, out=a_vec)
    a_mag = _norm(a_vec)
    if theta is not None:
        _write_directions(e, a_vec, a_mag, theta, m_vec)
    return r_mag, v_sq, r_dot_v, a_mag


def acceleration(state: PhaseState, sys: KeplerSystem) -> Vec3:
    """Inverse-square acceleration -kappa |r|^-2 rhat."""
    r_mag = _require_off_origin(state.r_mag)
    return -sys.kappa / r_mag**3 * state.r


def lagrangian(state: PhaseState, sys: KeplerSystem) -> float:
    """Kinetic term plus kappa/|r| (the action-principle integrand)."""
    r_mag = _require_off_origin(state.r_mag)
    return 0.5 * float(np.dot(state.v, state.v)) + sys.kappa / r_mag


def conserved_set(state: PhaseState, sys: KeplerSystem) -> ConservedSet:
    """Every conserved quantity of the state at once: E, L and A from `_write_labels` on its
    two (3,) vectors and the rest from them as the writer forms it, so that each value has
    the bits of the state's row of `fields.values`."""
    _require_off_origin(state.r_mag)
    e, l_vec, a_vec = np.empty(()), np.empty(3), np.empty(3)
    r_mag = _write_labels(state.r, state.v, sys.kappa, e, l_vec, a_vec, None, None)[0]
    parabolic = bool(is_parabolic(e, _norm(l_vec), r_mag, sys.kappa))
    return set_from_constants(float(e), l_vec, a_vec, sys.kappa, parabolic, rv_scale=r_mag * state.v_mag)


def set_from_constants(
    e: float, l_vec: Vec3, a_vec: Vec3, kappa: float, parabolic: bool, rv_scale: float | None = None
) -> ConservedSet:
    """A ConservedSet of the values (E, L, A): Theta dropped at a circular orbit and M on
    the parabolic branch, with the orbit class, period and semi-major axis.  rv_scale, the
    scale of the radial test, is a state's |r||v| from `conserved_set`; the constants that
    a transform maps have none, and scale by max(|L|, |A|/kappa)."""
    a_vec = as_vec3(a_vec, "A")
    l_vec = as_vec3(l_vec, "L")
    a_mag, l_mag = float(_norm(a_vec)), float(_norm(l_vec))
    theta, m_vec = np.empty(3), np.empty(3)
    _write_directions(e, a_vec, a_mag, theta, m_vec)
    if is_radial(l_mag, max(l_mag, a_mag / kappa, 1e-300) if rv_scale is None else rv_scale):
        orbit_class = OrbitClass.RADIAL
    elif is_circular(a_mag, kappa) and e < 0:
        orbit_class = OrbitClass.CIRCULAR
    elif parabolic:
        orbit_class = OrbitClass.PARABOLIC
    else:
        orbit_class = OrbitClass.ELLIPTIC if e < 0 else OrbitClass.HYPERBOLIC
    if e < 0 and not parabolic:
        period = 2.0 * math.pi * kappa * (-2.0 * e) ** -1.5
        semi_major = kappa / (-2.0 * e)
    else:
        period = None
        semi_major = None
    return ConservedSet(
        E=float(e),
        L=l_vec,
        A=a_vec,
        A_mag=a_mag,
        Theta=None if is_circular(a_mag, kappa) else theta,
        M=None if parabolic else m_vec,
        eccentricity=a_mag / kappa,
        orbit_class=orbit_class,
        period=period,
        semi_major=semi_major,
        kappa=kappa,
    )


def classify_orbit(c: ConservedSet) -> OrbitClass:
    """Re-derive the orbit class from a conserved set alone."""
    return set_from_constants(c.E, c.L, c.A, c.kappa, parabolic=c.M is None).orbit_class


def central_differences(f: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference derivatives of f along the three components of x.

    x is a component-major (3, ...) stack and the step along component i is
    h_i = FD_SCALE * max(1, |x_i|).  f is called once, on the (3, 6, ...) stack
    whose column j holds x + h_j e_j for j = 0, 1, 2 and then x - h_j e_j, and
    returns values of shape (..., 6, ...), the trailing axes those of x after its
    first.  The result, of shape (..., 3, ...), holds df/dx_i at place i of the 6.
    """
    x = np.asarray(x, dtype=float)
    h = FD_SCALE * np.maximum(1.0, np.abs(x))
    steps = np.eye(3).reshape((3, 3) + (1,) * (x.ndim - 1)) * h[:, None]
    vals = np.asarray(f(np.concatenate([x[:, None] + steps, x[:, None] - steps], axis=1)), dtype=float)
    plus, minus = np.split(vals, 2, axis=vals.ndim - x.ndim)
    diff = plus - minus
    diff /= 2.0 * h
    return diff


def fd_grad_r(field: Callable[[PhaseState], float], state: PhaseState) -> Vec3:
    """Central-difference gradient of a scalar field with respect to r."""
    return central_differences(lambda rs: [field(PhaseState(r, state.v)) for r in rs.T], state.r)


def fd_grad_v(field: Callable[[PhaseState], float], state: PhaseState) -> Vec3:
    """Central-difference gradient of a scalar field with respect to v."""
    return central_differences(lambda vs: [field(PhaseState(state.r, v)) for v in vs.T], state.v)


def material_derivative(
    field: Callable[[PhaseState], float], state: PhaseState, sys: KeplerSystem
) -> float:
    """On-shell time derivative v . dF/dr + a . dF/dv, partials by central FD."""
    a = acceleration(state, sys)
    return float(np.dot(state.v, fd_grad_r(field, state)) + np.dot(a, fd_grad_v(field, state)))
