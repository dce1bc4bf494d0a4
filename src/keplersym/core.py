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
M = A/sqrt(2|E|) (undefined for parabolic orbits).
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


def as_vec3(value, name: str = "vector") -> Vec3:
    """Coerce to a read-only float64 array of shape (3,), checking finiteness."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise UsageError(f"{name} must have exactly 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{name} has non-finite components: {arr}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def norm(x: Vec3) -> float:
    return float(np.linalg.norm(x))


def cross(a: Vec3, b: Vec3) -> Vec3:
    """a x b of two 3-vectors, the arithmetic of np.cross without its per-call overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


@dataclass(frozen=True)
class KeplerSystem:
    """Force-law parameters: the attraction strength."""

    kappa: float = 1.0

    def __post_init__(self):
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise UsageError(f"kappa must be a positive finite number, got {self.kappa}")


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
        return norm(self.L)

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


def is_radial(l_mag: float, r_mag: float, v_mag: float) -> bool:
    return l_mag <= RADIAL_TOL * (r_mag * v_mag + 1e-300)


def energy_branch_threshold(kappa: float, l_mag_sq, r_mag):
    """|E| at or below which a state is on the parabolic branch; also row-wise on arrays."""
    return ENERGY_BRANCH_TOL * kappa**2 / np.maximum(l_mag_sq, kappa * r_mag)


def _require_off_origin(r_mag: float) -> float:
    """r_mag, the smallest radius of a state or of a batch; SingularOriginError below ORIGIN_FLOOR."""
    if r_mag < ORIGIN_FLOOR:
        raise SingularOriginError(f"|r| = {r_mag:.3e} is below the origin floor {ORIGIN_FLOOR:.3e}")
    return r_mag


def acceleration(state: PhaseState, sys: KeplerSystem) -> Vec3:
    """Inverse-square acceleration -kappa |r|^-2 rhat."""
    r_mag = _require_off_origin(state.r_mag)
    return -sys.kappa / r_mag**3 * state.r


def lagrangian(state: PhaseState, sys: KeplerSystem) -> float:
    """Kinetic term plus kappa/|r| (the action-principle integrand)."""
    r_mag = _require_off_origin(state.r_mag)
    return 0.5 * float(np.dot(state.v, state.v)) + sys.kappa / r_mag


def energy(state: PhaseState, sys: KeplerSystem) -> float:
    r_mag = _require_off_origin(state.r_mag)
    return 0.5 * float(np.dot(state.v, state.v)) - sys.kappa / r_mag


def angular_momentum(state: PhaseState) -> Vec3:
    return cross(state.r, state.v)


def lrl_vector(state: PhaseState, sys: KeplerSystem) -> Vec3:
    r_mag = _require_off_origin(state.r_mag)
    v_sq = float(np.dot(state.v, state.v))
    r_dot_v = float(np.dot(state.r, state.v))
    return (v_sq - sys.kappa / r_mag) * state.r - r_dot_v * state.v


def conserved_set(state: PhaseState, sys: KeplerSystem) -> ConservedSet:
    """Evaluate every conserved quantity of the state at once."""
    r_mag = _require_off_origin(state.r_mag)
    kappa = sys.kappa
    e = energy(state, sys)
    l_vec = angular_momentum(state)
    a_vec = lrl_vector(state, sys)
    a_mag = norm(a_vec)
    l_mag = norm(l_vec)
    parabolic = abs(e) <= energy_branch_threshold(kappa, l_mag**2, r_mag)
    return _assemble(e, l_vec, a_vec, a_mag, l_mag, kappa, parabolic, rv_scale=r_mag * state.v_mag)


def set_from_constants(
    e: float, l_vec: Vec3, a_vec: Vec3, kappa: float, parabolic: bool
) -> ConservedSet:
    """Assemble a ConservedSet directly from (E, L, A) values.

    Used by the finite symmetry transformations, which map constants to
    constants without passing through a phase-space state.
    """
    a_vec = as_vec3(a_vec, "A")
    l_vec = as_vec3(l_vec, "L")
    a_mag = norm(a_vec)
    l_mag = norm(l_vec)
    scale = max(l_mag, a_mag / kappa, 1e-300)
    return _assemble(e, l_vec, a_vec, a_mag, l_mag, kappa, parabolic, rv_scale=scale)


def _assemble(
    e: float,
    l_vec: Vec3,
    a_vec: Vec3,
    a_mag: float,
    l_mag: float,
    kappa: float,
    parabolic: bool,
    rv_scale: float,
) -> ConservedSet:
    """The derived data of a ConservedSet: Theta, M, class, period, semi-major axis."""
    theta = None if is_circular(a_mag, kappa) else a_vec / a_mag
    m_vec = None if parabolic else a_vec / math.sqrt(2.0 * abs(e))
    cls = _classify(e, l_mag, a_mag, kappa, rv_scale=rv_scale, parabolic=parabolic)
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
        Theta=theta,
        M=m_vec,
        eccentricity=a_mag / kappa,
        orbit_class=cls,
        period=period,
        semi_major=semi_major,
        kappa=kappa,
    )


def _classify(
    e: float,
    l_mag: float,
    a_mag: float,
    kappa: float,
    rv_scale: float,
    parabolic: bool,
) -> OrbitClass:
    if l_mag <= RADIAL_TOL * (rv_scale + 1e-300):
        return OrbitClass.RADIAL
    if is_circular(a_mag, kappa) and e < 0:
        return OrbitClass.CIRCULAR
    if parabolic:
        return OrbitClass.PARABOLIC
    return OrbitClass.ELLIPTIC if e < 0 else OrbitClass.HYPERBOLIC


def classify_orbit(c: ConservedSet) -> OrbitClass:
    """Re-derive the orbit class from a conserved set alone.

    The radial test here has no |r||v| scale available, so it normalizes by
    the largest quantity with angular-momentum character in the set.
    """
    scale = max(norm(c.L), c.A_mag / c.kappa, 1e-300)
    parabolic = c.M is None
    return _classify(c.E, norm(c.L), c.A_mag, c.kappa, rv_scale=scale, parabolic=parabolic)


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
