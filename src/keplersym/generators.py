"""Infinitesimal symmetry generators attached to the conserved quantities.

Each conserved quantity C yields a generator whose position characteristic is
P = dC/dv.  The four families handled here:

    energy             P = v                      (time translation)
    angular momentum j P = e_j x r                (rotation about axis j)
    LRL vector j       P_i = 2 v_i r_j - r_i v_j - (r.v) delta_ij
    LRL direction j    P[A_j]/|A| + A_j (2E (r x L) - |L|^2 v)/|A|^3

(the formulas themselves live in `fields.characteristics`).

Prolongation to phase space appends the on-shell derivative of P.  The
coordinate-space version adds a time component; the gauge is fixed so that the
flow leaves |r| invariant, which makes r . delta_r vanish identically.  The
reported delta_t is -(r x L)_axis, the component whose ray integral defines
the time shift of the finite transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import fields
from .core import (
    KeplerSystem,
    PhaseState,
    Vec3,
    _require_off_origin,
    as_vec3,
    central_differences,
    fd_grad_v,
    norm,
)
from .errors import ApsisError, UsageError

# |r.v| below this (relative to |r||v|) counts as an apsis for gauge purposes.
APSIS_FLOOR = 1e-12
# classify_generator: largest entry of dP/dv minus its trace part for a point symmetry.
POINT_TOL = 1e-4


class GeneratorKind(Enum):
    ENERGY = "energy"
    ANGULAR_MOMENTUM = "angular_momentum"
    LRL = "lrl"
    LRL_DIRECTION = "lrl_direction"


class GeneratorClass(Enum):
    POINT = "point"
    DYNAMICAL = "dynamical"


@dataclass(frozen=True)
class GeneratorId:
    kind: GeneratorKind
    axis: int | None = None

    def __post_init__(self):
        if self.kind is GeneratorKind.ENERGY:
            if self.axis is not None:
                raise UsageError("the energy generator has no axis")
        elif self.axis not in (1, 2, 3):
            raise UsageError(f"axis must be 1, 2, or 3, got {self.axis}")

    @staticmethod
    def energy() -> "GeneratorId":
        return GeneratorId(GeneratorKind.ENERGY)

    @staticmethod
    def angular_momentum(axis: int) -> "GeneratorId":
        return GeneratorId(GeneratorKind.ANGULAR_MOMENTUM, axis)

    @staticmethod
    def lrl(axis: int) -> "GeneratorId":
        return GeneratorId(GeneratorKind.LRL, axis)

    @staticmethod
    def lrl_direction(axis: int) -> "GeneratorId":
        return GeneratorId(GeneratorKind.LRL_DIRECTION, axis)


@dataclass(frozen=True)
class GeneratorValue:
    """One generator evaluated at one state (time, position, velocity parts)."""

    delta_t: float
    delta_r: Vec3
    delta_v: Vec3

    def __post_init__(self):
        object.__setattr__(self, "delta_t", float(self.delta_t))
        object.__setattr__(self, "delta_r", as_vec3(self.delta_r, "delta_r"))
        object.__setattr__(self, "delta_v", as_vec3(self.delta_v, "delta_v"))


# The label of each family's conserved quantity in `fields`.
FAMILY_LABEL = {
    GeneratorKind.ENERGY: "E",
    GeneratorKind.ANGULAR_MOMENTUM: "L",
    GeneratorKind.LRL: "A",
    GeneratorKind.LRL_DIRECTION: "Theta",
}


def _characteristics(gen: GeneratorId, r: np.ndarray, v: np.ndarray, sys: KeplerSystem):
    """(P, DtP) of the generator at the states (r, v), batched over rows of v."""
    eps = np.zeros((len(v), 3))
    if gen.axis is not None:
        eps[:, gen.axis - 1] = 1.0
    return fields.characteristics(FAMILY_LABEL[gen.kind], r, v, eps, sys.kappa)


def _at_state(gen: GeneratorId, state: PhaseState, sys: KeplerSystem) -> tuple[Vec3, Vec3]:
    _require_off_origin(state.r_mag)
    p, dt_p = _characteristics(gen, state.r[None, :], state.v[None, :], sys)
    return p[0], dt_p[0]


def characteristic(gen: GeneratorId, state: PhaseState, sys: KeplerSystem) -> Vec3:
    """Position characteristic P = dC/dv of the generator at the given state.

    The formulas of each family are in `fields.characteristics`.  Raises
    DegenerateDirectionError for the LRL direction at a circular state.
    """
    return _at_state(gen, state, sys)[0]


def prolonged_generator(gen: GeneratorId, state: PhaseState, sys: KeplerSystem) -> GeneratorValue:
    """Phase-space prolongation (P, DtP); the time component is zero."""
    return GeneratorValue(0.0, *_at_state(gen, state, sys))


def gauge_fixed_generator(gen: GeneratorId, state: PhaseState, sys: KeplerSystem) -> GeneratorValue:
    """Coordinate-space generator with the radius-preserving gauge.

    delta_t is -(r x L)_axis, the component the time-shift quadrature
    integrates.  delta_r and delta_v carry the velocity-direction completion
    tau = -(r . P)/(r . v), which makes r . delta_r vanish identically.  At an
    apsis that completion is finite only when (r x L)_axis also vanishes, in
    which case the on-shell limit -(A + kappa rhat)_axis / (|v|^2 - kappa/|r|)
    (scaled by 1/|A| for the direction family) is used, as mu = -tau;
    otherwise ApsisError.  The field itself is `fields.gauge_field`.
    """
    if gen.kind not in (GeneratorKind.LRL, GeneratorKind.LRL_DIRECTION):
        raise UsageError("gauge-fixed components exist for the LRL and LRL-direction families")
    _require_off_origin(state.r_mag)
    family, kappa = FAMILY_LABEL[gen.kind], sys.kappa
    eps = np.eye(3)[gen.axis - 1 : gen.axis]
    basis, gram = fields.frame(state.r[None, :], state.v[None, :], eps)
    (rr, rv, re), (_, vv, ve) = gram[:, :, 0].tolist()
    mu = None
    if abs(rv) <= APSIS_FLOOR * (math.sqrt(rr * vv) + 1e-300):
        p = fields.gauge_field(family, basis, gram, kappa, 0.0)[1][0, :, 0]
        l_sq = rr * vv - rv * rv
        if abs(float(state.r @ p)) > 1e-9 * (math.sqrt(rr) * (math.sqrt(l_sq) + norm(p)) + 1e-300):
            raise ApsisError(
                f"r.v = 0 and (r x L)_{gen.axis} != 0: no finite radius-preserving "
                "completion exists at an apsis for this axis"
            )
        beta = vv - kappa / math.sqrt(rr)
        if abs(beta) < 1e-12 * (vv + kappa / math.sqrt(rr)):
            raise ApsisError("apsis limit of the gauge completion is indeterminate here")
        # mu = -tau -> Dt(r.P)/Dt(r.v) as r.v -> 0 along the orbit, which is
        # (v x L)_axis/beta with v x L = A + kappa rhat = |v|^2 r - (r.v) v
        mu = (vv * re - rv * ve) / beta
        if gen.kind is GeneratorKind.LRL_DIRECTION:
            a_mag = float(fields.values(state.r, state.v, kappa)["A_mag"][0])
            mu = mu / a_mag - l_sq * (beta * re - rv * ve) / a_mag**3
        mu = np.array([mu])
    dt, d = fields.gauge_field(family, basis, gram, kappa, mu)
    return GeneratorValue(dt[0], d[0, :, 0], d[1, :, 0])


def noether_characteristic(constant: Callable[[PhaseState], float], state: PhaseState) -> Vec3:
    """dC/dv by central finite differences, the Noether-inverse characteristic."""
    return fd_grad_v(constant, state)


def velocity_jacobian(gen: GeneratorId, state: PhaseState, sys: KeplerSystem) -> np.ndarray:
    """Finite-difference matrix dP_i/dv_k of the characteristic."""
    r = np.broadcast_to(state.r, (6, 3))
    return central_differences(lambda vs: _characteristics(gen, r, vs, sys)[0], state.v).T


def classify_generator(gen: GeneratorId, state: PhaseState, sys: KeplerSystem) -> GeneratorClass:
    """Point iff dP/dv is a multiple of the identity (strict linearity in v)."""
    jac = velocity_jacobian(gen, state, sys)
    tau_hat = float(np.trace(jac)) / 3.0
    deviation = float(np.max(np.abs(jac - tau_hat * np.eye(3))))
    if not math.isfinite(deviation):
        return GeneratorClass.DYNAMICAL
    return GeneratorClass.POINT if deviation <= POINT_TOL else GeneratorClass.DYNAMICAL
