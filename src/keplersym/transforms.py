"""Closed-form finite symmetry transformations of the Kepler problem.

Four families act on extended states (t, r, v):

  * rotations (Rodrigues form, angle |eps| about eps-hat),
  * time translation along the true orbit,
  * the LRL-direction group: E and Theta fixed, L -> L + eps x Theta,
  * the LRL group: E fixed, with (L, M) rotated (E < 0), boost-mixed (E > 0),
    or L shifted by eps x A (E = 0).

The position and velocity after a dynamical transform are rebuilt from the
invariants (`fields.reconstruct`) through the in-plane basis expansion

    r = (alpha_r Theta + beta_r L x Theta) / |A|,   alpha_r = |L|^2 - kappa |r|
    v = (alpha_v Theta + beta_v L x Theta) / |A|,   beta_r  = r . v

with alpha_v = -kappa (r.v)/|r| and beta_v = |v|^2 - kappa/|r|.  Replacing the
constants by their transformed values and writing r.v as
sgn(r.v) |r| sqrt(2(E + kappa/|r|) - |L*|^2/|r|^2) keeps |r| and E invariant
exactly.  The square-root argument must stay non-negative: the transformed
orbit has to reach the invariant radius at all.  Arguments in [-1e-10, 0] are
clamped to zero; anything lower raises InadmissibleTransformError.

The time shift is the ray integral of the gauge component,
Delta t = integral_0^1 -(r*(s) x L*(s)) . eps ds, evaluated from the
closed-form state at parameter s*eps by composite Simpson quadrature with
panel doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fields
from .core import (
    ConservedSet,
    ExtendedState,
    KeplerSystem,
    PhaseState,
    Vec3,
    _plane_constants,
    as_vec3,
    conserved_set,
    cross,
    norm,
    set_from_constants,
)
from .errors import (
    DegenerateDirectionError,
    InadmissibleTransformError,
    UsageError,
)
from .generators import GeneratorKind

ADMISSIBILITY_TOL = fields.ADMISSIBILITY_TOL
QUADRATURE_TOL = 1e-10
DIAGNOSTIC_TOL = 1e-9


def rotation_matrix(eps: Vec3) -> np.ndarray:
    """Rodrigues rotation by angle |eps| about the unit axis eps/|eps|."""
    eps = as_vec3(eps, "eps")
    angle = norm(eps)
    if angle < 1e-15:
        return np.eye(3)
    n = eps / angle
    n_cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return math.cos(angle) * np.eye(3) + (1 - math.cos(angle)) * np.outer(n, n) + math.sin(angle) * n_cross


def rotate(state: ExtendedState, eps: Vec3) -> ExtendedState:
    """Rotate position and velocity; time is unchanged."""
    rot = rotation_matrix(eps)
    return ExtendedState(state.t, PhaseState(rot @ state.r, rot @ state.v))


def time_translate(
    state: ExtendedState, eps: float, sys: KeplerSystem, tol: float = 1e-10
) -> ExtendedState:
    """Advance (r, v) by eps along the true Kepler flow; t is unchanged."""
    if eps == 0.0:
        return state
    from .flow import integrate_orbit

    traj = integrate_orbit(state, sys, t_span=float(eps), tol=tol, dt_out=abs(float(eps)))
    return ExtendedState(state.t, traj.samples[-1].state)


@dataclass(frozen=True)
class TwistedRotationParams:
    """Angle (or rapidity) and unit axis of the internal-spatial LRL action."""

    phi: float
    axis: Vec3

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "axis", as_vec3(self.axis, "axis"))
        if abs(norm(self.axis) - 1.0) > 1e-12:
            raise UsageError("twisted-rotation axis must be a unit vector")


def twisted_rotation_params(e: float, eps: Vec3) -> TwistedRotationParams:
    eps = as_vec3(eps, "eps")
    mag = norm(eps)
    if mag == 0.0:
        raise UsageError("eps = 0 has no axis")
    return TwistedRotationParams(math.sqrt(2.0 * abs(e)) * mag, eps / mag)


@dataclass(frozen=True)
class BasisExpansion:
    """Coefficients of (r, v) in the in-plane frame (Theta, L x Theta)/|A|."""

    alpha_r: float
    beta_r: float
    alpha_v: float
    beta_v: float
    theta: Vec3
    l_cross_theta: Vec3
    a_mag: float

    def reconstruct(self) -> tuple[Vec3, Vec3]:
        r = (self.alpha_r * self.theta + self.beta_r * self.l_cross_theta) / self.a_mag
        v = (self.alpha_v * self.theta + self.beta_v * self.l_cross_theta) / self.a_mag
        return r, v


def basis_expand(state: PhaseState, sys: KeplerSystem) -> BasisExpansion:
    """Expand a non-degenerate state in the (Theta, L x Theta) frame."""
    c = _plane_constants(state, sys, "basis expansion")
    r_mag = state.r_mag
    r_dot_v = float(np.dot(state.r, state.v))
    l_sq = float(np.dot(c.L, c.L))
    v_sq = float(np.dot(state.v, state.v))
    return BasisExpansion(
        alpha_r=l_sq - sys.kappa * r_mag,
        beta_r=r_dot_v,
        alpha_v=-sys.kappa * r_dot_v / r_mag,
        beta_v=v_sq - sys.kappa / r_mag,
        theta=c.Theta,
        l_cross_theta=cross(c.L, c.Theta),
        a_mag=c.A_mag,
    )


def admissibility(c: ConservedSet, r_mag: float, l_star_sq: float, sys: KeplerSystem) -> bool:
    """Can the orbit with (E, |L*|) reach radius r_mag with a real velocity?"""
    try:
        fields.reconstruction_terms(c.E, sys.kappa, r_mag, np.asarray(l_star_sq))
    except InadmissibleTransformError:
        return False
    return True


def _sgn_radial(state: PhaseState) -> float:
    r_dot_v = float(np.dot(state.r, state.v))
    return 1.0 if r_dot_v >= 0.0 else -1.0


def _reconstruct(
    r_mag: float,
    sigma: float,
    e: float,
    kappa: float,
    l_star: Vec3,
    theta_star: Vec3,
) -> tuple[Vec3, Vec3]:
    r_new, v_new = fields.reconstruct(r_mag, sigma, e, kappa, l_star[None, :], theta_star[None, :])
    return r_new[0], v_new[0]


def transform_constants_direction(c: ConservedSet, eps: Vec3) -> ConservedSet:
    """Constants map of the LRL-direction group: L -> L + eps x Theta."""
    if c.Theta is None:
        raise DegenerateDirectionError("direction transform undefined for circular orbits")
    l_star, a_star = _ray_constants(c, as_vec3(eps, "eps"), GeneratorKind.LRL_DIRECTION, 1.0)
    return set_from_constants(c.E, l_star[0], a_star[0], c.kappa, parabolic=c.M is None)


def transform_constants_lrl(c: ConservedSet, eps: Vec3, sys: KeplerSystem) -> ConservedSet:
    """Constants map of the LRL group, branching on the sign of E.

    E < 0: L +- M rotate by +-phi about eps-hat, phi = sqrt(2|E|) |eps|.
    E > 0: components along eps-hat are fixed; perpendicular components mix
    through cosh/sinh of the rapidity with the eps-hat cross operator.
    E = 0: A is fixed and L shifts by eps x A.
    """
    if c.Theta is None:
        raise DegenerateDirectionError("LRL transform undefined for circular orbits")
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        return c
    l_star, a_star = _ray_constants(c, eps, GeneratorKind.LRL, 1.0)
    return set_from_constants(c.E, l_star[0], a_star[0], sys.kappa, parabolic=c.M is None)


def _ray_constants(c0: ConservedSet, eps: Vec3, kind: GeneratorKind, s):
    """(L*(s), A*(s)) of the constants map at parameter s*eps, batched over s.

    Raises InadmissibleTransformError where |A*| vanishes on the ray.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if kind is GeneratorKind.LRL_DIRECTION:
        l_star = c0.L + s[:, None] * cross(eps, c0.Theta)
        a_sq = c0.kappa**2 + 2.0 * c0.E * np.einsum("ni,ni->n", l_star, l_star)
        _require_a_star(a_sq)
        return l_star, np.sqrt(a_sq)[:, None] * c0.Theta
    if c0.M is None:
        l_star = c0.L + s[:, None] * cross(eps, c0.A)
        return l_star, np.broadcast_to(c0.A, l_star.shape)
    mag = norm(eps)
    n = eps / mag
    phi = math.sqrt(2.0 * abs(c0.E)) * mag
    if c0.E < 0:
        u_plus = c0.L + c0.M
        u_minus = c0.L - c0.M
        cos, sin = np.cos(s * phi)[:, None], np.sin(s * phi)[:, None]
        up = cos * u_plus + sin * cross(n, u_plus) + (1 - cos) * float(n @ u_plus) * n
        um = cos * u_minus - sin * cross(n, u_minus) + (1 - cos) * float(n @ u_minus) * n
        l_star = 0.5 * (up + um)
        m_star = 0.5 * (up - um)
    else:
        l_par = float(np.dot(c0.L, n)) * n
        m_par = float(np.dot(c0.M, n)) * n
        ch, sh = np.cosh(s * phi)[:, None], np.sinh(s * phi)[:, None]
        l_star = l_par + ch * (c0.L - l_par) + sh * cross(n, c0.M)
        m_star = m_par + ch * (c0.M - m_par) - sh * cross(n, c0.L)
    a_star = math.sqrt(2.0 * abs(c0.E)) * m_star
    _require_a_star(np.einsum("ni,ni->n", a_star, a_star))
    return l_star, a_star


def _require_a_star(a_sq: np.ndarray) -> None:
    if np.any(a_sq < ADMISSIBILITY_TOL**2):
        raise InadmissibleTransformError(
            "|A*| vanishes along the parameter ray; the transformed direction degenerates",
            root_argument=float(np.min(a_sq)),
        )


def time_shift_quadrature(
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    kind: GeneratorKind,
    quad_panels: int = 64,
) -> float:
    """Delta t = integral over s in [0,1] of -(r*(s) x L*(s)) . eps.

    The integrand comes from the closed-form transformed state at parameter
    s*eps.  Composite Simpson; the panel count doubles until two successive
    values agree to 1e-10 (or six doublings).
    """
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        return 0.0
    if quad_panels < 1:
        raise UsageError("quad_panels must be >= 1")
    phase = state.state
    c0 = _plane_constants(phase, sys, "time shift")
    sigma = _sgn_radial(phase)
    r_mag = phase.r_mag

    def simpson(panels: int) -> float:
        s = np.linspace(0.0, 1.0, 2 * panels + 1)
        l_star, a_star = _ray_constants(c0, eps, kind, s)
        theta_star = a_star / np.linalg.norm(a_star, axis=1)[:, None]
        r_star, _ = fields.reconstruct(r_mag, sigma, c0.E, sys.kappa, l_star, theta_star)
        f = -np.einsum("ni,i->n", np.cross(r_star, l_star), eps)
        weights = np.ones(2 * panels + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float(f @ weights) / (6.0 * panels)

    value = simpson(quad_panels)
    panels = quad_panels
    for _ in range(6):
        panels *= 2
        refined = simpson(panels)
        if abs(refined - value) <= QUADRATURE_TOL:
            return refined
        value = refined
    return value


@dataclass(frozen=True)
class TransformResult:
    """Outcome of one finite symmetry transformation."""

    out: ExtendedState
    constants_out: ConservedSet
    delta_t: float
    admissible: bool
    diagnostics: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "state": {
                "t": self.out.t,
                "r": [float(x) for x in self.out.r],
                "v": [float(x) for x in self.out.v],
            },
            "constants": self.constants_out.as_dict(),
            "delta_t": self.delta_t,
            "admissible": self.admissible,
            "diagnostics": {k: float(v) for k, v in self.diagnostics.items()},
            "warnings": list(self.warnings),
        }


def direction_lrl_transform(
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    quad_panels: int = 64,
    diag_tol: float = DIAGNOSTIC_TOL,
) -> TransformResult:
    """Finite LRL-direction transformation with parameter eps."""
    return _dynamical_transform(GeneratorKind.LRL_DIRECTION, state, sys, eps, quad_panels, diag_tol)


def lrl_transform(
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    quad_panels: int = 64,
    diag_tol: float = DIAGNOSTIC_TOL,
) -> TransformResult:
    """Finite LRL transformation with parameter eps (all energy branches)."""
    return _dynamical_transform(GeneratorKind.LRL, state, sys, eps, quad_panels, diag_tol)


def _dynamical_transform(
    kind: GeneratorKind,
    state: ExtendedState,
    sys: KeplerSystem,
    eps: Vec3,
    quad_panels: int,
    diag_tol: float,
) -> TransformResult:
    name = "direction" if kind is GeneratorKind.LRL_DIRECTION else "LRL"
    eps = as_vec3(eps, "eps")
    phase = state.state
    c0 = _plane_constants(phase, sys, f"{name} transform")
    if norm(eps) == 0.0:
        diagnostics = {"r_invariance": 0.0, "E_invariance": 0.0, "reconstruction_residual": 0.0}
        return TransformResult(state, c0, 0.0, True, diagnostics, ())
    warnings = ()
    if kind is GeneratorKind.LRL:
        if c0.M is None and c0.E != 0.0:
            warnings = ("energy within the parabolic branch threshold: E = 0 closed form used",)
        c1 = transform_constants_lrl(c0, eps, sys)
    else:
        c1 = transform_constants_direction(c0, eps)
    r_new, v_new = _reconstruct(phase.r_mag, _sgn_radial(phase), c0.E, sys.kappa, c1.L, c1.Theta)
    delta_t = time_shift_quadrature(state, sys, eps, kind, quad_panels)

    out = ExtendedState(state.t + delta_t, PhaseState(r_new, v_new))
    c_check = conserved_set(out.state, sys)
    recon = max(
        abs(c_check.E - c1.E),
        float(np.max(np.abs(c_check.L - c1.L))),
        float(np.max(np.abs(c_check.A - c1.A))),
    )
    diagnostics = {
        "r_invariance": abs(out.state.r_mag - phase.r_mag),
        "E_invariance": abs(c_check.E - c0.E),
        "reconstruction_residual": recon,
    }
    admissible = all(val <= diag_tol for val in diagnostics.values())
    return TransformResult(out, c1, delta_t, admissible, diagnostics, warnings)
