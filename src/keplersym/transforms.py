"""Closed-form finite symmetry transformations of the Kepler problem.

Four families act on extended states (t, r, v):

  * rotations (Rodrigues form, angle |eps| about eps-hat),
  * time translation along the orbit, by the closed-form Kepler flow in
    universal variables (`flow.propagate_kepler`),
  * the LRL-direction group: E and Theta fixed, L -> L + eps x Theta,
  * the LRL group: E fixed, one formula for every energy.  With the parallel
    parts taken along eps, z = 2E|s eps|^2 and x = sqrt|z|,

        L*(s) = L_par + C (L - L_par) + s S (eps x A)
        A*(s) = A_par + C (A - A_par) - 2E s S (eps x L)

    where (C, S) is (cos x, sin x / x) for z < 0, (cosh x, sinh x / x) for
    z > 0 and (1, 1) at z = 0: the Stumpff-type pair of universal-variable
    propagation.  L +- M rotate by +-x about eps-hat (E < 0), mix by a boost
    (E > 0), or L shifts by s eps x A (E = 0, and every energy within the
    parabolic branch threshold).

`transform_batch` is the one implementation of the two LRL families, over N
rows of one kind: it counts the constants once, maps them, and rebuilds (r, v)
at the invariant radius (`fields.reconstruct`, which keeps |r| and E exact).
Both groups keep the time of periapsis passage t - tau_p (`fields.GaugeField`),
so the time shift is Delta t = tau_p(r*, v*) - tau_p(r, v), with tau_p the time
since periapsis (`flow.time_since_periapsis`), and each transform maps a
solution onto a solution.  The two transforms, `time_shift_quadrature` and the
two constants maps are its N=1 views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fields
from .core import (
    ConservedSet,
    ExtendedState,
    KeplerSystem,
    PhaseState,
    Vec3,
    as_vec3,
    norm,
    set_from_constants,
)
from .errors import DegenerateDirectionError, InadmissibleTransformError, UsageError
from .fields import _dot, cross
from .generators import GeneratorKind

ADMISSIBILITY_TOL = fields.ADMISSIBILITY_TOL
DIAGNOSTIC_TOL = 1e-9


def _eps_sq(eps: np.ndarray) -> np.ndarray:
    """|eps|^2 of each row of eps; UsageError unless each is finite, and so each component:
    the one rule on the parameter of a rotation and of both LRL groups."""
    with np.errstate(over="ignore"):
        eps_sq = _dot(np.atleast_2d(eps), np.atleast_2d(eps))
    if not np.isfinite(eps_sq).all():
        raise UsageError("eps must have finite components and a finite |eps|^2")
    return eps_sq


def rotation_matrix(eps: Vec3) -> np.ndarray:
    """Rodrigues rotation by angle |eps| about the unit axis eps/|eps|."""
    eps = as_vec3(eps, "eps")
    _eps_sq(eps)
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


def time_translate(state: ExtendedState, eps: float, sys: KeplerSystem) -> ExtendedState:
    """Advance (r, v) by eps along the Kepler flow, in closed form (`flow.propagate_kepler`);
    t is unchanged."""
    if eps == 0.0:
        return state
    from .flow import propagate_kepler

    r, v = propagate_kepler(state.r.tolist(), state.v.tolist(), float(eps), sys.kappa)
    return ExtendedState(state.t, PhaseState(r, v))


def admissibility(c: ConservedSet, r_mag: float, l_star_sq: float, sys: KeplerSystem) -> bool:
    """Can the orbit with (E, |L*|) reach radius r_mag with a real velocity?"""
    try:
        fields.reconstruction_terms(c.E, sys.kappa, r_mag, np.asarray(l_star_sq))
    except InadmissibleTransformError:
        return False
    return True


def _stumpff(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C - 1, S) of the LRL map at z = 2E|s eps|^2, x = sqrt|z|."""
    x = np.sqrt(np.abs(z))
    neg = z < 0.0
    # both branches run on every row: the discarded one may overflow, and S is 0/0 at x = 0
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.where(neg, np.cos(x), np.cosh(x)) - 1.0
        s = np.where(x > 0.0, np.where(neg, np.sin(x), np.sinh(x)) / x, 1.0)
    return c, s


def _ray(kind: GeneratorKind, e, l_vec, a_vec, eps, parabolic) -> np.ndarray:
    """The s-independent terms of the constants map, one (N, K) row per input row.

    LRL, a_vec = A: [L, A | L - L_par, A - A_par | eps x A, -2E eps x L | 2E|eps|^2],
    with E = 0 on the parabolic-branch rows.  LRL-direction, a_vec = Theta:
    [L, Theta | eps x Theta | 2E].
    """
    if kind is GeneratorKind.LRL:
        e = np.where(parabolic, 0.0, e)
        eps_sq = _dot(eps, eps)
        along = eps / np.where(eps_sq > 0.0, eps_sq, 1.0)[:, None]  # eps/|eps|^2, or 0 at eps = 0
        blocks = [
            l_vec, a_vec, l_vec - _dot(l_vec, eps)[:, None] * along, a_vec - _dot(a_vec, eps)[:, None] * along,
            cross(eps, a_vec), (-2.0 * e)[:, None] * cross(eps, l_vec), 2.0 * e * eps_sq,
        ]
    else:
        blocks = [l_vec, a_vec, cross(eps, a_vec), 2.0 * e]
    return np.column_stack(blocks)


def _ray_constants(kind: GeneratorKind, g: np.ndarray, s: np.ndarray, kappa: float):
    """(L*(s), A*(s), Theta*(s)) on the rows g of a `_ray` table, row i at parameter s[i] eps.

    Raises InadmissibleTransformError where |L*|^2 or |A*|^2 overflows, as where cosh(sqrt(2E)
    |s eps|) does on the LRL group's E > 0 branch, and where |A*| vanishes.
    """
    # an overflowed cosh times a zero term is NaN: such a row is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is GeneratorKind.LRL:
            c, sh = _stumpff(g[:, 18] * s * s)
            la = g[:, :6] + c[:, None] * g[:, 6:12] + (s * sh)[:, None] * g[:, 12:18]
            l_star, a_star = la[:, :3], la[:, 3:]
            l_sq, a_sq = _dot(l_star, l_star), _dot(a_star, a_star)
        else:
            l_star = g[:, :3] + s[:, None] * g[:, 6:9]
            l_sq = _dot(l_star, l_star)
            a_sq = kappa**2 + g[:, 9] * l_sq
    if not np.isfinite(l_sq + a_sq).all():
        raise InadmissibleTransformError(
            "the constants map overflows along the parameter ray: |L*|^2 or |A*|^2 is not finite "
            "(on the E > 0 branch of the LRL group, cosh(sqrt(2E) |eps|) overflows)"
        )
    if not (a_sq >= ADMISSIBILITY_TOL**2).all():
        raise InadmissibleTransformError(
            "|A*| vanishes along the parameter ray; the transformed direction degenerates",
            root_argument=float(np.min(a_sq)),
        )
    if kind is GeneratorKind.LRL:
        return l_star, a_star, a_star / np.sqrt(a_sq)[:, None]
    return l_star, np.sqrt(a_sq)[:, None] * g[:, 3:6], g[:, 3:6]


def _set_ray(kind: GeneratorKind, c: ConservedSet, eps: np.ndarray, s: np.ndarray):
    """(L*(s), A*(s), Theta*(s)) of the constants map of one conserved set at the nodes s."""
    a_vec = c.A if kind is GeneratorKind.LRL else c.Theta
    table = _ray(kind, np.array([c.E]), c.L[None], a_vec[None], eps[None], np.array([c.M is None]))
    return _ray_constants(kind, table[np.zeros(len(s), dtype=int)], s, c.kappa)


def _constants_map(kind: GeneratorKind, c: ConservedSet, eps: Vec3, kappa: float) -> ConservedSet:
    """The constants map of one conserved set at s = 1; eps = 0 returns c."""
    if c.Theta is None:
        name = "LRL" if kind is GeneratorKind.LRL else "direction"
        raise DegenerateDirectionError(f"{name} transform undefined for circular orbits")
    eps = as_vec3(eps, "eps")
    if _eps_sq(eps)[0] == 0.0:
        return c
    l_star, a_star, _ = _set_ray(kind, c, eps, np.ones(1))
    return set_from_constants(c.E, l_star[0], a_star[0], kappa, parabolic=c.M is None)


def transform_constants_direction(c: ConservedSet, eps: Vec3) -> ConservedSet:
    """Constants map of the LRL-direction group: L -> L + eps x Theta."""
    return _constants_map(GeneratorKind.LRL_DIRECTION, c, eps, c.kappa)


def transform_constants_lrl(c: ConservedSet, eps: Vec3, sys: KeplerSystem) -> ConservedSet:
    """Constants map of the LRL group at s = 1, the one formula of the module docstring."""
    return _constants_map(GeneratorKind.LRL, c, eps, sys.kappa)


class TransformBatch(NamedTuple):
    """Rows of `transform_batch`: the transformed (t, r, v), the constants (L*, A*),
    the time shift, the diagnostics (a dict of (N,) arrays) and the verdict, and
    the invariant E with its parabolic-branch mask."""

    t: np.ndarray
    r: np.ndarray
    v: np.ndarray
    L: np.ndarray
    A: np.ndarray
    delta_t: np.ndarray
    diagnostics: dict
    admissible: np.ndarray
    E: np.ndarray
    parabolic: np.ndarray


def transform_batch(
    kind: GeneratorKind,
    t,
    r,
    v,
    eps,
    kappa: float,
) -> TransformBatch:
    """Finite LRL or LRL-direction transformation (kind) of the N rows (t, r, v)
    with parameters eps (N, 3); rows with eps = 0 keep their (t, r, v).  UsageError
    unless every |eps|^2 is finite.

    Every row is checked by `fields.plane_rows` (SingularOriginError,
    DegenerateDirectionError, RadialStateError); InadmissibleTransformError if
    any row's orbit cannot reach its radius.  A row is admissible when its
    residuals are within DIAGNOSTIC_TOL.
    """
    from .flow import time_since_periapsis

    name = "LRL" if kind is GeneratorKind.LRL else "direction"
    t = np.atleast_1d(np.asarray(t, dtype=float))
    r, v, eps = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (r, v, eps))
    eps_sq = _eps_sq(eps)
    vals = fields.values(r, v, kappa)
    e, r_mag = vals["E"], vals["r_mag"]
    parabolic = fields.plane_rows(vals, v, kappa, f"{name} transform")
    sigma = np.where(vals["r_dot_v"] >= 0.0, 1.0, -1.0)
    a_vec = vals["A" if kind is GeneratorKind.LRL else "Theta"]
    table = _ray(kind, e, vals["L"], a_vec, eps, parabolic)

    l_star, a_star, theta = _ray_constants(kind, table, np.ones(len(t)), kappa)
    r_new, v_new = fields.reconstruct(r_mag, sigma, e, kappa, l_star, theta)
    check = fields.values(r_new, v_new, kappa)
    misfit = np.column_stack((check["E"] - e, check["L"] - l_star, check["A"] - a_star))
    diagnostics = {
        "r_invariance": np.abs(check["r_mag"] - r_mag),
        "E_invariance": np.abs(check["E"] - e),
        "reconstruction_residual": np.max(np.abs(misfit), axis=1),
    }
    # the reconstruction residual includes the E misfit, so it bounds E_invariance
    admissible = np.maximum(diagnostics["r_invariance"], diagnostics["reconstruction_residual"]) <= DIAGNOSTIC_TOL
    moved = (eps_sq > 0.0)[:, None]
    r_new, v_new = np.where(moved, r_new, r), np.where(moved, v_new, v)
    delta_t = time_since_periapsis(r_new, v_new, sigma, kappa) - time_since_periapsis(r, v, sigma, kappa)
    return TransformBatch(
        t + delta_t, r_new, v_new, l_star, a_star, delta_t, diagnostics, admissible, e, parabolic
    )


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


def _transform_one(kind: GeneratorKind, state: ExtendedState, sys: KeplerSystem, eps: Vec3) -> TransformResult:
    """One row of `transform_batch`, as a TransformResult."""
    eps = as_vec3(eps, "eps")
    r, v = state.r[None], state.v[None]
    b = transform_batch(kind, state.t, r, v, eps[None], sys.kappa)
    parabolic = bool(b.parabolic[0])
    warnings = ()
    if kind is GeneratorKind.LRL and parabolic and b.E[0] != 0.0 and float(eps @ eps) > 0.0:
        warnings = ("energy within the parabolic branch threshold: E = 0 closed form used",)
    return TransformResult(
        ExtendedState(b.t[0], PhaseState(b.r[0], b.v[0])),
        set_from_constants(b.E[0], b.L[0], b.A[0], sys.kappa, parabolic=parabolic),
        float(b.delta_t[0]),
        bool(b.admissible[0]),
        {key: float(x[0]) for key, x in b.diagnostics.items()},
        warnings,
    )


def time_shift_quadrature(state: ExtendedState, sys: KeplerSystem, eps: Vec3, kind: GeneratorKind) -> float:
    """The time shift tau_p(r*, v*) - tau_p(r, v) of one row of `transform_batch`, a closed
    form; the name is kept because the benchmark's tracer wraps it."""
    eps = as_vec3(eps, "eps")
    if norm(eps) == 0.0:
        return 0.0
    return _transform_one(kind, state, sys, eps).delta_t


def direction_lrl_transform(state: ExtendedState, sys: KeplerSystem, eps: Vec3) -> TransformResult:
    """Finite LRL-direction transformation with parameter eps."""
    return _transform_one(GeneratorKind.LRL_DIRECTION, state, sys, eps)


def lrl_transform(state: ExtendedState, sys: KeplerSystem, eps: Vec3) -> TransformResult:
    """Finite LRL transformation with parameter eps (every energy)."""
    return _transform_one(GeneratorKind.LRL, state, sys, eps)
