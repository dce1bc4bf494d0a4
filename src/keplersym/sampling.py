"""Deterministic random-state generators shared by every test suite.

The base scheme: position direction uniform on the sphere with magnitude
uniform in [0.5, 2], velocity likewise in [0.3, 2]; states with |L| < 0.1 or
|A| < 0.05 kappa are rejected.  That covers both energy signs but never hits
E = 0 exactly, so parabolic coverage comes from states constructed with
|v| = sqrt(2 kappa / |r|).

Transform test pairs additionally need the whole parameter ray to stay
admissible (and away from apsides, where the flow field is singular), which
`sample_flow_pairs` enforces by rejection.
"""

from __future__ import annotations

import numpy as np

from . import fields
from .core import KeplerSystem, PhaseState, conserved_set
from .errors import InadmissibleTransformError, UsageError
from .generators import GeneratorKind
from .transforms import _set_ray

R_RANGE = (0.5, 2.0)
V_RANGE = (0.3, 2.0)
MIN_L = 0.1
MIN_A_FACTOR = 0.05
# sample_flow_pairs gives up after this many batches of candidate states
MAX_PAIR_BATCHES = 100
# |eps| of a flow pair is uniform in EPS_RANGE; its state has |r.v| >= APSIS_MARGIN |r||v|,
# and at each of RAY_NODES nodes along its ray the root argument is at least RAY_MARGIN
EPS_RANGE = (0.05, 0.35)
APSIS_MARGIN = 5e-2
RAY_NODES = 33
RAY_MARGIN = 1e-4


def canonical_states() -> dict[str, PhaseState]:
    """The four named reference states (kappa = 1), all at periapsis."""
    return {
        "circ": PhaseState((1, 0, 0), (0, 1.0, 0)),
        "ell": PhaseState((1, 0, 0), (0, 1.2, 0)),
        "par": PhaseState((1, 0, 0), (0, np.sqrt(2.0), 0)),
        "hyp": PhaseState((1, 0, 0), (0, 2.0, 0)),
    }


def _unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=(n, 3))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def sample_states(n: int, seed: int, kappa: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """n admissible random states as (r, v) arrays of shape (n, 3)."""
    rng = np.random.default_rng(seed)
    r_out, v_out = [], []
    have = 0
    while have < n:
        m = max(2 * (n - have), 16)
        r = _unit_vectors(rng, m) * rng.uniform(*R_RANGE, size=m)[:, None]
        v = _unit_vectors(rng, m) * rng.uniform(*V_RANGE, size=m)[:, None]
        vals = fields.values(r, v, kappa)
        keep = (vals["L_mag"] >= MIN_L) & (vals["A_mag"] >= MIN_A_FACTOR * kappa)
        r_out.append(r[keep])
        v_out.append(v[keep])
        have += int(np.count_nonzero(keep))
    return np.concatenate(r_out)[:n], np.concatenate(v_out)[:n]


def sample_parabolic_states(
    n: int, seed: int, kappa: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """n states with E = 0 exactly (up to roundoff): |v| = sqrt(2 kappa/|r|)."""
    rng = np.random.default_rng(seed)
    r_out, v_out = [], []
    have = 0
    while have < n:
        m = max(2 * (n - have), 16)
        r = _unit_vectors(rng, m) * rng.uniform(*R_RANGE, size=m)[:, None]
        r_mag = np.linalg.norm(r, axis=1)
        v = _unit_vectors(rng, m) * np.sqrt(2.0 * kappa / r_mag)[:, None]
        vals = fields.values(r, v, kappa)
        keep = vals["L_mag"] >= MIN_L
        r_out.append(r[keep])
        v_out.append(v[keep])
        have += int(np.count_nonzero(keep))
    return np.concatenate(r_out)[:n], np.concatenate(v_out)[:n]


def _ray_admissible(state: PhaseState, eps: np.ndarray, kind: GeneratorKind, sys: KeplerSystem) -> bool:
    c0 = conserved_set(state, sys)
    if c0.Theta is None:
        return False
    try:
        l_s = _set_ray(kind, c0, eps, np.linspace(0.0, 1.0, RAY_NODES))[0]
    except InadmissibleTransformError:
        return False
    l_sq = np.einsum("ni,ni->n", l_s, l_s)
    arg, a_sq = fields.root_terms(c0.E, sys.kappa, state.r_mag, l_sq)
    return bool(np.all((arg >= RAY_MARGIN) & (a_sq >= (0.02 * sys.kappa) ** 2) & (l_sq >= 0.05**2)))


def sample_flow_pairs(
    n: int,
    seed: int,
    kind: GeneratorKind,
    branch: str = "any",
    kappa: float = 1.0,
) -> list[tuple[PhaseState, np.ndarray]]:
    """n (state, eps) pairs whose whole parameter ray is strictly admissible.

    branch selects the energy sign: "neg", "pos", "zero" (exact parabolic
    states), or "any".  Raises UsageError when MAX_PAIR_BATCHES batches of
    candidate states hold fewer than n pairs.
    """
    if branch not in ("any", "neg", "pos", "zero"):
        raise UsageError(f"unknown branch {branch!r}")
    sys = KeplerSystem(kappa=kappa)
    rng = np.random.default_rng(seed + 99991)
    pairs: list[tuple[PhaseState, np.ndarray]] = []
    batch_seed = seed
    batches = 0
    while len(pairs) < n:
        if batches == MAX_PAIR_BATCHES:
            raise UsageError(
                f"found {len(pairs)} of {n} admissible flow pairs on branch {branch!r} at "
                f"kappa = {kappa} in {MAX_PAIR_BATCHES} batches of candidate states"
            )
        batches += 1
        if branch == "zero":
            r, v = sample_parabolic_states(4 * n, batch_seed, kappa)
        else:
            r, v = sample_states(4 * n, batch_seed, kappa)
        batch_seed += 7919
        vals = fields.values(r, v, kappa)
        if branch == "neg":
            keep = vals["E"] < -0.05
        elif branch == "pos":
            keep = vals["E"] > 0.05
        else:
            keep = np.ones(len(r), dtype=bool)
        keep &= np.abs(vals["r_dot_v"]) >= APSIS_MARGIN * vals["r_mag"] * np.linalg.norm(v, axis=1)
        for ri, vi in zip(r[keep], v[keep]):
            state = PhaseState(ri, vi)
            for _ in range(20):
                eps = _unit_vectors(rng, 1)[0] * rng.uniform(*EPS_RANGE)
                if _ray_admissible(state, eps, kind, sys):
                    pairs.append((state, eps))
                    break
            if len(pairs) >= n:
                break
    return pairs[:n]
