"""Deterministic random-state generators shared by every test suite.

The base scheme: position direction uniform on the sphere with magnitude
uniform in [0.5, 2], velocity likewise in [0.3, 2]; states with |L| < 0.1 or
|A| < 0.05 kappa are rejected.  That covers both energy signs but never hits
E = 0 exactly, so parabolic coverage comes from states constructed with
|v| = sqrt(2 kappa / |r|).

Both samplers draw their candidates in rounds of twice the states still
missing, normalise and scale them in place, test them one `fields.FD_BATCH`
chunk at a time and write the rows they keep straight into (n, 3) outputs.
So beside the states they return they hold only a round's candidates and one
chunk's values: `sample_states(90_000)` traces 15.2 MB where testing all
180 000 candidates at once traced 51.2 MB.  The states are the same, bit for
bit, for any chunk size.

Transform test pairs additionally need the whole parameter ray to stay
admissible (and away from apsides, where the flow field is singular), which
`sample_flow_pairs` enforces by rejection.
"""

from __future__ import annotations

import numpy as np

from . import fields
from .core import ConservedSet, KeplerSystem, PhaseState, conserved_set
from .errors import InadmissibleTransformError, UsageError
from .generators import GeneratorKind
from .transforms import _set_ray

R_RANGE = (0.5, 2.0)
V_RANGE = (0.3, 2.0)
MIN_L = 0.1
MIN_A_FACTOR = 0.05
# sample_flow_pairs gives up after this many batches of candidate states, and
# sample_states and sample_parabolic_states after this many rounds of candidates
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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x| of each row of the (N, 3) array x, one `fields.FD_BATCH` chunk at a time."""
    out = np.empty(len(x))
    for lo in range(0, len(x), fields.FD_BATCH):
        out[lo : lo + fields.FD_BATCH] = np.linalg.norm(x[lo : lo + fields.FD_BATCH], axis=1)
    return out


def _unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    out = rng.normal(size=(n, 3))
    out /= _row_norms(out)[:, None]
    return out


def _admitted(n: int, draw, admissible, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """The first n candidate states that pass admissible(`fields.values` of a chunk), as
    (r, v) arrays of shape (n, 3).  Each round draws m = max(2 * (n - have), 16) candidates
    with draw(m) and tests them one `fields.FD_BATCH` chunk at a time, writing the rows it
    keeps straight into the outputs, until they are full.  Raises UsageError when
    MAX_PAIR_BATCHES rounds hold fewer than n admissible states."""
    if n < 0:
        raise UsageError(f"cannot sample a negative number of states, got {n}")
    r_out, v_out = np.empty((n, 3)), np.empty((n, 3))
    have = rounds = 0
    while have < n:
        if rounds == MAX_PAIR_BATCHES:
            raise UsageError(
                f"found {have} of {n} admissible states at kappa = {kappa} in {MAX_PAIR_BATCHES} rounds of candidates"
            )
        rounds += 1
        r, v = draw(max(2 * (n - have), 16))
        for lo in range(0, len(r), fields.FD_BATCH):
            rc, vc = r[lo : lo + fields.FD_BATCH], v[lo : lo + fields.FD_BATCH]
            kept = np.flatnonzero(admissible(fields.values(rc, vc, kappa)))[: n - have]
            r_out[have : have + len(kept)] = rc[kept]
            v_out[have : have + len(kept)] = vc[kept]
            have += len(kept)
            if have == n:
                break
    return r_out, v_out


def sample_states(n: int, seed: int, kappa: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """n admissible random states as (r, v) arrays of shape (n, 3); n = 0 gives empty
    arrays and a negative n raises UsageError."""
    rng = np.random.default_rng(seed)

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        r = _unit_vectors(rng, m)
        r *= rng.uniform(*R_RANGE, size=m)[:, None]
        v = _unit_vectors(rng, m)
        v *= rng.uniform(*V_RANGE, size=m)[:, None]
        return r, v

    return _admitted(n, draw, lambda vals: (vals["L_mag"] >= MIN_L) & (vals["A_mag"] >= MIN_A_FACTOR * kappa), kappa)


def sample_parabolic_states(
    n: int, seed: int, kappa: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """n states with E = 0 exactly (up to roundoff): |v| = sqrt(2 kappa/|r|).  As for
    `sample_states`, n = 0 gives empty arrays and a negative n raises UsageError."""
    rng = np.random.default_rng(seed)

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        r = _unit_vectors(rng, m)
        r *= rng.uniform(*R_RANGE, size=m)[:, None]
        v = _unit_vectors(rng, m)
        v *= np.sqrt(2.0 * kappa / _row_norms(r))[:, None]
        return r, v

    return _admitted(n, draw, lambda vals: vals["L_mag"] >= MIN_L, kappa)


def _ray_admissible(c0: ConservedSet, r_mag: float, eps: np.ndarray, kind: GeneratorKind) -> bool:
    """Whether every node of the ray s eps, s in [0, 1], from a state of radius r_mag and
    constants c0 keeps a strictly admissible reconstruction."""
    if c0.Theta is None:
        return False
    try:
        l_s = _set_ray(kind, c0, eps, np.linspace(0.0, 1.0, RAY_NODES))[0]
    except InadmissibleTransformError:
        return False
    l_sq = np.einsum("ni,ni->n", l_s, l_s)
    arg, a_sq = fields.root_terms(c0.E, c0.kappa, r_mag, l_sq)
    return bool(np.all((arg >= RAY_MARGIN) & (a_sq >= (0.02 * c0.kappa) ** 2) & (l_sq >= 0.05**2)))


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
            c0 = conserved_set(state, sys)
            for _ in range(20):
                eps = _unit_vectors(rng, 1)[0] * rng.uniform(*EPS_RANGE)
                if _ray_admissible(c0, state.r_mag, eps, kind):
                    pairs.append((state, eps))
                    break
            if len(pairs) >= n:
                break
    return pairs[:n]
