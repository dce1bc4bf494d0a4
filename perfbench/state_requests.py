"""Seeded single-state requests to the keplersym CLI, and the checks of their replies.

Inputs come from the benchmark's own generator and admissibility test, so a
change to keplersym.sampling leaves them as they are.  States have kappa = 1
and fall in three branches:

* "ell": E in [-0.45, -0.08];  "hyp": E in [0.08, 0.5];
* "par": |v| = sqrt(2/|r|) exactly, so E = 0 up to roundoff;

with |r| in [0.7, 1.5], |L| >= 0.3, eccentricity >= 0.1, periapsis >= 0.3 and
|r.v| >= 0.1 |r||v| (off apsis).  A block of twelve requests holds three
`conserved` (one per branch), one `transform` of each kind rotation, time and
lrl-direction, three `transform --kind lrl` (one per branch), one `brackets`,
one `brackets --fd-check` and one `orbit`; the single-state kinds cycle
through the branches from block to block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import oracles

KAPPA = 1.0
BRANCHES = ("ell", "hyp", "par")
ENERGY_BANDS = {"ell": (-0.45, -0.08), "hyp": (0.08, 0.5)}
EPS_RANGE = (0.05, 0.35)
RAY_NODES = 65
RAY_MARGIN = 1e-2
DT_OUT = 0.125
CSV_COLUMNS = ["t", "rx", "ry", "rz", "vx", "vy", "vz", "E", "Lx", "Ly", "Lz", "Ax", "Ay", "Az"]

# How close each reply must come to the oracle.
CONSERVED_REL = 1e-12
TRANSFORM_TOL = 1e-9
ROTATION_TOL = 1e-12
BRACKET_TOL = 1e-10
KEPLER_TOL = 1e-8

LATENCY_KINDS = ("conserved", "transform", "brackets", "orbit")


@dataclass(frozen=True)
class Request:
    kind: str  # one of LATENCY_KINDS
    variant: str  # e.g. "lrl", "fd-check", "time"
    branch: str
    argv: list
    r: np.ndarray
    v: np.ndarray
    eps: object = None  # vector, or a number for time shifts and orbit spans


def _fmt(x) -> str:
    return ",".join(repr(float(c)) for c in np.atleast_1d(x))


def _unit(rng) -> np.ndarray:
    x = rng.normal(size=3)
    return x / math.sqrt(float(x @ x))


def draw_state(rng, branch: str) -> tuple[np.ndarray, np.ndarray]:
    while True:
        r = _unit(rng) * rng.uniform(0.7, 1.5)
        r_mag = math.sqrt(float(r @ r))
        if branch == "par":
            speed = math.sqrt(2.0 * KAPPA / r_mag)
        else:
            speed = math.sqrt(2.0 * (rng.uniform(*ENERGY_BANDS[branch]) + KAPPA / r_mag))
        v = _unit(rng) * speed
        e, l_vec, a_vec = oracles.constants(r, v, KAPPA)
        l_sq = float(l_vec @ l_vec)
        ecc = math.sqrt(float(a_vec @ a_vec)) / KAPPA
        if (
            l_sq >= 0.3**2
            and ecc >= 0.1
            and l_sq / KAPPA / (1.0 + ecc) >= 0.3
            and abs(float(r @ v)) >= 0.1 * r_mag * speed
            and (branch != "par" or abs(e) <= 1e-14)
        ):
            return r, v


def ray_admissible(r, v, eps, kind: str, branch: str) -> bool:
    """Does the transformed orbit reach |r| all along s*eps, s in [0, 1]?

    At each node the map's |L*| must leave 2(E + kappa/|r|) - |L*|^2/|r|^2
    at least RAY_MARGIN, and |L*| and |A*| must stay away from 0.
    """
    e, l_vec, a_vec = oracles.constants(r, v, KAPPA)
    r_mag = math.sqrt(float(r @ r))
    for s in np.linspace(0.0, 1.0, RAY_NODES)[1:]:
        if kind == "lrl-direction":
            l_star, a_star = oracles.direction_map(e, l_vec, a_vec, s * eps, KAPPA)
        else:
            l_star, a_star = oracles.lrl_map(e, l_vec, a_vec, s * eps, branch == "par")
        l_sq = float(l_star @ l_star)
        if 2.0 * (e + KAPPA / r_mag) - l_sq / r_mag**2 < RAY_MARGIN:
            return False
        if l_sq < 0.05**2 or float(a_star @ a_star) < 0.05**2:
            return False
    return True


def _transform_pair(rng, kind: str, branch: str):
    while True:
        r, v = draw_state(rng, branch)
        for _ in range(50):
            eps = _unit(rng) * rng.uniform(*EPS_RANGE)
            if ray_admissible(r, v, eps, kind, branch):
                return r, v, eps


def _state_args(r, v) -> list:
    return [f"--r={_fmt(r)}", f"--v={_fmt(v)}"]


def make_request(rng, kind: str, variant: str, branch: str) -> Request:
    if kind == "transform" and variant in ("lrl", "lrl-direction"):
        r, v, eps = _transform_pair(rng, variant, branch)
        argv = ["transform", "--kind", variant, f"--eps={_fmt(eps)}", *_state_args(r, v)]
        return Request(kind, variant, branch, argv, r, v, eps)
    r, v = draw_state(rng, branch)
    if kind == "conserved":
        return Request(kind, variant, branch, ["conserved", *_state_args(r, v)], r, v)
    if kind == "brackets":
        extra = ["--fd-check"] if variant == "fd-check" else []
        return Request(kind, variant, branch, ["brackets", *extra, *_state_args(r, v)], r, v)
    if kind == "orbit":
        span = DT_OUT * int(rng.integers(8, 25)) * (1.0 if rng.random() < 0.5 else -1.0)
        argv = ["orbit", *_state_args(r, v), f"--tmax={span!r}", f"--dt-out={DT_OUT!r}"]
        return Request(kind, variant, branch, argv, r, v, span)
    if variant == "rotation":
        eps = _unit(rng) * rng.uniform(0.1, 3.0)
        argv = ["transform", "--kind", "rotation", f"--eps={_fmt(eps)}", *_state_args(r, v)]
        return Request(kind, variant, branch, argv, r, v, eps)
    dt = rng.uniform(0.1, 3.0) * (1.0 if rng.random() < 0.5 else -1.0)
    argv = ["transform", "--kind", "time", f"--eps={dt!r}", *_state_args(r, v)]
    return Request(kind, "time", branch, argv, r, v, dt)


BLOCK_SINGLE = (
    ("transform", "rotation"),
    ("transform", "time"),
    ("transform", "lrl-direction"),
    ("brackets", "plain"),
    ("brackets", "fd-check"),
    ("orbit", "csv"),
)


def request_list(seed: int, blocks: int) -> list[Request]:
    """`blocks` blocks of twelve requests, the same for the same seed."""
    rng = np.random.default_rng([seed, 20251])
    out: list[Request] = []
    for b in range(blocks):
        for branch in BRANCHES:
            out.append(make_request(rng, "conserved", "json", branch))
        for offset, (kind, variant) in enumerate(BLOCK_SINGLE):
            out.append(make_request(rng, kind, variant, BRANCHES[(b + offset) % 3]))
        for branch in BRANCHES:
            out.append(make_request(rng, "transform", "lrl", branch))
    return out


# ---------------------------------------------------------------- checks


def _close(x, ref, tol: float, scale: float = 1.0) -> bool:
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return x.shape == ref.shape and bool(np.all(np.abs(x - ref) <= tol * scale))


def _norm(x) -> float:
    x = np.asarray(x, dtype=float)
    return math.sqrt(float(x @ x))


def check(req: Request, text: str) -> str | None:
    """None when the reply (the captured stdout of an exit-0 call) is right,
    else what is wrong with it."""
    try:
        if req.kind == "orbit":
            return _check_orbit(req, text)
        doc = json.loads(text)
        if doc.get("schema_version") != 1:
            return "schema_version is not 1"
        return {"conserved": _check_conserved, "transform": _check_transform,
                "brackets": _check_brackets}[req.kind](req, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable reply: {exc!r}"


def _check_conserved(req: Request, doc: dict) -> str | None:
    e, l_vec, a_vec = oracles.constants(req.r, req.v, KAPPA)
    v_sq, r_mag = float(req.v @ req.v), _norm(req.r)
    e_scale = max(0.5 * v_sq, KAPPA / r_mag)
    if not _close(doc["E"], e, CONSERVED_REL, e_scale):
        return f"E {doc['E']!r} != {e!r}"
    if not _close(doc["L"], l_vec, CONSERVED_REL, r_mag * math.sqrt(v_sq)):
        return "L differs from r x v"
    if not _close(doc["A"], a_vec, CONSERVED_REL, max(v_sq * r_mag, KAPPA)):
        return "A differs from v x L - kappa rhat"
    expect_class = {"ell": "elliptic", "hyp": "hyperbolic", "par": "parabolic"}[req.branch]
    if doc["orbit_class"] != expect_class:
        return f"orbit_class {doc['orbit_class']} != {expect_class}"
    if (doc["M"] is None) != (req.branch == "par"):
        return "M present on the parabolic branch, or missing off it"
    if req.branch == "ell" and not _close(doc["period"], oracles.elliptic_period(e, KAPPA), 1e-12, doc["period"]):
        return "period differs from 2 pi kappa (-2E)^-3/2"
    return None


def _check_transform(req: Request, doc: dict) -> str | None:
    state = doc["state"]
    r_out, v_out, t_out = np.array(state["r"]), np.array(state["v"]), state["t"]
    e0, l0, a0 = oracles.constants(req.r, req.v, KAPPA)
    e1, l1, a1 = oracles.constants(r_out, v_out, KAPPA)
    if req.variant == "rotation":
        if t_out != 0.0:
            return "rotation moved t"
        if not (_close(r_out, oracles.rodrigues(req.eps, req.r), ROTATION_TOL, _norm(req.r))
                and _close(v_out, oracles.rodrigues(req.eps, req.v), ROTATION_TOL, _norm(req.v))):
            return "rotation differs from Rodrigues"
        return None
    if req.variant == "time":
        if t_out != 0.0:
            return "time translation moved t"
        r_ref, v_ref = oracles.kepler_propagate(req.r, req.v, req.eps, KAPPA, req.branch == "par")
        if not (_close(r_out, r_ref, KEPLER_TOL) and _close(v_out, v_ref, KEPLER_TOL)):
            err = max(np.max(np.abs(r_out - r_ref)), np.max(np.abs(v_out - v_ref)))
            return f"time translation is {err:.2e} from Kepler-equation propagation"
        return None
    if not doc["admissible"]:
        return "reply says inadmissible"
    if abs(_norm(r_out) - _norm(req.r)) > TRANSFORM_TOL:
        return "|r| not preserved"
    if abs(e1 - e0) > TRANSFORM_TOL:
        return "E not preserved"
    if req.variant == "lrl-direction":
        l_ref, a_ref = oracles.direction_map(e0, l0, a0, req.eps, KAPPA)
        if not _close(a1 / _norm(a1), a0 / _norm(a0), TRANSFORM_TOL):
            return "Theta not preserved"
        if not _close(l1, l_ref, TRANSFORM_TOL):
            return "L_out != L + eps x Theta"
        return None
    l_ref, a_ref = oracles.lrl_map(e0, l0, a0, req.eps, req.branch == "par")
    if req.branch == "par":
        if not _close(a1, a0, TRANSFORM_TOL):
            return "A not preserved at E = 0"
    else:
        scale = 2.0 * abs(e0)
        sign = 1.0 if e0 < 0 else -1.0
        inv0 = float(l0 @ l0) + sign * float(a0 @ a0) / scale
        inv1 = float(l1 @ l1) + sign * float(a1 @ a1) / scale
        if abs(inv1 - inv0) > TRANSFORM_TOL * max(1.0, abs(inv0)):
            return "|L|^2 +- |M|^2 not preserved"
    if not (_close(l1, l_ref, TRANSFORM_TOL) and _close(a1, a_ref, TRANSFORM_TOL)):
        return "constants differ from the LRL-group map"
    return None


def _check_brackets(req: Request, doc: dict) -> str | None:
    parabolic = req.branch == "par"
    labels = oracles.bracket_labels(parabolic)
    expect_pairs = {(labels[a], labels[b]) for a in range(len(labels)) for b in range(a + 1, len(labels))}
    entries = doc["entries"]
    pairs = {(en["left"], en["right"]) for en in entries}
    if len(entries) != (45 if parabolic else 78) or pairs != expect_pairs:
        return f"table has {len(entries)} entries, not the full upper triangle"
    e, l_vec, a_vec = oracles.constants(req.r, req.v, KAPPA)
    for en in entries:
        ref = oracles.expected_bracket(en["left"], en["right"], e, l_vec, a_vec)
        if abs(en["computed"] - ref) > BRACKET_TOL * max(1.0, abs(ref)):
            return f"{{{en['left']}, {en['right']}}} = {en['computed']!r}, oracle {ref!r}"
    if req.variant == "fd-check":
        if doc.get("max_fd_residual") is None or doc["max_fd_residual"] > oracles.GATES["bracket_fd"]:
            return "finite-difference column missing or above its gate"
    return None


def _check_orbit(req: Request, text: str) -> str | None:
    lines = text.strip().split("\n")
    if lines[0].split(",") != CSV_COLUMNS:
        return "CSV header differs"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    steps = round(abs(req.eps) / DT_OUT)
    if rows.shape != (steps + 1, len(CSV_COLUMNS)):
        return f"{rows.shape[0]} rows, expected {steps + 1}"
    grid = math.copysign(DT_OUT, req.eps) * np.arange(steps + 1)
    if not np.array_equal(rows[:, 0], grid):
        return "time grid differs"
    if not (np.array_equal(rows[0, 1:4], req.r) and np.array_equal(rows[0, 4:7], req.v)):
        return "first row is not the initial state"
    energies = []
    for row in rows:
        e, l_vec, a_vec = oracles.constants(row[1:4], row[4:7], KAPPA)
        if not (_close(row[7], e, 1e-12, 2.0) and _close(row[8:11], l_vec, 1e-12, 2.0)
                and _close(row[11:14], a_vec, 1e-12, 4.0)):
            return f"E/L/A columns at t = {row[0]} differ from the row's state"
        energies.append(e)
    drift = max(energies) - min(energies)
    if drift > oracles.GATES["energy_drift"]:
        return f"energy drift {drift:.2e}"
    r_ref, v_ref = oracles.kepler_propagate(req.r, req.v, req.eps, KAPPA, req.branch == "par")
    if not (_close(rows[-1, 1:4], r_ref, KEPLER_TOL) and _close(rows[-1, 4:7], v_ref, KEPLER_TOL)):
        return "final state differs from Kepler-equation propagation"
    return None
