"""Poisson brackets among the conserved quantities and their expected algebra.

The bracket is {F, G} = dF/dr . dG/dv - dG/dr . dF/dv.  For the library
constants (labels "E", "L1".."L3", "A1".."A3", "Theta1".."Theta3",
"M1".."M3") gradients are analytic; arbitrary callables fall back to central
finite differences.  The closed algebra being verified:

    {E, anything} = 0
    {L_i, L_j} = eps_ijk L_k          {L_i, X_j} = eps_ijk X_k  for X in A, M, Theta
    {A_i, A_j} = -2 E eps_ijk L_k     {M_i, M_j} = -sgn(E) eps_ijk L_k
    {Theta_i, Theta_j} = 0

plus the mixed A/Theta rows, which follow from the Leibniz rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fields
from .core import (
    ConservedSet,
    KeplerSystem,
    PhaseState,
    Vec3,
    _plane_constants,
    fd_grad_r,
    fd_grad_v,
)
from .errors import DegenerateStateError, UsageError
from .generators import FAMILY_LABEL, GeneratorId

# Below this |E|, the fixed-step central differences behind the FD cross-check
# cannot resolve the M = A/sqrt(2|E|) rows to the 1e-5 tolerance (truncation
# error grows like |E|^-7/2; at |E| ~ 0.011 it already reaches ~1e-4 for fast
# states); their structure constants are still covered at such states through
# the A rows.
FD_M_FLOOR = 5e-2


def constant_function(label: str, sys: KeplerSystem) -> Callable[[PhaseState], float]:
    """The library constant as a plain scalar function of PhaseState."""

    def f(state: PhaseState) -> float:
        vals = fields.scalar_values(state.r[None, :], state.v[None, :], sys.kappa)
        return float(vals[label][0])

    f.__name__ = f"constant_{label}"
    return f


def _gradient_pair(f, state: PhaseState, sys: KeplerSystem) -> tuple[Vec3, Vec3]:
    if isinstance(f, str):
        grads = fields.gradients(state.r[None, :], state.v[None, :], sys.kappa)
        if f not in grads:
            raise UsageError(f"unknown constant label {f!r}")
        gr, gv = grads[f]
        return gr[0], gv[0]
    return fd_grad_r(f, state), fd_grad_v(f, state)


def poisson_bracket(f, g, state: PhaseState, sys: KeplerSystem) -> float:
    """{f, g} at one state; f and g are labels or scalar callables."""
    fr, fv = _gradient_pair(f, state, sys)
    gr, gv = _gradient_pair(g, state, sys)
    return float(np.dot(fr, gv) - np.dot(gr, fv))


@dataclass(frozen=True)
class BracketEntry:
    left: str
    right: str
    computed: float
    expected: float
    residual: float
    fd_residual: float | None = None

    def as_dict(self) -> dict:
        out = {
            "left": self.left,
            "right": self.right,
            "computed": self.computed,
            "expected": self.expected,
            "residual": self.residual,
        }
        if self.fd_residual is not None:
            out["fd_residual"] = self.fd_residual
        return out


@dataclass(frozen=True)
class BracketReport:
    entries: tuple[BracketEntry, ...]
    max_residual: float
    max_fd_residual: float | None = None

    def as_dict(self) -> dict:
        out = {
            "entries": [e.as_dict() for e in self.entries],
            "max_residual": self.max_residual,
        }
        if self.max_fd_residual is not None:
            out["max_fd_residual"] = self.max_fd_residual
        return out


def _table_labels(include_m: bool) -> list[str]:
    labels = list(fields.SCALAR_LABELS)
    if include_m:
        labels += list(fields.M_LABELS)
    return labels


def structure_table(state: PhaseState, sys: KeplerSystem, fd_check: bool = False) -> BracketReport:
    """Every pairwise bracket among the library constants, with residuals.

    Rows involving M are skipped on the parabolic branch.  Setting fd_check
    adds a finite-difference recomputation of each bracket as an independent
    column.
    """
    c = _plane_constants(state, sys, "bracket table")
    include_m = c.M is not None
    r = state.r[None, :]
    v = state.v[None, :]
    vals = fields.values(r, v, sys.kappa)
    grads = fields.gradients(r, v, sys.kappa, include_m=include_m)
    fd_grads = fields.fd_gradients(r, v, sys.kappa, include_m=include_m) if fd_check else None

    labels = _table_labels(include_m)
    fd_m_ok = abs(c.E) >= FD_M_FLOOR
    entries = []
    max_res = 0.0
    max_fd = 0.0
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            left, right = labels[a], labels[b]
            computed = float(fields.bracket(grads, left, right)[0])
            expected = float(fields.expected_bracket(left, right, vals)[0])
            residual = abs(computed - expected)
            fd_residual = None
            has_m = left.startswith("M") or right.startswith("M")
            if fd_check and (fd_m_ok or not has_m):
                fd_residual = abs(float(fields.bracket(fd_grads, left, right)[0]) - expected)
                max_fd = max(max_fd, fd_residual)
            entries.append(BracketEntry(left, right, computed, expected, residual, fd_residual))
            max_res = max(max_res, residual)
    return BracketReport(tuple(entries), max_res, max_fd if fd_check else None)


def structure_residuals(
    r: np.ndarray, v: np.ndarray, kappa: float, use_fd: bool = False, include_m: bool = True
) -> np.ndarray:
    """Batched max |{F,G} - expected| per state, over the full label table."""
    r = np.atleast_2d(r)
    v = np.atleast_2d(v)
    vals = fields.values(r, v, kappa)
    grads = (
        fields.fd_gradients(r, v, kappa, include_m)
        if use_fd
        else fields.gradients(r, v, kappa, include_m)
    )
    labels = _table_labels(include_m)
    worst = np.zeros(r.shape[0])
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            res = np.abs(
                fields.bracket(grads, labels[a], labels[b])
                - fields.expected_bracket(labels[a], labels[b], vals)
            )
            worst = np.maximum(worst, res)
    return worst


ACTION_TARGETS = ("E", "L", "A", "Theta")


def symmetry_action(
    gen: GeneratorId, target: str, state: PhaseState, sys: KeplerSystem
):
    """Action of the prolonged generator on a constant, {target_i, C_gen}.

    Returns a float for target "E" and a 3-vector for the vector constants.
    Only rotations acting on vectors and the LRL family acting on A, L, and
    Theta are non-zero.
    """
    if target not in ACTION_TARGETS:
        raise UsageError(f"target must be one of {ACTION_TARGETS}, got {target!r}")
    _plane_constants(state, sys, "symmetry action")
    gen_label = FAMILY_LABEL[gen.kind]
    if gen_label != "E":
        gen_label = f"{gen_label}{gen.axis}"
    vals = fields.values(state.r[None, :], state.v[None, :], sys.kappa)
    if target == "E":
        return 0.0 if gen_label == "E" else float(
            fields.expected_bracket("E", gen_label, vals)[0]
        )
    out = np.zeros(3)
    for i in range(1, 4):
        out[i - 1] = float(fields.expected_bracket(f"{target}{i}", gen_label, vals)[0])
    return out


def quadratic_invariants(c: ConservedSet) -> tuple[float, float]:
    """(E^2, |M|^2 - sgn(E) |L|^2); the second requires the E != 0 branch."""
    if c.M is None:
        raise DegenerateStateError(
            "second quadratic invariant undefined on the parabolic branch (E ~ 0)"
        )
    m_sq = float(np.dot(c.M, c.M))
    l_sq = float(np.dot(c.L, c.L))
    return c.E**2, m_sq - float(np.sign(c.E)) * l_sq
