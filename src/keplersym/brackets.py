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

The brackets of all thirteen labels at N states are one contraction,
`fields.bracket_table`: with B0 = X - X^T the 8x8 brackets among the base
gradients {E, L_i, A_i, |L|^2} (X = G_r G_v^T, one batched product) and C the
chain-rule coefficients of each label in that base, the table is C B0 C^T.
The expected values are one table of the same layout,
`fields.expected_table`, and every check reads these two tables.
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


def structure_table(state: PhaseState, sys: KeplerSystem, fd_check: bool = False) -> BracketReport:
    """Every pairwise bracket among the library constants, with residuals.

    The entries are the upper triangles, in label order, of one N=1
    `fields.bracket_table` and `fields.expected_table`.  Rows involving M are
    skipped on the parabolic branch.  Setting fd_check adds the bracket table
    of the finite-difference gradients as an independent column, without its
    M rows below |E| = FD_M_FLOOR.
    """
    c = _plane_constants(state, sys, "bracket table")
    include_m = c.M is not None
    r = state.r[None, :]
    v = state.v[None, :]
    labels = fields.table_labels(include_m)
    upper = np.triu_indices(len(labels), 1)
    expected = fields.expected_table(fields.values(r, v, sys.kappa), include_m)[0][upper]
    computed = fields.bracket_table(fields.gradients(r, v, sys.kappa, include_m))[0][upper]
    residual = np.abs(computed - expected)
    fd_residual = [None] * len(residual)
    if fd_check:
        fd = fields.bracket_table(fields.fd_gradients(r, v, sys.kappa, include_m))[0][upper]
        has_m = upper[1] >= len(fields.SCALAR_LABELS)
        fd_used = (~has_m | (abs(c.E) >= FD_M_FLOOR)).tolist()
        fd_residual = [x if used else None for x, used in zip(np.abs(fd - expected).tolist(), fd_used)]
    entries = tuple(
        BracketEntry(labels[a], labels[b], *values)
        for a, b, *values in zip(*upper, computed.tolist(), expected.tolist(), residual.tolist(), fd_residual)
    )
    max_fd = max((x for x in fd_residual if x is not None), default=0.0) if fd_check else None
    return BracketReport(entries, float(np.max(residual)), max_fd)


def structure_residuals(
    r: np.ndarray, v: np.ndarray, kappa: float, use_fd: bool = False, include_m: bool = True
) -> np.ndarray:
    """Batched max |{F,G} - expected| per state over the label table's upper
    triangle, from the bracket and expected tables of `fields.FD_BATCH`
    states at a time."""
    r = np.atleast_2d(r)
    v = np.atleast_2d(v)
    gradients = fields.fd_gradients if use_fd else fields.gradients
    rows, cols = np.triu_indices(len(fields.table_labels(include_m)), 1)
    worst = np.empty(r.shape[0])
    for lo in range(0, r.shape[0], fields.FD_BATCH):
        chunk = slice(lo, lo + fields.FD_BATCH)
        table = fields.bracket_table(gradients(r[chunk], v[chunk], kappa, include_m))
        table -= fields.expected_table(fields.values(r[chunk], v[chunk], kappa), include_m)
        worst[chunk] = np.max(np.abs(table[:, rows, cols]), axis=1)
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
    labels = fields.SCALAR_LABELS
    column = fields.expected_table(vals, include_m=False)[0, :, labels.index(gen_label)]
    if target == "E":
        return float(column[0])
    return column[[labels.index(f"{target}{i}") for i in (1, 2, 3)]]


def quadratic_invariants(c: ConservedSet) -> tuple[float, float]:
    """(E^2, |M|^2 - sgn(E) |L|^2); the second requires the E != 0 branch."""
    if c.M is None:
        raise DegenerateStateError(
            "second quadratic invariant undefined on the parabolic branch (E ~ 0)"
        )
    m_sq = float(np.dot(c.M, c.M))
    l_sq = float(np.dot(c.L, c.L))
    return c.E**2, m_sq - float(np.sign(c.E)) * l_sq
