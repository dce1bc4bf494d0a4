"""Seeded property suites: the algebra, transform-group, and flow checks.

These back both `keplersym verify` and the acceptance tests.  Every suite is
deterministic given (samples, seed) and returns PropertyResult records with
the worst observed residual against its tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fields
from .core import DEFAULT_TOLERANCES, RK_STEPS, SUITES, ExtendedState, KeplerSystem, PhaseState, conserved_set
from .errors import UsageError
from .flow import (
    compare_flow_vs_closed_form,
    gaps,
    integrate_orbit,
    integrate_symmetry_flows,
    verify_solution_mapping,
)
from .generators import (
    GeneratorClass,
    GeneratorId,
    GeneratorKind,
    classify_generator,
    velocity_jacobian,
)
from .sampling import (
    _ray_admissible,
    canonical_states,
    sample_flow_pairs,
    sample_parabolic_states,
    sample_states,
)
from .transforms import rotation_matrix, time_translate, transform_batch
from .brackets import FD_M_FLOOR

# Step along the prolonged flow in algebra.symmetry_action_fd: the residual
# there is the O(h^2) truncation of the central difference.
ACTION_FD_STEP = 1e-7


@dataclass(frozen=True)
class PropertyResult:
    name: str
    worst: float
    tol: float
    passed: bool
    count: int
    seconds: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.note}]" if self.note else ""
        return (
            f"{status}  {self.name:<34} worst={self.worst:.3e}  tol={self.tol:.1e}"
            f"  n={self.count}  {self.seconds:.2f}s{extra}"
        )


def _result(name, worst, tol, count, t0, note="", passed=None) -> PropertyResult:
    """t0 None marks a property read from another property's pass, which holds its time."""
    if passed is None:
        passed = bool(worst <= tol)
    seconds = 0.0 if t0 is None else time.perf_counter() - t0
    return PropertyResult(name, float(worst), float(tol), passed, count, seconds, note)


def _worst(*diffs) -> float:
    """The largest magnitude over every entry of the given arrays; a NaN entry gives NaN."""
    return float(np.max([np.max(np.abs(d), initial=0.0) for d in diffs]))


def _jacobi_worst(r: np.ndarray, v: np.ndarray, kappa: float) -> float:
    """Jacobi identity over triples from {E, L_i, M_i}, analytic gradients.

    The algebra closes: {g, h} = sum_k S_ghk k with structure constants S
    (the -sgn(E) of {M_i, M_j} locally constant away from E = 0), so
    {f, {g, h}} = Y_fgh = sum_k S_ghk T_fk is one contraction of S with the
    computed bracket table T, and the identity reads Y_fgh + Y_ghf + Y_hfg = 0.
    """
    labels = fields.table_labels()
    rows = [labels.index(lab) for lab in ("E", "L1", "L2", "L3", "M1", "M2", "M3")]
    table = fields.bracket_table(fields.gradients(r, v, kappa))[:, rows][:, :, rows]
    s = np.zeros((r.shape[0], 7, 7, 7))
    lv, mv = slice(1, 4), slice(4, 7)
    s[:, lv, lv, lv] = fields._EPS
    s[:, lv, mv, mv] = fields._EPS
    s[:, mv, lv, mv] = fields._EPS
    s[:, mv, mv, lv] = -np.sign(fields.values(r, v, kappa)["E"])[:, None, None, None] * fields._EPS
    y = np.einsum("nghk,nfk->nfgh", s, table)
    jacobi = y + y.transpose(0, 3, 1, 2) + y.transpose(0, 2, 3, 1)
    return float(np.max(np.abs(jacobi), initial=0.0))


def _table_pass(r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool) -> tuple[np.ndarray, np.ndarray]:
    """The worst structure_analytic, structure_fd, noether_characteristics and antisymmetry
    residuals over the rows (r, v), and their E, from tables formed once per `fields.FD_BATCH`
    chunk; include_m adds M to the analytic table and to the FD one of rows with |E| >= FD_M_FLOOR.
    Three oracles stay apart: each table against the expected one, velocity gradients against FD.
    The tables are (label, label, N), so a strict upper triangle is one contiguous gather."""
    n_labels = len(fields.table_labels(include_m))
    upper, with_diagonal = np.triu_indices(n_labels, 1), np.triu_indices(n_labels)
    no_m = upper[1] < len(fields.SCALAR_LABELS)
    found, energies = [], []
    # A chunk's tables are released as the next chunk rebinds their names.  Releasing all of
    # them at the end of each chunk (a function per chunk) let glibc trim the top of the heap
    # after every chunk and fault it back in: on x86-64 Linux, about 10^5 minor page faults
    # and 20% more time a round of run_suites("algebra", 100_000, seed).
    for lo in range(0, len(r), fields.FD_BATCH):
        rc, vc = r[lo : lo + fields.FD_BATCH], v[lo : lo + fields.FD_BATCH]
        vals = fields.values(rc, vc, kappa)
        grads = fields.gradients(rc, vc, kappa, include_m)
        expected = fields.expected_table(vals, include_m).transpose(1, 2, 0)[upper]
        table = fields.bracket_table(grads).transpose(1, 2, 0)
        analytic = _worst(table[upper] - expected)
        antisymmetry = _worst(table[with_diagonal] + table[with_diagonal[::-1]])
        g_v = grads["_base"][1].transpose(1, 2, 0)
        big_e = include_m & (np.abs(vals["E"]) >= FD_M_FLOOR)
        for rows, fd_m in ((big_e, True), (~big_e, False)):
            rows = np.flatnonzero(rows)
            if len(rows):
                rows = slice(None) if len(rows) == len(rc) else rows
                fd = fields.fd_gradients(rc[rows], vc[rows], kappa, fd_m)
                keep = slice(None) if fd_m == include_m else no_m
                fd_table = fields.bracket_table(fd).transpose(1, 2, 0)
                numeric = _worst(fd_table[upper[0][keep], upper[1][keep]] - expected[keep][:, rows])
                fd_v = fd["_base"][1].transpose(1, 2, 0)
                # the E, L and A rows, then Theta, which the analytic stack keeps after |L|^2
                noether = _worst(g_v[:7, :, rows] - fd_v[:7], g_v[8:11, :, rows] - fd_v[7:10])
                found.append((analytic, numeric, noether, antisymmetry))
        energies.append(vals["E"])
    return np.max(found, axis=0), np.concatenate(energies)


def algebra_suite(
    samples: int, seed: int, kappa: float = 1.0, tolerances: dict | None = None
) -> list[PropertyResult]:
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    sys = KeplerSystem(kappa=kappa)
    out: list[PropertyResult] = []

    n_par = max(samples // 10, 1)
    n_rand = max(samples - n_par, 1)
    r, v = sample_states(n_rand, seed, kappa)
    rp, vp = sample_parabolic_states(n_par, seed + 1, kappa)

    t0 = time.perf_counter()
    worst, e_rand = _table_pass(r, v, kappa, include_m=True)
    both = np.maximum(worst, _table_pass(rp, vp, kappa, include_m=False)[0])
    out.append(_result("algebra.structure_analytic", both[0], tol["bracket_analytic"], samples, t0))
    note = "read in the structure_analytic pass"
    out.append(_result("algebra.structure_fd", both[1], tol["bracket_fd"], samples, None, note))
    out.append(_result("algebra.noether_characteristics", both[2], tol["noether"], samples, None, note))
    out.append(_result("algebra.antisymmetry", worst[3], tol["antisymmetry"], n_rand, None, note))

    t0 = time.perf_counter()
    n_jac = min(40, n_rand)
    mask = np.abs(e_rand) > 0.05
    rj, vj = r[mask][:n_jac], v[mask][:n_jac]
    worst = _jacobi_worst(rj, vj, kappa)
    out.append(_result("algebra.jacobi_identity", worst, tol["jacobi"], len(rj), t0))

    t0 = time.perf_counter()
    n_lin = min(50, n_rand)
    worst = 0.0
    for ri, vi in zip(r[:n_lin], v[:n_lin]):
        state = PhaseState(ri, vi)
        jac = velocity_jacobian(GeneratorId.energy(), state, sys)
        worst = np.maximum(worst, np.max(np.abs(jac - np.eye(3))))
        for axis in (1, 2, 3):
            jac = velocity_jacobian(GeneratorId.angular_momentum(axis), state, sys)
            worst = np.maximum(worst, np.max(np.abs(jac)))
    out.append(_result("algebra.point_linearity", worst, tol["linearity"], n_lin, t0))

    t0 = time.perf_counter()
    n_cls = min(25, n_rand)
    expect = {
        GeneratorId.energy(): GeneratorClass.POINT,
        GeneratorId.angular_momentum(2): GeneratorClass.POINT,
        GeneratorId.lrl(1): GeneratorClass.DYNAMICAL,
        GeneratorId.lrl_direction(3): GeneratorClass.DYNAMICAL,
    }
    states = [PhaseState(ri, vi) for ri, vi in zip(r[:n_cls], v[:n_cls])]
    wrong = sum(classify_generator(gen, state, sys) is not cls for state in states for gen, cls in expect.items())
    out.append(_result("algebra.point_vs_dynamical", float(wrong), tol["classification"], n_cls, t0))

    t0 = time.perf_counter()
    n_act = min(500, n_rand)
    ra, va = r[:n_act], v[:n_act]
    expected = fields.expected_table(fields.values(ra, va, kappa), include_m=False)
    h = ACTION_FD_STEP
    worst = 0.0
    # the generators in the order of fields.SCALAR_LABELS
    for g, (family, axis) in enumerate([("E", 0)] + [(f, i) for f in ("L", "A", "Theta") for i in (1, 2, 3)]):
        eps = np.zeros((n_act, 3))
        if axis:
            eps[:, axis - 1] = 1.0
        p, dtp = fields.characteristics(family, ra, va, eps, kappa)
        sv_p = fields.scalar_values(ra + h * p, va + h * dtp, kappa, include_m=False)
        sv_m = fields.scalar_values(ra - h * p, va - h * dtp, kappa, include_m=False)
        fd = np.stack([(sv_p[target] - sv_m[target]) / (2.0 * h) for target in fields.SCALAR_LABELS], axis=1)
        worst = np.maximum(worst, np.max(np.abs(fd - expected[:, :, g])))
    out.append(_result("algebra.symmetry_action_fd", worst, tol["action"], n_act, t0))
    return out


def _stack(groups) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """(kinds, r, v, eps) of (kind, pairs) groups stacked into one flow batch."""
    pairs = [pair for _, group in groups for pair in group]
    kinds = [kind for kind, group in groups for _ in group]
    r = np.array([p[0].r for p in pairs])
    v = np.array([p[0].v for p in pairs])
    eps = np.array([p[1] for p in pairs])
    return kinds, r, v, eps


def _group_law_worst(branch: str, eps, c0: dict, once, kappa: float) -> float:
    """The largest departure of one pair set's closed forms (a transform batch)
    from what its group does to the constants c0 (`fields.values`); branch
    "any" is the LRL-direction group, "neg", "pos" and "zero" the LRL group."""
    dot = fields._dot
    l0, a0, l1, a1, e0 = c0["L"], c0["A"], once.L, once.A, c0["E"]
    if branch == "any":
        theta0, c1 = c0["Theta"], fields.values(once.r, once.v, kappa)
        l_expect = l0 + np.cross(eps, theta0)
        a_expect = np.sqrt(kappa**2 + 2.0 * e0 * dot(l_expect, l_expect))
        cross_term = dot(eps, np.cross(theta0, l0))
        shift = 2.0 * cross_term + dot(eps, eps) - dot(eps, theta0) ** 2
        display = np.sqrt(c0["A_mag"] ** 2 + 2.0 * e0 * shift)
        a_mag = np.linalg.norm(a1, axis=1)
        return _worst(
            c1["E"] - e0, c1["Theta"] - theta0, c1["r_mag"] - c0["r_mag"],
            l1 - l_expect, a_mag - a_expect, a_mag - display,
        )
    if branch == "zero":
        return _worst(a1 - a0, l1 - (l0 + np.cross(eps, a0)))
    # |L|^2 + |M|^2 (E < 0) or |L|^2 - |M|^2 (E > 0) is invariant, M = A/sqrt(2|E|)
    scale = np.sqrt(2.0 * np.abs(e0))[:, None]
    m0, m1 = a0 / scale, a1 / scale
    sign = 1.0 if branch == "neg" else -1.0
    drift = dot(l1, l1) + sign * dot(m1, m1) - (dot(l0, l0) + sign * dot(m0, m0))
    if branch == "pos":
        return _worst(drift)
    # L + M and L - M rotate by +phi and -phi about eps-hat, phi = sqrt(2|E|) |eps|
    rot = np.array([rotation_matrix(w) for w in scale * eps])
    return _worst(
        drift, dot(l1, m1),
        (l1 + m1) - np.einsum("nij,nj->ni", rot, l0 + m0), (l1 - m1) - np.einsum("nji,nj->ni", rot, l0 - m0),
    )


def transforms_suite(
    samples: int,
    seed: int,
    kappa: float = 1.0,
    rk_steps: int = RK_STEPS,
    tolerances: dict | None = None,
) -> list[PropertyResult]:
    """Every pair set is drawn, and its closed forms kept, before one RK4
    batch integrates the flows of all of them, so that an unreachable branch
    fails before any flow work.  Each set's closed forms are one
    `transform_batch` call."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    direction_kind, lrl_kind = GeneratorKind.LRL_DIRECTION, GeneratorKind.LRL
    branches = ("neg", "pos", "zero")

    def closed(kind, t, r, v, eps):
        return transform_batch(kind, t, r, v, eps, kappa)

    sets = [("direction", direction_kind, "any", 0)] + [
        (f"lrl_{b}", lrl_kind, b, offset) for offset, b in enumerate(branches, start=11)
    ]
    pairs, once, props = {}, {}, {}
    for name, kind, branch, offset in sets:
        t0 = time.perf_counter()
        pairs[name] = sample_flow_pairs(samples, seed + offset, kind, branch=branch, kappa=kappa)
        _, r, v, eps = _stack([(kind, pairs[name])])
        once[name] = closed(kind, np.zeros(len(r)), r, v, eps)
        worst = _group_law_worst(branch, eps, fields.values(r, v, kappa), once[name], kappa)
        first = "direction_exact" if kind is direction_kind else f"{name}_invariants"
        props[name] = [
            _result(f"transforms.{first}", worst, tol["transform_exact"], len(r), t0),
            _result(
                f"transforms.{name}_constants_match", _worst(once[name].diagnostics["reconstruction_residual"]),
                tol["constants_match"], len(r), None, note=f"read in the {first} pass",
            ),
        ]

    # The flows of both families and all three branches, as one batch; each
    # row is held to the closed form kept above.
    t0 = time.perf_counter()
    kinds, r, v, eps = _stack([(kind, pairs[name]) for name, kind, _, _ in sets])
    ends = integrate_symmetry_flows(kinds, np.zeros(len(kinds)), r, v, eps, kappa, rk_steps)
    lo = 0
    for name, _, _, _ in sets:
        rows = slice(lo, lo + len(pairs[name]))
        lo = rows.stop
        # the time shift and the (r, v) end apart, to say which side erred
        gap_t, gap_rv = gaps(once[name], [x[rows] for x in ends[:3]])
        note = f"t {gap_t:.1e}, r/v {gap_rv:.1e}"
        note += "" if name == "direction" else "; integrated in the direction_vs_flow pass"
        props[name].append(
            _result(
                f"transforms.{name}_vs_flow", np.max((gap_t, gap_rv)), tol["flow_residual"], len(pairs[name]),
                t0, note,
            )
        )
        t0 = time.perf_counter()

    def composed(kind, group, first_once, first, then):
        """Worst gap between the kept closed forms of group and the transform by
        first * eps followed by then * eps."""
        _, r, v, eps = _stack([(kind, group)])
        part = closed(kind, np.zeros(len(r)), r, v, first * eps)
        full = closed(kind, part.t, part.r, part.v, then * eps)
        return np.max(gaps([x[: len(r)] for x in first_once], full))

    n2 = max(samples // 4, 10)
    rng = np.random.default_rng(seed + 5)
    group_pairs = pairs["direction"][:n2]
    t0 = time.perf_counter()
    worst = composed(direction_kind, group_pairs, once["direction"][:3], 0.5, 0.5)
    props["direction"].append(_result("transforms.direction_abelian", worst, tol["group_law"], len(group_pairs), t0))

    t0 = time.perf_counter()
    rot = []
    for _ in group_pairs:
        g = rng.normal(size=3)
        g *= rng.uniform(0.2, 1.4) / np.linalg.norm(g)
        rot.append(rotation_matrix(g))
    m, rot = len(group_pairs), np.array(rot)
    t, r, v = (x[:m] for x in once["direction"][:3])
    _, r0, v0, eps = _stack([(direction_kind, group_pairs)])
    rhs = closed(direction_kind, np.zeros(m), *(np.einsum("nij,nj->ni", rot, x) for x in (r0, v0, eps)))
    worst = np.max(gaps((t, np.einsum("nij,nj->ni", rot, r), np.einsum("nij,nj->ni", rot, v)), rhs))
    props["direction"].append(_result("transforms.direction_equivariance", worst, tol["group_law"], m, t0))

    t0 = time.perf_counter()
    group = (pairs["lrl_neg"] + pairs["lrl_pos"])[:n2]
    first_once = [np.concatenate(x) for x in zip(once["lrl_neg"][:3], once["lrl_pos"][:3])]
    worst = composed(lrl_kind, group, first_once, 0.4, 0.6)
    composition = _result("transforms.lrl_composition", worst, tol["group_law"], len(group), t0)
    return [res for name, _, _, _ in sets for res in props[name]] + [composition]


def flows_suite(
    samples: int,
    seed: int,
    kappa: float = 1.0,
    rk_steps: int = RK_STEPS,
    tolerances: dict | None = None,
) -> list[PropertyResult]:
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    sys = KeplerSystem(kappa=kappa)
    out: list[PropertyResult] = []
    # the reference states and their spans at kappa, by mechanical similarity: t -> t/sqrt(kappa)
    refs, unit = canonical_states(kappa), 1.0 / math.sqrt(kappa)

    t0 = time.perf_counter()
    circ = ExtendedState(0.0, refs["circ"])
    end = integrate_orbit(circ, sys, 2.0 * math.pi * unit).end
    worst = _worst(end.r - circ.r, end.v - circ.v)
    out.append(_result("flows.circular_closure", worst, tol["orbit_closure"], 1, t0))

    t0 = time.perf_counter()
    ell = ExtendedState(0.0, refs["ell"])
    period = conserved_set(refs["ell"], sys).period
    traj = integrate_orbit(ell, sys, period)
    out.append(_result("flows.energy_drift_per_period", traj.deviations()["dE"], tol["energy_drift"], 1, t0))

    t0 = time.perf_counter()
    hyp = ExtendedState(0.0, refs["hyp"])
    traj = integrate_orbit(hyp, sys, 10.0 * unit, dt_out=0.05 * unit)
    radii = traj.values["r_mag"]
    worst = np.max(radii[:-1] - radii[1:], initial=0.0)
    out.append(_result("flows.hyperbolic_escape", worst, tol["monotone_escape"], len(radii), t0))

    # RK4 radius drift falls like h^4, so 2000 steps bounds the 10^4-step runs
    # used everywhere else with margin to spare.  The batch also carries the
    # state at both interior nodes s of the dt/ds probe's flows.
    n3 = min(max(samples // 8, 6), 25)
    both = ((GeneratorKind.LRL_DIRECTION, 21), (GeneratorKind.LRL, 22))
    t0 = time.perf_counter()
    kinds, r0, v0, eps = _stack([(k, sample_flow_pairs(n3, seed + o, k, kappa=kappa)) for k, o in both])
    probe_kinds, r1, v1, eps1 = _stack([(k, sample_flow_pairs(6, seed + o + 10, k, kappa=kappa)) for k, o in both])
    eps1 = np.tile(eps1, (2, 1))
    probe_kinds, m, n_drift = 2 * probe_kinds, len(eps1), len(kinds)
    rows = (np.concatenate([x, np.tile(y, (2, 1))]) for x, y in ((r0, r1), (v0, v1)))
    eps_s = np.concatenate([eps, eps1 * np.repeat([0.3, 0.65], m // 2)[:, None]])
    ends = integrate_symmetry_flows(kinds + probe_kinds, 0.0, *rows, eps_s, kappa, min(rk_steps, 2000))
    out.append(_result("flows.gauge_r_drift", float(np.max(ends[3][:n_drift])), tol["r_drift"], 2 * n3, t0))

    # then short flows +-h from every node state, as one batch
    t0 = time.perf_counter()
    h = 1e-4
    t_n, r_n, v_n = (x[n_drift:] for x in ends[:3])
    probes = np.concatenate([h * eps1, -h * eps1])
    r_2, v_2 = np.tile(r_n, (2, 1)), np.tile(v_n, (2, 1))
    t_pm = integrate_symmetry_flows(2 * probe_kinds, np.tile(t_n, 2), r_2, v_2, probes, kappa, 64)[0]
    # the field's dt/ds apart from fields.gauge_field: tau = -(r.P)/(r.v) with P in vectors, 2(r.eps)v -
    # (v.eps)r - (r.v)eps taken at the projected axis on a Theta row, plus on an A row the constant
    # (A.eps)|L|^2/|A|^2 with which it keeps the time of periapsis passage
    vals, dot = fields.values(r_n, v_n, kappa), fields._dot
    theta_rows = np.array([k is GeneratorKind.LRL_DIRECTION for k in probe_kinds])[:, None]
    a_mag, a_eps, l_sq = (x[:, None] for x in (vals["A_mag"], dot(vals["A"], eps1), vals["L_mag"] ** 2))
    p = 2.0 * dot(r_n, eps1)[:, None] * v_n - dot(v_n, eps1)[:, None] * r_n - vals["r_dot_v"][:, None] * eps1
    p_theta = p + a_eps / a_mag**2 * (2.0 * vals["E"][:, None] * np.cross(r_n, vals["L"]) - l_sq * v_n)
    p, kept = np.where(theta_rows, p_theta / a_mag, p), np.where(theta_rows, 0.0, a_eps * l_sq / a_mag**2)
    expected = kept[:, 0] - dot(r_n, p) / vals["r_dot_v"]
    worst = float(np.max(np.abs((t_pm[:m] - t_pm[m:]) / (2.0 * h) - expected)))
    note = "node states integrated in the gauge_r_drift pass"
    out.append(_result("flows.dt_ds_gauge_component", worst, tol["dt_ds"], 12, t0, note))

    t0 = time.perf_counter()
    n5 = max(samples // 10, 4)
    worst = gap = 0.0
    count = mapped = 0
    cases = [
        (GeneratorKind.LRL_DIRECTION, "neg", seed + 41),
        (GeneratorKind.LRL_DIRECTION, "pos", seed + 42),
        (GeneratorKind.LRL, "neg", seed + 43),
        (GeneratorKind.LRL, "pos", seed + 44),
        (GeneratorKind.LRL, "zero", seed + 45),
    ]
    for kind, branch, s in cases:
        for state, eps in sample_flow_pairs(n5, s, kind, branch=branch, kappa=kappa):
            c = conserved_set(state, sys)
            span = c.period if (c.E < 0 and c.period is not None) else 10.0
            report = verify_solution_mapping(ExtendedState(0.0, state), sys, eps, kind, span)
            worst = np.maximum(worst, report.max_residual)
            count += 1
            mapped += "solution" in report.residuals
            gap = max(gap, report.residuals.get("solution", 0.0))
    note = f"{mapped} of {count} pairs also map a second state of their solution, to {gap:.1e}"
    out.append(_result("flows.solution_mapping", worst, tol["solution_mapping"], count, t0, note))

    t0 = time.perf_counter()
    factor, steps_used = _convergence_factor(sys)
    out.append(
        _result(
            "flows.rk4_order4_convergence",
            factor,
            20.0,
            2,
            t0,
            note=f"expect factor in [12, 20], steps {steps_used} vs {2 * steps_used}",
            passed=(12.0 <= factor <= 20.0),
        )
    )
    return out


def _convergence_factor(sys: KeplerSystem) -> tuple[float, int]:
    """Residual ratio when halving the RK4 step on the elliptic reference case, its offset
    and LRL parameters mapped to sys.kappa as t -> t/sqrt(kappa) and eps -> eps/sqrt(kappa)."""
    unit = 1.0 / math.sqrt(sys.kappa)
    ell = ExtendedState(0.0, canonical_states(sys.kappa)["ell"])
    off = time_translate(ell, 0.7 * unit, sys)
    c0 = conserved_set(off.state, sys)
    eps = None
    for mag in (0.25, 0.2, 0.15, 0.1, 0.06):
        candidate = np.array([0.0, 0.0, mag * unit])
        if _ray_admissible(c0, off.state.r_mag, candidate, GeneratorKind.LRL):
            eps = candidate
            break
    if eps is None:
        raise RuntimeError("no admissible reference eps for the convergence check")
    steps = 64
    coarse, fine = (
        compare_flow_vs_closed_form(GeneratorKind.LRL, off, sys, eps, steps=k)
        for k in (steps, 2 * steps)
    )
    return coarse.max_component_residual / fine.max_component_residual, steps


def run_suites(
    suite: str,
    samples: int,
    seed: int,
    kappa: float = 1.0,
    rk_steps: int = RK_STEPS,
    quad_panels: int = 64,
    tolerances: dict | None = None,
) -> list[PropertyResult]:
    """The results of one suite, or of all three in order.

    quad_panels takes only 64 and raises UsageError otherwise: the time shift is a
    closed form with no panels, and the keyword stays only because the benchmark's
    `perfbench/workloads.py` passes it.  A change to the benchmark should drop it.
    """
    if suite not in SUITES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}")
    if quad_panels != 64:
        raise UsageError(f"quad_panels is fixed at 64, got {quad_panels}")
    results: list[PropertyResult] = []
    if suite in ("algebra", "all"):
        results += algebra_suite(samples, seed, kappa, tolerances)
    if suite in ("transforms", "all"):
        results += transforms_suite(samples, seed, kappa, rk_steps, tolerances)
    if suite in ("flows", "all"):
        results += flows_suite(samples, seed, kappa, rk_steps, tolerances)
    return results
