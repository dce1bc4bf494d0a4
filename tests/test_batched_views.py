"""The scalar APIs are N=1 views of the batched kernels in `fields` and `transforms`.

Each test draws random admissible states (elliptic, hyperbolic and exactly
parabolic) and holds every N=1 call to the matching row of one batched call
on the whole stack, to 1e-14 relative.  A symmetry-flow batch that mixes the
LRL and LRL-direction families, rows shuffled, is held row by row to the
single-family batches of the same rows, and to a vector reference written
apart from `fields`.  Each state rebuilt from its own invariants is held to a
bound set by the reconstruction's condition number.  The batched bracket and
expected tables are held entry by entry to the N=1 structure table and to a
pair-by-pair reference.  Both finite transforms, their time shift and both
constants maps are held to the rows of one `transform_batch` call that also
holds an eps = 0 row, every row at its own t.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplersym import (
    ExtendedState,
    GeneratorId,
    GeneratorKind,
    KeplerSystem,
    PhaseState,
    conserved_set,
    direction_lrl_transform,
    gauge_fixed_generator,
    lrl_transform,
    prolonged_generator,
    structure_table,
    time_shift_quadrature,
    transform_batch,
    transform_constants_direction,
    transform_constants_lrl,
)
from keplersym import fields
from keplersym.errors import FlowDegeneracyError, InadmissibleTransformError
from keplersym.flow import integrate_symmetry_flows, symmetry_flow_rhs
from keplersym.generators import FAMILY_LABEL
from keplersym.sampling import sample_flow_pairs, sample_parabolic_states, sample_states
from keplersym.transforms import _set_ray

SYS = KeplerSystem()
GENS = [GeneratorId.energy()] + [
    make(axis)
    for make in (GeneratorId.angular_momentum, GeneratorId.lrl, GeneratorId.lrl_direction)
    for axis in (1, 2, 3)
]
SEEDS = st.integers(0, 2**31)


def assert_rows_match(one, row, rel=1e-14):
    one, row = np.asarray(one), np.asarray(row)
    scale = max(1.0, float(np.max(np.abs(row))))
    assert float(np.max(np.abs(one - row))) <= rel * scale, (one, row)


def random_states(seed):
    r, v = sample_states(8, seed)
    rp, vp = sample_parabolic_states(2, seed + 1)
    return np.concatenate([r, rp]), np.concatenate([v, vp])


def axis_stack(n, axis):
    eps = np.zeros((n, 3))
    if axis is not None:
        eps[:, axis - 1] = 1.0
    return eps


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_characteristics_rows(seed):
    r, v = random_states(seed)
    for gen in GENS:
        p, dtp = fields.characteristics(FAMILY_LABEL[gen.kind], r, v, axis_stack(len(r), gen.axis), 1.0)
        for i in range(len(r)):
            one = prolonged_generator(gen, PhaseState(r[i], v[i]), SYS)
            assert_rows_match(one.delta_r, p[i])
            assert_rows_match(one.delta_v, dtp[i])


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_flow_rhs_is_gauge_fixed_generator(seed):
    r, v = random_states(seed)
    off_apsis = np.abs(np.einsum("ni,ni->n", r, v)) > 0.05 * np.linalg.norm(r, axis=1) * np.linalg.norm(v, axis=1)
    r, v = r[off_apsis], v[off_apsis]
    for kind in (GeneratorKind.LRL, GeneratorKind.LRL_DIRECTION):
        for axis in (1, 2, 3):
            dt, dr, dv = symmetry_flow_rhs(kind, r, v, axis_stack(len(r), axis), 1.0)
            for i in range(len(r)):
                one = gauge_fixed_generator(GeneratorId(kind, axis), PhaseState(r[i], v[i]), SYS)
                assert_rows_match(one.delta_t, dt[i])
                assert_rows_match(one.delta_r, dr[i])
                assert_rows_match(one.delta_v, dv[i])


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_constants_maps_at_s1(seed):
    r, v = random_states(seed)
    rng = np.random.default_rng(seed)
    for i in range(len(r)):
        c = conserved_set(PhaseState(r[i], v[i]), SYS)
        eps = rng.normal(size=3) * 0.3
        for kind, constants_map in (
            (GeneratorKind.LRL, lambda: transform_constants_lrl(c, eps, SYS)),
            (GeneratorKind.LRL_DIRECTION, lambda: transform_constants_direction(c, eps)),
        ):
            try:
                one = constants_map()
            except InadmissibleTransformError:
                continue
            l_star, a_star, _ = _set_ray(kind, c, eps, np.linspace(0.0, 1.0, 5))
            assert_rows_match(one.L, l_star[-1])
            assert_rows_match(one.A, a_star[-1])


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_transform_views_are_batch_rows(seed):
    rng = np.random.default_rng(seed)

    def lrl_map(c, e):
        return transform_constants_lrl(c, e, SYS)

    for kind, branches, view, constants_map in (
        (GeneratorKind.LRL_DIRECTION, ("any",), direction_lrl_transform, transform_constants_direction),
        (GeneratorKind.LRL, ("neg", "pos", "zero"), lrl_transform, lrl_map),
    ):
        pairs = []
        for offset, branch in enumerate(branches):
            pairs += sample_flow_pairs(2, seed + offset, kind, branch=branch)
        # one more row of the first state with eps = 0, and a different t on every row
        pairs.append((pairs[0][0], np.zeros(3)))
        r = np.array([state.r for state, _ in pairs])
        v = np.array([state.v for state, _ in pairs])
        eps = np.array([e for _, e in pairs])
        t = rng.uniform(-2.0, 2.0, len(pairs))
        batch = transform_batch(kind, t, r, v, eps, 1.0)
        for i, (state, e) in enumerate(pairs):
            one = view(ExtendedState(t[i], state), SYS, e)
            assert one.admissible == batch.admissible[i]
            for got, row in (
                (one.out.t, batch.t[i]), (one.out.r, batch.r[i]), (one.out.v, batch.v[i]),
                (one.delta_t, batch.delta_t[i]),
                (one.constants_out.L, batch.L[i]), (one.constants_out.A, batch.A[i]),
            ):
                assert_rows_match(got, row)
            assert set(one.diagnostics) == set(batch.diagnostics)
            for key, value in one.diagnostics.items():
                assert_rows_match(value, batch.diagnostics[key][i])
            assert_rows_match(time_shift_quadrature(ExtendedState(t[i], state), SYS, e, kind), batch.delta_t[i])
            mapped = constants_map(conserved_set(state, SYS), e)
            assert_rows_match(mapped.L, batch.L[i])
            assert_rows_match(mapped.A, batch.A[i])
        assert batch.delta_t[-1] == 0.0 and batch.t[-1] == t[-1]
        assert np.array_equal(batch.r[-1], r[-1]) and np.array_equal(batch.v[-1], v[-1])


def rebuild_tolerance(vals, v, kappa=1.0):
    """Per-row bound on the error of rebuilding (r, v) from its own invariants.

    The root argument 2(E + kappa/|r|) - |L|^2/|r|^2 = v_r^2 is formed from
    terms of size |v|^2 + kappa/|r|, so it carries a few units u of roundoff
    on that scale, and its root |v_r| that error over 2|v_r|.  The root enters
    r as |r| root (L x Theta)/|A| and v as kappa root Theta/|A|, so the rebuilt
    state errs by about u (|v|^2 + kappa/|r|)(|r||L| + kappa)/(|v_r||A|): the
    condition number grows like |v|/|v_r| towards an apsis.  A sweep of 2e5
    states found at most 1.8 u times it.
    """
    r_mag = vals["r_mag"]
    v_r = np.abs(vals["r_dot_v"]) / r_mag
    scale = (np.einsum("ni,ni->n", v, v) + kappa / r_mag) * (r_mag * vals["L_mag"] + kappa)
    return 16.0 * np.finfo(float).eps * np.maximum(1.0, scale / (v_r * vals["A_mag"]))


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_reconstruction_rows(seed):
    r, v = random_states(seed)
    vals = fields.values(r, v, 1.0)
    r_mag = vals["r_mag"]
    sigma = np.where(vals["r_dot_v"] >= 0.0, 1.0, -1.0)
    r_all, v_all = fields.reconstruct(r_mag, sigma, vals["E"], 1.0, vals["L"], vals["Theta"])
    tol = rebuild_tolerance(vals, v)
    for i in range(len(r)):
        one = slice(i, i + 1)
        r_one, v_one = (x[0] for x in fields.reconstruct(
            r_mag[one], sigma[one], vals["E"][one], 1.0, vals["L"][one], vals["Theta"][one]
        ))
        assert_rows_match(r_one, r_all[i])
        assert_rows_match(v_one, v_all[i])
        # each state is rebuilt from its own invariants
        assert_rows_match(r_one, r[i], rel=tol[i])
        assert_rows_match(v_one, v[i], rel=tol[i])


def mixed_batch(seed, n=4):
    """Flow pairs of both families with admissible rays, rows shuffled."""
    kinds, pairs = [], []
    for offset, (kind, branch) in enumerate(
        [(GeneratorKind.LRL_DIRECTION, "any"), (GeneratorKind.LRL, "neg"), (GeneratorKind.LRL, "pos")]
    ):
        group = sample_flow_pairs(n, seed + offset, kind, branch=branch)
        kinds += [kind] * len(group)
        pairs += group
    order = np.random.default_rng(seed).permutation(len(pairs))
    kinds = [kinds[i] for i in order]
    r = np.array([pairs[i][0].r for i in order])
    v = np.array([pairs[i][0].v for i in order])
    eps = np.array([pairs[i][1] for i in order])
    return kinds, r, v, eps


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_mixed_flow_rhs_rows(seed):
    kinds, r, v, eps = mixed_batch(seed)
    mixed = symmetry_flow_rhs(kinds, r, v, eps, 1.0)
    for kind in set(kinds):
        rows = np.array([k is kind for k in kinds])
        single = symmetry_flow_rhs(kind, r[rows], v[rows], eps[rows], 1.0)
        for part, one in zip(mixed, single):
            for i, row in zip(np.flatnonzero(rows), one):
                assert_rows_match(row, part[i])


def reference_flow_rhs(kind, r, v, eps, kappa=1.0):
    """(dt/ds, dr/ds, dv/ds) of one row in vectors, apart from `fields`: P and
    DtP as the `fields.characteristics` docstring writes them, then the
    completion dr = P + tau v, dv = DtP + tau a, dt = -(r x L).eps with
    tau = -(r.P)/(r.v)."""
    r_mag = np.linalg.norm(r)
    l_vec = np.cross(r, v)
    acc = -kappa * r / r_mag**3
    p = 2.0 * (r @ eps) * v - (v @ eps) * r - (r @ v) * eps
    dtp = (v @ eps) * v - kappa * (r @ eps) * r / r_mag**3 - (v @ v - kappa / r_mag) * eps
    if kind is GeneratorKind.LRL_DIRECTION:
        energy = 0.5 * (v @ v) - kappa / r_mag
        a_vec = np.cross(v, l_vec) - kappa * r / r_mag
        a_mag = np.linalg.norm(a_vec)
        scale = (a_vec @ eps) / a_mag**3
        p = p / a_mag + scale * (2.0 * energy * np.cross(r, l_vec) - (l_vec @ l_vec) * v)
        dtp = dtp / a_mag + scale * (2.0 * energy * np.cross(v, l_vec) - (l_vec @ l_vec) * acc)
    tau = -(r @ p) / (r @ v)
    return -np.cross(r, l_vec) @ eps, p + tau * v, dtp + tau * acc


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_flow_rhs_matches_vector_reference(seed):
    kinds, r, v, eps = mixed_batch(seed)
    batches = [(kinds, np.ones(len(kinds), dtype=bool))]
    batches += [(kind, np.array([k is kind for k in kinds])) for kind in set(kinds)]
    for kind, rows in batches:
        got = symmetry_flow_rhs(kind, r[rows], v[rows], eps[rows], 1.0)
        for j, i in enumerate(np.flatnonzero(rows)):
            ref = reference_flow_rhs(kinds[i], r[i], v[i], eps[i])
            for part, one in zip(got, ref):
                assert_rows_match(one, part[j], rel=1e-13)


@settings(max_examples=8, deadline=None)
@given(SEEDS)
def test_mixed_flow_integration_matches_per_kind_runs(seed):
    kinds, r, v, eps = mixed_batch(seed, n=3)
    t0 = np.random.default_rng(seed).uniform(-1.0, 1.0, len(kinds))
    mixed = integrate_symmetry_flows(tuple(kinds), t0, r, v, eps, 1.0, 200)
    for kind in set(kinds):
        rows = np.array([k is kind for k in kinds])
        single = integrate_symmetry_flows(kind, t0[rows], r[rows], v[rows], eps[rows], 1.0, 200)
        for part, one in zip(mixed, single):
            assert_rows_match(one, part[rows], rel=1e-13)


def reference_rk4(kind, t, r, v, eps, steps):
    """Classical RK4 of one flow on `reference_flow_rhs`, and the largest change
    of |r| over the step ends."""
    h = 1.0 / steps
    r_mag0, drift = np.linalg.norm(r), 0.0
    for _ in range(steps):
        k1 = reference_flow_rhs(kind, r, v, eps)
        k2 = reference_flow_rhs(kind, r + 0.5 * h * k1[1], v + 0.5 * h * k1[2], eps)
        k3 = reference_flow_rhs(kind, r + 0.5 * h * k2[1], v + 0.5 * h * k2[2], eps)
        k4 = reference_flow_rhs(kind, r + h * k3[1], v + h * k3[2], eps)
        t, r, v = (x + h / 6.0 * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip((t, r, v), k1, k2, k3, k4))
        drift = max(drift, abs(np.linalg.norm(r) - r_mag0))
    return t, r, v, drift


@settings(max_examples=5, deadline=None)
@given(SEEDS)
def test_rk4_matches_a_per_row_reference(seed):
    kinds, r, v, eps = mixed_batch(seed, n=2)
    # an LRL row first, so that the direction rows do not lead the batch
    order = np.roll(np.arange(len(kinds)), -kinds.index(GeneratorKind.LRL))
    kinds, r, v, eps = [kinds[i] for i in order], r[order], v[order], eps[order]
    t0 = np.random.default_rng(seed).uniform(-1.0, 1.0, len(kinds))
    got = integrate_symmetry_flows(kinds, t0, r, v, eps, 1.0, 20)
    for i, kind in enumerate(kinds):
        ref = reference_rk4(kind, t0[i], r[i], v[i], eps[i], 20)
        for part, one in zip(got, ref):
            assert_rows_match(one, part[i], rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.integers(0, 11))
def test_apsis_in_one_row_stops_the_batch(seed, row):
    kinds, r, v, eps = mixed_batch(seed)
    # drop the radial velocity of one row: r.v = 0 there
    v[row] -= (r[row] @ v[row]) / (r[row] @ r[row]) * r[row]
    with pytest.raises(FlowDegeneracyError):
        symmetry_flow_rhs(kinds, r, v, eps, 1.0)
    with pytest.raises(FlowDegeneracyError):
        integrate_symmetry_flows(kinds, np.zeros(len(kinds)), r, v, eps, 1.0, 10)


def pairwise_bracket(grads, left, right):
    """{left, right} pair by pair from `fields._raw_bracket`, each label
    expanded by the gradient table's chain-rule coefficients: M_j -> alpha A_j,
    Theta_j -> a A_j + c_j |L|^2."""
    a, c, alpha = grads["_coef"]

    def expand(label):
        if label.startswith("Theta"):
            return [(a, f"A{label[-1]}"), (c[:, int(label[-1]) - 1], "_LSQ")]
        if label.startswith("M"):
            return [(alpha, f"A{label[-1]}")]
        return [(1.0, label)]

    return sum(
        cl * cr * fields._raw_bracket(grads, bl, br) for cl, bl in expand(left) for cr, br in expand(right)
    )


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_bracket_table_entries(seed):
    r, v = sample_states(12, seed)
    away = np.abs(fields.values(r, v, 1.0)["E"]) > 0.05
    for (r, v), include_m in ((r[away], v[away]), True), (sample_parabolic_states(3, seed + 1), False):
        labels = fields.table_labels(include_m)
        grads = fields.gradients(r, v, 1.0, include_m)
        table = fields.bracket_table(grads)
        expected = fields.expected_table(fields.values(r, v, 1.0), include_m)
        for n in range(len(r)):
            entries = structure_table(PhaseState(r[n], v[n]), SYS).entries
            assert len(entries) == len(labels) * (len(labels) - 1) // 2
            for entry in entries:
                a, b = labels.index(entry.left), labels.index(entry.right)
                # both triangles: {b, a} = -{a, b}
                for p, q, sign in ((a, b, 1.0), (b, a, -1.0)):
                    assert abs(table[n, p, q] - sign * entry.computed) <= 1e-12, (entry, p, q)
                    assert abs(expected[n, p, q] - sign * entry.expected) <= 1e-12, (entry, p, q)
        for p, left in enumerate(labels):
            for q, right in enumerate(labels):
                ref = pairwise_bracket(grads, left, right)
                assert np.max(np.abs(table[:, p, q] - ref), initial=0.0) <= 1e-12, (left, right)
