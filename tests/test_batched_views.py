"""The scalar APIs are N=1 views of the batched kernels in `fields`.

Each test draws random admissible states (elliptic, hyperbolic and exactly
parabolic) and holds every N=1 call to the matching row of one batched call
on the whole stack, to 1e-14 relative.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from keplersym import (
    GeneratorId,
    GeneratorKind,
    KeplerSystem,
    PhaseState,
    conserved_set,
    gauge_fixed_generator,
    prolonged_generator,
    transform_constants_direction,
    transform_constants_lrl,
)
from keplersym import fields
from keplersym.errors import InadmissibleTransformError
from keplersym.flow import symmetry_flow_rhs
from keplersym.generators import FAMILY_LABEL
from keplersym.sampling import sample_parabolic_states, sample_states
from keplersym.transforms import _ray_constants, _reconstruct

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
            l_star, a_star = _ray_constants(c, eps, kind, np.linspace(0.0, 1.0, 5))
            assert_rows_match(one.L, l_star[-1])
            assert_rows_match(one.A, a_star[-1])


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_reconstruction_rows(seed):
    r, v = random_states(seed)
    vals = fields.values(r, v, 1.0)
    r_mag = vals["r_mag"]
    sigma = np.where(vals["r_dot_v"] >= 0.0, 1.0, -1.0)
    r_all, v_all = fields.reconstruct(r_mag, sigma, vals["E"], 1.0, vals["L"], vals["Theta"])
    for i in range(len(r)):
        r_one, v_one = _reconstruct(r_mag[i], sigma[i], vals["E"][i], 1.0, vals["L"][i], vals["Theta"][i])
        assert_rows_match(r_one, r_all[i])
        assert_rows_match(v_one, v_all[i])
        # each state is rebuilt from its own invariants
        assert_rows_match(r_one, r[i], rel=1e-12)
        assert_rows_match(v_one, v[i], rel=1e-12)
