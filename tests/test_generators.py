import numpy as np
import pytest
from numpy.testing import assert_allclose

from keplersym import (
    ApsisError,
    DegenerateDirectionError,
    GeneratorClass,
    GeneratorId,
    PhaseState,
    characteristic,
    classify_generator,
    gauge_fixed_generator,
    noether_characteristic,
    prolonged_generator,
)
from keplersym.generators import velocity_jacobian
from keplersym.sampling import sample_states
from keplersym import fields


def test_characteristic_energy(ksys, ell):
    assert_allclose(characteristic(GeneratorId.energy(), ell, ksys), [0, 1.2, 0])


def test_characteristic_angular_momentum(ksys, ell):
    assert_allclose(characteristic(GeneratorId.angular_momentum(3), ell, ksys), [0, 1, 0])


def test_characteristic_lrl(ksys, ell):
    assert_allclose(characteristic(GeneratorId.lrl(1), ell, ksys), [0, 2.4, 0])


def test_characteristic_direction_degenerate(ksys, circ):
    with pytest.raises(DegenerateDirectionError):
        characteristic(GeneratorId.lrl_direction(1), circ, ksys)


def test_prolonged_lrl(ksys, ell):
    val = prolonged_generator(GeneratorId.lrl(1), ell, ksys)
    assert val.delta_t == 0.0
    assert_allclose(val.delta_r, [0, 2.4, 0])
    assert_allclose(val.delta_v, [-1.44, 0, 0], atol=1e-15)


def test_prolonged_point_generators(ksys, circ):
    val = prolonged_generator(GeneratorId.energy(), circ, ksys)
    assert_allclose(val.delta_r, [0, 1, 0])
    assert_allclose(val.delta_v, [-1, 0, 0])
    val = prolonged_generator(GeneratorId.angular_momentum(3), circ, ksys)
    assert_allclose(val.delta_r, [0, 1, 0])
    assert_allclose(val.delta_v, [-1, 0, 0])


def test_gauge_delta_t_near_ell(ksys, ell):
    # At the exact ELL periapsis the axis-2 completion diverges (r.v = 0 with
    # (r x L)_2 != 0), so probe delta_t = -(r x L)_2 just off the apsis.
    from keplersym import time_translate, ExtendedState

    off = time_translate(ExtendedState(0.0, ell), 1e-3, ksys).state
    val = gauge_fixed_generator(GeneratorId.lrl(2), off, ksys)
    expected = -np.cross(off.r, np.cross(off.r, off.v))[1]
    assert val.delta_t == pytest.approx(expected)
    assert val.delta_t == pytest.approx(1.2, abs=5e-3)


def test_gauge_apsis_transverse_axis_raises(ksys, ell):
    with pytest.raises(ApsisError):
        gauge_fixed_generator(GeneratorId.lrl(2), ell, ksys)


def test_gauge_delta_t_radial(ksys):
    radial = PhaseState((1, 0, 0), (0.5, 0, 0))
    for axis in (1, 2, 3):
        assert gauge_fixed_generator(GeneratorId.lrl(axis), radial, ksys).delta_t == 0.0


def test_gauge_direction_axis1_at_apsis(ksys, ell):
    # at periapsis the axis-1 completion has a finite limit and r.delta_r = 0
    val = gauge_fixed_generator(GeneratorId.lrl_direction(1), ell, ksys)
    assert abs(float(np.dot(ell.r, val.delta_r))) <= 1e-12


@pytest.mark.parametrize(
    "gen", [GeneratorId.lrl(1), GeneratorId.lrl(3), GeneratorId.lrl_direction(1), GeneratorId.lrl_direction(3)]
)
def test_gauge_apsis_limit_joins_the_field_beside_it(ksys, ell, gen):
    # (r x L) along these axes vanishes at the ELL periapsis, where the completion
    # takes its apsis limit; it must join the field just before and after the apsis
    from keplersym import time_translate, ExtendedState

    at = gauge_fixed_generator(gen, ell, ksys)
    for dt in (1e-5, -1e-5):
        off = gauge_fixed_generator(gen, time_translate(ExtendedState(0.0, ell), dt, ksys).state, ksys)
        assert_allclose(at.delta_r, off.delta_r, atol=1e-4)
        assert_allclose(at.delta_v, off.delta_v, atol=1e-4)


def test_gauge_apsis_error_for_transverse_axis(ksys, ell):
    with pytest.raises(ApsisError):
        gauge_fixed_generator(GeneratorId.lrl_direction(2), ell, ksys)


def test_gauge_radius_condition_random(ksys):
    r, v = sample_states(100, seed=21)
    gens = [GeneratorId.lrl(1), GeneratorId.lrl(3), GeneratorId.lrl_direction(2)]
    for ri, vi in zip(r, v):
        state = PhaseState(ri, vi)
        if abs(float(ri @ vi)) < 1e-3:
            continue
        for gen in gens:
            val = gauge_fixed_generator(gen, state, ksys)
            scale = state.r_mag * (np.linalg.norm(val.delta_r) + 1.0)
            assert abs(float(np.dot(ri, val.delta_r))) <= 1e-12 * scale
            l_vec = np.cross(ri, vi)
            assert val.delta_t == pytest.approx(-np.cross(ri, l_vec)[gen.axis - 1])


def test_noether_matches_analytic(ksys, ell):
    def energy_field(s):
        return 0.5 * float(s.v @ s.v) - 1.0 / s.r_mag

    assert_allclose(noether_characteristic(energy_field, ell), [0, 1.2, 0], atol=1e-6)

    def l3_field(s):
        return float(np.cross(s.r, s.v)[2])

    assert_allclose(
        noether_characteristic(l3_field, ell),
        characteristic(GeneratorId.angular_momentum(3), ell, ksys),
        atol=1e-6,
    )

    def theta1_field(s):
        return float(fields.scalar_values(s.r[None, :], s.v[None, :], 1.0)["Theta1"][0])

    assert_allclose(
        noether_characteristic(theta1_field, ell),
        characteristic(GeneratorId.lrl_direction(1), ell, ksys),
        atol=1e-5,
    )


def test_direction_characteristic_is_velocity_gradient(ksys):
    r, v = sample_states(25, seed=23)
    for ri, vi in zip(r, v):
        state = PhaseState(ri, vi)
        for axis in (1, 2, 3):
            def theta_field(s, axis=axis):
                return float(
                    fields.scalar_values(s.r[None, :], s.v[None, :], 1.0)[f"Theta{axis}"][0]
                )

            assert_allclose(
                noether_characteristic(theta_field, state),
                characteristic(GeneratorId.lrl_direction(axis), state, ksys),
                atol=1e-5,
            )


def test_characteristic_agrees_with_gradient_table(ksys):
    # the generators-module formulas and the bracket-module gradient table are
    # independent writings of the same derivatives
    gens = {
        "E": GeneratorId.energy(),
        "L2": GeneratorId.angular_momentum(2),
        "A3": GeneratorId.lrl(3),
        "Theta1": GeneratorId.lrl_direction(1),
    }
    r, v = sample_states(30, seed=29)
    table = fields.gradients(r, v, 1.0, include_m=False)
    for i, (ri, vi) in enumerate(zip(r, v)):
        state = PhaseState(ri, vi)
        for label, gen in gens.items():
            assert_allclose(characteristic(gen, state, ksys), table[label][1][i], atol=1e-12)


def test_classification(ksys, ell):
    assert classify_generator(GeneratorId.energy(), ell, ksys) is GeneratorClass.POINT
    assert classify_generator(GeneratorId.angular_momentum(1), ell, ksys) is GeneratorClass.POINT
    assert classify_generator(GeneratorId.lrl(1), ell, ksys) is GeneratorClass.DYNAMICAL
    assert classify_generator(GeneratorId.lrl_direction(2), ell, ksys) is GeneratorClass.DYNAMICAL


def test_velocity_jacobian_shapes(ksys, ell):
    jac = velocity_jacobian(GeneratorId.energy(), ell, ksys)
    assert_allclose(jac, np.eye(3), atol=1e-5)
    jac = velocity_jacobian(GeneratorId.angular_momentum(2), ell, ksys)
    assert_allclose(jac, np.zeros((3, 3)), atol=1e-5)
