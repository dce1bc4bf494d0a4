import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from keplersym import (
    CollisionError,
    ExtendedState,
    FlowDegeneracyError,
    InadmissibleTransformError,
    PhaseState,
    compare_flow_vs_closed_form,
    conserved_set,
    integrate_orbit,
    integrate_symmetry_flow,
    time_translate,
    verify_solution_mapping,
)
from keplersym import flow
from keplersym.flow import CSV_COLUMNS
from keplersym.generators import GeneratorKind
from keplersym.sampling import sample_flow_pairs


def test_circular_closure(ksys):
    circ = ExtendedState(0.0, PhaseState((1, 0, 0), (0, 1, 0)))
    traj = integrate_orbit(circ, ksys, 2 * math.pi, tol=1e-10)
    end = traj.samples[-1]
    assert float(np.max(np.abs(end.r - circ.r))) <= 1e-8
    assert float(np.max(np.abs(end.v - circ.v))) <= 1e-8


def test_energy_drift_over_period(ksys, ell_x):
    period = conserved_set(ell_x.state, ksys).period
    traj = integrate_orbit(ell_x, ksys, period, tol=1e-10)
    assert traj.drift["dE"] <= 1e-9
    assert traj.drift["dL"] <= 1e-9


def test_hyperbolic_radius_increases(ksys):
    hyp = ExtendedState(0.0, PhaseState((1, 0, 0), (0, 2, 0)))
    traj = integrate_orbit(hyp, ksys, 10.0, tol=1e-10, dt_out=0.1)
    radii = [s.state.r_mag for s in traj.samples]
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_backwards_integration(ksys, ell_x):
    fwd = integrate_orbit(ell_x, ksys, 2.0, tol=1e-11).samples[-1]
    back = integrate_orbit(fwd, ksys, -2.0, tol=1e-11).samples[-1]
    assert_allclose(back.r, ell_x.r, atol=1e-9)
    assert back.t == pytest.approx(0.0, abs=1e-12)


def test_collision_error(ksys):
    infall = ExtendedState(0.0, PhaseState((0.05, 0, 0), (-0.5, 0, 0)))
    with pytest.raises(CollisionError):
        integrate_orbit(infall, ksys, 5.0, tol=1e-10)


def test_dt_out_sampling(ksys, ell_x):
    traj = integrate_orbit(ell_x, ksys, 1.0, tol=1e-10, dt_out=0.25)
    times = [s.t for s in traj.samples]
    assert_allclose(times, [0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


def test_symmetry_flow_identity(ksys, ell_x):
    res = integrate_symmetry_flow(GeneratorKind.LRL_DIRECTION, ell_x, ksys, (0, 0, 0))
    assert res.out is ell_x
    assert res.r_mag_drift == 0.0


def test_symmetry_flow_apsis_start_rejected(ksys, ell_x):
    with pytest.raises(FlowDegeneracyError):
        integrate_symmetry_flow(GeneratorKind.LRL_DIRECTION, ell_x, ksys, (0, 0.3, 0), steps=50)


def test_flow_matches_closed_form_direction(ksys, ell_x):
    off = time_translate(ell_x, 0.7, ksys)
    report = compare_flow_vs_closed_form(
        GeneratorKind.LRL_DIRECTION, off, ksys, (0, 0.3, 0), steps=4000
    )
    assert report.max_component_residual <= 1e-6
    assert report.r_mag_drift <= 1e-8


def test_flow_matches_closed_form_lrl_parabolic(ksys, par_x):
    off = time_translate(par_x, 0.9, ksys)
    report = compare_flow_vs_closed_form(GeneratorKind.LRL, off, ksys, (0, 0, 0.1), steps=4000)
    assert report.max_component_residual <= 1e-6


def test_flow_zero_eps_residual_zero(ksys, ell_x):
    report = compare_flow_vs_closed_form(GeneratorKind.LRL, ell_x, ksys, (0, 0, 0))
    assert report.max_component_residual == 0.0


def test_flow_constants_track_direction_solution(ksys):
    (state, eps), = sample_flow_pairs(1, seed=77, kind=GeneratorKind.LRL_DIRECTION)
    c0 = conserved_set(state, ksys)
    for s in (0.25, 0.5, 1.0):
        res = integrate_symmetry_flow(
            GeneratorKind.LRL_DIRECTION, ExtendedState(0.0, state), ksys, s * eps, steps=2000
        )
        c_s = conserved_set(res.out.state, ksys)
        assert c_s.E == pytest.approx(c0.E, abs=1e-8)
        assert_allclose(c_s.Theta, c0.Theta, atol=1e-8)
        assert_allclose(c_s.L, c0.L + np.cross(s * eps, c0.Theta), atol=1e-8)


def test_solution_mapping(ksys):
    (state, eps), = sample_flow_pairs(1, seed=41, kind=GeneratorKind.LRL_DIRECTION, branch="neg")
    c = conserved_set(state, ksys)
    report = verify_solution_mapping(
        ExtendedState(0.0, state), ksys, eps, GeneratorKind.LRL_DIRECTION, c.period
    )
    assert report.max_residual <= 1e-8


def test_solution_mapping_identity_and_inadmissible(ksys, ell_x):
    report = verify_solution_mapping(ell_x, ksys, (0, 0, 0), GeneratorKind.LRL, 5.0)
    assert report.max_residual <= 1e-9  # integrator drift only
    with pytest.raises(InadmissibleTransformError):
        verify_solution_mapping(ell_x, ksys, (0, 0, 0.2), GeneratorKind.LRL_DIRECTION, 5.0)


def test_trajectory_csv(ksys, ell_x):
    traj = integrate_orbit(ell_x, ksys, 0.5, tol=1e-10, dt_out=0.25)
    buf = io.StringIO()
    traj.write_csv(buf, ksys)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(traj.samples)
    assert len(lines[1].split(",")) == 14


@pytest.mark.parametrize("v, tol", [((0, 1.2, 0), 1e-10), ((0, 0.05, 0), 1e-6)])
def test_trajectory_counts_solver_steps(ksys, v, tol):
    start = ExtendedState(0.0, PhaseState((1, 0, 0), v))
    traj = integrate_orbit(start, ksys, 3.0, tol=tol)
    assert traj.steps_accepted == len(traj.samples) - 1
    # the near-radial orbit at a loose tolerance has its steps cut at periapsis
    assert (traj.steps_rejected > 0) == (tol == 1e-6)
    on_grid = integrate_orbit(start, ksys, 3.0, tol=tol, dt_out=0.5)
    assert on_grid.steps_accepted >= traj.steps_accepted
    assert len(on_grid.samples) == 7


def test_rk4_calls_the_rhs_by_its_module_name_once_per_stage(monkeypatch):
    # the benchmark tracer counts calls of flow.symmetry_flow_rhs and their rows
    pairs = [
        pair
        for kind, branch in ((GeneratorKind.LRL_DIRECTION, "any"), (GeneratorKind.LRL, "neg"))
        for pair in sample_flow_pairs(3, seed=5, kind=kind, branch=branch)
    ]
    kinds = [GeneratorKind.LRL_DIRECTION] * 3 + [GeneratorKind.LRL] * 3
    rows = []
    real = flow.symmetry_flow_rhs

    def counting(kind, r, v, eps, kappa):
        rows.append((r.shape, v.shape, eps.shape))
        return real(kind, r, v, eps, kappa)

    monkeypatch.setattr(flow, "symmetry_flow_rhs", counting)
    r = np.array([p[0].r for p in pairs])
    v = np.array([p[0].v for p in pairs])
    eps = np.array([p[1] for p in pairs])
    flow.integrate_symmetry_flows(kinds, np.zeros(6), r, v, eps, 1.0, steps=7)
    assert rows == [((6, 3), (6, 3), (6, 3))] * (4 * 7)
