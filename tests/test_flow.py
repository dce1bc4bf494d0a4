import io
import math
from fractions import Fraction as F

import numpy as np
import pytest
from numpy.testing import assert_allclose

from keplersym import (
    CollisionError,
    ExtendedState,
    FlowDegeneracyError,
    InadmissibleTransformError,
    IntegrationError,
    KeplerSystem,
    PhaseState,
    UsageError,
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
    assert "solution" in report.residuals


def test_solution_mapping_identity_and_inadmissible(ksys, ell_x):
    report = verify_solution_mapping(ell_x, ksys, (0, 0, 0), GeneratorKind.LRL, 5.0)
    assert report.max_residual <= 1e-9  # integrator drift only
    with pytest.raises(InadmissibleTransformError):
        verify_solution_mapping(ell_x, ksys, (0, 0, 0.2), GeneratorKind.LRL_DIRECTION, 5.0)


def test_time_since_periapsis_takes_its_side_from_sigma():
    # at an apoapsis r.v is roundoff; the given sign, not r.v's, picks +P/2 or -P/2 (a = 1, P = 2 pi)
    r_a, v_a = 1.5, math.sqrt(2.0 / 1.5 - 1.0)
    r = np.tile([-r_a, 0.0, 0.0], (4, 1))
    v = np.array([[u, -v_a, 0.0] for u in (1e-17, -1e-17, 1e-17, -1e-17)])
    got = flow.time_since_periapsis(r, v, np.array([1.0, 1.0, -1.0, -1.0]), 1.0)
    assert_allclose(got, [math.pi, math.pi, -math.pi, -math.pi], rtol=1e-12)


def test_trajectory_csv(ksys, ell_x):
    traj = integrate_orbit(ell_x, ksys, 0.5, tol=1e-10, dt_out=0.25)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(traj.samples)
    assert len(lines[1].split(",")) == 14
    for sample, line in zip(traj.samples, lines[1:]):
        c = conserved_set(sample.state, ksys)
        assert_allclose([float(x) for x in line.split(",")[7:]], [c.E, *c.L, *c.A], rtol=0, atol=1e-14)


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


def _four_flows():
    """Kinds, r, v and eps of two LRL-direction and two LRL flows."""
    pairs = sample_flow_pairs(2, seed=5, kind=GeneratorKind.LRL_DIRECTION, branch="any")
    pairs += sample_flow_pairs(2, seed=6, kind=GeneratorKind.LRL, branch="neg")
    kinds = [GeneratorKind.LRL_DIRECTION] * 2 + [GeneratorKind.LRL] * 2
    return kinds, *(np.array(x) for x in zip(*((p[0].r, p[0].v, p[1]) for p in pairs)))


@pytest.mark.parametrize("n_kinds", [3, 5])
def test_rk4_rejects_a_kind_per_row_of_another_count(n_kinds):
    kinds, r, v, eps = _four_flows()
    with pytest.raises(UsageError, match=f"{n_kinds} kinds"):
        flow.integrate_symmetry_flows((2 * kinds)[:n_kinds], np.zeros(4), r, v, eps, 1.0, 5)


def test_rk4_rejects_a_t_per_row_of_another_count_and_broadcasts_a_scalar_t():
    kinds, r, v, eps = _four_flows()
    with pytest.raises(UsageError, match=r"t \(3,\)"):
        flow.integrate_symmetry_flows(kinds, np.zeros(3), r, v, eps, 1.0, 5)
    scalar = flow.integrate_symmetry_flows(kinds, 0.25, r, v, eps, 1.0, 5)
    per_row = flow.integrate_symmetry_flows(kinds, np.full(4, 0.25), r, v, eps, 1.0, 5)
    for one, each in zip(scalar, per_row):
        assert np.array_equal(one, each)


@pytest.mark.parametrize("which, shape", [(0, (3, 3)), (1, (4, 2)), (2, (3,)), (0, (4,))])
def test_rk4_rejects_r_v_or_eps_that_are_not_n_by_3(which, shape):
    kinds, *rows = _four_flows()
    rows[which] = np.ones(shape)
    with pytest.raises(UsageError, match=r"shape \(N, 3\)"):
        flow.integrate_symmetry_flows(kinds, np.zeros(4), *rows, 1.0, 5)


@pytest.mark.parametrize("steps", [2.5, 0, -3, True])
def test_rk4_rejects_a_step_count_that_is_not_a_positive_integer(steps):
    kinds, r, v, eps = _four_flows()
    with pytest.raises(UsageError, match="steps must be"):
        flow.integrate_symmetry_flows(kinds, np.zeros(4), r, v, eps, 1.0, steps)


# Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19, Table 2: RK5(4)7M.
DP_A = [
    [],
    [F(1, 5)],
    [F(3, 40), F(9, 40)],
    [F(44, 45), F(-56, 15), F(32, 9)],
    [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
    [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
    [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)],
]
DP_B5 = [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84), F(0)]
DP_B4 = [F(5179, 57600), F(0), F(7571, 16695), F(393, 640), F(-92097, 339200), F(187, 2100), F(1, 40)]


def _kepler_rhs(y, kappa):
    r = y[:3]
    return np.concatenate([y[3:], -kappa * r / np.linalg.norm(r) ** 3])


@pytest.mark.parametrize("h", [0.3, -0.05])
def test_dp_step_applies_the_published_tableau(h):
    kappa = 1.3
    y = np.array([0.9, -0.4, 0.3, 0.35, 1.1, -0.2])
    k = np.empty((7, 6))
    k[0] = _kepler_rhs(y, kappa)
    for i in range(1, 7):
        k[i] = _kepler_rhs(y + h * (np.array(DP_A[i], dtype=float) @ k[:i]), kappa)
    y5 = y + h * (np.array(DP_B5, dtype=float) @ k)
    err = h * (np.array([b5 - b4 for b5, b4 in zip(DP_B5, DP_B4)], dtype=float) @ k)

    y_new, f_new, err_vec = flow._dp_step(y.tolist(), k[0].tolist(), h, kappa)
    assert np.max(np.abs(np.array(y_new) - y5)) <= 1e-15 * np.max(np.abs(y5))
    assert np.max(np.abs(np.array(f_new) - k[6])) <= 1e-15 * np.max(np.abs(k[6]))
    # the error weights sum to zero, so measure err against the terms it sums
    assert np.max(np.abs(np.array(err_vec) - err)) <= 1e-15 * abs(h) * np.max(np.abs(k))


def _newton(fun, dfun, x):
    for _ in range(100):
        step = fun(x) / dfun(x)
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            return x
    raise AssertionError("Newton did not converge")


def _kepler_propagate(r0, v0, t, kappa, parabolic):
    """(r, v) after time t by the Lagrange f and g functions, from the Kepler
    equation of each branch; Barker's equation on the parabolic one, where E
    is taken as exactly 0."""
    r0_mag = np.linalg.norm(r0)
    rv = float(r0 @ v0)
    energy = 0.5 * float(v0 @ v0) - kappa / r0_mag
    if parabolic:
        p = float(np.sum(np.cross(r0, v0) ** 2)) / kappa
        d0 = rv / math.sqrt(kappa)
        m = math.sqrt(kappa) * t + p * d0 / 2 + d0**3 / 6
        d = _newton(lambda d: p * d / 2 + d**3 / 6 - m, lambda d: p / 2 + d * d / 2, d0)
        x = d - d0  # the universal anomaly
        f, g = 1 - x * x / (2 * r0_mag), t - x**3 / (6 * math.sqrt(kappa))
        r = f * r0 + g * v0
        r_mag = np.linalg.norm(r)
        fdot, gdot = -math.sqrt(kappa) * x / (r_mag * r0_mag), 1 - x * x / (2 * r_mag)
        return r, fdot * r0 + gdot * v0
    a = -kappa / (2 * energy)
    ecc_c = 1 - r0_mag / a  # e cos E0, or e cosh F0
    if energy < 0:
        ecc_s = rv / math.sqrt(kappa * a)
        ecc, e0 = math.hypot(ecc_c, ecc_s), math.atan2(ecc_s, ecc_c)
        m = e0 - ecc * math.sin(e0) + math.sqrt(kappa / a**3) * t
        e = _newton(lambda e: e - ecc * math.sin(e) - m, lambda e: 1 - ecc * math.cos(e), m + 0.85 * ecc)
        s, c, dx = math.sin(e - e0), math.cos(e - e0), e - e0
        f, g = 1 - a / r0_mag * (1 - c), t - math.sqrt(a**3 / kappa) * (dx - s)
        r = f * r0 + g * v0
        r_mag = np.linalg.norm(r)
        fdot, gdot = -math.sqrt(kappa * a) / (r_mag * r0_mag) * s, 1 - a / r_mag * (1 - c)
        return r, fdot * r0 + gdot * v0
    ecc_s = rv / math.sqrt(-kappa * a)
    ecc = math.sqrt(ecc_c**2 - ecc_s**2)
    f0 = math.atanh(ecc_s / ecc_c)
    m = ecc * math.sinh(f0) - f0 + math.sqrt(kappa / (-a) ** 3) * t
    fa = _newton(lambda x: ecc * math.sinh(x) - x - m, lambda x: ecc * math.cosh(x) - 1, math.asinh(m / ecc))
    s, c, dx = math.sinh(fa - f0), math.cosh(fa - f0), fa - f0
    f, g = 1 - a / r0_mag * (1 - c), t - math.sqrt((-a) ** 3 / kappa) * (s - dx)
    r = f * r0 + g * v0
    r_mag = np.linalg.norm(r)
    fdot, gdot = -math.sqrt(-kappa * a) / (r_mag * r0_mag) * s, 1 - a / r_mag * (1 - c)
    return r, fdot * r0 + gdot * v0


def _kepler_states(branch, n, kappa, seed):
    """n states of one energy branch, |L| and periapsis bounded away from zero."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        r = rng.normal(size=3)
        r *= rng.uniform(0.7, 1.5) / np.linalg.norm(r)
        r_mag = np.linalg.norm(r)
        energy = {"ell": rng.uniform(-0.45, -0.08), "hyp": rng.uniform(0.08, 0.5), "par": 0.0}[branch]
        v = rng.normal(size=3)
        v *= math.sqrt(2 * (energy * kappa + kappa / r_mag)) / np.linalg.norm(v)
        l_sq = float(np.sum(np.cross(r, v) ** 2))
        ecc_sq = 1 + 2 * (0.5 * float(v @ v) - kappa / r_mag) * l_sq / kappa**2
        if l_sq >= 0.3**2 * kappa and l_sq / (kappa * (1 + math.sqrt(max(ecc_sq, 0.0)))) >= 0.3:
            out.append((r, v))
    return out


@pytest.mark.parametrize("branch, bound", [("ell", 1e-7), ("hyp", 1e-8), ("par", 1e-8)])
def test_orbit_matches_kepler_equation(branch, bound):
    # One period on elliptic states (sampled at fifths), t = 10 on the others.
    # The global error at tol 1e-10 grows with the period and the eccentricity:
    # over one period it reaches 4.7e-8 (eccentricity 0.91, period 57), and a
    # third of these elliptic states exceed 1e-8; at tol 1e-11 all are below it.
    kappa = 1.3
    ksys = KeplerSystem(kappa=kappa)
    worst = 0.0
    for r0, v0 in _kepler_states(branch, 12, kappa, seed=["ell", "hyp", "par"].index(branch)):
        start = ExtendedState(0.0, PhaseState(r0, v0))
        c = conserved_set(start.state, ksys)
        span = c.period if branch == "ell" else 10.0
        for sample in integrate_orbit(start, ksys, span, tol=1e-10, dt_out=span / 5).samples[1:]:
            r_ref, v_ref = _kepler_propagate(r0, v0, sample.t, kappa, branch == "par")
            worst = max(worst, np.max(np.abs(sample.r - r_ref)), np.max(np.abs(sample.v - v_ref)))
    assert worst <= bound


@pytest.mark.parametrize("branch", ["ell", "hyp", "par"])
def test_propagator_matches_kepler_equation(branch):
    # both signs of the span, and on ellipses spans of several periods, which the
    # propagator reduces modulo the period and the oracle does not
    kappa = 1.3
    ksys = KeplerSystem(kappa=kappa)
    worst = 0.0
    for seed in range(3):
        for r0, v0 in _kepler_states(branch, 12, kappa, seed):
            period = conserved_set(PhaseState(r0, v0), ksys).period if branch == "ell" else 10.0
            for dt in (1e-3, 0.3, -0.7, 2.5, -4.0, 0.37 * period, 3.3 * period, -5.7 * period):
                r, v = flow.propagate_kepler(r0.tolist(), v0.tolist(), dt, kappa)
                r_ref, v_ref = _kepler_propagate(r0, v0, dt, kappa, branch == "par")
                worst = max(worst, np.max(np.abs(np.subtract(r, r_ref))), np.max(np.abs(np.subtract(v, v_ref))))
    assert worst <= 1e-12


@pytest.mark.parametrize("dt", [1e-9, 0.4, -2.0, 35.0])
def test_propagator_on_an_exact_parabola(dt):
    # 2 kappa/|r| = |v|^2 exactly, so psi = 0 for every chi and only the series runs
    r0, v0 = np.array([2.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
    r, v = flow.propagate_kepler(r0.tolist(), v0.tolist(), dt, 1.0)
    r_ref, v_ref = _kepler_propagate(r0, v0, dt, 1.0, parabolic=True)
    assert_allclose(r, r_ref, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(r_ref))))
    assert_allclose(v, v_ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("branch", ["ell", "hyp", "par"])
def test_orbit_matches_propagator(branch):
    # DP5 at tol 1e-11 against the closed form: over one period on ellipses, t = 10 on
    # the other branches, sampled at fifths
    kappa = 1.3
    ksys = KeplerSystem(kappa=kappa)
    worst = 0.0
    for r0, v0 in _kepler_states(branch, 12, kappa, seed=["ell", "hyp", "par"].index(branch)):
        start = ExtendedState(0.0, PhaseState(r0, v0))
        span = conserved_set(start.state, ksys).period if branch == "ell" else 10.0
        for sample in integrate_orbit(start, ksys, span, tol=1e-11, dt_out=span / 5).samples[1:]:
            r, v = flow.propagate_kepler(r0.tolist(), v0.tolist(), sample.t, kappa)
            worst = max(worst, np.max(np.abs(sample.r - r)), np.max(np.abs(sample.v - v)))
    assert worst <= 1e-8


def test_propagator_refuses_a_span_through_the_collision_floor():
    # radial infall from 0.05: it reaches the origin in about 0.014, and the orbit
    # returns to it every period (0.025)
    r0, v0 = [0.05, 0.0, 0.0], [-0.5, 0.0, 0.0]
    for dt in (0.02, 5.0, -5.0):
        with pytest.raises(CollisionError):
            flow.propagate_kepler(r0, v0, dt, 1.0)
    r, v = flow.propagate_kepler(r0, v0, 0.01, 1.0)
    assert 0.0 < r[0] < 0.05 and v[0] < -0.5
    # a periapsis of 1e-9 behind the start of a forward span is never reached
    r, _ = flow.propagate_kepler([1.0, 0.0, 0.0], [1.0, 1e-9, 0.0], 3.0, 1.0)
    assert math.hypot(*r) > 1.0
    with pytest.raises(CollisionError):
        flow.propagate_kepler([1.0, 0.0, 0.0], [1.0, 1e-9, 0.0], -3.0, 1.0)
    with pytest.raises(CollisionError):
        flow.propagate_kepler([1e-9, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0, 1.0)


def test_propagator_raises_when_the_solve_does_not_converge(monkeypatch):
    monkeypatch.setattr(flow, "KEPLER_ITERATIONS", 1)
    with pytest.raises(IntegrationError, match="did not converge"):
        flow.propagate_kepler([1.0, 0.0, 0.0], [0.0, 1.2, 0.0], 2.0, 1.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_propagator_refuses_a_span_that_is_not_finite(dt):
    with pytest.raises(UsageError, match="finite"):
        flow.propagate_kepler([1.0, 0.0, 0.0], [0.0, 1.2, 0.0], dt, 1.0)


def test_time_translate_calls_no_integrator(ksys, ell_x, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("time translation integrated an orbit")

    monkeypatch.setattr(flow, "integrate_orbit", refuse)
    monkeypatch.setattr(flow, "_dp_step", refuse)
    out = time_translate(ell_x, 4.2, ksys)
    r_ref, v_ref = _kepler_propagate(ell_x.r, ell_x.v, 4.2, ksys.kappa, False)
    assert_allclose(out.r, r_ref, rtol=0, atol=1e-12)
    assert_allclose(out.v, v_ref, rtol=0, atol=1e-12)
    assert out.t == ell_x.t
