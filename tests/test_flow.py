import functools
import io
import math
import os
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from keplersym import fields, flow
from keplersym.flow import CSV_COLUMNS
from keplersym.generators import GeneratorKind
from keplersym.sampling import canonical_states, sample_flow_pairs


def test_circular_closure(ksys):
    circ = ExtendedState(0.0, PhaseState((1, 0, 0), (0, 1, 0)))
    traj = integrate_orbit(circ, ksys, 2 * math.pi, tol=1e-10)
    end = traj.samples[-1]
    assert float(np.max(np.abs(end.r - circ.r))) <= 1e-8
    assert float(np.max(np.abs(end.v - circ.v))) <= 1e-8


def test_energy_drift_over_period(ksys, ell_x):
    period = conserved_set(ell_x.state, ksys).period
    traj = integrate_orbit(ell_x, ksys, period, tol=1e-10)
    assert traj.deviations()["dE"] <= 1e-9
    assert traj.deviations()["dL"] <= 1e-9


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
    assert len(lines) == len(traj.samples)
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)
    for sample, line in zip(traj.samples, lines):
        # the CSV columns and conserved_set come from one writer, bit for bit
        c = conserved_set(sample.state, ksys)
        assert [float(x) for x in line.split(",")[7:]] == [c.E, *c.L, *c.A]


def test_write_csv_holds_one_chunk_whatever_the_samples(ksys, ell_x, monkeypatch):
    # the traced peak of writing n and 4n samples: the lines are formed CSV_CHUNK rows at a
    # time, so the peaks differ by less than one chunk's lines (about 0.8 kB a row)
    chunk = 250
    monkeypatch.setattr(flow, "CSV_CHUNK", chunk)
    rows = integrate_orbit(ell_x, ksys, 40.0, dt_out=0.01).rows
    peaks = []
    with open(os.devnull, "w") as sink:
        for n in (1000, 4000):
            traj = flow.Trajectory(rows[:n], ksys.kappa)
            tracemalloc.start()
            try:
                traj.write_csv(sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] < 800 * chunk


def test_a_circle_at_a_tiny_kappa_closes_over_one_period():
    # |f| is far below the first step's estimate, whose fallback then scales with the span
    # (6.3e80 here), above the loop's floor 1e-14 |span|
    kappa = 1e-160
    circ = ExtendedState(0.0, canonical_states(kappa)["circ"])
    end = integrate_orbit(circ, KeplerSystem(kappa), 2.0 * math.pi / math.sqrt(kappa)).end
    assert float(np.max(np.abs(end.r - circ.r))) <= 1e-8
    assert float(np.max(np.abs(end.v - circ.v))) <= 1e-8 * math.sqrt(kappa)


@pytest.mark.parametrize("v, tol", [((0, 1.2, 0), 1e-10), ((0, 0.05, 0), 1e-6)])
def test_trajectory_counts_solver_steps(ksys, v, tol):
    start = ExtendedState(0.0, PhaseState((1, 0, 0), v))
    traj = integrate_orbit(start, ksys, 3.0, tol=tol)
    assert traj.steps_accepted == len(traj.samples) - 1
    # the near-radial orbit at a loose tolerance has its steps cut at periapsis
    assert (traj.steps_rejected > 0) == (tol == 1e-6)
    # the grid is sampled from the steps' dense output, so it takes the same steps
    on_grid = integrate_orbit(start, ksys, 3.0, tol=tol, dt_out=0.5)
    assert (on_grid.steps_accepted, on_grid.steps_rejected) == (traj.steps_accepted, traj.steps_rejected)
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


DIRECTION, LRL = GeneratorKind.LRL_DIRECTION, GeneratorKind.LRL


@functools.cache
def _flow_pool():
    """200 LRL-direction and 200 LRL flows: {kind: (r, v, eps)}."""
    pool = {}
    for kind, branch, seed in ((DIRECTION, "any", 11), (LRL, "neg", 12)):
        pairs = sample_flow_pairs(200, seed=seed, kind=kind, branch=branch)
        pool[kind] = tuple(np.array(x) for x in zip(*((p[0].r, p[0].v, p[1]) for p in pairs)))
    return pool


def _flow_batch(kinds):
    """r, v and eps of a batch of the given kinds, row i the i-th flow of its kind's pool."""
    pool = _flow_pool()
    return tuple(np.array([pool[kind][part][i] for i, kind in enumerate(kinds)]) for part in range(3))


def _one_shot_rk4(kinds, t, r, v, eps, kappa, steps):
    """RK4 over one-shot `symmetry_flow_rhs` calls, rows in the caller's order, with the
    arithmetic of `integrate_symmetry_flows`: a (7, N) state y, stages node k + y and the
    step y + weights @ k, and |r|^2 from a new `fields.frame` at every step end."""
    n = len(r)
    y, k = np.empty((7, n)), np.empty((4, 7, n))
    y[0], y[1:4], y[4:] = t, r.T, v.T
    h = 1.0 / steps
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (h / 6.0)
    r_sq = [fields.frame(r, v, eps)[1][0, 0]]
    for _ in range(steps):
        stage = y
        for j, node in enumerate((0.5 * h, 0.5 * h, h, None)):
            dt, dr, dv = flow.symmetry_flow_rhs(kinds, stage[1:4].T, stage[4:].T, eps, kappa)
            k[j, 0], k[j, 1:4], k[j, 4:] = dt, dr.T, dv.T
            if node is not None:
                stage = node * k[j] + y
        y = y + (weights @ k.reshape(4, -1)).reshape(7, n)
        r_sq.append(fields.frame(y[1:4].T, y[4:].T, eps)[1][0, 0])
    r_mag0 = np.sqrt(r_sq[0])
    drift = np.maximum(np.sqrt(np.max(r_sq, axis=0)) - r_mag0, r_mag0 - np.sqrt(np.min(r_sq, axis=0)))
    return y[0], y[1:4].T, y[4:].T, drift


@pytest.mark.parametrize("n", [1, 2, 37, 200])
@pytest.mark.parametrize("layout", ["leading", "interleaved", "none", "only"])
def test_bound_rk4_gives_the_one_shot_bits(n, layout):
    # one field is bound per batch and its four stages share its buffers and the stacks' views;
    # a stale or aliased view between stage slots would show here
    kinds = {
        "leading": [DIRECTION] * ((n + 1) // 2) + [LRL] * (n // 2),
        "interleaved": [(LRL, DIRECTION)[i % 2] for i in range(n)],
        "none": [LRL] * n,
        "only": [DIRECTION] * n,
    }[layout]
    r, v, eps = _flow_batch(kinds)
    t0 = np.linspace(-1.0, 1.0, n)
    bound = flow.integrate_symmetry_flows(kinds, t0, r, v, eps, 1.0, steps=3)
    one_shot = _one_shot_rk4(kinds, t0, r, v, eps, 1.0, steps=3)
    for got, want in zip(bound, one_shot):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("family", ["A", "Theta"])
def test_a_field_bound_with_a_mu_gives_the_same_slopes_when_called_again(family):
    # numpy enters an np.errstate once; the field quiets each call with its own
    r, v, eps = _flow_batch([DIRECTION] * 5)
    basis, gram = fields.frame(r, v, eps)
    field = fields.GaugeField(5 if family == "Theta" else 0, 1.0, gram, 0.0)
    first, again = (tuple(x.copy() for x in field(basis, np.empty(5), np.empty((2, 3, 5)))) for _ in range(2))
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def _stage_two(kind, r, v, eps):
    """(r, v) of the second RK4 stage of one step of size 1 from (r, v), as the batch forms it."""
    _, dr, dv = flow.symmetry_flow_rhs(kind, r[None], v[None], eps[None], 1.0)
    return 0.5 * dr[0] + r, 0.5 * dv[0] + v


def _lands_on_an_apsis(r, v, eps):
    """The multiple of eps whose LRL field takes the second stage of a one-step RK4 onto r.v = 0:
    the stage is linear in eps, so r.v there is a quadratic in the multiple."""
    r2, v2 = _stage_two(LRL, r, v, eps)
    a, b = r2 - r, v2 - v
    roots = np.roots([a @ b, r @ b + a @ v, r @ v])
    return min(x.real for x in roots if x.imag == 0.0 and x.real > 0.0) * eps


def _lands_on_a_circle():
    """r, v and eps of an LRL-direction flow whose second stage, in a one-step RK4, has
    |A| < 1e-14 with |A| = 0.022 at its start: eps is fixed, and a Newton solve on v zeroes
    A at the stage, whose A moves with v through a Jacobian that is regular near a circle."""
    r, eps = np.array([1.0, 0.0, 0.0]), np.array([-1e-3, 0.0, 0.0])

    def a_at_stage(vxy):
        v2 = _stage_two(DIRECTION, r, np.array([*vxy, 0.0]), eps)
        return fields.values(*(x[None] for x in v2), 1.0)["A"][0, :2]

    vxy = np.array([0.03, 1.0])
    for _ in range(20):
        residual = a_at_stage(vxy)
        if np.linalg.norm(residual) < 1e-14:
            return r, np.array([*vxy, 0.0]), eps
        jac = np.column_stack([(a_at_stage(vxy + 1e-8 * e) - residual) / 1e-8 for e in np.eye(2)])
        vxy = vxy - np.linalg.solve(jac, residual)
    raise AssertionError(f"no circular second stage: |A| = {np.linalg.norm(residual):.3e}")


def _count_rhs_calls(monkeypatch):
    calls = []
    real = flow.symmetry_flow_rhs

    def counting(kind, r, v, eps, kappa):
        calls.append(len(r))
        return real(kind, r, v, eps, kappa)

    monkeypatch.setattr(flow, "symmetry_flow_rhs", counting)
    return calls


@pytest.mark.parametrize("case", ["apsis", "circular", "circular without the apsis test", "non-finite"])
def test_a_degeneracy_reached_mid_flow_stops_the_bound_rk4(monkeypatch, case):
    # a batch of three flows whose middle row degenerates only after the first RHS call
    kinds = [DIRECTION, DIRECTION if case.startswith("circular") else LRL, LRL]
    r, v, eps = _flow_batch(kinds)
    if case == "apsis":  # its second stage lands on r.v = 0
        eps[1] = _lands_on_an_apsis(r[1], v[1], eps[1])
        message, calls = "apsis", 2
    elif case.startswith("circular"):  # its second stage lands on |A| = 0, where r.v = 0 too
        r[1], v[1], eps[1] = _lands_on_a_circle()
        message, calls = "circular", 2
        if case == "circular without the apsis test":
            monkeypatch.setattr(flow, "_APSIS_SQ", np.array(0.0))
    else:  # its eps is not finite, so neither is its state after the first step's four stages
        eps[1, 2] = np.nan
        message, calls = "non-finite", 4
    made = _count_rhs_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FlowDegeneracyError, match=message):
            flow.integrate_symmetry_flows(kinds, np.zeros(3), r, v, eps, 1.0, steps=1)
    assert len(made) == calls


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
    kappa, tol = 1.3, 1e-6
    y = np.array([0.9, -0.4, 0.3, 0.35, 1.1, -0.2])
    k = np.empty((7, 6))
    k[0] = _kepler_rhs(y, kappa)
    for i in range(1, 7):
        k[i] = _kepler_rhs(y + h * (np.array(DP_A[i], dtype=float) @ k[:i]), kappa)
    y5 = y + h * (np.array(DP_B5, dtype=float) @ k)
    err = h * (np.array([b5 - b4 for b5, b4 in zip(DP_B5, DP_B4)], dtype=float) @ k)
    scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y5)))

    y_new, f_new, err_norm, stages = flow._dp_step(y.tolist(), k[0].tolist(), h, kappa, tol)
    assert np.max(np.abs(np.array(y_new) - y5)) <= 1e-15 * np.max(np.abs(y5))
    assert np.max(np.abs(np.array(f_new) - k[6])) <= 1e-15 * np.max(np.abs(k[6]))
    assert np.max(np.abs(np.array(stages) - k[2:6])) <= 1e-15 * np.max(np.abs(k))
    # the error weights sum to zero, so measure err against the terms it sums
    assert abs(err_norm - math.sqrt(np.mean((err / scale) ** 2))) <= 1e-15 * abs(h) * np.max(np.abs(k)) / tol


def _dense_weights(theta):
    """b_i(theta) of flow's dense output for the seven stages, k2's 0 put back."""
    b = [theta * (c1 + theta * (c2 + theta * (c3 + theta * c4))) for c1, c2, c3, c4 in flow._DENSE]
    return [b[0], 0.0, *b[1:]]


def test_dense_output_is_a_fourth_order_extension_of_the_step():
    # the order conditions of the eight trees of order <= 4 with weights b_i(theta) hold
    # as theta^q / gamma, and at theta = 1 the weights are the fifth-order step's
    c = [sum(row, F(0)) for row in DP_A] + [F(1)]
    tableau = DP_A + [DP_B5[:6]]

    def a_times(x):
        return [sum((a * x[j] for j, a in enumerate(row)), F(0)) for row in tableau]

    ac = a_times(c)
    trees = [  # (Phi_i, order, gamma)
        ([F(1)] * 7, 1, 1), (c, 2, 2), ([x * x for x in c], 3, 3), (ac, 3, 6), ([x**3 for x in c], 4, 4),
        ([x * y for x, y in zip(c, ac)], 4, 8), (a_times([x * x for x in c]), 4, 12), (a_times(ac), 4, 24),
    ]
    for theta in (0.1, 0.37, 0.5, 0.9, 1.0):
        b = _dense_weights(theta)
        for phi, order, gamma in trees:
            assert abs(sum(w * float(p) for w, p in zip(b, phi)) - theta**order / gamma) <= 1e-15
    assert_allclose(_dense_weights(1.0), [float(w) for w in DP_B5], rtol=0, atol=1e-15)
    assert _dense_weights(0.0) == [0.0] * 7


def _orbit_rhs_reference(y, kappa):
    x0, x1, x2, v0, v1, v2 = y
    r_sq = x0 * x0 + x1 * x1 + x2 * x2
    r_mag = math.sqrt(r_sq)
    if r_mag < flow.COLLISION_FLOOR:
        raise CollisionError(f"|r| = {r_mag:.3e} fell below the collision floor")
    g = -kappa / (r_mag * r_sq)
    return v0, v1, v2, g * x0, g * x1, g * x2


def _dp_step_reference(y, f, h, kappa):
    """The list-form Dormand-Prince step the unrolled `flow._dp_step` replaced: the fifth-order
    state, its slope, h times the fifth- minus fourth-order slope, and the slopes k3..k6."""
    rhs, a = _orbit_rhs_reference, flow
    k2 = rhs([y_ + h * (a._A21 * p) for y_, p in zip(y, f)], kappa)
    k3 = rhs([y_ + h * (a._A31 * p + a._A32 * q) for y_, p, q in zip(y, f, k2)], kappa)
    k4 = rhs([y_ + h * (a._A41 * p + a._A42 * q + a._A43 * u) for y_, p, q, u in zip(y, f, k2, k3)], kappa)
    k5 = rhs([y_ + h * (a._A51 * p + a._A52 * q + a._A53 * u + a._A54 * w)
              for y_, p, q, u, w in zip(y, f, k2, k3, k4)], kappa)
    k6 = rhs([y_ + h * (a._A61 * p + a._A62 * q + a._A63 * u + a._A64 * w + a._A65 * z)
              for y_, p, q, u, w, z in zip(y, f, k2, k3, k4, k5)], kappa)
    y_new = [y_ + h * (a._B1 * p + a._B3 * u + a._B4 * w + a._B5 * z + a._B6 * x)
             for y_, p, u, w, z, x in zip(y, f, k3, k4, k5, k6)]
    k7 = rhs(y_new, kappa)
    err = [h * (a._E1 * p + a._E3 * u + a._E4 * w + a._E5 * z + a._E6 * x + a._E7 * b)
           for p, u, w, z, x, b in zip(f, k3, k4, k5, k6, k7)]
    return y_new, k7, err, (k3, k4, k5, k6)


def _rms_scaled_reference(x, y, y_new, tol):
    q = [xi / (tol + tol * max(abs(a), abs(b))) for xi, a, b in zip(x, y, y_new)]
    return math.sqrt(sum(c * c for c in q) / len(q))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6),
    st.floats(-5.0, 5.0).filter(lambda h: h != 0.0),
    st.floats(1e-14, 1e-2),
    st.floats(1e-3, 1e3),
)
@example([1.5e-8, 0.0, 0.0, -1.0, 0.0, 0.0], 5e-8, 1e-10, 1.0)  # the second stage is below the collision floor
def test_unrolled_step_keeps_the_list_form_bits(y, h, tol, kappa):
    def outcome(step):
        try:
            return step()
        except CollisionError as exc:
            return str(exc)

    def reference():
        y_new, f_new, err, stages = _dp_step_reference(y, _orbit_rhs_reference(y, kappa), h, kappa)
        return tuple(y_new), f_new, _rms_scaled_reference(err, y, y_new, tol), stages

    want = outcome(reference)
    got = outcome(lambda: flow._dp_step(y, _orbit_rhs_reference(y, kappa), h, kappa, tol))
    assert repr(got) == repr(want)


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


def _conic(ecc, periapsis):
    """(r, v) at the periapsis of the kappa = 1 orbit of the given eccentricity, tilted out of the xy plane."""
    turn = np.linalg.qr(np.array([[0.3, -1.2, 0.5], [0.8, 0.4, -0.9], [-0.2, 0.7, 1.1]]))[0]
    return turn @ [periapsis, 0.0, 0.0], turn @ [0.0, math.sqrt((1.0 + ecc) / periapsis), 0.0]


@pytest.mark.parametrize(
    "r0, v0, span, bound",
    [
        (*_conic(0.1, 0.9), 10 * math.pi, 1e-7),  # five periods; 2.9e-8 at the default tol
        (*_conic(0.5, 0.5), 10 * math.pi, 2e-7),  # 5.5e-8
        (*_conic(0.9, 1.0), 10 * math.pi * 10**1.5, 1e-5),  # semi-major axis 10; 2.4e-6
        ((2.0, 0.0, 0.0), (0.6, 0.8, 0.0), 50.0, 1e-8),  # |v|^2 = 2/|r| exactly; 1.5e-9
        (*_conic(1.5, 1.0), 50.0, 5e-9),  # 1.0e-9
    ],
    ids=["e0.1", "e0.5", "e0.9", "parabola", "e1.5"],
)
def test_orbit_matches_propagator_over_long_spans(r0, v0, span, bound):
    # every dense-output sample of a 100-point grid, both ways, against the closed form;
    # the grid does not change the steps, so the run ends on the bits of the same span without it
    ksys = KeplerSystem(kappa=1.0)
    start = ExtendedState(0.0, PhaseState(r0, v0))
    for span in (span, -span):
        dt_out = abs(span) / 100
        traj = integrate_orbit(start, ksys, span, dt_out=dt_out)
        assert traj.rows[:, 0].tolist() == [0.0 + math.copysign(1.0, span) * dt_out * k for k in range(100)] + [span]
        worst = 0.0
        for t, *rv in traj.rows[1:].tolist():
            r, v = flow.propagate_kepler(list(r0), list(v0), t, 1.0)
            worst = max(worst, np.max(np.abs(np.subtract(rv, [*r, *v]))))
        assert worst <= bound
        plain = integrate_orbit(start, ksys, span)
        assert traj.rows[-1].tobytes() == plain.rows[-1].tobytes()
        assert (traj.steps_accepted, traj.steps_rejected) == (plain.steps_accepted, plain.steps_rejected)


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
