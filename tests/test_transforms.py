import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from keplersym import (
    DegenerateDirectionError,
    ExtendedState,
    InadmissibleTransformError,
    PhaseState,
    RadialStateError,
    admissibility,
    conserved_set,
    direction_lrl_transform,
    fields,
    lrl_transform,
    rotate,
    rotation_matrix,
    time_shift_quadrature,
    time_translate,
    transform_batch,
    transform_constants_direction,
    transform_constants_lrl,
    transforms,
)
from keplersym.flow import gaps, integrate_orbit, integrate_symmetry_flows
from keplersym.generators import GeneratorKind
from keplersym.sampling import sample_flow_pairs, sample_parabolic_states, sample_states
from keplersym.verify import _worst


def test_rotate_quarter_turn(ksys, ell_x):
    out = rotate(ell_x, (0, 0, math.pi / 2))
    assert_allclose(out.r, [0, 1, 0], atol=1e-15)
    assert_allclose(out.v, [-1.2, 0, 0], atol=1e-15)
    assert out.t == ell_x.t


def test_rotate_identity_and_composition(ell_x):
    out = rotate(ell_x, (0, 0, 0))
    assert_allclose(out.r, ell_x.r)
    a, b = 0.31, 0.57
    once = rotate(ell_x, (0, 0, a + b))
    twice = rotate(rotate(ell_x, (0, 0, a)), (0, 0, b))
    assert_allclose(once.r, twice.r, atol=1e-12)
    assert_allclose(once.v, twice.v, atol=1e-12)


def test_rotation_matrix_orthogonal():
    rot = rotation_matrix((0.3, -0.4, 0.9))
    assert_allclose(rot @ rot.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(rot) == pytest.approx(1.0)


def test_time_translate_identity_and_period(ksys, ell_x):
    assert time_translate(ell_x, 0.0, ksys) is ell_x
    circ = ExtendedState(0.0, PhaseState((1, 0, 0), (0, 1, 0)))
    out = time_translate(circ, 2 * math.pi, ksys)
    assert_allclose(out.r, circ.r, atol=1e-8)
    assert_allclose(out.v, circ.v, atol=1e-8)
    assert out.t == circ.t  # phase-space picture keeps t


def test_time_translate_preserves_constants(ksys, ell_x):
    out = time_translate(ell_x, 3.7, ksys)
    c0 = conserved_set(ell_x.state, ksys)
    c1 = conserved_set(out.state, ksys)
    assert c1.E == pytest.approx(c0.E, abs=1e-9)
    assert_allclose(c1.L, c0.L, atol=1e-9)
    assert_allclose(c1.A, c0.A, atol=1e-9)


def test_basis_expand_ell(ksys, ell):
    # the in-plane expansion of `fields.reconstruct` rebuilds the state from its own invariants
    vals = fields.values(ell.r, ell.v, 1.0)
    assert vals["A_mag"][0] == pytest.approx(0.44)
    r_back, v_back = fields.reconstruct(vals["r_mag"], 1.0, vals["E"], 1.0, vals["L"], vals["Theta"])
    assert_allclose(r_back[0], ell.r, atol=1e-10)
    assert_allclose(v_back[0], ell.v, atol=1e-10)


def test_basis_expand_reconstruction_random(ksys):
    r, v = sample_states(100, seed=17)
    vals = fields.values(r, v, 1.0)
    sigma = np.where(vals["r_dot_v"] >= 0.0, 1.0, -1.0)
    r_back, v_back = fields.reconstruct(vals["r_mag"], sigma, vals["E"], 1.0, vals["L"], vals["Theta"])
    assert_allclose(r_back, r, atol=1e-10 * max(1.0, np.max(np.linalg.norm(r, axis=1))))
    assert_allclose(v_back, v, atol=1e-10 * max(1.0, np.max(np.linalg.norm(v, axis=1))))


def test_basis_expand_degenerate(ksys, circ):
    # the in-plane frame of the reconstruction needs Theta (not circular) and an
    # orbital plane (not radial): both transforms refuse such states, batched and N=1
    good = PhaseState((1, 0.2, 0), (0.1, 1.2, 0))
    radial = PhaseState((1, 0, 0), (0.5, 0, 0))
    views = {GeneratorKind.LRL: lrl_transform, GeneratorKind.LRL_DIRECTION: direction_lrl_transform}
    for kind, view in views.items():
        for state, error in ((circ, DegenerateDirectionError), (radial, RadialStateError)):
            with pytest.raises(error):
                view(ExtendedState(0.0, state), ksys, (0, 0.1, 0))
            with pytest.raises(error):
                view(ExtendedState(0.0, state), ksys, (0, 0, 0))
            rows = [good.r, state.r], [good.v, state.v]
            with pytest.raises(error):
                transform_batch(kind, np.zeros(2), *rows, np.full((2, 3), 0.1), 1.0)


def test_admissibility_examples(ksys, ell):
    c = conserved_set(ell, ksys)
    assert admissibility(c, 1.0, 1.44, ksys) is True
    assert admissibility(c, 1.0, 1.53, ksys) is False
    assert admissibility(c, 1.0, 0.81, ksys) is True


def test_transform_constants_direction(ksys, ell):
    c = conserved_set(ell, ksys)
    out = transform_constants_direction(c, np.array([0, 0.3, 0]))
    assert_allclose(out.L, [0, 0, 0.9], atol=1e-15)
    assert out.A_mag == pytest.approx(math.sqrt(0.5464))
    assert out.E == c.E
    assert_allclose(out.Theta, c.Theta, atol=1e-15)
    # identity and parallel parameter
    same = transform_constants_direction(c, np.zeros(3))
    assert_allclose(same.L, c.L)
    parallel = transform_constants_direction(c, 0.7 * np.asarray(c.Theta))
    assert_allclose(parallel.L, c.L, atol=1e-15)


def test_direction_transform_ell(ksys, ell_x):
    res = direction_lrl_transform(ell_x, ksys, (0, 0.3, 0))
    assert_allclose(res.out.r, [-0.25704, 0.96639, 0], atol=2e-5)
    assert_allclose(res.out.v, [-1.07378, 0.53572, 0], atol=2e-5)
    assert res.out.state.r_mag == pytest.approx(1.0, abs=1e-12)
    c_out = conserved_set(res.out.state, ksys)
    assert c_out.E == pytest.approx(-0.28, abs=1e-12)
    assert_allclose(np.cross(res.out.r, res.out.v), [0, 0, 0.9], atol=1e-12)
    assert res.admissible
    assert res.out.t == pytest.approx(res.delta_t)


def test_direction_transform_identity(ksys, ell_x):
    res = direction_lrl_transform(ell_x, ksys, (0, 0, 0))
    assert res.delta_t == 0.0
    assert_allclose(res.out.r, ell_x.r)
    assert res.admissible


def test_direction_transform_inadmissible(ksys, ell_x):
    with pytest.raises(InadmissibleTransformError) as err:
        direction_lrl_transform(ell_x, ksys, (0, 0, 0.2))
    assert err.value.root_argument == pytest.approx(1.44 - 1.48, abs=1e-12)


def test_transforms_below_the_collision_floor(ksys):
    # |r| = 1e-10 is above the origin floor and below the DP5 collision floor; a transform
    # integrates nothing, so its time shift must not refuse the state
    x = ExtendedState(0.0, PhaseState((1e-10, 0, 0), (1.2e5, 6e4, 0)))
    eps = np.array([1e-5, 0.0, 0.0])
    cases = (  # with the (r, v) of their closed forms, which the time shift leaves as they were
        (GeneratorKind.LRL, lrl_transform, (4.6851894997391796e-11, 8.834534472825026e-11),
         (76151.39006874606, 110457.98201396623)),
        (GeneratorKind.LRL_DIRECTION, direction_lrl_transform, (5.0410363836764404e-11, 8.636431680876678e-11),
         (79954.03713127329, 107737.42129089117)),
    )
    for kind, view, r_want, v_want in cases:
        out = view(x, ksys, eps)
        assert_allclose(out.out.r, [*r_want, 0.0], rtol=1e-13, atol=0.0)
        assert_allclose(out.out.v, [*v_want, 0.0], rtol=1e-13, atol=0.0)
        rk4_t = integrate_symmetry_flows(kind, 0.0, x.r[None], x.v[None], eps[None], 1.0, 4000)[0][0]
        assert out.delta_t == pytest.approx(rk4_t, rel=1e-9)
    assert out.admissible  # the direction row; the LRL row's E misfit, roundoff of |E| = 1e9, is not


def test_quadrature_examples(ksys, ell_x, circ):
    assert time_shift_quadrature(ell_x, ksys, (0, 0, 0), GeneratorKind.LRL_DIRECTION) == 0.0
    # from the periapsis of ell, L -> L + eps x Theta = 1.19 z keeps |r| = 1 and E = -0.28; the
    # new orbit is there outbound, the mean anomaly over the mean motion past its periapsis
    dt = time_shift_quadrature(ell_x, ksys, (0, 0.01, 0), GeneratorKind.LRL_DIRECTION)
    a, ecc = 1.0 / 0.56, math.sqrt(1.0 - 0.56 * 1.19**2)
    anomaly = math.acos((1.0 - 1.0 / a) / ecc)
    assert dt == pytest.approx((anomaly - ecc * math.sin(anomaly)) * a**1.5, rel=1e-12)
    with pytest.raises(DegenerateDirectionError):
        time_shift_quadrature(ExtendedState(0.0, circ), ksys, (0, 0.1, 0), GeneratorKind.LRL)


def test_transform_constants_lrl_parabolic(ksys, par):
    c = conserved_set(par, ksys)
    out = transform_constants_lrl(c, np.array([0, 0, 0.5]), ksys)
    assert_allclose(out.A, [1, 0, 0], atol=1e-15)
    assert_allclose(out.L, [0, 0.5, math.sqrt(2)], atol=1e-12)


def test_transform_constants_lrl_linearization(ksys, ell):
    c = conserved_set(ell, ksys)
    delta = 1e-6
    out = transform_constants_lrl(c, np.array([0, 0, delta]), ksys)
    assert_allclose((out.L - c.L) / delta, [0, 0.44, 0], atol=1e-5)


def test_transform_constants_lrl_isometry(ksys, ell):
    c = conserved_set(ell, ksys)
    rng = np.random.default_rng(8)
    for _ in range(10):
        eps = rng.normal(size=3) * 0.4
        out = transform_constants_lrl(c, eps, ksys)
        total = float(out.L @ out.L) + float(out.M @ out.M)
        assert total == pytest.approx(1 / 0.56, abs=1e-10)
        assert float(out.L @ out.M) == pytest.approx(0.0, abs=1e-10)


def test_lrl_transform_identity(ksys, ell_x):
    res = lrl_transform(ell_x, ksys, (0, 0, 0))
    assert res.delta_t == 0.0
    assert_allclose(res.out.r, ell_x.r)


def test_lrl_transform_periapsis_inadmissible(ksys, par_x, ell_x):
    # from an exact periapsis any eps along z grows |L*|, so the transformed
    # orbit cannot reach the invariant radius
    for state in (par_x, ell_x):
        with pytest.raises(InadmissibleTransformError):
            lrl_transform(state, ksys, (0, 0, 0.1))


def test_lrl_transform_off_apsis(ksys, par_x, ell_x):
    for state, eps in ((par_x, (0, 0, 0.1)), (ell_x, (0, 0, 0.1))):
        off = time_translate(state, 0.9, ksys)
        res = lrl_transform(off, ksys, eps)
        assert res.admissible
        assert res.diagnostics["reconstruction_residual"] <= 1e-10
        c_out = conserved_set(res.out.state, ksys)
        c_pred = transform_constants_lrl(conserved_set(off.state, ksys), np.asarray(eps), ksys)
        assert_allclose(c_out.L, c_pred.L, atol=1e-9)
        assert_allclose(c_out.A, c_pred.A, atol=1e-9)
        assert c_out.E == pytest.approx(c_pred.E, abs=1e-9)


def test_lrl_one_parameter_composition(ksys):
    pairs = sample_flow_pairs(5, seed=31, kind=GeneratorKind.LRL, branch="neg")
    for state, eps in pairs:
        x = ExtendedState(0.0, state)
        once = lrl_transform(x, ksys, eps).out
        part = lrl_transform(x, ksys, 0.4 * eps).out
        full = lrl_transform(part, ksys, 0.6 * eps).out
        assert abs(once.t - full.t) <= 1e-9
        assert_allclose(once.r, full.r, atol=1e-9)
        assert_allclose(once.v, full.v, atol=1e-9)


def test_twisted_rotation_params():
    # the rotation angle phi = sqrt(2|E|) |eps| of the E < 0 map is x = sqrt|z|, z = 2E|eps|^2
    phi = math.sqrt(0.56) * 0.1
    c, sh = transforms._stumpff(np.array([2.0 * -0.28 * 0.1**2]))
    assert c[0] == pytest.approx(math.cos(phi) - 1.0, rel=1e-14)
    assert sh[0] == pytest.approx(math.sin(phi) / phi, rel=1e-14)


def rodrigues(x, axis, angle):
    return math.cos(angle) * x + math.sin(angle) * np.cross(axis, x) + (1 - math.cos(angle)) * (axis @ x) * axis


def lrl_map_by_branch(e, l_vec, a_vec, eps, parabolic):
    """(L*, A*) of the LRL group at s = 1, one energy branch at a time.

    E < 0: L + M and L - M rotate by +phi and -phi about eps-hat, with
    M = A/sqrt(2|E|) and phi = sqrt(2|E|) |eps|.  E > 0: the parts along
    eps-hat stay, the rest mixes as L -> cosh L + sinh eps-hat x M and
    M -> cosh M - sinh eps-hat x L.  E = 0: A stays, L -> L + eps x A.
    """
    if parabolic:
        return l_vec + np.cross(eps, a_vec), a_vec
    scale = math.sqrt(2.0 * abs(e))
    m_vec = a_vec / scale
    mag = math.sqrt(eps @ eps)
    n, phi = eps / mag, scale * mag
    if e < 0:
        up, um = rodrigues(l_vec + m_vec, n, phi), rodrigues(l_vec - m_vec, n, -phi)
        l_star, m_star = 0.5 * (up + um), 0.5 * (up - um)
    else:
        ch, sh = math.cosh(phi), math.sinh(phi)
        l_par, m_par = (n @ l_vec) * n, (n @ m_vec) * n
        l_star = l_par + ch * (l_vec - l_par) + sh * np.cross(n, m_vec)
        m_star = m_par + ch * (m_vec - m_par) - sh * np.cross(n, l_vec)
    return l_star, scale * m_star


def lrl_map_error():
    """Worst relative gap between the batched LRL map and `lrl_map_by_branch` over
    elliptic, hyperbolic and parabolic states, with |2E||eps|^2 from 1e-14 to 1."""
    rng = np.random.default_rng(5)
    r, v = sample_states(40, seed=3)
    rp, vp = sample_parabolic_states(10, seed=4)
    r, v = np.concatenate([r, rp]), np.concatenate([v, vp])
    vals = fields.values(r, v, 1.0)
    e = vals["E"]
    parabolic = np.abs(e) <= 1e-12
    assert np.count_nonzero(e < -1e-3) and np.count_nonzero(e > 1e-3) and np.count_nonzero(parabolic)
    zs = np.logspace(-14, 0, len(r))
    # |eps| from |2E||eps|^2 = z, or at random where E = 0
    mags = np.sqrt(zs / np.where(parabolic, 1.0, 2.0 * np.abs(e)))
    mags[parabolic] = rng.uniform(0.05, 1.0, np.count_nonzero(parabolic))
    direction = rng.normal(size=(len(r), 3))
    eps = direction / np.linalg.norm(direction, axis=1)[:, None] * mags[:, None]
    table = transforms._ray(GeneratorKind.LRL, e, vals["L"], vals["A"], eps, parabolic)
    l_star, a_star, _ = transforms._ray_constants(GeneratorKind.LRL, table, np.ones(len(r)), 1.0)
    worst = 0.0
    for i in range(len(r)):
        l_ref, a_ref = lrl_map_by_branch(e[i], vals["L"][i], vals["A"][i], eps[i], parabolic[i])
        scale = max(np.max(np.abs(l_ref)), np.max(np.abs(a_ref)))
        worst = max(worst, np.max(np.abs(l_star[i] - l_ref)) / scale, np.max(np.abs(a_star[i] - a_ref)) / scale)
    return worst


def test_lrl_map_is_one_formula_for_every_energy():
    assert lrl_map_error() <= 1e-14


def test_lrl_map_check_catches_a_scaled_sinc(monkeypatch):
    stumpff = transforms._stumpff

    def scaled(z):
        c, sh = stumpff(z)
        return c, sh * (1.0 + 1e-9)

    monkeypatch.setattr(transforms, "_stumpff", scaled)
    assert lrl_map_error() > 1e-14


@pytest.mark.parametrize(
    "kind, branch",
    [(GeneratorKind.LRL_DIRECTION, "any"), (GeneratorKind.LRL, "neg"), (GeneratorKind.LRL, "pos"),
     (GeneratorKind.LRL, "zero")],
)
def test_transforms_map_a_solution_onto_a_solution(ksys, kind, branch):
    # x1 is x0 a time 0.1 later on its DP5 orbit.  A symmetry puts T(x1) on the solution
    # through T(x0), reached by integrating over t(T(x1)) - t(T(x0)).  When t moved by the
    # ray integral of -(r x L).eps, these rows missed by up to 0.77.
    view = direction_lrl_transform if kind is GeneratorKind.LRL_DIRECTION else lrl_transform
    checked, worst = 0, 0.0
    for seed in (1, 2):
        for state, eps in sample_flow_pairs(10, seed, kind, branch=branch):
            x0 = ExtendedState(0.0, state)
            x1 = integrate_orbit(x0, ksys, 0.1).samples[-1]
            try:
                image1 = view(x1, ksys, eps).out
            except InadmissibleTransformError:  # the transformed orbit does not reach |r(x1)|
                continue
            image0 = view(x0, ksys, eps).out
            end = integrate_orbit(image0, ksys, image1.t - image0.t).samples[-1]
            worst = max(worst, np.max(np.abs(end.r - image1.r)), np.max(np.abs(end.v - image1.v)))
            checked += 1
    assert checked >= 15
    assert worst <= 1e-9


# (seed, row) of the pos-branch pair sets of transforms_suite whose time shift, when it
# was a Simpson quadrature, needed 8192 panels
SLOW_POS_ROWS = ((237, 28), (262, 38), (311, 45), (315, 11), (332, 36), (485, 8))


def test_slowly_converging_time_shifts_are_admissible():
    # these rows and row 0 of the zero-branch set of seed 1736 once stopped at 4096 panels
    # and were refused although their time shift was right; the closed form has no panels
    lrl = GeneratorKind.LRL
    pairs = [sample_flow_pairs(2, 1736, lrl, "zero")[0]]
    pairs += [sample_flow_pairs(50, seed + 12, lrl, "pos")[row] for seed, row in SLOW_POS_ROWS]
    r, v, eps = (np.array(x) for x in zip(*((state.r, state.v, e) for state, e in pairs)))
    out = transform_batch(lrl, np.zeros(len(r)), r, v, eps, 1.0)
    assert out.admissible.all()
    assert set(out.diagnostics) == {"r_invariance", "E_invariance", "reconstruction_residual"}
    # RK4 integrates dt/ds and shares no formula with the time since periapsis.  Its own t
    # error on these rows is up to 4e-8 at 10^4 steps and falls 16-fold a halving, so its
    # Richardson extrapolation from 10^4 and 2 10^4 steps is the reference.
    coarse, fine = (integrate_symmetry_flows(lrl, 0.0, r, v, eps, 1.0, n)[0] for n in (10_000, 20_000))
    assert np.max(np.abs(out.delta_t - (fine + (fine - coarse) / 15.0))) <= 1e-9


@pytest.mark.parametrize("at", range(3))
def test_worst_and_gaps_keep_a_nan_in_any_position(at):
    # Python's max never replaces a number with NaN, so a NaN past the first
    # argument used to read as a pass
    def with_nan(parts):
        parts = [np.array(x, dtype=float) for x in parts]
        parts[at].flat[-1] = np.nan
        return parts

    diffs = [np.zeros(2), np.full(3, -2.0), np.ones((2, 3))]
    assert _worst(*diffs) == 2.0
    assert math.isnan(_worst(*with_nan(diffs)))
    a, b = [np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3))], [np.ones(2), np.full((2, 3), 2.0), np.ones((2, 3))]
    assert gaps(a, b) == (1.0, 2.0)
    for gap in (gaps(with_nan(a), b), gaps(a, with_nan(b))):
        assert math.isnan(gap[0] if at == 0 else gap[1])
