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
from keplersym.flow import RK_STEPS, gaps, integrate_symmetry_flows
from keplersym.generators import GeneratorKind
from keplersym.sampling import sample_flow_pairs, sample_parabolic_states, sample_states
from keplersym.verify import _worst, transforms_suite
from test_cli import from_one_panel


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


def test_quadrature_examples(ksys, ell_x, circ):
    assert time_shift_quadrature(ell_x, ksys, (0, 0, 0), GeneratorKind.LRL_DIRECTION) == 0.0
    dt = time_shift_quadrature(ell_x, ksys, (0, 0.01, 0), GeneratorKind.LRL_DIRECTION)
    assert dt == pytest.approx(0.012, abs=1e-3)
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


def test_unconverged_quadrature_fails_its_property(monkeypatch):
    # from one panel, six doublings leave time shifts off by up to about 1e-8;
    # equivariance compares two transforms with the same quadrature error, so
    # only the quadrature's own last difference can fail it
    from_one_panel(monkeypatch)
    results = {r.name: r for r in transforms_suite(20, 1, rk_steps=50)}
    res = results["transforms.direction_equivariance"]
    assert res.worst <= res.tol
    assert not res.passed and "did not converge" in res.note
    # the exact invariants do not read the time shift
    assert results["transforms.direction_exact"].passed


# (seed, row) of the pos-branch pair sets of transforms_suite whose time shift
# needs 8192 panels
SLOW_POS_ROWS = ((237, 28), (262, 38), (311, 45), (315, 11), (332, 36), (485, 8))


def test_slowly_converging_time_shifts_are_admissible():
    # these rows and row 0 of the zero-branch set of seed 1736 stopped at 4096 panels
    # with a last difference of 1.3e-10 to 1.25e-9, and were refused although their
    # time shift was right
    lrl = GeneratorKind.LRL
    pairs = [sample_flow_pairs(2, 1736, lrl, "zero")[0]]
    pairs += [sample_flow_pairs(50, seed + 12, lrl, "pos")[row] for seed, row in SLOW_POS_ROWS]
    r, v, eps = (np.array(x) for x in zip(*((state.r, state.v, e) for state, e in pairs)))
    out = transform_batch(lrl, np.zeros(len(r)), r, v, eps, 1.0)
    assert out.admissible.all()
    assert (out.diagnostics["quadrature_panels"] == 8192).all()
    assert (out.diagnostics["quadrature_difference"] <= transforms.QUADRATURE_TOL).all()
    # RK4 integrates the same dt/ds; at 2000 steps its own t error on these rows is up to 3.8e-9
    t_flow = integrate_symmetry_flows(lrl, 0.0, r, v, eps, 1.0, RK_STEPS)[0]
    assert np.max(np.abs(out.delta_t - t_flow)) <= 1e-9


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
