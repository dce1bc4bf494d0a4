import numpy as np
import pytest
from numpy.testing import assert_allclose

from keplersym import (
    DegenerateDirectionError,
    DegenerateStateError,
    GeneratorId,
    PhaseState,
    RadialStateError,
    conserved_set,
    poisson_bracket,
    quadratic_invariants,
    structure_table,
    symmetry_action,
)
from keplersym.brackets import constant_function
from keplersym.sampling import sample_states


def test_bracket_examples(ksys, ell):
    assert poisson_bracket("E", "L3", ell, ksys) == pytest.approx(0.0, abs=1e-10)
    assert poisson_bracket("L1", "L2", ell, ksys) == pytest.approx(1.2)
    # {A1, A2} = -2 E L3 = -2 (-0.28) (1.2)
    assert poisson_bracket("A1", "A2", ell, ksys) == pytest.approx(0.672)


def test_bracket_callable_fd_path(ksys, ell):
    e_fn = constant_function("E", ksys)
    l2_fn = constant_function("L2", ksys)
    analytic = poisson_bracket("L1", "L2", ell, ksys)
    fd_mixed = poisson_bracket("L1", l2_fn, ell, ksys)
    fd_both = poisson_bracket(constant_function("L1", ksys), l2_fn, ell, ksys)
    assert fd_mixed == pytest.approx(analytic, abs=1e-6)
    assert fd_both == pytest.approx(analytic, abs=1e-6)
    assert poisson_bracket(e_fn, "L3", ell, ksys) == pytest.approx(0.0, abs=1e-6)


def test_structure_table_ell(ksys, ell):
    report = structure_table(ell, ksys)
    assert report.max_residual <= 1e-10
    assert len(report.entries) == 78  # 13 labels, all unordered pairs


def test_structure_table_seed42(ksys):
    r, v = sample_states(1, seed=42)
    report = structure_table(PhaseState(r[0], v[0]), ksys)
    assert report.max_residual <= 1e-10


def test_structure_table_fd_column(ksys, ell):
    report = structure_table(ell, ksys, fd_check=True)
    assert report.max_fd_residual is not None
    assert report.max_fd_residual <= 1e-5
    assert any(e.fd_residual is not None for e in report.entries)


def test_structure_table_degenerate(ksys, circ):
    with pytest.raises(DegenerateDirectionError):
        structure_table(circ, ksys)
    with pytest.raises(RadialStateError):
        structure_table(PhaseState((1, 0, 0), (0.5, 0, 0)), ksys)


def test_symmetry_action_examples(ksys, ell):
    out = symmetry_action(GeneratorId.angular_momentum(3), "Theta", ell, ksys)
    assert_allclose(out, [0, 1, 0], atol=1e-14)
    out = symmetry_action(GeneratorId.lrl(3), "A", ell, ksys)
    assert_allclose(out, [0, 0, 0], atol=1e-14)
    for target in ("E", "L", "A", "Theta"):
        out = symmetry_action(GeneratorId.energy(), target, ell, ksys)
        assert np.max(np.abs(np.atleast_1d(out))) == pytest.approx(0.0, abs=1e-14)


def test_symmetry_action_rotation_on_l(ksys, ell):
    # {L_i, L_1} = eps_i1k L_k = (e_1 x L)_i
    out = symmetry_action(GeneratorId.angular_momentum(1), "L", ell, ksys)
    assert_allclose(out, np.cross([1, 0, 0], [0, 0, 1.2]), atol=1e-14)


def test_quadratic_invariants(ksys, ell, hyp, par):
    first, second = quadratic_invariants(conserved_set(ell, ksys))
    assert first == pytest.approx(0.0784)
    assert second == pytest.approx(1 / 0.56)
    _, second_hyp = quadratic_invariants(conserved_set(hyp, ksys))
    assert second_hyp == pytest.approx(0.5)
    with pytest.raises(DegenerateStateError):
        quadratic_invariants(conserved_set(par, ksys))


def test_energy_primitive_brackets_vanish(ksys):
    # The stable evaluation of M and Theta rows drops their grad-E pieces on
    # the grounds that {X, E} is identically zero for every base field X; this
    # backs that claim in floating point at raw-gradient conditioning.
    from keplersym import fields

    r, v = sample_states(200, seed=14)
    grads = fields.gradients(r, v, 1.0)
    for base in ("E", "L1", "L2", "L3", "A1", "A2", "A3", "_LSQ"):
        res = fields._raw_bracket(grads, base, "E")
        assert float(np.max(np.abs(res))) <= 1e-13


def test_quadratic_first_invariant_exact(ksys):
    r, v = sample_states(20, seed=3)
    for ri, vi in zip(r, v):
        c = conserved_set(PhaseState(ri, vi), ksys)
        if c.M is None:
            continue
        first, _ = quadratic_invariants(c)
        assert first == c.E**2


def test_symmetry_action_fd_meets_its_gate():
    # seed 77 holds a state whose central-difference truncation exceeded the
    # 1e-5 gate at the former step h = 1e-6
    from keplersym.verify import run_suites

    results = {r.name: r for r in run_suites("algebra", 100, 77)}
    assert results["algebra.symmetry_action_fd"].passed, results["algebra.symmetry_action_fd"].line()
    assert all(r.passed for r in results.values())
