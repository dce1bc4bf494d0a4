import numpy as np
import pytest

from keplersym import KeplerSystem, UsageError, conserved_set
from keplersym import fields, sampling
from keplersym.generators import GeneratorKind
from keplersym.sampling import (
    sample_flow_pairs,
    sample_parabolic_states,
    sample_states,
)


def test_sampler_deterministic():
    r1, v1 = sample_states(50, seed=9)
    r2, v2 = sample_states(50, seed=9)
    assert np.array_equal(r1, r2) and np.array_equal(v1, v2)
    r3, _ = sample_states(50, seed=10)
    assert not np.array_equal(r1, r3)


def test_sampler_constraints():
    r, v = sample_states(300, seed=1)
    r_mag = np.linalg.norm(r, axis=1)
    v_mag = np.linalg.norm(v, axis=1)
    assert np.all((r_mag >= 0.5) & (r_mag <= 2.0))
    assert np.all((v_mag >= 0.3) & (v_mag <= 2.0))
    vals = fields.values(r, v, 1.0)
    assert np.all(vals["L_mag"] >= 0.1)
    assert np.all(vals["A_mag"] >= 0.05)
    # both energy signs are represented
    assert np.any(vals["E"] > 0) and np.any(vals["E"] < 0)


def test_parabolic_states_have_zero_energy():
    r, v = sample_parabolic_states(60, seed=2)
    e = fields.values(r, v, 1.0)["E"]
    assert float(np.max(np.abs(e))) <= 1e-14


@pytest.mark.parametrize("branch,sign", [("neg", -1), ("pos", 1)])
def test_flow_pair_branches(branch, sign):
    sys = KeplerSystem()
    pairs = sample_flow_pairs(10, seed=6, kind=GeneratorKind.LRL, branch=branch)
    assert len(pairs) == 10
    for state, eps in pairs:
        c = conserved_set(state, sys)
        assert np.sign(c.E) == sign
        assert 0.05 <= float(np.linalg.norm(eps)) <= 0.35
        # not at an apsis
        assert abs(float(state.r @ state.v)) > 1e-3


def test_flow_pairs_unknown_branch_is_usage_error():
    with pytest.raises(UsageError):
        sample_flow_pairs(3, seed=1, kind=GeneratorKind.LRL, branch="bogus")


def test_flow_pairs_form_conserved_set_once_per_state(monkeypatch):
    # every candidate eps of a state reads the one conserved_set of that state
    calls = []
    conserved = sampling.conserved_set
    monkeypatch.setattr(sampling, "conserved_set", lambda state, sys: calls.append(state) or conserved(state, sys))
    pairs = sample_flow_pairs(50, seed=1, kind=GeneratorKind.LRL, branch="pos")
    tried = {(state.r.tobytes(), state.v.tobytes()) for state in calls}
    assert len(pairs) == 50 and len(calls) == len(tried)
    assert {id(state) for state, _ in pairs} <= {id(state) for state in calls}
