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
from test_cli import deadline


@pytest.mark.parametrize("kappa", [0.5, 0.9, 2.0])
def test_canonical_states_keep_their_orbits_at_any_kappa(kappa):
    # mechanical similarity, (r, v) -> (r, sqrt(kappa) v): E -> kappa E, the same eccentricity
    for name, state in sampling.canonical_states(kappa).items():
        at_one = conserved_set(sampling.canonical_states()[name], KeplerSystem())
        here = conserved_set(state, KeplerSystem(kappa))
        assert here.orbit_class is at_one.orbit_class, name
        assert here.E == pytest.approx(kappa * at_one.E, abs=1e-15)
        assert here.eccentricity == pytest.approx(at_one.eccentricity, abs=1e-12)
    for at_one, default in zip(sampling.canonical_states(1.0).values(), sampling.canonical_states().values()):
        assert at_one.v.tobytes() == default.v.tobytes()


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


def _all_at_once(n: int, seed: int, kappa: float, parabolic: bool) -> tuple[np.ndarray, np.ndarray]:
    """The samplers as they were before they tested candidates chunk by chunk: each round's
    candidates normalised and scaled as new arrays, tested by one `fields.values` call on all
    of them, and the kept rows of every round joined by np.concatenate."""
    rng = np.random.default_rng(seed)

    def unit(m):
        raw = rng.normal(size=(m, 3))
        return raw / np.linalg.norm(raw, axis=1)[:, None]

    r_out, v_out = [], []
    have = 0
    while have < n:
        m = max(2 * (n - have), 16)
        r = unit(m) * rng.uniform(*sampling.R_RANGE, size=m)[:, None]
        if parabolic:
            v = unit(m) * np.sqrt(2.0 * kappa / np.linalg.norm(r, axis=1))[:, None]
        else:
            v = unit(m) * rng.uniform(*sampling.V_RANGE, size=m)[:, None]
        vals = fields.values(r, v, kappa)
        keep = vals["L_mag"] >= sampling.MIN_L
        if not parabolic:
            keep &= vals["A_mag"] >= sampling.MIN_A_FACTOR * kappa
        r_out.append(r[keep])
        v_out.append(v[keep])
        have += int(np.count_nonzero(keep))
    return np.concatenate(r_out)[:n], np.concatenate(v_out)[:n]


def _same_bits(got, want) -> bool:
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


SAMPLERS = [(sample_states, False), (sample_parabolic_states, True)]


@pytest.mark.parametrize("batch", [None, 256], ids=["fd_batch", "batch256"])
@pytest.mark.parametrize("seed", [1, 7, 12])
def test_samplers_match_the_all_at_once_reference(seed, batch, monkeypatch):
    # batch 256 puts chunk boundaries inside every size but the first two
    if batch is not None:
        monkeypatch.setattr(fields, "FD_BATCH", batch)
    for sampler, parabolic in SAMPLERS:
        for n in (1, 5, 2047, 2049, 10_000):
            assert _same_bits(sampler(n, seed), _all_at_once(n, seed, 1.0, parabolic)), (sampler.__name__, n)


@pytest.mark.parametrize("batch", [None, 256], ids=["fd_batch", "batch256"])
def test_samplers_match_the_reference_over_several_rounds(batch, monkeypatch):
    # kappa = 0.006 puts |L| of most parabolic candidates below MIN_L, and a MIN_L of
    # 1.2 does the same for sample_states, so that the first round falls short
    if batch is not None:
        monkeypatch.setattr(fields, "FD_BATCH", batch)
    sizes = []
    unit_vectors = sampling._unit_vectors
    monkeypatch.setattr(sampling, "_unit_vectors", lambda rng, m: sizes.append(m) or unit_vectors(rng, m))
    got = sample_parabolic_states(2049, 12, kappa=0.006)
    # two unit-vector draws, for r and for v, per round
    assert len(sizes) >= 4 and len(sizes) % 2 == 0
    assert _same_bits(got, _all_at_once(2049, 12, 0.006, True))
    monkeypatch.setattr(sampling, "MIN_L", 1.2)
    sizes.clear()
    got = sample_states(2049, 7)
    assert len(sizes) >= 4 and len(sizes) % 2 == 0
    assert _same_bits(got, _all_at_once(2049, 7, 1.0, False))


@pytest.mark.parametrize("sampler", [sample_states, sample_parabolic_states])
def test_sampler_counts_of_zero_or_less(sampler):
    r, v = sampler(0, 1)
    assert r.shape == (0, 3) and v.shape == (0, 3)
    with pytest.raises(UsageError, match="-1"):
        sampler(-1, 1)


def test_parabolic_sampler_gives_up_when_no_candidate_passes():
    # at kappa = 1e-4 every parabolic candidate has |L| <= 0.02 < MIN_L, and the
    # sampler used to draw round after round forever
    with deadline(1), pytest.raises(UsageError, match="found 0 of 10 admissible states at kappa = 0.0001"):
        sample_parabolic_states(10, 1, kappa=1e-4)
