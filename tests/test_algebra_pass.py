"""The one table pass of the algebra suite against the per-property computation it replaced.

`verify.algebra_suite` forms the values, gradients, expected and bracket tables
of each `fields.FD_BATCH` chunk once and reads structure_analytic,
structure_fd, noether_characteristics and antisymmetry from them.  Its worst
values must equal, bit for bit, those of the reference below, which computes
each property on its own: `brackets.structure_residuals` for the structure
rows and whole-array gradients for the Noether and antisymmetry rows.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from keplersym import fields
from keplersym.core import central_differences
from keplersym.brackets import FD_M_FLOOR, structure_residuals
from keplersym.sampling import sample_parabolic_states, sample_states
from keplersym.verify import DEFAULT_TOLERANCES, algebra_suite

KAPPA = 1.0
PASS_PROPERTIES = ("structure_analytic", "structure_fd", "noether_characteristics", "antisymmetry")


def _reference(samples: int, seed: int) -> dict[str, tuple[float, int]]:
    """(worst, count) of each pass property, each computed on its own."""
    n_par = max(samples // 10, 1)
    n_rand = max(samples - n_par, 1)
    r, v = sample_states(n_rand, seed, KAPPA)
    rp, vp = sample_parabolic_states(n_par, seed + 1, KAPPA)

    analytic = max(
        float(np.max(structure_residuals(r, v, KAPPA, include_m=True))),
        float(np.max(structure_residuals(rp, vp, KAPPA, include_m=False))),
    )
    big_e = np.abs(fields.values(r, v, KAPPA)["E"]) >= FD_M_FLOOR
    numeric = [float(np.max(structure_residuals(rp, vp, KAPPA, use_fd=True, include_m=False)))]
    for rows, include_m in ((big_e, True), (~big_e, False)):
        if np.any(rows):
            numeric.append(float(np.max(structure_residuals(r[rows], v[rows], KAPPA, use_fd=True, include_m=include_m))))

    r_all, v_all = np.concatenate([r, rp]), np.concatenate([v, vp])
    exact = fields.gradients(r_all, v_all, KAPPA, include_m=False)
    fd = fields.fd_gradients(r_all, v_all, KAPPA, include_m=False)
    noether = max(float(np.max(np.abs(exact[lab][1] - fd[lab][1]))) for lab in fields.SCALAR_LABELS)

    table = fields.bracket_table(fields.gradients(r, v, KAPPA))
    antisymmetry = float(np.max(np.abs(table + table.transpose(0, 2, 1))))
    return {
        "structure_analytic": (analytic, samples),
        "structure_fd": (max(numeric), samples),
        "noether_characteristics": (noether, samples),
        "antisymmetry": (antisymmetry, n_rand),
    }


@pytest.mark.parametrize("batch", [None, 256], ids=["fd_batch", "batch256"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pass_matches_per_property_reference(seed, batch, monkeypatch):
    # batch 256 puts chunk boundaries inside the 2000 states
    if batch is not None:
        monkeypatch.setattr(fields, "FD_BATCH", batch)
    results = {p.name.split(".", 1)[1]: p for p in algebra_suite(2000, seed)}
    gate = {
        "structure_analytic": "bracket_analytic",
        "structure_fd": "bracket_fd",
        "noether_characteristics": "noether",
        "antisymmetry": "antisymmetry",
    }
    for name, (worst, count) in _reference(2000, seed).items():
        got = results[name]
        assert repr(got.worst) == repr(worst), name
        assert got.count == count, name
        assert got.passed == (worst <= DEFAULT_TOLERANCES[gate[name]]), name
    # the pass's time is the first property's; the others are read from it
    assert results["structure_analytic"].seconds > 0.0
    for name in PASS_PROPERTIES[1:]:
        assert results[name].seconds == 0.0
        assert results[name].note == "read in the structure_analytic pass"


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gradients_are_quiet_at_exactly_parabolic_rows():
    # E = 0 to the bit at r = (2, 0, 0), v = (0, 1, 0), where M = A/sqrt(2|E|) has no value
    r, v = sample_states(20, 6, KAPPA)
    rp, vp = sample_parabolic_states(20, 7, KAPPA)
    r = np.concatenate([r, [[2.0, 0.0, 0.0], [0.0, 0.0, -2.0]], rp])
    v = np.concatenate([v, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], vp])
    zero = fields.values(r, v, KAPPA)["E"] == 0.0
    assert zero[20:22].all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with_m = fields.gradients(r, v, KAPPA)
    without_m = fields.gradients(r, v, KAPPA, include_m=False)
    for lab in fields.SCALAR_LABELS:
        for side in (0, 1):
            assert _same_bits(with_m[lab][side], without_m[lab][side]), lab
    for lab in fields.M_LABELS:
        for side in (0, 1):
            assert np.array_equal(~np.isfinite(with_m[lab][side]).all(axis=1), zero), lab


def test_gradients_do_not_depend_on_m_rows_or_chunk():
    r, v = sample_states(fields.FD_BATCH + 100, 4, KAPPA)
    lo, cut, hi = fields.FD_BATCH - 100, fields.FD_BATCH, fields.FD_BATCH + 100
    for gradients in (fields.gradients, fields.fd_gradients):
        # the M rows add labels and change none of the others
        with_m = gradients(r, v, KAPPA, include_m=True)
        without_m = gradients(r, v, KAPPA, include_m=False)
        for lab in fields.SCALAR_LABELS:
            for side in (0, 1):
                assert _same_bits(with_m[lab][side], without_m[lab][side]), (gradients.__name__, lab)
        # a batch across an FD_BATCH boundary, against the same rows split there
        whole = gradients(r[lo:hi], v[lo:hi], KAPPA)
        left, right = gradients(r[lo:cut], v[lo:cut], KAPPA), gradients(r[cut:hi], v[cut:hi], KAPPA)
        for lab in fields.table_labels():
            for side in (0, 1):
                split = np.concatenate([left[lab][side], right[lab][side]])
                assert _same_bits(whole[lab][side], split), (gradients.__name__, lab)
    whole = fields.values(r[lo:hi], v[lo:hi], KAPPA)["E"]
    split = np.concatenate([fields.values(r[a:b], v[a:b], KAPPA)["E"] for a, b in ((lo, cut), (cut, hi))])
    assert _same_bits(whole, split)
    # the bracket and expected tables: a row of a batch is its N=1 call, which numpy may sum
    # in another order (a lone row's einsum does), and a batch across the boundary its split
    for include_m in (True, False):
        tables = {
            "bracket_table": lambda a, b: fields.bracket_table(fields.gradients(r[a:b], v[a:b], KAPPA, include_m)),
            "fd bracket_table": lambda a, b: fields.bracket_table(fields.fd_gradients(r[a:b], v[a:b], KAPPA, include_m)),
            "expected_table": lambda a, b: fields.expected_table(fields.values(r[a:b], v[a:b], KAPPA), include_m),
        }
        for name, table in tables.items():
            whole = table(lo, hi)
            assert _same_bits(whole, np.concatenate([table(lo, cut), table(cut, hi)])), (name, include_m)
            for i in (lo, lo + 1, cut - 1, cut, hi - 1):
                assert _same_bits(whole[i - lo], table(i, i + 1)[0]), (name, include_m, i)


def test_gradients_take_e_a_and_a_mag_from_the_values_writer():
    # the Theta rows' chain-rule coefficient a = 1/|A| is 1/|A| of `values`, bit for bit, and the
    # Theta rows of a batch are those of its chunks, a lone row's among them
    r, v = sample_states(20_000, 1, KAPPA)
    grads = fields.gradients(r, v, KAPPA)
    assert _same_bits(grads["_coef"][0], 1.0 / fields.values(r, v, KAPPA)["A_mag"])
    cuts = (0, 1, 3, 700, fields.FD_BATCH, 9001, len(r))
    chunks = [fields.gradients(r[a:b], v[a:b], KAPPA) for a, b in zip(cuts, cuts[1:])]
    for lab in ("Theta1", "Theta2", "Theta3"):
        for side in (0, 1):
            assert _same_bits(grads[lab][side], np.concatenate([c[lab][side] for c in chunks])), lab


def _traced_peak(samples: int) -> int:
    tracemalloc.start()
    try:
        algebra_suite(samples, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# What one more sampled state may add to the suite's traced peak: its r and v (two rows of
# three floats) and at most two float columns more, such as its E.  Held to a difference of
# peaks, since the chunk's tables make up most of either peak.
STATE_BYTES = (2 * 3 + 2) * 8


def test_pass_memory_holds_one_chunk():
    # the tables of one chunk are held at a time, so four times the states
    # adds only the sampled states themselves
    assert _traced_peak(40_000) - _traced_peak(10_000) < 30_000 * STATE_BYTES


def test_suite_memory_at_1e5_states_holds_one_chunk():
    # the samplers test their candidates one chunk at a time too, so ten times the
    # states still adds only the sampled states themselves
    assert _traced_peak(100_000) - _traced_peak(10_000) < 90_000 * STATE_BYTES


def _fd_reference(r: np.ndarray, v: np.ndarray, include_m: bool) -> tuple[np.ndarray, np.ndarray]:
    """(grad_r, grad_v) as (N, L, 3) tensors, with the perturbed tables stacked from every
    quantity of `fields.values` on all rows at once."""
    labels = fields.table_labels(include_m)

    def table(r_, v_):
        vals = fields.values(r_.reshape(3, -1).T, v_.reshape(3, -1).T, KAPPA)
        columns = [vals[lab[:-1]][:, int(lab[-1]) - 1] if lab != "E" else vals["E"] for lab in labels]
        return np.stack(columns).reshape((-1,) + r_.shape[1:])

    d_r = central_differences(lambda rs: table(rs, np.broadcast_to(v.T[:, None], rs.shape)), r.T)
    d_v = central_differences(lambda vs: table(np.broadcast_to(r.T[:, None], vs.shape), vs), v.T)
    return d_r.transpose(2, 0, 1), d_v.transpose(2, 0, 1)


@pytest.mark.parametrize("include_m", [True, False])
def test_fd_gradients_match_a_reference_through_values(include_m):
    r, v = sample_states(300, 5, KAPPA)
    rp, vp = sample_parabolic_states(40, 6, KAPPA)
    for rows in (slice(0, 1), slice(0, 2), slice(None)):
        for rs, vs in ((r, v), (rp, vp)):
            got = fields.fd_gradients(rs[rows], vs[rows], KAPPA, include_m)["_base"]
            want = _fd_reference(rs[rows], vs[rows], include_m)
            for side in (0, 1):
                assert _same_bits(got[side], want[side]), side
