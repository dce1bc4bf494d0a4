"""The one table pass of the algebra suite against the per-property computation it replaced.

`verify.algebra_suite` forms the values, gradients, expected and bracket tables
of each `fields.FD_BATCH` chunk once and reads structure_analytic,
structure_fd, noether_characteristics and antisymmetry from them.  Its worst
values must equal, bit for bit, those of the reference below, which computes
each property on its own: `brackets.structure_residuals` for the structure
rows and whole-array gradients for the Noether and antisymmetry rows.
"""

import tracemalloc

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


def _traced_peak(samples: int) -> int:
    tracemalloc.start()
    try:
        algebra_suite(samples, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pass_memory_holds_one_chunk():
    # the tables of one chunk are held at a time, so four times the states
    # adds only the sampled states themselves
    assert _traced_peak(40_000) < 1.5 * _traced_peak(10_000)


def test_suite_memory_at_1e5_states_holds_one_chunk():
    # the samplers test their candidates one chunk at a time too, so ten times the
    # states still adds only the sampled states themselves
    assert _traced_peak(100_000) < 1.5 * _traced_peak(10_000)


def _fd_reference(r: np.ndarray, v: np.ndarray, include_m: bool) -> tuple[np.ndarray, np.ndarray]:
    """(grad_r, grad_v) as (N, L, 3) tensors, with the perturbed tables stacked from every
    quantity of `fields.values` on all rows at once."""
    labels = fields.table_labels(include_m)

    def table(r_, v_):
        vals = fields.values(r_.reshape(-1, 3), v_.reshape(-1, 3), KAPPA)
        columns = [vals[lab[:-1]][:, int(lab[-1]) - 1] if lab != "E" else vals["E"] for lab in labels]
        return np.stack(columns, axis=-1).reshape(r_.shape[:-1] + (-1,))

    d_r = central_differences(lambda rs: table(rs, np.broadcast_to(v, rs.shape)), r)
    d_v = central_differences(lambda vs: table(np.broadcast_to(r, vs.shape), vs), v)
    return d_r.transpose(1, 2, 0), d_v.transpose(1, 2, 0)


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
