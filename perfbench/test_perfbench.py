"""Tests of the benchmark itself: its oracles on closed-form cases, its inputs,
and its short mode end to end.  Run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import state_requests

HERE = Path(__file__).resolve().parent


def test_circular_orbit_returns_after_two_pi():
    r0, v0 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    r, v = oracles.kepler_propagate(r0, v0, 2.0 * math.pi)
    assert np.max(np.abs(r - r0)) < 1e-12 and np.max(np.abs(v - v0)) < 1e-12
    r, v = oracles.kepler_propagate(r0, v0, 0.5 * math.pi)
    assert np.max(np.abs(r - [0.0, 1.0, 0.0])) < 1e-12


def test_elliptic_orbit_closes_after_its_period():
    r0, v0 = np.array([0.9, 0.2, -0.1]), np.array([0.3, 1.1, 0.2])
    e, _, _ = oracles.constants(r0, v0)
    period = oracles.elliptic_period(e)
    assert period == pytest.approx(2.0 * math.pi * (-2.0 * e) ** -1.5, rel=1e-15)
    r, v = oracles.kepler_propagate(r0, v0, period)
    assert np.max(np.abs(r - r0)) < 1e-11 and np.max(np.abs(v - v0)) < 1e-11
    r, v = oracles.kepler_propagate(r0, v0, -3.0 * period)
    assert np.max(np.abs(r - r0)) < 1e-10


def _rk4(r, v, t, steps):
    h = t / steps
    y = np.concatenate([r, v])

    def f(y):
        return np.concatenate([y[3:], -y[:3] / np.linalg.norm(y[:3]) ** 3])

    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[:3], y[3:]


@pytest.mark.parametrize("speed_sq,dt", [(1.2, 1.7), (2.0, -1.3), (3.1, 2.0), (1.6, -2.5)])
def test_kepler_propagation_matches_direct_integration(speed_sq, dt):
    r0 = np.array([1.0, 0.1, 0.0]) / math.hypot(1.0, 0.1)
    v0 = math.sqrt(speed_sq) * np.array([0.4, 0.9, 0.2]) / math.sqrt(0.16 + 0.81 + 0.04)
    r, v = oracles.kepler_propagate(r0, v0, dt, parabolic=speed_sq == 2.0)
    r_ref, v_ref = _rk4(r0, v0, dt, 4000)
    assert np.max(np.abs(r - r_ref)) < 1e-10 and np.max(np.abs(v - v_ref)) < 1e-10


def test_rotation_by_two_pi_is_identity():
    x = np.array([0.3, -1.2, 0.7])
    axis = np.array([1.0, 2.0, -0.5]) / math.sqrt(5.25)
    assert np.max(np.abs(oracles.rodrigues(2.0 * math.pi * axis, x) - x)) < 1e-14
    quarter = oracles.rodrigues(0.5 * math.pi * np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    assert np.max(np.abs(quarter - [0.0, 1.0, 0.0])) < 1e-15


def _label_value(label, r, v):
    e, l_vec, a_vec = oracles.constants(r, v)
    if label == "E":
        return e
    fam, i = label.rstrip("123"), int(label[-1]) - 1
    vec = {"L": l_vec, "A": a_vec, "Theta": a_vec / np.linalg.norm(a_vec),
           "M": a_vec / math.sqrt(2.0 * abs(e))}[fam]
    return vec[i]


def _fd_bracket(left, right, r, v, h=1e-5):
    def grad(label, which):
        out = np.zeros(3)
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            if which == "r":
                out[k] = _label_value(label, r + step, v) - _label_value(label, r - step, v)
            else:
                out[k] = _label_value(label, r, v + step) - _label_value(label, r, v - step)
        return out / (2.0 * h)

    return grad(left, "r") @ grad(right, "v") - grad(right, "r") @ grad(left, "v")


@pytest.mark.parametrize("v", [(0.3, 1.1, 0.2), (0.5, 1.5, -0.3)])
def test_bracket_oracle_matches_finite_differences(v):
    r, v = np.array([0.9, 0.3, -0.2]), np.array(v)
    e, l_vec, a_vec = oracles.constants(r, v)
    labels = oracles.bracket_labels(parabolic=False)
    for a, left in enumerate(labels):
        for right in labels[a + 1:]:
            expected = oracles.expected_bracket(left, right, e, l_vec, a_vec)
            assert abs(expected - _fd_bracket(left, right, r, v)) < 1e-6, (left, right)
            assert expected == pytest.approx(-oracles.expected_bracket(right, left, e, l_vec, a_vec), abs=1e-15)


@pytest.mark.parametrize("v", [(0.3, 1.1, 0.2), (0.5, 1.5, -0.3)])
def test_lrl_map_is_a_one_parameter_group(v):
    r, v = np.array([0.9, 0.3, -0.2]), np.array(v)
    e, l_vec, a_vec = oracles.constants(r, v)
    eps = np.array([0.1, -0.2, 0.05])
    l1, a1 = oracles.lrl_map(e, l_vec, a_vec, 0.4 * eps, parabolic=False)
    l2, a2 = oracles.lrl_map(e, l1, a1, 0.6 * eps, parabolic=False)
    l3, a3 = oracles.lrl_map(e, l_vec, a_vec, eps, parabolic=False)
    assert np.max(np.abs(l2 - l3)) < 1e-14 and np.max(np.abs(a2 - a3)) < 1e-14
    # kappa^2 + 2E|L|^2 = |A|^2 holds on the image too
    assert float(a3 @ a3) == pytest.approx(1.0 + 2.0 * e * float(l3 @ l3), abs=1e-14)


def test_request_list_depends_only_on_the_seed():
    first, again, other = (state_requests.request_list(s, 2) for s in (5, 5, 6))
    assert [q.argv for q in first] == [q.argv for q in again]
    assert [q.argv for q in first] != [q.argv for q in other]
    kinds = {(q.kind, q.variant) for q in first}
    assert {("conserved", "json"), ("transform", "time"), ("transform", "lrl"),
            ("brackets", "fd-check"), ("orbit", "csv")} <= kinds
    for q in first:
        e, _, _ = oracles.constants(q.r, q.v)
        assert (abs(e) <= 1e-14) == (q.branch == "par")


def test_properties_with_bounds_of_their_own_are_still_held_to_them():
    from types import SimpleNamespace

    import workloads

    def results(structure_worst):
        out = []
        for name, count in expected.items():
            worst = 12.0 if name == "flows.rk4_order4_convergence" else 0.0
            worst = structure_worst if name == "algebra.structure_analytic" else worst
            out.append(SimpleNamespace(name=name, count=count, worst=worst, passed=worst <= 1e-10))
        return out

    u = np.finfo(float).eps
    for min_abs_e, near, over in ((1e-2, 5e-11, 2e-10), (1e-7, 5e-10, 1e-6)):
        bounds = {"algebra.structure_analytic": oracles.bracket_analytic_bound(min_abs_e)}
        expected = workloads.expected_counts("algebra", 100)
        assert workloads.check_suite(results(near), expected, bounds) == []
        assert workloads.check_suite(results(6.0 * u / min_abs_e), expected, bounds) == []
        assert len(workloads.check_suite(results(over), expected, bounds)) == 1
    assert len(workloads.check_suite(results(5e-10), expected)) == 1


def test_jacobi_count_follows_the_suite_states():
    import workloads
    from keplersym import sampling, verify

    for seed in (1, 1609579517):
        (expected, bounds) = workloads.suite_checks(sampling, "algebra", 50, seed)
        results = verify.run_suites("algebra", 50, seed)
        assert {r.name: r.count for r in results} == expected
        assert workloads.check_suite(results, expected, bounds) == []
    assert expected["algebra.jacobi_identity"] == 39


def test_short_mode_runs_every_workload_with_its_checks():
    for old in (HERE / "results").glob("trace-*-seed1.npz"):
        old.unlink()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--reference", "--short"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "correct and no failed operations: True" in proc.stdout
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    docs = json.loads((HERE / "results" / "reference-short.json").read_text())
    assert sorted(docs) == sorted(w["name"] for w in spec["workloads"])
    for name, doc in docs.items():
        assert (HERE / "results" / f"trace-{name}-seed1.npz").is_file()
        assert list(doc["untraced"]["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        assert list(doc["traced"]["per_layer"]) == [m["name"] for m in spec["per_layer"]]
        assert doc["untraced"]["attempted"] > 0 and doc["untraced"]["failed"] == 0


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "state-requests", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
