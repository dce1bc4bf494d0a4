"""The benchmark's call of `verify.run_suites` still binds and runs, and passes its check.

`perfbench/workloads.py` passes `quad_panels=QUAD_PANELS` to `run_suites`; the
keyword is kept only for that call and takes only its own default, 64.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from keplersym import UsageError, sampling, verify

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _benchmark_call():
    """The keyword names of workloads.py's run_suites call, and its QUAD_PANELS."""
    tree = ast.parse(WORKLOADS.read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "run_suites"
    ]
    assert len(calls) == 1
    panels = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["QUAD_PANELS"]
    ]
    assert len(panels) == 1
    return [kw.arg for kw in calls[0].keywords], len(calls[0].args), panels[0]


def test_benchmark_call_binds():
    keywords, positional, panels = _benchmark_call()
    values = {"rk_steps": 1_000, "quad_panels": panels}
    inspect.signature(verify.run_suites).bind(*("all", 50, 1)[:positional], **{k: values[k] for k in keywords})
    assert panels == inspect.signature(verify.run_suites).parameters["quad_panels"].default


def test_run_suites_rejects_another_start():
    with pytest.raises(UsageError, match="quad_panels"):
        verify.run_suites("algebra", 5, 1, quad_panels=65)


def _workloads(monkeypatch):
    """perfbench/workloads.py as a module, with its directory on the path for its imports."""
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [37, 56])
def test_transforms_suite_passes_the_benchmark_check(monkeypatch, seed):
    # the benchmark refuses a round whose names, counts or worsts leave its copy of the
    # gates.  At these seeds a time shift of dt/ds = tau alone, with the LRL group's ray
    # integral on a 16-node Gauss-Legendre rule, missed lrl_neg_vs_flow's 1e-6 gate.
    workloads = _workloads(monkeypatch)
    results = verify.run_suites("transforms", 50, seed, quad_panels=workloads.QUAD_PANELS)
    expected, bounds = workloads.suite_checks(sampling, "transforms", 50, seed)
    assert workloads.check_suite(results, expected, bounds) == []


@pytest.mark.parametrize("seed", [1, 269])
def test_algebra_suite_passes_the_benchmark_check(monkeypatch, seed):
    # the benchmark holds structure_analytic to a bound that grows as 1/min|E| over the
    # random states; at seed 269 min|E| is 2.9e-7 among 9000 of them, the least of seeds
    # 1-300, so the M rows' roundoff is at its largest there
    workloads = _workloads(monkeypatch)
    results = verify.run_suites("algebra", 10_000, seed, quad_panels=workloads.QUAD_PANELS)
    expected, bounds = workloads.suite_checks(sampling, "algebra", 10_000, seed)
    assert workloads.check_suite(results, expected, bounds) == []
