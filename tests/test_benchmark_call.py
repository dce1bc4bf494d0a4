"""The benchmark's call of `verify.run_suites` still binds and runs.

`perfbench/workloads.py` passes `quad_panels=QUAD_PANELS` to `run_suites`; the
keyword is kept only for that call and takes only `transforms.QUAD_PANELS`.
"""

import ast
import inspect
from pathlib import Path

import pytest

from keplersym import UsageError, transforms, verify

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
    assert panels == transforms.QUAD_PANELS


def test_run_suites_rejects_another_start():
    with pytest.raises(UsageError, match="quad_panels"):
        verify.run_suites("algebra", 5, 1, quad_panels=65)
