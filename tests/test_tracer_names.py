"""Every function that the benchmark's tracer wraps is still bound under its name.

`perfbench/tracer.py` rebinds each (module, name) of its LAYERS table; a name
that a change removes or renames would break only the traced benchmark run,
and so would a CLI handler that reached a function the tracer did not rebind.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
STATE = ["--r", "1,0.1,0", "--v", "0.1,1.1,0"]


def test_traced_names_are_bound_and_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for span, (module_name, names) in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{span}: {module_name}.{name} is not bound"


def test_tracer_sees_each_cli_request():
    """A handler that bound a function before `Tracer.install` would call it unwrapped."""
    requests = [
        (["conserved", *STATE], "core.conserved_set"),
        (["transform", *STATE, "--kind", "lrl", "--eps", "0.1,0,0"], "transforms.closed_form"),
        (["brackets", *STATE], "brackets.structure_table"),
        (["orbit", *STATE, "--tmax", "0.5"], "flow.orbit"),
    ]
    code = f"""
import contextlib, importlib.util, io, json
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
import keplersym.cli as cli
out = []
for argv, span in {requests!r}:
    before = t.summary()[span]["calls"]
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main(argv)
    out.append([exit_code, int(t.summary()[span]["calls"] - before)])
print(json.dumps([out, int(t.summary()["cli.main"]["calls"])]))
"""
    env = {**os.environ, "PYTHONPATH": str(TRACER.parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    per_request, main_calls = json.loads(proc.stdout.strip().splitlines()[-1])
    for (argv, span), (exit_code, calls) in zip(requests, per_request):
        assert exit_code == 0 and calls >= 1, (argv[0], span, calls)
    assert main_calls == len(requests)
