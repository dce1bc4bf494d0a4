"""Every function that the benchmark's tracer wraps is still bound under its name.

`perfbench/tracer.py` rebinds each (module, name) of its LAYERS table; a name
that a change removes or renames would break only the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_are_bound_and_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for span, (module_name, names) in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{span}: {module_name}.{name} is not bound"
