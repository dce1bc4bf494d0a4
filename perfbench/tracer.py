"""Spans around keplersym's public functions, recorded from outside the program.

`Tracer.install` wraps each function in LAYERS and rebinds the wrapper under
every name that a keplersym module bound the function to: for example
`direction_lrl_transform` is imported by name into verify, flow and cli, and
`symmetry_flow_rhs` is looked up in the globals of flow on every call.  Each
call then records a span (name, start, end, parent) in flat arrays in memory;
`save` writes them out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# span name -> (module, function names) wrapped under that name
LAYERS = {
    "flow.rhs": ("keplersym.flow", ("symmetry_flow_rhs",)),
    "flow.rk4": ("keplersym.flow", ("integrate_symmetry_flows",)),
    "flow.orbit": ("keplersym.flow", ("integrate_orbit",)),
    "transforms.closed_form": ("keplersym.transforms", ("direction_lrl_transform", "lrl_transform", "rotate")),
    "transforms.quadrature": ("keplersym.transforms", ("time_shift_quadrature",)),
    "transforms.time_translate": ("keplersym.transforms", ("time_translate",)),
    "fields.values": ("keplersym.fields", ("values",)),
    "fields.gradients": ("keplersym.fields", ("gradients",)),
    "fields.fd_gradients": ("keplersym.fields", ("fd_gradients",)),
    "fields.bracket": ("keplersym.fields", ("bracket",)),
    "fields.expected_bracket": ("keplersym.fields", ("expected_bracket",)),
    "brackets.structure_residuals": ("keplersym.brackets", ("structure_residuals",)),
    "brackets.structure_table": ("keplersym.brackets", ("structure_table",)),
    "core.conserved_set": ("keplersym.core", ("conserved_set",)),
    "generators.velocity_jacobian": ("keplersym.generators", ("velocity_jacobian",)),
    "sampling.flow_pairs": ("keplersym.sampling", ("sample_flow_pairs",)),
    "sampling.draw": ("keplersym.sampling", ("sample_states", "sample_parabolic_states")),
    "verify.run": ("keplersym.verify", ("run_suites",)),
    "cli.main": ("keplersym.cli", ("main",)),
}
NAMES = tuple(LAYERS)


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.open = [0] * len(NAMES)
        self.counts: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        """Rebind every wrapped function in every loaded keplersym module."""
        import keplersym.cli  # noqa: F401  (loads every module that binds a wrapped name)
        import keplersym.verify  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items()) if n == "keplersym" or n.startswith("keplersym.")]
        wrappers = {}
        for span, (module, functions) in LAYERS.items():
            for fn_name in functions:
                fn = getattr(sys.modules[module], fn_name)
                wrappers[id(fn)] = (fn, self._wrap(NAMES.index(span), fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])

    def _wrap(self, idx: int, fn):
        count = _COUNTERS.get(NAMES[idx])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.outermost.append(self.open[idx] == 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            self.open[idx] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.open[idx] -= 1
                self.start[i] = t0
                self.end[i] = t1
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def inside(self, span: str) -> bool:
        return self.open[NAMES.index(span)] > 0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds of outermost spans, self seconds."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        k = len(NAMES)
        return {
            n: {"calls": c, "total_s": t, "self_s": s}
            for n, c, t, s in zip(
                NAMES,
                np.bincount(name, minlength=k),
                np.bincount(name, weights=dur * outer, minlength=k),
                np.bincount(name, weights=self_time, minlength=k),
            )
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _count_rhs(tracer, args, out):
    tracer.counts["flow.rhs_rows"] += len(args[1])


def _count_orbit(tracer, args, out):
    tracer.counts["flow.orbit_samples"] += len(out.samples)


def _count_pairs(tracer, args, out):
    tracer.counts["sampling.pairs"] += len(out)


def _count_draw(tracer, args, out):
    if tracer.inside("sampling.flow_pairs"):
        tracer.counts["sampling.states_drawn"] += len(out[0])


_COUNTERS = {
    "flow.rhs": _count_rhs,
    "flow.orbit": _count_orbit,
    "sampling.flow_pairs": _count_pairs,
    "sampling.draw": _count_draw,
}


def layer_metrics(tracer: Tracer, unattributed_s: float, output_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json as {name: (value, unit)}."""
    s = tracer.summary()
    c = tracer.counts
    rhs_calls = s["flow.rhs"]["calls"]
    drawn = c["sampling.states_drawn"]
    return {
        "flow.rhs_calls": (rhs_calls, "count"),
        "flow.rhs_s": (s["flow.rhs"]["total_s"], "s"),
        "flow.rhs_rows_per_call": (c["flow.rhs_rows"] / rhs_calls if rhs_calls else 0.0, "rows"),
        "flow.rk4_self_s": (s["flow.rk4"]["self_s"], "s"),
        "flow.orbit_calls": (s["flow.orbit"]["calls"], "count"),
        "flow.orbit_s": (s["flow.orbit"]["total_s"], "s"),
        "flow.orbit_samples": (c["flow.orbit_samples"], "count"),
        "transforms.closed_form_calls": (s["transforms.closed_form"]["calls"], "count"),
        "transforms.closed_form_self_s": (s["transforms.closed_form"]["self_s"], "s"),
        "transforms.quadrature_calls": (s["transforms.quadrature"]["calls"], "count"),
        "transforms.quadrature_s": (s["transforms.quadrature"]["total_s"], "s"),
        "transforms.time_translate_s": (s["transforms.time_translate"]["total_s"], "s"),
        "fields.values_calls": (s["fields.values"]["calls"], "count"),
        "fields.values_s": (s["fields.values"]["total_s"], "s"),
        "fields.gradients_s": (s["fields.gradients"]["total_s"], "s"),
        "fields.fd_gradients_s": (s["fields.fd_gradients"]["total_s"], "s"),
        "fields.bracket_calls": (s["fields.bracket"]["calls"], "count"),
        "fields.bracket_s": (s["fields.bracket"]["total_s"], "s"),
        "fields.expected_bracket_calls": (s["fields.expected_bracket"]["calls"], "count"),
        "fields.expected_bracket_s": (s["fields.expected_bracket"]["total_s"], "s"),
        "brackets.structure_residuals_s": (s["brackets.structure_residuals"]["total_s"], "s"),
        "brackets.structure_table_calls": (s["brackets.structure_table"]["calls"], "count"),
        "brackets.structure_table_self_s": (s["brackets.structure_table"]["self_s"], "s"),
        "core.conserved_set_calls": (s["core.conserved_set"]["calls"], "count"),
        "core.conserved_set_s": (s["core.conserved_set"]["total_s"], "s"),
        "generators.velocity_jacobian_calls": (s["generators.velocity_jacobian"]["calls"], "count"),
        "generators.velocity_jacobian_s": (s["generators.velocity_jacobian"]["total_s"], "s"),
        "sampling.flow_pairs_s": (s["sampling.flow_pairs"]["total_s"], "s"),
        "sampling.pairs_per_state_drawn": (c["sampling.pairs"] / drawn if drawn else 0.0, "ratio"),
        "verify.self_s": (s["verify.run"]["self_s"], "s"),
        "verify.unattributed_s": (unattributed_s, "s"),
        "cli.self_s": (s["cli.main"]["self_s"], "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
