"""One workload in one process: `python3 perfbench/workloads.py --workload NAME ...`.

run.py starts this script with numpy's thread count set to 1.  It prints one
JSON line: correct, attempted, failed, what failed or was wrong, the
end-to-end metrics measured here (all but setup_s, which run.py measures in
fresh processes) and, with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import state_requests  # noqa: E402

# name -> (suite, samples, rk_steps); short mode uses the second triple
VERIFY = {
    "verify-all": (("all", 50, 10_000), ("all", 50, 1_000)),
    "verify-algebra": (("algebra", 100_000, 10_000), ("algebra", 2_000, 10_000)),
}
QUAD_PANELS = 64
REQUEST_BLOCKS = (84, 5)  # blocks of twelve requests: full, short
WORKLOADS = (*VERIFY, "state-requests")


def _gate(name: str) -> str:
    """The key of oracles.GATES that bounds a property's worst residual."""
    prop = name.split(".", 1)[1]
    if prop.endswith("_constants_match"):
        return "constants_match"
    if prop.endswith("_vs_flow"):
        return "flow_residual"
    if prop.endswith("_invariants") or prop == "direction_exact":
        return "transform_exact"
    return {
        "structure_analytic": "bracket_analytic",
        "structure_fd": "bracket_fd",
        "noether_characteristics": "noether",
        "antisymmetry": "antisymmetry",
        "jacobi_identity": "jacobi",
        "point_linearity": "linearity",
        "point_vs_dynamical": "classification",
        "symmetry_action_fd": "action",
        "direction_abelian": "group_law",
        "direction_equivariance": "group_law",
        "lrl_composition": "group_law",
        "circular_closure": "orbit_closure",
        "energy_drift_per_period": "energy_drift",
        "hyperbolic_escape": "monotone_escape",
        "gauge_r_drift": "r_drift",
        "dt_ds_gauge_component": "dt_ds",
        "solution_mapping": "solution_mapping",
    }[prop]


def expected_counts(suite: str, samples: int, jacobi_cases: int | None = None) -> dict[str, int]:
    """How many cases each property must cover at this sample count.

    jacobi_cases is what suite_checks() takes from the run's states; without
    it the count is the most the property may cover.
    """
    n_par = max(samples // 10, 1)
    n_rand = max(samples - n_par, 1)
    n2 = max(samples // 4, 10)
    n3 = min(max(samples // 8, 6), 25)
    n5 = max(samples // 10, 4)
    algebra = {
        "structure_analytic": samples,
        "structure_fd": samples,
        "noether_characteristics": samples,
        "antisymmetry": n_rand,
        "jacobi_identity": min(40, n_rand) if jacobi_cases is None else jacobi_cases,
        "point_linearity": min(50, n_rand),
        "point_vs_dynamical": min(25, n_rand),
        "symmetry_action_fd": min(500, n_rand),
    }
    transforms = {
        "direction_exact": samples,
        "direction_constants_match": samples,
        "direction_vs_flow": samples,
        "direction_abelian": min(n2, samples),
        "direction_equivariance": min(n2, samples),
    }
    for branch in ("neg", "pos", "zero"):
        for prop in ("invariants", "constants_match", "vs_flow"):
            transforms[f"lrl_{branch}_{prop}"] = samples
    transforms["lrl_composition"] = min(n2, 2 * samples)
    flows = {
        "circular_closure": 1,
        "energy_drift_per_period": 1,
        "hyperbolic_escape": 201,
        "gauge_r_drift": 2 * n3,
        "dt_ds_gauge_component": 12,
        "solution_mapping": 5 * n5,
        "rk4_order4_convergence": 2,
    }
    out = {}
    for name, table in (("algebra", algebra), ("transforms", transforms), ("flows", flows)):
        if suite in (name, "all"):
            out.update({f"{name}.{prop}": n for prop, n in table.items()})
    return out


def check_suite(results, expected: dict[str, int], bounds: dict[str, float] | None = None) -> list[str]:
    """Problems with one run_suites result: names, counts and the copied gates.

    A property named in bounds is held to that bound alone.
    """
    bounds = bounds or {}
    problems = []
    names = [r.name for r in results]
    if sorted(names) != sorted(expected):
        problems.append(f"properties {names} differ from {sorted(expected)}")
    for r in results:
        if r.name not in expected:
            continue
        if r.count != expected[r.name]:
            problems.append(f"{r.name}: count {r.count}, expected {expected[r.name]}")
        if r.name in bounds:
            ok = r.worst <= bounds[r.name]
        elif r.name == "flows.rk4_order4_convergence":
            lo, hi = oracles.RK4_ORDER_BAND
            ok = lo <= r.worst <= hi
        else:
            ok = r.worst <= oracles.GATES[_gate(r.name)] and r.passed
        if not ok:
            problems.append(f"{r.name}: worst {r.worst:.3e} outside its gate (passed={r.passed})")
    return problems


class Tally:
    """Operations attempted and failed, and what was wrong with the rest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def fail(self, what: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.failures) < 20:
            self.failures.append(what)

    def wrong(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)


def more_rounds(times, begin, seconds, rounds_max) -> bool:
    """Whether to start another round: always the first, then while the median
    round so far would still end within `seconds` of `begin`."""
    if not times:
        return True
    if len(times) == rounds_max:
        return False
    return time.perf_counter() - begin + statistics.median(times) <= seconds


def suite_checks(sampling, suite: str, samples: int, seed: int):
    """The property counts and the bounds of their own that check a round.

    The cases of algebra.jacobi_identity are the first 40 of the algebra
    suite's random states with |E| > 0.05, so fewer on a seed whose sample
    holds fewer.  Two properties get bounds of their own in place of the
    copied gate and the program's verdict, because keplersym misses those
    gates on some seeds (the FOUND lines of CHANGES.md): the analytic bracket
    table is held to a bound that grows as 1/min|E| over those states, and
    the central differences of the symmetry action to "action_loose".
    Run it before the tracer is installed: it draws the suite's states again.
    """
    if suite not in ("algebra", "all"):
        return expected_counts(suite, samples), {}
    n_rand = max(samples - max(samples // 10, 1), 1)
    r, v = sampling.sample_states(n_rand, seed)
    e = np.abs(oracles.energies(r, v))
    bounds = {
        "algebra.structure_analytic": oracles.bracket_analytic_bound(float(np.min(e))),
        "algebra.symmetry_action_fd": oracles.GATES["action_loose"],
    }
    jacobi = min(40, int(np.count_nonzero(e > 0.05)))
    return expected_counts(suite, samples, jacobi), bounds


def run_verify(verify, suite, samples, rk_steps, seed, seconds, tally, checks, rounds_max=None):
    """Whole run_suites rounds that fit in `seconds` (at least one).

    Each property is one operation; checks is what suite_checks() gives.
    Returns the round times and the part of each round that no property's
    time covers.
    """
    expected, bounds = checks
    times, unattributed = [], []
    begin = time.perf_counter()
    while more_rounds(times, begin, seconds, rounds_max):
        tally.attempted += len(expected)
        t0 = time.perf_counter()
        try:
            results = verify.run_suites(
                suite, samples, seed, rk_steps=rk_steps, quad_panels=QUAD_PANELS
            )
        except Exception as exc:  # a crash of the program counts against every property
            tally.fail(f"run_suites raised {exc!r}", len(expected))
            times.append(time.perf_counter() - t0)
            continue
        times.append(time.perf_counter() - t0)
        unattributed.append(times[-1] - sum(r.seconds for r in results))
        for problem in check_suite(results, expected, bounds):
            tally.wrong(problem)
    return times, unattributed


def call_cli(cli, argv) -> tuple[int, str, float]:
    """Exit code, stdout and seconds of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), time.perf_counter() - t0


def run_requests(cli, requests, seconds, tally, passes_max=None):
    """Whole passes over the request list that fit in `seconds` (at least one).

    Replies of the first pass are checked against the oracles; later passes
    must repeat them exactly or pass the same check.  Returns the latencies
    by kind, the pass times, each request's fastest time over the passes and
    the bytes written.
    """
    latency = {kind: [] for kind in state_requests.LATENCY_KINDS}
    pass_times, first, out_bytes = [], [], 0
    fastest = [math.inf] * len(requests)
    begin = time.perf_counter()
    while more_rounds(pass_times, begin, seconds, passes_max):
        replies = []
        t_pass = time.perf_counter()
        for i, req in enumerate(requests):
            tally.attempted += 1
            try:
                code, text, dt = call_cli(cli, req.argv)
            except Exception as exc:  # a traceback is a failed request, not a crash of the run
                tally.fail(f"{' '.join(req.argv)} raised {exc!r}")
                replies.append(None)
                continue
            fastest[i] = min(fastest[i], dt)
            if code != 0:
                tally.fail(f"{' '.join(req.argv)} exited with {code}")
                replies.append(None)
                continue
            latency[req.kind].append(dt)
            replies.append(text)
            out_bytes += len(text)
        pass_times.append(time.perf_counter() - t_pass)
        for i, (req, reply) in enumerate(zip(requests, replies)):
            if reply is None or (first and first[i] == reply):
                continue
            problem = state_requests.check(req, reply)
            if problem:
                tally.wrong(f"{' '.join(req.argv)}: {problem}")
        if not first:
            first = replies
    return latency, pass_times, fastest, out_bytes


def latency_metrics(latency) -> dict:
    """Per-kind median and overall 99th-percentile request latency, in ms."""
    out = {}
    for kind, xs in latency.items():
        out[f"cli.{kind}_p50_ms"] = (1e3 * statistics.median(xs) if xs else 0.0, "ms")
    every = [x for xs in latency.values() for x in xs]
    p99 = statistics.quantiles(every, n=100, method="inclusive")[98] if len(every) > 1 else 0.0
    out["cli.request_p99_ms"] = (1e3 * p99, "ms")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args(argv)
    size = 1 if args.short else 0

    import keplersym.cli as cli
    import keplersym.sampling as sampling
    import keplersym.verify as verify

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"keplersym was imported from {cli.__file__}, not from this checkout")
    tally = Tally()
    latency = {}
    if args.workload == "state-requests":
        requests = state_requests.request_list(args.seed, REQUEST_BLOCKS[size])
        if args.trace:
            # The per-kind latencies of a traced run come from one untraced
            # pass, so that they hold no tracing overhead.
            latency, _, _, _ = run_requests(cli, requests, args.seconds, tally, 1)
    if args.workload in VERIFY:
        suite, samples, rk_steps = VERIFY[args.workload][size]
        checks = suite_checks(sampling, suite, samples, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # A traced run covers one round, so that its counts do not depend on speed.
    rounds_max = 1 if args.trace else None
    unattributed, out_bytes = [0.0], 0
    if args.workload in VERIFY:
        times, unattributed = run_verify(
            verify, suite, samples, rk_steps, args.seed, args.seconds, tally, checks, rounds_max
        )
        suite_s = statistics.median(times)
    else:
        # The sum of each request's fastest time over the passes: slow phases
        # of the shared CPU, seconds long, move the median pass by +-20%.
        _, times, fastest, out_bytes = run_requests(cli, requests, args.seconds, tally, rounds_max)
        suite_s = math.fsum(x for x in fastest if x < math.inf)
    metrics = {
        "suite_s": (suite_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    doc = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "problems": tally.problems,
        "end_to_end": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "round_s": times,
    }
    if tracer is not None:
        from tracer import layer_metrics

        layers = layer_metrics(tracer, statistics.median(unattributed or [0.0]), out_bytes)
        layers.update(latency_metrics(latency or {k: [] for k in state_requests.LATENCY_KINDS}))
        doc["per_layer"] = {k: {"value": float(v), "unit": u} for k, (v, u) in layers.items()}
        (HERE / "results").mkdir(exist_ok=True)
        tracer.save(HERE / "results" / f"trace-{args.workload}-seed{args.seed}.npz")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
