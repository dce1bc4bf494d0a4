"""The keplersym benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]
    python3 perfbench/run.py --reference [--short] [--seed N] [--seconds S]

The first form runs one workload and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The second
runs every workload once untraced and once traced and prints the reference
table of perfbench/README.md, with the tracing overhead.  --short shrinks
every workload so that all of them, with all their checks, finish in under a
minute.  Workloads run from source in src/ of the checkout that holds this
directory; without it the benchmark exits with code 2.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("verify-all", "verify-algebra", "state-requests")
SETUP_PROBES = (9, 2)  # fresh processes per run: full, short
BUDGET_S = 170.0  # a run must end within 180 s
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class BenchError(Exception):
    pass


def _python(args: list[str], deadline: float) -> str:
    """Run a Python script of this directory with one numpy thread; its stdout."""
    env = {**os.environ, **SINGLE_THREAD}
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=max(deadline - time.monotonic(), 1.0),
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish within the run's time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited with code {proc.returncode}")
    return proc.stdout


def run_workload(workload: str, seed: int, seconds: float, trace: bool, short: bool, deadline: float) -> dict:
    """One run: set-up probes (untraced only), then the workload process."""
    setup = []
    if not trace:
        for i in range(SETUP_PROBES[short]):
            out = _python([str(HERE / "setup_probe.py"), str(seed * 100 + i)], deadline)
            setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    args = [str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if short:
        args.append("--short")
    doc = json.loads(_python(args, deadline).strip().splitlines()[-1])
    for what in ("failures", "problems"):
        for line in doc[what]:
            print(f"{workload}: {what[:-1]}: {line}", file=sys.stderr)
    if setup:
        doc["end_to_end"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **doc["end_to_end"]}
    return doc


def result_line(doc: dict, trace: bool) -> str:
    metrics = doc["per_layer" if trace else "end_to_end"]
    return json.dumps({k: doc[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics})


def reference(seed: int, seconds: float, short: bool) -> int:
    """Every workload untraced and traced; a markdown table with the overhead."""
    rows, layers, docs, ok = [], {}, {}, True
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, False, short, time.monotonic() + BUDGET_S)
        traced = run_workload(workload, seed, seconds, True, short, time.monotonic() + BUDGET_S)
        docs[workload] = {"untraced": plain, "traced": traced}
        ok &= plain["correct"] and traced["correct"] and not plain["failed"] and not traced["failed"]
        for name, m in plain["end_to_end"].items():
            traced_value = traced["end_to_end"].get(name, {}).get("value")
            extra = "" if name == "setup_s" else f"{traced_value:.6g}"
            if name == "suite_s":
                extra += f" ({traced_value - m['value']:+.4g})"
            rows.append(f"| {workload} | {name} | {m['unit']} | {m['value']:.6g} | {extra} |")
        for name, m in traced["per_layer"].items():
            layers.setdefault(name, {"unit": m["unit"]})[workload] = m["value"]
    print(f"seed {seed}, --seconds {seconds}{', short' if short else ''}; "
          f"correct and no failed operations: {ok}\n")
    print("| workload | metric | unit | untraced | traced (overhead) |\n|---|---|---|---|---|")
    print("\n".join(rows))
    print("\n| per-layer metric (traced, one round) | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, m in layers.items():
        print(f"| {name} | {m['unit']} | " + " | ".join(f"{m[w]:.4g}" for w in WORKLOADS) + " |")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"reference{'-short' if short else ''}.json").write_text(json.dumps(docs, indent=1))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "keplersym" / "__init__.py").is_file():
        print(f"no keplersym source at {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.short:
        args.seconds = min(args.seconds, 2.0)
    try:
        if args.reference:
            return reference(args.seed, args.seconds, args.short)
        if args.workload is None:
            ap.error("--workload or --reference is required")
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.short,
                           time.monotonic() + BUDGET_S)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(result_line(doc, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
