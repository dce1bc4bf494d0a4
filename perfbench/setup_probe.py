"""Set-up time of keplersym in a fresh process.

Times `import keplersym.cli` and the first operation, one `conserved`
request through `keplersym.cli.main` on a seeded elliptic state, and checks
its energy.  Prints {"setup_s": seconds}; exits 1 if the reply is wrong.
Usage: python3 perfbench/setup_probe.py SEED
"""

import contextlib
import io
import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

rng = random.Random(int(sys.argv[1]))
r = (rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
v = (rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.2), rng.uniform(-0.2, 0.2))
argv = ["conserved", "--r=" + ",".join(map(repr, r)), "--v=" + ",".join(map(repr, v))]

t0 = time.perf_counter()
import keplersym.cli  # noqa: E402

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = keplersym.cli.main(argv)
elapsed = time.perf_counter() - t0

energy = 0.5 * sum(x * x for x in v) - 1.0 / math.sqrt(sum(x * x for x in r))
if code != 0 or abs(json.loads(out.getvalue())["E"] - energy) > 1e-12:
    sys.exit(f"first request gave exit code {code} and {out.getvalue()!r}")
print(json.dumps({"setup_s": elapsed}))
