# tests/time_catalog.py

"""Per-call cost of the catalog's closed forms: one row against rows.

    python tests/time_catalog.py                 # a table on stdout
    python tests/time_catalog.py --json FILE     # the same numbers as JSON

For every entry of rmx.catalog it times, interleaved, `--repeats` rounds of:

- `one`: one row through the solution's evaluator, a Tensor2;
- `rows_k`, k = 1, 20, 120: k rows through evaluate_rows, one coefficient
  stack (null where the solution has none);
- `calls_k`, k = 20, 120: k one-row evaluator calls, the lazy path of a
  solution without evaluate_rows.

20 rows are the draws of one sampled check at the catalog's 20 samples; 120
rows are the six terms of each of those draws.  The rows are random points
of the ring 0.25 <= |z| <= 1.1 the sampled checks draw from, one per
spectral parameter.  Each figure is the median over the rounds of the mean
time of one call in microseconds, each round repeating each call until it
has run for about 2 ms, so a slow stretch of a shared host hits all of them
alike.  It is not a pytest module.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

import numpy as np  # noqa: E402

from rmx import catalog  # noqa: E402

ROWS = (1, 20, 120)
CALLS = (20, 120)


def _per_call(fn, budget: float = 2e-3) -> float:
    """Mean seconds of one fn() over a loop of about `budget` seconds."""
    number, elapsed = 1, 0.0
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / number
        number *= 2


def _rows(sol, k: int, rng: np.random.Generator) -> list:
    params = len(catalog.ARITY_PARAMS[sol.arity])
    z = rng.uniform(0.25, 1.1, (k, params)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (k, params)))
    return [tuple(complex(x) for x in row) for row in z]


def measure(name: str, repeats: int) -> dict:
    sol = catalog.get(name)
    rows = _rows(sol, max(ROWS), np.random.default_rng(sum(map(ord, name))))
    cases = {"one": lambda: sol(*rows[0])}
    for k in CALLS:
        cases[f"calls{k}"] = lambda k=k: [sol(*row) for row in rows[:k]]
    if sol.evaluate_rows is not None:
        for k in ROWS:
            cases[f"rows{k}"] = lambda k=k: sol.evaluate_rows(rows[:k])
    times = {case: [] for case in cases}
    for _ in range(repeats):
        for case, fn in cases.items():
            times[case].append(_per_call(fn))
    us = {case: round(1e6 * statistics.median(t), 2) for case, t in times.items()}
    out = {"name": name, "one_us": us["one"]}
    out.update({f"rows{k}_us": us.get(f"rows{k}") for k in ROWS})
    out.update({f"calls{k}_us": us[f"calls{k}"] for k in CALLS})
    out.update({f"speedup{k}": round(us[f"calls{k}"] / us[f"rows{k}"], 2)
                if f"rows{k}" in us else None for k in CALLS})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--json", metavar="FILE")
    args = ap.parse_args(argv)
    cols = ["one_us", *[f"rows{k}_us" for k in ROWS], *[f"calls{k}_us" for k in CALLS],
            *[f"speedup{k}" for k in CALLS]]
    print(f"{'name':20s} " + " ".join(f"{c:>12s}" for c in cols))
    results = []
    for name in catalog.NAMES:
        r = measure(name, args.repeats)
        results.append(r)
        print(f"{name:20s} " + " ".join("           -" if r[c] is None else f"{r[c]:12.2f}"
                                        for c in cols), flush=True)
    if args.json:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "repeats": args.repeats,
               "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
        Path(args.json).write_text(json.dumps({"env": env, "results": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
