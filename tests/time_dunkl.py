# tests/time_dunkl.py

"""Per-op timing of the Dunkl commutator check.

    python tests/time_dunkl.py                 # a table on stdout
    python tests/time_dunkl.py --json FILE     # the same numbers as JSON

An op is one `verify.dunkl_commutator` call with its defaults (3 samples,
the default test function), as `rmx verify --identity dunkl` makes it.  For
the catalog solutions trg21, rat21, trg20_semistable, rat21_degenerate and
ell21 at kappa = 0 and kappa = 1 it times the op at seeds 0..SEEDS-1.  The
ops are interleaved: each round runs every (solution, kappa, seed) once, so
a slow stretch of a shared host hits all of them alike.  A figure is the
median over `--repeats` rounds of the op's thread CPU time, then the mean
over the seeds.  Run it in two checkouts to compare them: the rmx it times
is the one under src/ next to this file.  It is not a pytest module.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from rmx import catalog, verify  # noqa: E402

SOLUTIONS = ("trg21", "rat21", "trg20_semistable", "rat21_degenerate", "ell21")
KAPPAS = (0.0, 1.0)
SEEDS = 4


def _op_time(sol, kappa: float, seed: int) -> float:
    t0 = time.thread_time()
    verify.dunkl_commutator(sol, kappa=kappa, seed=seed)
    return time.thread_time() - t0


def measure(repeats: int) -> list:
    sols = {name: catalog.get(name) for name in SOLUTIONS}
    cases = [(name, kappa, seed) for name in SOLUTIONS for kappa in KAPPAS
             for seed in range(SEEDS)]
    for case in cases:  # warm-up: imports, first-call caches
        _op_time(sols[case[0]], *case[1:])
    times = {case: [] for case in cases}
    for _ in range(repeats):
        for case in cases:
            times[case].append(_op_time(sols[case[0]], *case[1:]))
    return [{"solution": name, "kappa": kappa,
             "op_ms": round(1e3 * statistics.mean(
                 statistics.median(times[name, kappa, seed]) for seed in range(SEEDS)), 4)}
            for name in SOLUTIONS for kappa in KAPPAS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--json", metavar="FILE")
    args = ap.parse_args(argv)
    results = measure(args.repeats)
    print(f"{'solution':18s} {'kappa':>5s} {'ms/op':>8s}")
    for r in results:
        print(f"{r['solution']:18s} {r['kappa']:5.1f} {r['op_ms']:8.3f}")
    if args.json:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "repeats": args.repeats, "seeds": SEEDS,
               "clock": "time.thread_time"}
        Path(args.json).write_text(json.dumps({"env": env, "results": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
