# tests/time_residuals.py

"""Per-check cost of the sampled residuals: leg plans against the oracles.

    python tests/time_residuals.py                 # a table on stdout
    python tests/time_residuals.py --json FILE     # the same numbers as JSON

For aybe, dual, unitarity, cybe and qybe at n = 2, 3, 5, 8, 10 it times the
residual of one check, the terms of its accepted draws given, two ways:

- `plans`: as rmx.verify runs it: the draws' terms stacked, block by block
  (tensorcore.block_draws(n) draws a block), through
  tensorcore.leg_residual_norm (unitarity: one stacked add and max);
- `oracle`: one draw at a time through tests/oracles.py: the whole-tensor
  shared-leg products (`leg_product`) for aybe and dual, `swap` for
  unitarity, and the n^3 x n^3 Kronecker matrices (`cybe_residual_kron`,
  `qybe_residual_kron`) that verify used for cybe and qybe before the leg
  plans.

A check has DRAWS[n] draws of random terms: 20, the catalog checks' sample
count, at n = 2 and 3, fewer above, where one Kronecker draw takes up to a
second.  The two paths run interleaved, `--repeats` rounds (fewer at
n >= 8), and each figure is the median wall time of a round, so a slow
stretch of a shared host hits both alike.  Each row also gives the largest
relative difference of the two paths' residuals.  It is not a pytest module.
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
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from rmx.tensorcore import Tensor2, block_draws, leg_residual_norm  # noqa: E402

SIZES = (2, 3, 5, 8, 10)
DRAWS = {2: 20, 3: 20, 5: 4, 8: 2, 10: 1}

# identity -> (lhs, rhs) of leg_residual_norm, slot j standing for the j-th
# term of a draw, in the order rmx.verify evaluates them
SIDES = {
    "aybe": ([(0, 12, 1, 23)], [(2, 13, 3, 12), (4, 23, 5, 13)]),
    "dual": ([(0, 23, 1, 12)], [(2, 12, 3, 13), (4, 13, 5, 23)]),
    "cybe": ([(0, 12, 2, 23), (0, 12, 1, 13), (1, 13, 2, 23)],
             [(2, 23, 0, 12), (1, 13, 0, 12), (2, 23, 1, 13)]),
    "qybe": ([(0, 12, 1, 13, 2, 23)], [(2, 23, 1, 13, 0, 12)]),
}
TERMS = {"aybe": 6, "dual": 6, "unitarity": 2, "cybe": 3, "qybe": 3}


def plans(identity: str, draws: list) -> list:
    """The residual of each draw (a list of its Tensor2 terms), block by
    block, as rmx.verify computes it."""
    out, size = [], block_draws(draws[0][0].n)
    for b in range(0, len(draws), size):
        stacks = [np.array([t.coeffs for t in terms]) for terms in zip(*draws[b:b + size])]
        if identity == "unitarity":
            ta, tb = stacks
            out += np.abs(ta + tb.transpose(0, 3, 4, 1, 2)).max(axis=(1, 2, 3, 4)).tolist()
        else:
            out += leg_residual_norm(*([tuple(stacks[x] if i % 2 == 0 else x
                                              for i, x in enumerate(p)) for p in side]
                                       for side in SIDES[identity]))
    return out


def oracle(identity: str, draws: list) -> list:
    """The residual of each draw, one draw at a time, by tests/oracles.py."""
    out = []
    for ts in draws:
        if identity == "unitarity":
            out.append((ts[0] + oracles.swap(ts[1])).norm())
        elif identity == "cybe":
            out.append(oracles.cybe_residual_kron(*ts))
        elif identity == "qybe":
            out.append(oracles.qybe_residual_kron(*ts))
        else:
            (p0,), (p1, p2) = ([oracles.leg_product(ts[a], ta, ts[b], tb) for a, ta, b, tb in s]
                               for s in SIDES[identity])
            out.append((p0 - (p1 + p2)).norm())
    return out


def _draws(identity: str, n: int, rng: np.random.Generator) -> list:
    shape = (n,) * 4
    return [[Tensor2(n, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
             for _ in range(TERMS[identity])] for _ in range(DRAWS[n])]


def measure(identity: str, n: int, repeats: int) -> dict:
    draws = _draws(identity, n, np.random.default_rng(100 * n + TERMS[identity]))
    times = {"plans": [], "oracle": []}
    for _ in range(repeats):
        for name, fn in (("plans", plans), ("oracle", oracle)):
            t0 = time.perf_counter()
            fn(identity, draws)
            times[name].append(time.perf_counter() - t0)
    new, old = plans(identity, draws), oracle(identity, draws)
    ms = {k: 1e3 * statistics.median(v) for k, v in times.items()}
    return {"identity": identity, "n": n, "draws": len(draws),
            "plans_ms": round(ms["plans"], 4), "oracle_ms": round(ms["oracle"], 4),
            "speedup": round(ms["oracle"] / ms["plans"], 2),
            "max_rel_diff": max(abs(a - b) / b for a, b in zip(new, old))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--json", metavar="FILE")
    args = ap.parse_args(argv)
    results = []
    print(f"{'identity':9s} {'n':>2s} {'draws':>5s} {'plans ms':>9s} {'oracle ms':>10s} "
          f"{'speedup':>7s} {'max rel diff':>12s}")
    for identity in TERMS:
        for n in SIZES:
            r = measure(identity, n, max(3, args.repeats // 4) if n >= 8 else args.repeats)
            results.append(r)
            print(f"{identity:9s} {n:2d} {r['draws']:5d} {r['plans_ms']:9.3f} "
                  f"{r['oracle_ms']:10.3f} {r['speedup']:7.2f} {r['max_rel_diff']:12.2e}",
                  flush=True)
    if args.json:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "repeats": args.repeats,
               "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
        Path(args.json).write_text(json.dumps({"env": env, "results": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
