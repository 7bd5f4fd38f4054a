# tests/time_emit.py

"""Timing of the JSON writer of `rmx eval`'s tensor data.

    python tests/time_emit.py                   # a table on stdout
    python tests/time_emit.py --json FILE       # the same numbers as JSON
    python tests/time_emit.py --stress 10000000 # floattext against float.__repr__

For the nodal and cuspidal engines at ranks 2, 3, 5, 8 and 12 (degrees as
in perfbench's engine-eval) it times `cli._data_text` on the engine's
tensor at one point against the per-number `float.__repr__` join it
replaces (equal text, checked once).  Each round runs every (tensor,
writer) once, after an untimed call of both, the writers in turn first, so
a slow stretch of a shared host or a cold cache hits both alike.  A figure
is the median over `--repeats` rounds of the call's thread CPU time.

Before that it runs one rank-12 `rmx eval` in each of `--fresh` new
interpreters, stdout to /dev/null, and reports the median of their
`ru_maxrss`.  It does so first because Linux carries the spawning process's
peak RSS into the child's.  Run it in two checkouts to compare them: the rmx
it times is the one under src/ next to this file.

`--stress N` instead checks floattext.join_reprs against float.__repr__ on N
seeded numbers (see _stress_chunk).  It reports how many texts differ and how
many numbers the array path left to float.__repr__, and exits 1 if any
differ.  It is not a pytest module.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from rmx import cli, rmatrix  # noqa: E402

ENGINES = {"nodal": rmatrix.engine_nodal, "cuspidal": rmatrix.engine_cusp}
RANKS = {2: 1, 3: 1, 5: 2, 8: 3, 12: 5}
POINT = (1 + 0.2j, 1.6 - 0.1j, 0.3, 0.8 + 0.1j)
EVAL_ARGV = ["eval", "--curve", "nodal", "--rank", "12", "--deg", "5", "--v1=1,0.2",
             "--v2=1.6,-0.1", "--y1=0.3", "--y2=0.8,0.1"]
# one rank-12 eval in a new interpreter; prints its peak RSS in kB
_CHILD = ("import os, resource, sys; sys.stdout = open(os.devnull, 'w'); "
          "from rmx.cli import main; main(sys.argv[1:]); "
          "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)")


def repr_join(t) -> str:
    """The data text with one float.__repr__ call per number, as rmx wrote
    it before floattext."""
    flat = t.kron().ravel()
    pairs = map(cli._NUM_SEP.join, zip(map(float.__repr__, flat.real.tolist()),
                                       map(float.__repr__, flat.imag.tolist())))
    return "[\n      [\n        " + cli._PAIR_SEP.join(pairs) + "\n      ]\n    ]"


def _time(f, t) -> float:
    t0 = time.thread_time()
    f(t)
    return time.thread_time() - t0


def measure(repeats: int) -> list:
    tensors = {(curve, n): ENGINES[curve](n, d, *POINT)
               for curve in ENGINES for n, d in RANKS.items()}
    writers = {"writer": cli._data_text, "repr_join": repr_join}
    for t in tensors.values():  # warm-up, and the two texts are equal
        if cli._data_text(t) != repr_join(t):
            raise SystemExit(f"texts differ at rank {t.n}")
    times = {(case, w): [] for case in tensors for w in writers}
    for k in range(repeats):
        for case, t in tensors.items():
            order = sorted(writers.items(), reverse=k % 2 == 1)
            for w, f in order:  # untimed: caches warm for this tensor
                f(t)
            for w, f in order:
                times[case, w].append(_time(f, t))
    results = []
    for (curve, n), t in tensors.items():
        ms = {w: round(1e3 * statistics.median(times[(curve, n), w]), 4) for w in writers}
        results.append({"curve": curve, "rank": n, "numbers": 2 * n**4, **{
            f"{w}_ms": v for w, v in ms.items()},
            "speedup": round(ms["repr_join"] / ms["writer"], 3)})
    return results


def fresh_maxrss_kb(runs: int) -> float:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    rss = [int(subprocess.run([sys.executable, "-c", _CHILD, *EVAL_ARGV], env=env,
                              capture_output=True, text=True, check=True).stderr.split()[-1])
           for _ in range(runs)]
    return statistics.median(rss)


def _stress_chunk(rng, m: int) -> np.ndarray:
    """m numbers, a quarter of each kind: random finite bit patterns; short
    decimals k 10^e (k < 10^7, |e| <= 30); engine-like noise, normal values
    at scales 10^-20..10^5 and multiples of 2^-56; powers of 2 and 10 with
    their neighbours, and integers and halves about 2^53."""
    q = m // 4
    bits = rng.integers(0, 2**64, 2 * q, dtype=np.uint64).view(np.float64)
    powers = np.concatenate([np.ldexp(1.0, rng.integers(-1074, 1024, q // 3)),
                             10.0 ** rng.integers(-307, 309, q // 3)])
    exact = rng.integers(2**52, 2**54, q - 2 * (q // 3)) + rng.integers(0, 2, q - 2 * (q // 3)) / 2
    x = np.concatenate([
        bits[np.isfinite(bits)][:q],
        rng.integers(1, 10**7, q) * 10.0 ** rng.integers(-30, 31, q),
        rng.normal(size=q - q // 4) * 10.0 ** rng.uniform(-20, 5, q - q // 4),
        rng.integers(-2**20, 2**20, q // 4) * 2.0**-56,
        np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])[:q - len(exact)],
        exact])
    x *= rng.choice([-1.0, 1.0], len(x))
    return x[:len(x) // 2 * 2]


def stress(count: int, seed: int = 0) -> dict:
    """floattext.join_reprs against float.__repr__ on count numbers from
    _stress_chunk, a million at a time."""
    from rmx import floattext
    rng, calls = np.random.default_rng(seed), []
    floattext.repr = lambda v: calls.append(v) or repr(v)  # counts the fallback
    checked = differ = 0
    try:
        while checked < count:
            x = _stress_chunk(rng, min(10**6, count - checked))
            got = floattext.join_reprs(x, ",", ";", "", "").replace(";", ",").split(",")
            differ += sum(g != w for g, w in zip(got, map(repr, x.tolist())))
            checked += len(x)
    finally:
        del floattext.repr
    return {"numbers": checked, "seed": seed, "texts_differ": differ,
            "left_to_float_repr": len(calls)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--fresh", type=int, default=5)
    ap.add_argument("--json", metavar="FILE")
    ap.add_argument("--stress", type=int, metavar="N")
    args = ap.parse_args(argv)
    if args.stress:
        result = stress(args.stress)
        print(json.dumps(result))
        if args.json:
            Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
        return 1 if result["texts_differ"] else 0
    rss = fresh_maxrss_kb(args.fresh) if args.fresh else None
    results = measure(args.repeats)
    print(f"{'curve':9s} {'rank':>4s} {'numbers':>8s} {'writer ms':>10s} "
          f"{'repr ms':>9s} {'speed-up':>8s}")
    for r in results:
        print(f"{r['curve']:9s} {r['rank']:4d} {r['numbers']:8d} {r['writer_ms']:10.3f} "
              f"{r['repr_join_ms']:9.3f} {r['speedup']:8.2f}")
    if rss is not None:
        print(f"fresh rank-12 eval ru_maxrss: {rss / 1024:.2f} MB "
              f"(median of {args.fresh} interpreters)")
    if args.json:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "repeats": args.repeats,
               "clock": "time.thread_time", "fresh_runs": args.fresh}
        Path(args.json).write_text(json.dumps(
            {"env": env, "results": results, "fresh_eval_maxrss_kb": rss}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
