# tests/time_engines.py

"""Per-call timing of the glued engines, one row and stacked, and the cost
of two sampled checks.

    python tests/time_engines.py                 # tables on stdout
    python tests/time_engines.py --json FILE     # the same numbers as JSON
    python tests/time_engines.py --check nodal dual   # one check's cost as JSON
    python tests/time_engines.py --check nodal aybe --rank 8

For the nodal and cuspidal engines at n = 2..8 (the degrees of perfbench's
engine-aybe workload, (2, 1) at n = 2) and at n = 12 (engine-eval's rank-12
degree) it times, on six parameter rows the engine accepts:

- one one-row call (`engine_nodal` / `engine_cusp`), k = 1;
- the six rows as one stack (`rmatrix._nodal_rows` / `_cusp_rows`), k = 6,
  against six one-row calls;
- the stages of the pipeline at k = 1 and k = 6: Hom-space assembly
  (`_hom_space_glued` without its SVD and QR), the nullspace SVD
  (`_nullspace`), the QR and the residue solve (`_compose_ev_res`).  The
  nodal engine runs each stage on its n orbit blocks of n entries (one
  stack of k x n blocks: SVDs of n x n, QRs of 3n x n, solves of n x n);
  the cuspidal one on the whole n^2 x n^2 system.

The calls are interleaved and each figure is the median wall time of
`--repeats` rounds (a sixth of them, at least 5, at n = 12), so a slow
stretch of a shared host hits all of them alike.  The ratio of six one-row
calls to one stack of six shows what a stack saves per row.  A sampled check
stacks more: the rows of every draw it draws ahead (at most 50 draws, six
rows each), rejected draws' later rows included.  So the script first runs two 50-sample
rank-5 checks, `dual` on the nodal engine and `aybe` on the cuspidal one
(CHECK_RANK: the cuspidal cutoff of `rmatrix._STACK_MAX_N`; both stack
there), each in a process of its own.  The
process runs its check CHECK_REPEATS times and gives the thread time of the
first run, the median thread time of the later ones (the first also pays the
process's one-time costs) and the process's peak RSS (`ru_maxrss`) after
them.  `--rank N` runs the `--check` at rank N
instead, with the degree in DEGREES.  It is not a pytest module.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from rmx import rmatrix, verify  # noqa: E402

DEGREES = {"nodal": {2: 1, 3: 1, 4: 1, 5: 2, 6: 1, 7: 3, 8: 3, 12: 5},
           "cusp": {2: 1, 3: 2, 4: 3, 5: 3, 6: 5, 7: 4, 8: 5, 12: 5}}
STAGES = ("hom_assembly", "nullspace_svd", "qr", "res_solve")
CHECKS = (("nodal", "dual"), ("cusp", "aybe"))   # 50 samples at CHECK_RANK
CHECK_RANK = 5
CHECK_REPEATS = 5


def _rows(kind: str, n: int, d: int, k: int = 6) -> list:
    """k rows (lam1, lam2, y1, y2) in the ring 0.3 <= |z| <= 1.3 that the
    engine accepts; an AssertionError if fewer than k of 200 random rows are."""
    engine = rmatrix.engine_nodal if kind == "nodal" else rmatrix.engine_cusp
    rng = np.random.default_rng(10 * n + d)
    rows, refusal = [], None
    for _ in range(200):
        row = tuple(rng.uniform(0.3, 1.3, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
        try:
            engine(n, d, *row)
        except rmatrix.EngineError as e:
            refusal = e
            continue
        rows.append(row)
        if len(rows) == k:
            return rows
    raise AssertionError(f"{kind} ({n}, {d}) accepts fewer than {k} of 200 random rows; "
                         f"the last refusal: {refusal}")


def _elapsed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class _StageClock:
    """Adds the time spent in each pipeline stage while installed."""

    def __init__(self):
        self.spent = dict.fromkeys(("hom", "nullspace_svd", "qr", "res_solve"), 0.0)
        self._saved = []

    def _timed(self, owner, name, stage):
        fn = getattr(owner, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[stage] += time.perf_counter() - t0
        self._saved.append((owner, name, fn))
        setattr(owner, name, timed)

    def __enter__(self):
        self._timed(rmatrix, "_hom_space_glued", "hom")
        self._timed(rmatrix, "_nullspace", "nullspace_svd")
        self._timed(np.linalg, "qr", "qr")
        self._timed(rmatrix, "_compose_ev_res", "res_solve")
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)

    def stages(self) -> dict:
        s = self.spent
        return {"hom_assembly": s["hom"] - s["nullspace_svd"] - s["qr"],
                "nullspace_svd": s["nullspace_svd"], "qr": s["qr"], "res_solve": s["res_solve"]}


def _stage_times(stacked, rows) -> dict:
    with _StageClock() as clock:
        stacked(rows)
    return clock.stages()


def measure(kind: str, n: int, repeats: int) -> dict:
    d = DEGREES[kind][n]
    rows = _rows(kind, n, d)
    engine = rmatrix.engine_nodal if kind == "nodal" else rmatrix.engine_cusp
    stacked = (rmatrix._nodal_rows if kind == "nodal" else rmatrix._cusp_rows)
    stack = lambda rs: stacked(n, d, rs)  # noqa: E731
    one, six_calls, six_stacked = [], [], []
    stages = {1: {s: [] for s in STAGES}, 6: {s: [] for s in STAGES}}
    for _ in range(repeats):
        one.append(_elapsed(lambda: engine(n, d, *rows[0])))
        six_calls.append(_elapsed(lambda: [engine(n, d, *row) for row in rows]))
        six_stacked.append(_elapsed(lambda: stack(rows)))
        for k in (1, 6):
            for stage, t in _stage_times(stack, rows[:k]).items():
                stages[k][stage].append(t)
    ms = lambda ts: round(1e3 * statistics.median(ts), 4)  # noqa: E731
    return {"kind": kind, "n": n, "d": d, "k1_ms": ms(one), "six_calls_ms": ms(six_calls),
            "stack6_ms": ms(six_stacked),
            "speedup_stack6": round(statistics.median(six_calls) / statistics.median(six_stacked), 3),
            "stages_k1_ms": {s: ms(v) for s, v in stages[1].items()},
            "stages_k6_ms": {s: ms(v) for s, v in stages[6].items()}}


def check_cost(kind: str, identity: str, n: int = CHECK_RANK) -> dict:
    """Thread time of one 50-sample rank-n check of `identity` on the `kind`
    engine (seed 0), run CHECK_REPEATS times: the first run and the median of
    the later ones, and the peak RSS of this process after them."""
    sol = rmatrix.engine_solution(kind, n, DEGREES[kind][n])
    check = {"aybe": verify.aybe, "dual": verify.aybe_dual}[identity]
    runs = []
    for _ in range(CHECK_REPEATS):
        t0 = time.thread_time()
        report = check(sol, samples=50)
        runs.append(1e3 * (time.thread_time() - t0))
    return {"kind": kind, "identity": identity, "n": n, "d": DEGREES[kind][n],
            "passed": report.passed, "first_thread_ms": round(runs[0], 2),
            "thread_ms": round(statistics.median(runs[1:]), 2),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=60)
    ap.add_argument("--json", metavar="FILE")
    ap.add_argument("--check", nargs=2, metavar=("KIND", "IDENTITY"),
                    help="run one CHECKS entry and print its cost as JSON")
    ap.add_argument("--rank", type=int, default=CHECK_RANK,
                    help="the rank of the --check (one of DEGREES)")
    args = ap.parse_args(argv)
    if args.check:
        print(json.dumps(check_cost(*args.check, args.rank)))
        return 0
    # the checks first, while this process is smallest: on Linux a child's
    # ru_maxrss starts from its parent's, through fork and exec
    checks = []
    print(f"{'engine':6s} {'check':5s} {'n':>2s} {'d':>2s} {'first ms':>9s} {'thread ms':>10s} "
          f"{'peak RSS MB':>12s}")
    for kind, identity in CHECKS:
        out = subprocess.run([sys.executable, __file__, "--check", kind, identity],
                             capture_output=True, text=True, check=True).stdout
        c = json.loads(out)
        checks.append(c)
        print(f"{kind:6s} {identity:5s} {c['n']:2d} {c['d']:2d} {c['first_thread_ms']:9.1f} "
              f"{c['thread_ms']:10.1f} {c['peak_rss_mb']:12.1f}", flush=True)
    results = []
    print(f"\n{'engine':6s} {'n':>2s} {'d':>2s} {'k=1':>8s} {'6 calls':>8s} {'stack 6':>8s} "
          f"{'ratio':>6s}  stages at k=1 / k=6 (ms): " + ", ".join(STAGES))
    for kind in ("nodal", "cusp"):
        for n in DEGREES[kind]:
            r = measure(kind, n, max(5, args.repeats // 6) if n > 8 else args.repeats)
            results.append(r)
            st = "  ".join(f"{r['stages_k1_ms'][s]:.3f}/{r['stages_k6_ms'][s]:.3f}" for s in STAGES)
            print(f"{kind:6s} {n:2d} {r['d']:2d} {r['k1_ms']:8.3f} {r['six_calls_ms']:8.3f} "
                  f"{r['stack6_ms']:8.3f} {r['speedup_stack6']:6.2f}  {st}", flush=True)
    if args.json:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "repeats": args.repeats,
               "stack_max_n": rmatrix._STACK_MAX_N}
        Path(args.json).write_text(json.dumps({"env": env, "results": results,
                                               "checks": checks}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
