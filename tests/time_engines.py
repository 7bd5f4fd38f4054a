# tests/time_engines.py

"""Per-call timing of the glued engines, one row and stacked, and the cost
of two sampled checks.

    python tests/time_engines.py                 # tables on stdout
    python tests/time_engines.py --json FILE     # the same numbers as JSON
    python tests/time_engines.py --check nodal dual   # one check's cost as JSON
    python tests/time_engines.py --check nodal aybe --rank 8
    python tests/time_engines.py --against OTHER_CHECKOUT [--json FILE]

For the nodal and cuspidal engines at n = 2..8 (the degrees of perfbench's
engine-aybe workload, (2, 1) at n = 2) and at n = 12 (engine-eval's rank-12
degree) it times, on six parameter rows the engine accepts:

- one one-row call (`engine_nodal` / `engine_cusp`) on a plan built once
  (`rmatrix._GluedPlan`, as an engine solution holds it), k = 1;
- the six rows as one stack (`rmatrix._nodal_rows` / `_cusp_rows`), k = 6,
  against six one-row calls;
- the stages of the pipeline at k = 1 and k = 6: Hom-space assembly
  (`_hom_space_glued` without its SVD and Cholesky stage), the nullspace
  SVD (`_nullspace`), the Cholesky stage (`_orthonormal_rows`: Gram matrix,
  Cholesky factor, triangular inverse and product), the evaluation of the
  basis at y1 and y2 (`_at_affine`), the residue solve (`_compose_ev_res`)
  and within it the inverse (its `np.linalg.inv`: of the reduced block
  `A` from `rmatrix._REDUCED_MIN_ENTRIES` entries on, of the whole residue
  matrix below; the stage is called reduced_solve).  The nodal engine
  runs each stage on its n orbit blocks of n entries (one stack of k x n
  blocks: SVDs of n x n, Cholesky factors of n x n, solves of n x n); the
  cuspidal one on the whole system, whose reduced solve from rank 7 on
  leaves out the n1 n2 free directions (n^2 - n1 n2 square).

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
instead, with the degree in DEGREES.

`--against DIR` compares this checkout with another one in one process:
it imports DIR/src/rmx under the package name `rmx_against` next to this
checkout's rmx and, through each side's `engine_solution` (as a sampled
check calls it), times one one-row call and six rows (as one stack where
the solution has `evaluate_rows`, else six one-row calls) for every engine
and rank of DEGREES, alternating the sides and which one goes first in each
round; then, the same way, the checks of AGAINST_CHECKS (AGAINST_SAMPLES
samples, seed 0, `--repeats` / 3 rounds).  Each figure is the median
thread time of `--repeats` rounds (a sixth of them at n = 12), and
`faster_share` the share of rounds in which this checkout's call took less
time; `same_bits` says whether both sides gave the same bytes (a check: the
same max_residual).  One process sees one host state, so differences of
about 1% resolve, where separate processes spread by up to 2x on a shared
host.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS says otherwise.
It is not a pytest module.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from rmx import rmatrix, verify  # noqa: E402

DEGREES = {"nodal": {2: 1, 3: 1, 4: 1, 5: 2, 6: 1, 7: 3, 8: 3, 12: 5},
           "cusp": {2: 1, 3: 2, 4: 3, 5: 3, 6: 5, 7: 4, 8: 5, 12: 5}}
STAGES = ("hom_assembly", "nullspace_svd", "cholesky", "evaluation", "res_solve",
          "reduced_solve")
CHECKS = (("nodal", "dual"), ("cusp", "aybe"))   # 50 samples at CHECK_RANK
CHECK_RANK = 5
CHECK_REPEATS = 5
# (engine, identity, rank) of the checks --against times, AGAINST_SAMPLES samples each
AGAINST_CHECKS = (("nodal", "dual", 3), ("nodal", "dual", 8), ("cusp", "aybe", 5),
                  ("cusp", "dual", 5))
AGAINST_SAMPLES = 10


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
        self.spent = dict.fromkeys(("hom", "nullspace_svd", "cholesky", "evaluation",
                                    "res_solve", "reduced_solve"), 0.0)
        self._saved = []
        self._solving = False  # inside _compose_ev_res

    def _timed(self, owner, name, stage, solving=False):
        """Time owner.name into stage; with solving, only the calls made
        inside _compose_ev_res."""
        fn = getattr(owner, name)

        def timed(*args, **kwargs):
            if solving and not self._solving:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            self._solving |= stage == "res_solve"
            try:
                return fn(*args, **kwargs)
            finally:
                self._solving &= stage != "res_solve"
                self.spent[stage] += time.perf_counter() - t0
        self._saved.append((owner, name, fn))
        setattr(owner, name, timed)

    def __enter__(self):
        self._timed(rmatrix, "_hom_space_glued", "hom")
        self._timed(rmatrix, "_nullspace", "nullspace_svd")
        self._timed(rmatrix, "_orthonormal_rows", "cholesky")
        self._timed(rmatrix, "_at_affine", "evaluation")
        self._timed(rmatrix, "_compose_ev_res", "res_solve")
        self._timed(np.linalg, "inv", "reduced_solve", solving=True)
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)

    def stages(self) -> dict:
        s = self.spent
        return {"hom_assembly": s["hom"] - s["nullspace_svd"] - s["cholesky"],
                **{k: s[k] for k in STAGES[1:]}}


def _stage_times(stacked, rows) -> dict:
    with _StageClock() as clock:
        stacked(rows)
    return clock.stages()


def measure(kind: str, n: int, repeats: int) -> dict:
    d = DEGREES[kind][n]
    rows = _rows(kind, n, d)
    engine = rmatrix.engine_nodal if kind == "nodal" else rmatrix.engine_cusp
    stacked = (rmatrix._nodal_rows if kind == "nodal" else rmatrix._cusp_rows)
    plan = rmatrix._GluedPlan("nodal" if kind == "nodal" else "cuspidal", n, d)
    stack = lambda rs: stacked(plan, rs)  # noqa: E731
    one, six_calls, six_stacked = [], [], []
    stages = {1: {s: [] for s in STAGES}, 6: {s: [] for s in STAGES}}
    for _ in range(repeats):
        one.append(_elapsed(lambda: engine(n, d, *rows[0], plan)))
        six_calls.append(_elapsed(lambda: [engine(n, d, *row, plan) for row in rows]))
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


def _load_against(root: Path):
    """The rmatrix and verify modules of the rmx under root/src, imported as
    the package rmx_against: its modules import each other relatively, so
    none of them is this checkout's."""
    spec = importlib.util.spec_from_file_location(
        "rmx_against", root / "src" / "rmx" / "__init__.py",
        submodule_search_locations=[str(root / "src" / "rmx")])
    package = importlib.util.module_from_spec(spec)
    sys.modules["rmx_against"] = package
    spec.loader.exec_module(package)
    return (importlib.import_module("rmx_against.rmatrix"),
            importlib.import_module("rmx_against.verify"))


def _thread_ms(fn) -> float:
    t0 = time.thread_time()
    fn()
    return 1e3 * (time.thread_time() - t0)


def _interleaved(kind: str, n: int, d: int, case: str, this, that, rounds: int) -> dict:
    """Median thread times of the calls this() and that(), alternated over
    rounds with the first side switching each round; their outputs' bytes
    compared once."""
    same = this() == that()
    times = ([], [])
    for r in range(rounds):
        for side in ((0, 1) if r % 2 else (1, 0)):
            times[side].append(_thread_ms((this, that)[side]))
    ms = [statistics.median(t) for t in times]
    result = {"kind": kind, "n": n, "d": d, "case": case,
              "this_ms": round(ms[0], 4), "against_ms": round(ms[1], 4),
              "ratio": round(ms[0] / ms[1], 3),
              "faster_share": round(sum(a < b for a, b in zip(*times)) / rounds, 2),
              "same_bits": same, "rounds": rounds}
    print(f"{kind:6s} {n:2d} {d:2d} {case:10s} {ms[0]:9.4f} {ms[1]:9.4f} "
          f"{ms[0] / ms[1]:6.3f} {result['faster_share']:6.2f} {same}", flush=True)
    return result


def against(root: Path, repeats: int) -> list:
    """Per engine, rank and case (one row, six rows), and for the checks of
    AGAINST_CHECKS, the median thread time of this checkout's call and of
    root's, interleaved (see the module docstring)."""
    other, other_verify = _load_against(root)
    results = []
    for kind in ("nodal", "cusp"):
        for n, d in DEGREES[kind].items():
            rows = _rows(kind, n, d)
            sols = [m.engine_solution(kind, n, d) for m in (rmatrix, other)]
            cases = {"k1": [lambda sol=sol: sol.evaluator(*rows[0]).coeffs for sol in sols]}
            cases["k6"] = [
                (lambda sol=sol: sol.evaluate_rows(rows)) if sol.evaluate_rows
                else (lambda sol=sol: np.array([sol.evaluator(*r).coeffs for r in rows]))
                for sol in sols]
            rounds = max(5, repeats // 6) if n > 8 else repeats
            for case, (this, that) in cases.items():
                results.append(_interleaved(kind, n, d, case, lambda f=this: f().tobytes(),
                                            lambda f=that: f().tobytes(), rounds))
    for kind, identity, n in AGAINST_CHECKS:
        d = DEGREES[kind][n]
        checks = [getattr(v, {"aybe": "aybe", "dual": "aybe_dual"}[identity])
                  for v in (verify, other_verify)]
        sols = [m.engine_solution(kind, n, d) for m in (rmatrix, other)]
        this, that = (lambda c=c, sol=sol: c(sol, samples=AGAINST_SAMPLES).max_residual
                      for c, sol in zip(checks, sols))
        results.append(_interleaved(kind, n, d, identity, this, that, max(5, repeats // 3)))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=60)
    ap.add_argument("--json", metavar="FILE")
    ap.add_argument("--check", nargs=2, metavar=("KIND", "IDENTITY"),
                    help="run one CHECKS entry and print its cost as JSON")
    ap.add_argument("--rank", type=int, default=CHECK_RANK,
                    help="the rank of the --check (one of DEGREES)")
    ap.add_argument("--against", metavar="DIR", type=Path,
                    help="compare with the checkout at DIR in this process")
    args = ap.parse_args(argv)
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "repeats": args.repeats,
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "stack_max_n": rmatrix._STACK_MAX_N}
    if args.against:
        print(f"{'engine':6s} {'n':>2s} {'d':>2s} {'case':10s} {'this ms':>9s} {'that ms':>9s} "
              f"{'ratio':>6s} {'faster':>6s} same bits")
        results = against(args.against, args.repeats)
        if args.json:
            Path(args.json).write_text(json.dumps(
                {"env": {**env, "against": str(args.against)}, "interleaved": results},
                indent=1) + "\n")
        return 0
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
        Path(args.json).write_text(json.dumps({"env": env, "results": results,
                                               "checks": checks}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
