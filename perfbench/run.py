"""rmx benchmark: run one workload of seeded `rmx` commands and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one `rmx` command line, executed in this process through
`rmx.cli.main(argv)` with stdout and stderr captured; one process and one
thread make the load (a closed loop: the next op starts when the last one
returns).  rmx is imported from `src/` next to this directory.

--trace 0 runs whole passes of the workload until the ops have been busy
for --seconds, checks every output outside the timed region, and reports
the end-to-end metrics.  --trace 1 runs a fixed number of passes, each op
once untraced and once with spans around the rmx layers (see layers.py),
checks that tracing changed no output byte, writes the spans to
.perfbench/WORKLOAD-SEED.json.gz and reports the per-layer metrics.
Both then run the workload's defect probe (workloads.defect_probe),
untimed, and report which known defects still show.

Op times are CPU time of the thread that runs the op, scaled to the
reference machine of calibrate.py.  An op is one thread computing, with no
I/O and no waiting, so on an idle CPU its CPU time is its wall time; on a
shared host, CPU time leaves out the time that other processes or the
hypervisor held the CPU, and the scale takes out the slower clock and
shared caches while other tenants load it: a fixed reference kernel runs
between ops, and each op's CPU time is divided by how much slower than on
the reference machine the kernel ran around it.  The report gives the
unscaled CPU and wall times beside them.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is a report with the environment, the tail
percentile and its op count, and the failures by kind.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"     # spans of traced runs (ignored by git)


def _pin_blas_threads() -> None:
    """One BLAS thread (set before numpy loads), so that the whole load is
    one thread and its CPU time is the ops' time.  The engines' matrices
    are small: a second BLAS thread gave no measurable speed-up."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


if __name__ == "__main__":
    _pin_blas_threads()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from checker import KNOWN_FAILURES, Checker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, defect_probe, make_pass, warmup_ops  # noqa: E402

# Percentile reported as op_ms.tail: the highest of 90/95/99 that leaves at
# least 10 ops beyond it in every workload (engine-aybe runs about 250 ops in
# 30 s).  Fixed, so that runs of different commits compare the same
# percentile; the report states the count beyond it.
TAIL_PERCENTILE = 95.0
# Passes of the traced run: fixed, so that per-layer counts repeat exactly.
TRACE_PASSES = {"catalog-verify": 15, "engine-eval": 6, "engine-aybe": 2}
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 9
# Op CPU seconds between two runs of the reference kernel.
GAUGE_EVERY_S = 0.25

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms",
                    "op_ms.tail": "ms", "pass_share": "share", "peak_rss_mb": "MB"}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def execute(cli, argv: list):
    """(exit code, stdout, stderr, CPU seconds, wall seconds) of one
    in-process rmx command.  Only the call itself is timed.  An exception
    escaping main is a crash of the program; it is reported as the op's
    outcome, not raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # noqa: BLE001 - the op fails, the run goes on
            code = f"crash: {type(e).__name__}: {e}"
        cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), cpu, wall


class Tally:
    """Failures of a run by label, with the first few unexpected ones."""

    def __init__(self):
        self.attempted = 0
        self.by_label = Counter()
        self.unexpected = []

    def add(self, op: dict, verdict) -> None:
        self.attempted += 1
        if verdict is None:
            return
        label, detail = verdict
        self.by_label[label] += 1
        if label == "unexpected" and len(self.unexpected) < 5:
            self.unexpected.append({"argv": op["argv"], "detail": detail})

    @property
    def failed(self) -> int:
        return sum(self.by_label.values())

    def report(self) -> dict:
        n = max(self.attempted, 1)
        return {
            "failed_share": self.failed / n,
            "known_failures": {label: {"count": c, "share": c / n, "why": KNOWN_FAILURES[label]}
                               for label, c in sorted(self.by_label.items())
                               if label in KNOWN_FAILURES},
            "unexpected_failures": self.by_label.get("unexpected", 0),
            "unexpected_examples": self.unexpected,
        }


def run_probe(cli, workload: str, seed: int) -> tuple:
    """Run the workload's defect probe untimed; (tally, report)."""
    checker, tally = Checker(), Tally()
    for op in defect_probe(workload, seed):
        code, out, err, *_ = execute(cli, op["argv"])
        tally.add(op, checker.check(op, code, out, err))
    known = tally.report()
    return tally, {"ops": tally.attempted, "still_failing": known["known_failures"],
                   "unexpected_failures": known["unexpected_failures"],
                   "unexpected_examples": known["unexpected_examples"]}


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(workload: str, seed: int) -> tuple:
    """Median CPU time (user + system) of a fresh interpreter importing rmx
    and running one warm-up op of each kind of the workload, over
    SETUP_REPEATS runs; and the wall times of the same runs."""
    argvs = json.dumps([op["argv"] for op in warmup_ops(workload, seed)])
    probe = Path(__file__).with_name("setup_probe.py")
    cpu, wall, gauge = [], [], [calibrate.kernel() for _ in range(calibrate.WINDOW)]
    for _ in range(SETUP_REPEATS):
        t0, c0 = time.perf_counter(), _children_cpu()
        proc = subprocess.run([sys.executable, str(probe), str(SRC)], input=argvs,
                              capture_output=True, text=True, timeout=170)
        cpu.append(_children_cpu() - c0)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        gauge.append(calibrate.kernel())
    gauge += [calibrate.kernel() for _ in range(calibrate.WINDOW - 1)]
    scaled = np.array(cpu) / calibrate.scales(gauge)[calibrate.WINDOW - 1:][:SETUP_REPEATS]
    return float(np.median(scaled)), {"cpu_s": cpu, "wall_s": wall}


def timed_run(cli, workload: str, seed: int, seconds: float) -> tuple:
    checker, tally = Checker(), Tally()
    cpus, walls, gap = [], [], []   # per op: CPU s, wall s, gap between kernel samples
    gauge = [calibrate.kernel() for _ in range(calibrate.WINDOW)]
    since = 0.0
    busy = 0.0                      # wall seconds, so a run ends on time
    passes = 0
    while busy < seconds:
        for op in make_pass(workload, seed, passes):
            code, out, err, cpu, wall = execute(cli, op["argv"])
            cpus.append(cpu)
            walls.append(wall)
            gap.append(len(gauge) - 1)
            busy += wall
            tally.add(op, checker.check(op, code, out, err))
            since += cpu
            if since >= GAUGE_EVERY_S:
                gauge.append(calibrate.kernel())
                since = 0.0
        passes += 1
    gauge += [calibrate.kernel() for _ in range(calibrate.WINDOW)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Rate, median and tail are taken over all ops of the run.  The costly
    # ops of a workload draw rejection-sampled points, so their cost varies
    # from op to op; pooling the whole run averages that out best.
    scale = calibrate.scales(gauge)
    cpu_ms = np.array(cpus) * 1e3
    ms = cpu_ms / scale[gap]
    wall_ms = np.array(walls) * 1e3
    tail = float(np.percentile(ms, TAIL_PERCENTILE))
    metrics = {"ops_per_s": len(ms) / (ms.sum() / 1e3), "op_ms.p50": float(np.median(ms)),
               "op_ms.tail": tail, "pass_share": 1 - tally.failed / tally.attempted,
               "peak_rss_mb": peak_rss_mb}
    report = {"passes": passes, "ops": len(ms), "busy_wall_s": busy,
              "busy_cpu_s": cpu_ms.sum() / 1e3, "cpu_share_of_wall": cpu_ms.sum() / wall_ms.sum(),
              "kernel_samples": len(gauge), "cpu_slowdown": {
                  "median": float(np.median(scale)), "min": float(scale.min()),
                  "max": float(scale.max())},
              "cpu_ops_per_s": len(ms) / (cpu_ms.sum() / 1e3),
              "cpu_op_ms.p50": float(np.median(cpu_ms)),
              "cpu_op_ms.tail": float(np.percentile(cpu_ms, TAIL_PERCENTILE)),
              "wall_ops_per_s": len(ms) / busy, "wall_op_ms.p50": float(np.median(wall_ms)),
              "wall_op_ms.tail": float(np.percentile(wall_ms, TAIL_PERCENTILE)),
              "tail_percentile": TAIL_PERCENTILE, "ops_beyond_tail": int(np.sum(ms > tail)),
              **tally.report()}
    return metrics, report, tally


def traced_run(cli, workload: str, seed: int) -> tuple:
    """Each op runs twice, untraced and traced, in alternating order so that
    warm-up effects of the first run cancel out of trace.overhead_s."""
    ops = [op for k in range(TRACE_PASSES[workload]) for op in make_pass(workload, seed, k)]
    checker, tally, tracer = Checker(), Tally(), Tracer()
    busy = {False: 0.0, True: 0.0}
    emitted = changed = 0
    missing = set()
    for i, op in enumerate(ops):
        outcome = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            try:
                if traced:
                    missing = layers.install(tracer)
                outcome[traced] = execute(cli, op["argv"])
            finally:
                tracer.restore()
            busy[traced] += outcome[traced][3]
        code, out, err, *_ = outcome[False]
        tally.add(op, checker.check(op, code, out, err))
        emitted += len(outcome[True][1].encode())
        changed += outcome[True][:2] != (code, out)
    spans_file = SPANS_DIR / f"{workload}-{seed}.json.gz"
    spans_file.parent.mkdir(exist_ok=True)
    tracer.dump(spans_file)
    metrics, absent = layers.metrics(tracer, missing, emitted, busy[True] - busy[False])
    report = {"passes": TRACE_PASSES[workload], "ops": len(ops), "untraced_s": busy[False],
              "traced_s": busy[True], "spans": len(tracer),
              "spans_file": spans_file.relative_to(ROOT).as_posix(),
              "outputs_changed_by_tracing": changed,
              "absent_metrics": absent, "notes": layers.NOTES, **tally.report()}
    return metrics, report, tally, changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rmx" / "cli.py").is_file():
        print(f"error: rmx sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if not args.trace:
        setup_s, setup_runs = measure_setup(args.workload, args.seed)
    from rmx import cli
    if Path(cli.__file__).resolve().parent != SRC / "rmx":
        print(f"error: imported rmx from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for op in warmup_ops(args.workload, args.seed):
        execute(cli, op["argv"])

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace:
        metrics, details, tally, changed = traced_run(cli, args.workload, args.seed)
        correct = not tally.by_label.get("unexpected") and not changed
    else:
        values, details, tally = timed_run(cli, args.workload, args.seed, args.seconds)
        values["setup_s"] = setup_s
        details["setup_runs"] = setup_runs
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        correct = not tally.by_label.get("unexpected")
    probe_tally, report["defect_probe"] = run_probe(cli, args.workload, args.seed)
    correct = correct and not probe_tally.by_label.get("unexpected")
    report.update(details)
    report["env"] = environment()
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
