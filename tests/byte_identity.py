# tests/byte_identity.py

"""Byte-identity check of rmx's output on the benchmark's ops.

    python tests/byte_identity.py digest FILE     # write one digest per op
    python tests/byte_identity.py digest FILE --workload catalog-verify
    python tests/byte_identity.py diff OLD NEW    # list the ops that differ

`digest` takes every op of passes 0-2, the warm-up and the defect probe of
the three workloads of perfbench/workloads.py at seeds 1-3, runs each through
rmx.cli.main in-process (the rmx under src/ next to this file) and writes one
line per op: its key (workload, seed, part, index), the exit code, the JSON
verdict (`passed`) and `max_residual` in clear ("-" where the output has
none), the sha256 of (exit code, stdout, stderr) and the argv.  Run it in two
checkouts and `diff` the files: it counts, per workload, the ops whose exit
code, verdict or bytes changed and gives the largest |change of
max_residual| among the changed ops, so that a change at rounding level
shows as one; its exit status is 0 when every op has the same digest.  It is
not a pytest module: it runs the full op lists, some 1,800 ops, in about
half a minute.  `--workload NAME` (repeatable) digests only the ops of the
named workloads; `diff` then compares the ops both files have and lists the
others as in one file only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
PASSES = (0, 1, 2)


def ops(workloads=None):
    """(key, argv) of every op of the named workloads (default: all), in a
    fixed order."""
    from workloads import WORKLOADS, defect_probe, make_pass, warmup_ops
    unknown = set(workloads or ()) - set(WORKLOADS)
    if unknown:
        raise ValueError(f"unknown workload {', '.join(sorted(unknown))}; "
                         f"known: {', '.join(sorted(WORKLOADS))}")
    for workload in sorted(workloads or WORKLOADS):
        for seed in SEEDS:
            parts = [(f"pass{k}", make_pass(workload, seed, k)) for k in PASSES]
            parts += [("warmup", warmup_ops(workload, seed)),
                      ("probe", defect_probe(workload, seed))]
            for part, part_ops in parts:
                for i, op in enumerate(part_ops):
                    yield f"{workload} {seed} {part} {i}", op["argv"]


def _verdict(stdout: str) -> tuple:
    """(passed, max_residual) of a JSON residual report, as text; "-" for
    each one the output does not have."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return "-", "-"
    if not isinstance(report, dict):
        return "-", "-"
    return tuple(json.dumps(report[k]) if k in report else "-"
                 for k in ("passed", "max_residual"))


def digest(cli, argv: list) -> tuple:
    """(exit code, passed, max_residual, sha256 of (exit code, stdout,
    stderr)) of one in-process rmx command; an exception escaping main is its
    outcome, as a crash of the program, and its exit code reads "crash"."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # noqa: BLE001 - a crash is one more outcome
            code = f"crash: {type(e).__name__}: {e}"
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    shown = "crash" if str(code).startswith("crash") else code
    return (shown, *_verdict(out.getvalue()),
            hashlib.sha256(text.encode()).hexdigest())


def write_digests(path: str, workloads=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from rmx import cli
    keyed = list(ops(workloads))
    n = 0
    with open(path, "w") as fh:
        for key, argv in keyed:
            fh.write(f"{key} {' '.join(map(str, digest(cli, argv)))} {' '.join(argv)}\n")
            n += 1
    print(f"{n} ops digested into {path}")
    return 0


def _read(path: str) -> dict:
    """key -> (exit code, passed, max_residual, digest, argv) of every op of
    a digest file."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split(" ", 8) for line in fh if line.strip()]
    return {" ".join(r[:4]): tuple(r[4:]) for r in rows}


def _residual_change(old: tuple, new: tuple) -> float:
    """|new - old max_residual| of one op: 0 when either has none or both
    read the same, inf when only one of them is NaN."""
    if old[2] == new[2] or "-" in (old[2], new[2]):
        return 0.0
    delta = abs(float(json.loads(new[2])) - float(json.loads(old[2])))
    return math.inf if math.isnan(delta) else delta


def diff(old_path: str, new_path: str) -> int:
    old, new = _read(old_path), _read(new_path)
    both = [k for k in old if k in new]
    changed = [k for k in both if old[k][3] != new[k][3]]
    missing = sorted(old.keys() ^ new.keys())
    for k in changed:
        (code0, pass0, res0), (code1, pass1, res1) = old[k][:3], new[k][:3]
        print(f"changed {k}: exit {code0} -> {code1}, passed {pass0} -> {pass1}, "
              f"max_residual {res0} -> {res1}: {new[k][4]}")
    for k in missing:
        print(f"only in {old_path if k in old else new_path}: {k}")
    for workload in sorted({k.split()[0] for k in both}):
        keys = [k for k in both if k.split()[0] == workload]
        codes = sum(old[k][0] != new[k][0] for k in keys)
        verdicts = sum(old[k][1] != new[k][1] for k in keys)
        outputs = [k for k in keys if k in changed]
        delta = max((_residual_change(old[k], new[k]) for k in outputs), default=0.0)
        print(f"{workload}: {len(keys)} ops, {codes} exit codes changed, "
              f"{verdicts} verdicts changed, {len(outputs)} outputs changed, "
              f"largest |delta max_residual| {delta:.3g}")
    print(f"{len(both)} ops in both, {len(changed)} changed, "
          f"{len(missing)} in one file only")
    return 1 if changed or missing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    g = sub.add_parser("digest", help="digest every op into FILE")
    g.add_argument("file")
    g.add_argument("--workload", action="append", metavar="NAME",
                   help="digest only this workload's ops (repeatable)")
    d = sub.add_parser("diff", help="compare two digest files")
    d.add_argument("old")
    d.add_argument("new")
    args = ap.parse_args(argv)
    if args.command == "digest":
        try:
            return write_digests(args.file, args.workload)
        except ValueError as e:
            ap.error(str(e))
    return diff(args.old, args.new)


if __name__ == "__main__":
    # one BLAS thread, set before numpy loads, as in perfbench/run.py
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
