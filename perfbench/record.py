"""Append a trajectory point: every workload at the given seeds, untraced,
plus one traced run per workload.

    python3 perfbench/record.py --seeds 1,2,3

Each run of perfbench/run.py becomes one line of perfbench/trajectory.jsonl
holding the run's report (environment and git commit included) and result.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    with open(HERE / "trajectory.jsonl", "a") as fh:
        for w in SPEC["workloads"]:
            for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
                cmd = SPEC["command"] + ["--workload", w["name"], "--seed", str(seed),
                                         "--seconds", str(SPEC["run_seconds"]),
                                         "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                                      text=True, timeout=900)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                report, result = proc.stdout.strip().splitlines()[-2:]
                fh.write(json.dumps({"date": date, **json.loads(report),
                                     "result": json.loads(result)}) + "\n")
                fh.flush()
                print(w["name"], seed, trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
