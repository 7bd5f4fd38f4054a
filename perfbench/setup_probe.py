"""Set-up probe for the rmx benchmark, run in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR < argv_lists.json

Imports rmx from SRC_DIR and runs each rmx command line read from stdin
(a JSON list of argv lists) with its output discarded.  The caller times
the whole process: interpreter start, imports and one warm-up op of each
kind.  Exits 1 if a command raised instead of returning an exit code.
"""

import contextlib
import io
import json
import sys

sys.path.insert(0, sys.argv[1])
argvs = json.load(sys.stdin)

from rmx import cli  # noqa: E402

for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
