# tests/test_cli_contract.py

"""The exit-code contract of rmx's command line, tested on argvs generated
from its grammar: a subcommand, a catalog solution or an engine (by curve
and (n, d), or by (g2, g3)), and numbers that include 0, +-1e300, NaN, inf
and lattice points.  Whatever the argv:

- the exit code is 0 (pass), 1 (identity failure), 2 (usage error) or 3
  (degenerate system);
- a failure other than an identity failure writes one `error:` line to
  stderr (after argparse's usage lines, for a malformed option), and no
  traceback escapes;
- exit 0 prints no non-finite number;
- a run that ends in 0 or 1 gives the same bytes again (the seed is fixed).
"""

import contextlib
import io
import math
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rmx import catalog
from rmx.cli import main

# the real numbers an argument takes: the extremes (a subnormal among them),
# a few ordinary values and the lattice points of the catalog (y = 1 and
# tau = 1.1i for ell21, pi for the trigonometric entries)
REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, math.nan, math.inf, -math.inf,
                     math.pi, -math.pi, 1.1, 0.55, 0.5, 1e-300, 5e-324, 0.3]),
    st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def complexes(draw) -> str:
    re_ = repr(draw(REALS))
    return re_ if draw(st.booleans()) else f"{re_},{draw(REALS)!r}"


@st.composite
def targets(draw) -> list:
    kind = draw(st.sampled_from(["solution", "curve", "weierstrass"]))
    if kind == "solution":
        return [f"--solution={draw(st.sampled_from(catalog.NAMES + ('nope',)))}"]
    if kind == "curve":
        curve = draw(st.sampled_from(["nodal", "cuspidal", "elliptic"]))
        return [f"--curve={curve}", f"--rank={draw(st.integers(-1, 3))}",
                f"--deg={draw(st.integers(-2, 3))}"]
    return [f"--g2={draw(complexes())}", f"--g3={draw(complexes())}"]


def _options(draw, names) -> list:
    """--name=value for a drawn subset of names, values by their strategy."""
    return [f"--{name}={draw(strategy)}" for name, strategy in names
            if draw(st.booleans())]


@st.composite
def argvs(draw) -> list:
    command = draw(st.sampled_from(["eval", "verify", "sweep", "canon"]))
    if command == "canon":
        return ["canon", f"--type={draw(st.sampled_from(['nodal', 'cusp']))}",
                f"--n1={draw(st.integers(-1, 3))}", f"--n2={draw(st.integers(-1, 3))}",
                f"--lambda={draw(complexes())}"]
    argv = [command, *draw(targets())]
    argv += _options(draw, [("tau", complexes())])
    if command == "eval":
        argv += _options(draw, [(name, complexes()) for name in ("v", "y", "v1", "v2", "y1", "y2")])
        argv += _options(draw, [("out", st.sampled_from(["json", "csv"]))])
    elif command == "verify":
        identity = draw(st.sampled_from(["aybe", "dual", "unitarity", "cybe", "qybe", "limit",
                                         "laurent", "casimir", "degeneration", "dunkl"]))
        argv += [f"--identity={identity}", f"--samples={draw(st.integers(0, 2))}",
                 f"--seed={draw(st.integers(0, 3))}"]
        argv += _options(draw, [("tol", st.sampled_from(["1e-8", "0", "1", "nan", "1e300"])),
                                ("v0", complexes()), ("kappa", REALS.map(repr))])
    else:
        argv += [f"--kind={draw(st.sampled_from(['degeneration', 'limit']))}"]
        argv += _options(draw, [("grid", st.lists(REALS.map(repr), min_size=1, max_size=3)
                                 .map(",".join))])
    return argv


NON_FINITE = re.compile(r"\b(NaN|Infinity|nan|inf)\b")


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr, whether argparse exited) of main(argv) in-process."""
    out, err = io.StringIO(), io.StringIO()
    parser_exit = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: a malformed option
            code, parser_exit = e.code, True
    return code, out.getvalue(), err.getvalue(), parser_exit


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_keeps_its_exit_code_contract(argv):
    code, out, err, parser_exit = run(argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code in (2, 3):
        lines = err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:], err
        assert parser_exit or (len(lines) == 1 and lines[0].startswith("error: ")), err
    else:
        assert err == ""
    if code == 0:
        assert not NON_FINITE.search(out), out
    if code in (0, 1):
        assert run(argv) == (code, out, err, parser_exit)
