"""Correctness checks for rmx benchmark ops, run outside the timed region.

Every op's exit code and output must match what the CLI documents for it.
The checker reads only the op record and the program's output; it never
calls into rmx, so checking warms no cache of the program and does not
break when rmx internals move.  The engine cross-checks use closed forms
re-derived here with numpy (the same formulas as the rmx catalog, tied to
it by the benchmark's tests).
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

# Relative tolerance for engine outputs: |difference|_max / max(1, |r|_max).
# Measured worst cases: unitarity 1.7e-11 at cuspidal (12,5) over 26 pairs
# (2e-10 absolute), closed forms 5e-14 at rank 2.  Engine error is about
# cond * eps <= 1e6 * 2.2e-16 = 2e-10 under the engines' condition cap, so
# 1e-8 leaves headroom while any wrong entry (a sign, a transposed leg)
# shows up at order one.
ENGINE_REL_TOL = 1e-8

# Tolerances the CLI applies when --tol is not given.  A report echoing
# another value was loosened (or tightened) somewhere on the way.
DEFAULT_TOL = {"aybe": 1e-8, "dual": 1e-8, "unitarity": 1e-10, "cybe": 1e-9,
               "qybe": 1e-8, "limit": 1e-7, "degeneration": 1e-6,
               "casimir": 1e-8, "dunkl0": 1e-9, "dunkl1": 1e-5}

IDENTITY_FORM = {"dual": "AYBE-dual", "unitarity": "unitarity", "cybe": "CYBE",
                 "qybe": "QYBE", "limit": "classical-limit",
                 "degeneration": "degeneration", "dunkl": "dunkl-commutator"}

CLASSICAL_PARTNER = {"ell21": "ell21_classical", "trg21": "cherednik",
                     "rat21": "stolin", "rat21_degenerate": "yang"}

# Residue of r(v; ...) at v = 0 is c * 1(x)1 for the simple-pole solutions.
LAURENT_RESIDUE = {"ell21": 0.25, "trg21": 1.0, "rat21": 0.5, "rat21_degenerate": 0.5}
# 64-point circle quadrature of radius 0.05: measured error <= 1e-16.
LAURENT_TOL = 1e-9

# Failures that are known defects of the program.  The inputs that hit them
# are run apart from the timed passes (workloads.defect_probe) and reported
# per run by label; they do not make the run incorrect.  Any other failure,
# in a pass or in the probe, does.
KNOWN_FAILURES = {
    "limit-ell21-lattice-pole":
        "verify --identity limit --solution ell21: the CLI's fixed y-grid "
        "0.3..1.2 contains y = 1.0, a lattice pole; residual about 3.7e15",
    "dunkl-ell21-near-pole":
        "verify --identity dunkl --solution ell21: the Dunkl check samples "
        "without the NORM_CAP guard and compares to an absolute tolerance; "
        "residual 1e-11 .. 0.4 depending on the sample seed",
    "engine-condition-cap":
        "rank-12 engines exit 3 on generic points whose spectral spread "
        "exceeds about |v1/v2| = 3.2 (nodal) or |v1 - v2| = 1.5 (cuspidal): "
        "the residue system's condition number passes the fixed cap 1e6",
}


class CheckFailure(Exception):
    pass


def _require(cond, msg: str):
    if not cond:
        raise CheckFailure(msg)


def _json(out: str) -> dict:
    try:
        d = json.loads(out)
    except ValueError:
        raise CheckFailure("output is not JSON") from None
    _require(isinstance(d, dict), "output is not a JSON object")
    return d


def _finite_nonneg(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x) and x >= 0


def _csv(out: str, header: str) -> list:
    lines = out.strip().splitlines()
    _require(lines and lines[0] == header, f"CSV header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


# --- independent 2x2 closed forms, Kronecker layout --------------------------

_E11 = np.array([[1, 0], [0, 0]], dtype=complex)
_E22 = np.array([[0, 0], [0, 1]], dtype=complex)
_E12 = np.array([[0, 1], [0, 0]], dtype=complex)
_E21 = np.array([[0, 0], [1, 0]], dtype=complex)
_ID = np.eye(2, dtype=complex)
_H = np.array([[1, 0], [0, -1]], dtype=complex)
_SIGMA = np.array([[0, -1j], [1j, 0]], dtype=complex)
_GAMMA = np.array([[0, 1], [1, 0]], dtype=complex)


def nodal21(lam, y1, y2) -> np.ndarray:
    """Rank-2 degree-1 nodal solution, lam = lam2 / lam1 (the closed form of
    rmx.catalog.nodal21_multiplicative)."""
    k = np.kron
    dy = y2 - y1
    a = (y2 - lam**2 * y1) / (dy * (1 - lam**2))
    return (a * (k(_E11, _E11) + k(_E22, _E22))
            + lam / (1 - lam**2) * (k(_E11, _E22) + k(_E22, _E11))
            + y1 / dy * k(_E21, _E12) + y2 / dy * k(_E12, _E21)
            + (y2 - lam**2 * y1) / lam * k(_E21, _E21))


def rat21(v, y1, y2) -> np.ndarray:
    """Rational rank-2 solution r(v; y1, y2) (rmx.catalog 'rat21')."""
    k = np.kron
    dy = y2 - y1
    return (1 / (2 * v) * k(_ID, _ID)
            + 1 / dy * (k(_E11, _E11) + k(_E22, _E22) + k(_E12, _E21) + k(_E21, _E12))
            + (v - y1) / 2 * k(_E21, _H) + (v + y2) / 2 * k(_H, _E21)
            - v * (v - y1) * (v + y2) / 2 * k(_E21, _E21))


def semistable20(lam, y) -> np.ndarray:
    """Rank-2 degree-0 semistable nodal solution, lam = lam2/lam1, y = y2/y1
    (rmx.catalog.semistable20_multiplicative)."""
    k = np.kron
    a = (y - lam) / ((y - 1) * (1 - lam))
    return (a * (k(_E11, _E11) + k(_E22, _E22) + k(_E21, _E12) + k(_E12, _E21))
            + lam / (1 - lam) ** 2 * (k(_E12, _H) - k(_H, _E12))
            - lam * (1 + lam) / (1 - lam) ** 3 * k(_E12, _E12))


def theta(j: int, z: complex, tau: complex, deriv: int = 0, terms: int = 30) -> complex:
    """Jacobi theta_j(z | tau) by its series, theta[a,b] convention of rmx;
    30 terms each side are exact to rounding for Im(tau) >= 0.9, |Im z| < 1."""
    a, b, sign = {1: (0.5, 0.5, -1), 2: (0.5, 0, 1), 3: (0, 0, 1), 4: (0, 0.5, 1)}[j]
    total = 0j
    for m in range(-terms, terms + 1):
        n = m + a
        total += (2j * math.pi * n) ** deriv * cmath.exp(
            1j * math.pi * n * n * tau + 2j * math.pi * n * (z + b))
    return sign * total


def elliptic21(x, y, tau) -> np.ndarray:
    """Elliptic solution in the half-argument normalization of the rank-2
    degree-1 engine (rmx.catalog.elliptic_closed_form)."""
    pref = 0.5 * theta(1, 0, tau, deriv=1) / theta(1, y, tau)
    return sum(pref * theta(j, y + x / 2, tau) / theta(j, x / 2, tau) * np.kron(m, m)
               for j, m in zip((1, 2, 3, 4), (_ID, _H, _SIGMA, _GAMMA)))


def _kron_swap(k: np.ndarray, n: int) -> np.ndarray:
    """a (x) b -> b (x) a in the n^2 x n^2 Kronecker layout."""
    return k.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def decode_tensor(d: dict, n: int) -> np.ndarray:
    """The n^2 x n^2 Kronecker matrix of a serialized two-leg tensor."""
    _require(d.get("n") == n and d.get("layout") == "kron-rowmajor",
             "tensor header does not match the op")
    data = np.asarray(d.get("data"), dtype=float)
    _require(data.shape == (n**4, 2), "tensor data has the wrong shape")
    _require(np.all(np.isfinite(data)), "tensor has non-finite entries")
    return (data[:, 0] + 1j * data[:, 1]).reshape(n * n, n * n)


ENGINE_NAME = {"nodal": "engine-nodal({n},{d})", "cuspidal": "engine-cuspidal({n},{d})",
               "semistable": "engine-nodal-semistable(2,0)",
               "elliptic": "engine-elliptic(2,1)"}


def closed_form(op: dict):
    """Independent closed form for the op's engine output, or None."""
    v1, v2, y1, y2 = (complex(*p) for p in op["point"])
    curve, n = op["curve"], op["n"]
    if curve == "nodal" and n == 2:
        return nodal21(v2 / v1, y1, y2)
    if curve == "cuspidal" and n == 2:
        return rat21(v2 - v1, y1, y2)
    if curve == "semistable":
        return semistable20(v2 / v1, y2 / y1)
    if curve == "elliptic":
        return elliptic21(v2 - v1, y2 - y1, complex(*op["tau"]))
    return None


# --- per-op checks ---------------------------------------------------------

def _report(op: dict, code, d: dict, *, solution: str, samples: int, tol: float,
            seed: int, expect_pass: bool = True):
    """A residual report: the sample count equals the request (so no check
    passes vacuously), the residual is finite and >= 0, tol is the CLI
    default and `passed` agrees with residual < tol."""
    ident = op["identity"]
    form = d.get("identity", "")
    _require(form.startswith("AYBE") if ident == "aybe" else form == IDENTITY_FORM[ident],
             f"report names identity {form!r}")
    _require(d.get("solution") == solution, f"report names solution {d.get('solution')!r}")
    _require(d.get("samples") == samples,
             f"report has {d.get('samples')!r} samples, requested {samples}")
    _require(d.get("seed") == seed, "report does not echo the seed")
    _require(d.get("tol") == tol, f"report tol {d.get('tol')!r} is not the default {tol}")
    res = d.get("max_residual")
    _require(_finite_nonneg(res), f"residual {res!r} is not finite and >= 0")
    _require(d.get("passed") is (res < tol), "`passed` disagrees with residual < tol")
    if expect_pass:
        _require(code == 0 and d["passed"], f"identity failed: residual {res!r}")
    else:
        _require(code == 1 and not d["passed"], f"expected a failure, exit {code}")


def check_verify(op: dict, code, out: str):
    ident, sol = op["identity"], op.get("solution")
    d = _json(out)
    if ident == "limit" and sol == "trg20_semistable":
        # higher-order pole in v: the documented outcome is a divergence report
        _require(code == 1 and d.get("divergence") is True and d.get("passed") is False,
                 "expected a divergence report with exit 1")
        return
    if ident == "laurent":
        _require(code == 0, f"exit {code}")
        norms = {int(k): v for k, v in d.get("order_norms", {}).items()}
        _require(sorted(norms) == [-3, -2, -1, 0] and all(map(_finite_nonneg, norms.values())),
                 "order norms missing or not finite")
        if sol == "trg20_semistable":
            _require(norms[-2] > 0.1 and norms[-3] > 0.1, "expected a pole of order 3")
            return
        comp = complex(*d["r_minus1_identity_component"])
        _require(abs(comp - LAURENT_RESIDUE[sol]) < LAURENT_TOL,
                 f"residue {comp} is not {LAURENT_RESIDUE[sol]} * 1(x)1")
        _require(d["r_minus1_offidentity_defect"] < LAURENT_TOL, "residue off the identity")
        _require(norms[-2] < LAURENT_TOL and norms[-3] < LAURENT_TOL, "higher-order pole")
        return
    if ident == "casimir":
        tol = DEFAULT_TOL["casimir"]
        alpha = complex(*d["alpha"])
        # ell21_classical at the default tau = 1.1i: alpha = 1 / (pi theta_3(0)^2)
        want = 1 / (math.pi * theta(3, 0, 1.1j) ** 2) if sol == "ell21_classical" else 1.0
        _require(code == 0 and d.get("passed") is True and d.get("tol") == tol
                 and _finite_nonneg(d.get("defect")) and d["defect"] < tol,
                 "Casimir residue check failed")
        _require(abs(alpha - want) < tol, f"Casimir coefficient {alpha} is not {want}")
        return
    if ident == "qybe" and sol == "trg20_semistable":
        # a pole of order 3 in v breaks the hypothesis under which AYBE +
        # unitarity imply QYBE; the residual is of order 10
        _report(op, code, d, solution=sol, samples=op["samples"],
                tol=DEFAULT_TOL["qybe"], seed=op["seed"], expect_pass=False)
        return
    if ident == "limit":
        _report(op, code, d, solution=f"{sol}->{CLASSICAL_PARTNER[sol]}", samples=10,
                tol=DEFAULT_TOL["limit"], seed=0)
        return
    if ident == "degeneration":
        _report(op, code, d, solution="cherednik->yang", samples=9,
                tol=DEFAULT_TOL["degeneration"], seed=0)
        errs = d.get("extra", {}).get("errors_along_t", [])
        _require(len(errs) == 3 and all(a > b for a, b in zip(errs, errs[1:]))
                 and errs[-1] == d["max_residual"], "errors along t not decreasing")
        return
    if ident == "dunkl":
        # m = 3 legs, 3 sample points, 3 pairs (i, j): 9 residuals
        _report(op, code, d, solution=sol, samples=9,
                tol=DEFAULT_TOL[f"dunkl{op['kappa']}"], seed=op["seed"])
        return
    if "curve" in op:
        _report(op, code, d, solution=ENGINE_NAME[op["curve"]].format(**op),
                samples=op["samples"], tol=DEFAULT_TOL[ident], seed=op["seed"])
        return
    _report(op, code, d, solution=sol, samples=op["samples"], tol=DEFAULT_TOL[ident],
            seed=op["seed"])


# Degeneration sweep: the largest entry error of (1/t) cherednik(y/t) -
# yang(y) over y in {0.3, 0.7, 1.1} is the e21(x)e21 entry (1/t) sin(y/t)
# at y = 1.1, i.e. 1.1 / t^2 * (1 + O(t^-2)); measured 1.0999978/t^2 at t=100.
DEGENERATION_RATE = 1.1
DEGENERATION_RTOL = 1e-3
# Limit sweep: pr(x)pr r(v) converges linearly in v; measured slopes 0.45
# (rat21), 0.66 (trg21), 2.6 (ell21), so |step| <= 4 v + rounding.
LIMIT_SLOPE = 4.0


def check_sweep(op: dict, code, out: str):
    _require(code == 0, f"exit {code}")
    grid = op["grid"]
    if op["kind"] == "sweep:degeneration":
        rows = _csv(out, "t,max_error")
        _require(len(rows) == len(grid), "wrong number of rows")
        for (t, err), want_t in zip(rows, grid):
            t, err = float(t), float(err)
            _require(t == want_t, "t column does not echo the grid")
            _require(abs(err * t * t / DEGENERATION_RATE - 1) < DEGENERATION_RTOL,
                     f"error {err!r} at t = {t!r} is off the 1.1/t^2 rate")
        return
    rows = _csv(out, "v,pr_norm,delta_to_next")
    _require(len(rows) == len(grid), "wrong number of rows")
    _require([float(r[0]) for r in rows] == grid, "v column does not echo the grid")
    pr = [float(r[1]) for r in rows]
    _require(all(map(_finite_nonneg, pr)), "pr norms not finite")
    _require(rows[-1][2] == "", "last row has a delta")
    deltas = [float(r[2]) for r in rows[:-1]]
    _require(all(map(_finite_nonneg, deltas)), "deltas not finite")
    for a, b, dlt in zip(pr, pr[1:], deltas):
        _require(abs(a - b) <= dlt * (1 + 1e-12) + 1e-15,
                 "delta smaller than the change of the norm")
    if op["solution"] == "trg20_semistable":
        _require(all(a < b for a, b in zip(pr, pr[1:])) and pr[-1] > 10 * pr[0],
                 "semistable limit should diverge")
    else:
        for v, dlt in zip(grid, deltas):
            _require(dlt <= LIMIT_SLOPE * v + 1e-9, f"limit does not settle at v = {v}")


class Checker:
    """Judges ops one at a time.  Engine evaluations come in (op, swapped op)
    pairs; the first of a pair is held until the second arrives so that
    unitarity r(v1,v2;y1,y2) + swap(r(v2,v1;y2,y1)) = 0 can be checked."""

    def __init__(self):
        self._pending = {}

    def check(self, op: dict, code, out: str, err: str):
        """None if the op passed, else (label, detail); label is a key of
        KNOWN_FAILURES or 'unexpected'."""
        try:
            if isinstance(code, str):
                raise CheckFailure(code)
            kind = op["kind"].split(":")[0]
            if kind == "eval":
                self._check_eval(op, code, out)
            elif kind == "sweep":
                check_sweep(op, code, out)
            else:
                check_verify(op, code, out)
        except CheckFailure as e:
            return self._classify(op, code, err), str(e)
        except (KeyError, TypeError, ValueError) as e:
            return "unexpected", f"malformed output: {e!r}"
        return None

    def _check_eval(self, op: dict, code, out: str):
        held = self._pending.pop(op["pair"], None)
        _require(code == 0, f"exit {code}")
        d = _json(out)
        _require(d.get("solution") == ENGINE_NAME[op["curve"]].format(**op)
                 and d.get("arity") == "v12_y12", "wrong solution")
        _require(d.get("parameters") == op["point"], "parameters do not echo the input")
        n = op["n"]
        k = decode_tensor(d.get("tensor", {}), n)
        want = closed_form(op)
        if want is not None:
            err = _rel_err(k, want)
            _require(err < ENGINE_REL_TOL, f"closed form differs by {err:.3g}")
        if not op["swapped"]:
            self._pending[op["pair"]] = k
        elif held is not None:
            err = _rel_err(held, -_kron_swap(k, n))
            _require(err < ENGINE_REL_TOL, f"unitarity defect {err:.3g}")

    @staticmethod
    def _classify(op: dict, code, err: str) -> str:
        if op.get("identity") == "limit" and op.get("solution") == "ell21" and code == 1:
            return "limit-ell21-lattice-pole"
        if op.get("identity") == "dunkl" and op.get("solution") == "ell21" and code == 1:
            return "dunkl-ell21-near-pole"
        if code == 3 and "curve" in op and "condition number" in err:
            return "engine-condition-cap"
        return "unexpected"
