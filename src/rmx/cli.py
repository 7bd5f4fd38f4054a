# src/rmx/cli.py

"""Command line front end: evaluate solutions/engines, run identity checks,
emit canonical gluing forms, run parameter sweeps.

Exit codes: a command returns 0 (pass) or 1 (identity failure) and raises
on error; main alone maps the error class to a code and an `error:` line:

    rmatrix.DegenerateSystemError (degenerate system)            -> 3
    ValueError (UsageError too), rmatrix.EngineError,
    verify.PoleSampleError, thetafn.PoleError,
    OverflowError (usage error)                                  -> 2

argparse exits 2 on a malformed option; any other exception propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bundles, catalog, curves, rmatrix, thetafn, verify
from .tensorcore import LAYOUT, Tensor, project_sl

CONVENTIONS = {
    "tensor_layout": "coeffs[i1,j1,i2,j2] is the coefficient of "
                     "e_{i1 j1} (x) e_{i2 j2}, indices 0-based",
    "serialization": "flat data is the n^2 x n^2 Kronecker matrix "
                     "(row (i1*n+i2), column (j1*n+j2)), row-major; "
                     "complex numbers as [re, im]",
    "leg_embedding": "r^{ab} places factor 1 on leg a, factor 2 on leg b, "
                     "identity elsewhere in Mat_n^(x3)",
    "linmap_to_tensor": "e_{ij} -> alpha e_{kl} corresponds to "
                        "alpha e_{ji} (x) e_{kl}",
}

_DEFAULT_SEED = 12345


def _parse_real(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {s!r}")
    return x


def _parse_complex(s: str) -> complex:
    parts = str(s).split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {s!r}")
    return complex(*map(_parse_real, parts))


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RMX_SEED")
    return int(env) if env else _DEFAULT_SEED


# With indent=2, the "tensor" entry of a payload opens with this text, and its
# data array sits at nesting depth 2: each [re, im] pair one level deeper,
# each number two.  A raw newline never occurs inside a JSON string, so
# the text can only match the top-level key.
_TENSOR_DATA = '\n  "tensor": {\n    "data": '
_PAIR_SEP = "\n      ],\n      [\n        "
_NUM_SEP = ",\n        "
# Up to this many numbers float.__repr__, one by one, writes them faster
# than floattext's array path: the whole data text up to _REPR_MAX numbers,
# and past that, in floattext.repr_parts, the numbers outside the pairs of
# +0.0s.  Measured on the nodal and cuspidal tensors of ranks 3-5 at
# tests/time_emit.py's point (thread time): one by one costs 0.55-0.6 us a
# number of a whole cuspidal tensor and 0.8 us a number outside the zero
# pairs, the array path about 150 us + 0.15 us a number, so they break even
# at 300-400 numbers of a whole tensor and about 190 outside the zero
# pairs.  Ranks 2-4 have 32, 162 and 512 numbers; at rank 5 (1250) the
# nodal tensor has 172 outside its zero pairs (157 us one by one against
# 191 us), the cuspidal one 962, and ranks 8-12 542 and more.
_REPR_MAX = 200


def _data_text(t: Tensor) -> list:
    """json.dumps of t.to_json_dict()["data"] at nesting depth 2 of an
    indent=2 dump, as a list of strings whose join it is: float.__repr__ is
    the encoder's float format, which floattext writes past _REPR_MAX
    numbers (by float.__repr__ again if no more than _REPR_MAX of them lie
    outside the pairs of zeros)."""
    flat = t.kron().ravel().view(np.float64)  # re, im, re, im, ...
    head, tail = "[\n      [\n        ", "\n      ]\n    ]"
    if len(flat) > _REPR_MAX and sys.byteorder == "little":
        from . import floattext  # here: other commands skip its tables at start-up
        return [head, *floattext.repr_parts(flat, _NUM_SEP, _PAIR_SEP, _REPR_MAX), tail]
    it = iter(map(float.__repr__, flat.tolist()))
    return [head, _PAIR_SEP.join(map(_NUM_SEP.join, zip(it, it))), tail]


def _emit(payload, args):
    """Write payload: CSV text as it is, anything else as
    json.dumps(payload, sort_keys=True, indent=2) + newline, where a Tensor
    under the top-level key "tensor" stands for its to_json_dict()."""
    if getattr(args, "out", "json") != "json":
        text = payload  # pre-formatted CSV
    elif isinstance(payload.get("tensor"), Tensor):
        t = payload["tensor"]
        head = {"data": None, "layout": LAYOUT, "n": t.n}
        text = json.dumps({**payload, "tensor": head}, sort_keys=True, indent=2)
        at = text.index(_TENSOR_DATA) + len(_TENSOR_DATA)
        text = "".join([text[:at], *_data_text(t), text[at + len("null"):], "\n"])
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        tmp = args.output + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.output)
    else:
        sys.stdout.write(text)


class UsageError(ValueError):
    """Input that rmx refuses; main reports it with exit 2."""


def _tau(args) -> complex:
    """--tau, or the catalog's default when it is not given; a tau off the
    upper half plane is a usage error."""
    if args.tau is None:
        return catalog.DEFAULT_TAU
    if args.tau.imag <= 0:
        raise UsageError(f"tau must have positive imaginary part, got {args.tau}")
    return args.tau


def _engine_from_args(args) -> catalog.RSolution:
    kind = args.curve
    if kind is None and args.g2 is not None and args.g3 is not None:
        kind = curves.classify(args.g2, args.g3)
        if kind == curves.ELLIPTIC and args.tau is None:
            raise UsageError(
                "(g2, g3) is a smooth curve; pass --tau explicitly "
                "(the inverse modular map is not provided)")
    if kind == "elliptic":
        if args.tau is None:
            raise UsageError("--tau is required for the elliptic engine")
        return rmatrix.engine_solution("elliptic", args.rank, args.deg, tau=_tau(args))
    if kind == "nodal":
        if (args.rank, args.deg) == (2, 0):
            return rmatrix.engine_solution("nodal-semistable")
        return rmatrix.engine_solution("nodal", args.rank, args.deg)
    # cuspidal: --curve's choices and curves.classify admit no other kind
    return rmatrix.engine_solution("cusp", args.rank, args.deg)


def _solution_from_args(args) -> catalog.RSolution:
    if args.solution:
        try:
            return catalog.get(args.solution, tau=_tau(args))
        except KeyError as e:
            raise UsageError(e.args[0])
    if args.curve or (args.g2 is not None and args.g3 is not None):
        return _engine_from_args(args)
    raise UsageError("need --solution NAME, --curve KIND, or --g2/--g3")


def _require_finite(values, what: str):
    """A non-finite value to print (a pole hit, or over/underflow) is a PoleError."""
    if not np.all(np.isfinite(values)):
        raise thetafn.PoleError(f"non-finite {what}")


def cmd_eval(args) -> int:
    sol = _solution_from_args(args)
    names = catalog.ARITY_PARAMS[sol.arity]
    params = [getattr(args, name) for name in names]
    if any(p is None for p in params):
        raise UsageError(f"solution {sol.name!r} (arity {sol.arity}) needs {len(names)} "
                         f"spectral parameters: --{' --'.join(names)}")
    try:
        t = sol.evaluator(*[complex(p) for p in params])
    except ZeroDivisionError as e:  # a closed form divided by zero at its pole
        raise thetafn.PoleError(*e.args) from e
    _require_finite(t.coeffs, "tensor")
    if args.out == "csv":
        k = t.kron()
        side, flat = len(k), k.ravel()
        rows = (f"{i // side},{i % side},{re!r},{im!r}" for i, (re, im)
                in enumerate(zip(flat.real.tolist(), flat.imag.tolist())))
        _emit("\n".join(["row,col,re,im", *rows]) + "\n", args)
        return 0
    payload = {
        "solution": sol.name,
        "arity": sol.arity,
        "parameters": [[complex(p).real, complex(p).imag] for p in params],
        "tensor": t,
    }
    if args.conventions:
        payload["conventions"] = CONVENTIONS
    if sol.params:
        payload["solution_params"] = {
            k: ([complex(v).real, complex(v).imag] if isinstance(v, (complex, float))
                else v) for k, v in sol.params.items()}
    _emit(payload, args)
    return 0


# rmx verify --identity -> rmx.verify check taking (sol, samples, tol, seed), looked
# up at each call so that wrappers put on rmx.verify (perfbench's spans) see it
_SAMPLED_CHECKS = {"aybe": "aybe", "dual": "aybe_dual", "unitarity": "unitarity",
                   "cybe": "cybe"}


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    seed = _seed(args)
    sol = _solution_from_args(args)
    tol = verify.default_tol(args.identity, args.kappa) if args.tol is None else args.tol
    try:
        if args.identity in _SAMPLED_CHECKS:
            check = getattr(verify, _SAMPLED_CHECKS[args.identity])
            rep = check(sol, samples=args.samples, tol=tol, seed=seed)
        elif args.identity == "qybe":
            v0 = 0.7 if args.v0 is None else args.v0
            rep = verify.qybe(sol, v0=v0, samples=args.samples, tol=tol, seed=seed)
        elif args.identity == "limit":
            tau = _tau(args)  # before the try: a bad tau is not a missing partner
            try:
                ref = catalog.classical_of(sol.name, tau=tau)
            except ValueError:
                # no recorded partner: still probe the limit to report divergence
                verify.classical_limit_values(sol, [(0.15, 0.8)])
                raise UsageError(f"{sol.name} has no recorded classical partner "
                                 "and its pr(x)pr limit converged; nothing to compare")
            grid = [0.3 + 0.1 * k for k in range(10)]
            rep = verify.classical_limit(sol, ref, grid, tol=tol,
                                         y_base=0.15)
        elif args.identity == "laurent":
            _emit(verify.laurent_payload(sol), args)
            return 0
        elif args.identity == "casimir":
            a, defect = verify.casimir_residue(sol)
            payload = {"identity": "casimir-residue", "solution": sol.name,
                       "alpha": [a.real, a.imag], "defect": defect,
                       "tol": tol, "passed": defect < tol}
            _emit(payload, args)
            return 0 if payload["passed"] else 1
        elif args.identity == "degeneration":
            rep = verify.degeneration_trg_to_rat(*catalog.degeneration_of(sol.name), tol=tol)
        else:  # dunkl: argparse's choices admit no other name
            rep = verify.dunkl_commutator(sol, kappa=args.kappa, tol=tol, seed=seed)
    except verify.DivergenceError as e:
        payload = {"identity": args.identity, "solution": sol.name,
                   "divergence": True, "detail": str(e), "passed": False}
        _emit(payload, args)
        return 1
    _emit(rep.to_json_dict(), args)
    return 0 if rep.passed else 1


def cmd_canon(args) -> int:
    lam = complex(args.lam)
    if args.type == "nodal":
        t = bundles.canonical_nodal(args.n1, args.n2, lam)
        mat = t.m0
    else:
        t = bundles.canonical_cusp(args.n1, args.n2, lam)
        mat = t.mEps
    det, endo = bundles.det_triple(t), bundles.endo_dimension(t)
    _require_finite(det, "det_coordinate")  # np.linalg.det at a subnormal lam
    payload = {
        "type": args.type,
        "n1": args.n1,
        "n2": args.n2,
        "lambda": [lam.real, lam.imag],
        "matrix": [[[z.real, z.imag] for z in row] for row in mat],
        "det_coordinate": [det.real, det.imag],
        "endo_dimension": endo,
        "simple": endo == 1,
    }
    _emit(payload, args)
    return 0


def _parse_grid(spec_str, default):
    if spec_str is None:
        return default
    try:
        vals = [_parse_real(t) for t in spec_str.split(",") if t.strip()]
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"bad grid {spec_str!r}")
    if not vals:
        raise UsageError("empty grid")
    if 0 in vals:  # 1/t at t = 0; r(v; y1, y2) has its pole at v = 0
        raise UsageError(f"grid values must be nonzero, got {spec_str!r}")
    return vals


def cmd_sweep(args) -> int:
    if args.kind == "degeneration":
        grid = _parse_grid(args.grid, [1e2, 1e3, 1e4, 1e5])
        # with no solution named, the sweep runs the one recorded degeneration
        named = any(a is not None for a in (args.solution, args.curve, args.g2, args.g3))
        trg, rat = catalog.degeneration_of(
            _solution_from_args(args).name if named else "cherednik")
        errs = [verify.degeneration_error(trg, rat, t) for t in grid]
        _require_finite(errs, "max_error")
        lines = ["t,max_error", *(f"{t!r},{e!r}" for t, e in zip(grid, errs))]
        _emit("\n".join(lines) + "\n", args)
        return 0
    # limit: argparse's choices admit no other kind
    sol = _solution_from_args(args)
    grid = _parse_grid(args.grid, [1e-1, 1e-2, 1e-3, 1e-4])
    _, rows = catalog.view(sol, catalog.as_three_param)
    vals = [project_sl(Tensor(sol.n, c)) for c in rows([(v, 0.15, 0.85) for v in grid])]
    norms = [t.norm() for t in vals]
    deltas = [(a - b).norm() for a, b in zip(vals, vals[1:])]
    _require_finite(norms + deltas, "pr_norm or delta_to_next")
    lines = ["v,pr_norm,delta_to_next", *(f"{v!r},{x!r},{d}" for v, x, d in
                                          zip(grid, norms, [*map(repr, deltas), ""]))]
    _emit("\n".join(lines) + "\n", args)
    return 0


def _add_common_solution_args(sp):
    sp.add_argument("--solution", help="catalog solution name")
    sp.add_argument("--curve", choices=["elliptic", "nodal", "cuspidal"],
                    help="construction engine curve type")
    sp.add_argument("--rank", type=int, default=2)
    sp.add_argument("--deg", type=int, default=1)
    sp.add_argument("--g2", type=_parse_complex, default=None,
                    help="raw Weierstrass coefficient (classified with --g3)")
    sp.add_argument("--g3", type=_parse_complex, default=None)
    sp.add_argument("--tau", type=_parse_complex, default=None,
                    help="elliptic modulus as RE,IM")
    sp.add_argument("--out", choices=["json", "csv"], default="json")
    sp.add_argument("--output", help="write to file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rmx argument parser, built once per process: parse_args leaves it
    unchanged, and in-process callers of main need not rebuild it."""
    ap = argparse.ArgumentParser(
        prog="rmx",
        description="Geometric associative r-matrices on Weierstrass cubics: "
                    "evaluation, verification, canonical forms, sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a solution or engine at a point")
    _add_common_solution_args(ev)
    for name in ("v", "y", "v1", "v2", "y1", "y2"):
        ev.add_argument(f"--{name}", type=_parse_complex, default=None,
                        help=f"spectral parameter {name} as RE[,IM]")
    ev.add_argument("--conventions", action="store_true",
                    help="include the tensor layout conventions block")
    ev.set_defaults(func=cmd_eval)

    vf = sub.add_parser("verify", help="run an identity residual check")
    _add_common_solution_args(vf)
    vf.add_argument("--identity", required=True,
                    choices=["aybe", "dual", "unitarity", "cybe", "qybe",
                             "limit", "laurent", "casimir", "degeneration",
                             "dunkl"])
    vf.add_argument("--samples", type=int, default=50)
    vf.add_argument("--tol", type=_parse_real, default=None)
    vf.add_argument("--seed", type=int, default=None,
                    help="sampling seed (default: RMX_SEED env or 12345)")
    vf.add_argument("--v0", type=_parse_complex, default=None,
                    help="fixed spectral value for qybe")
    vf.add_argument("--kappa", type=_parse_real, default=1.0,
                    help="Dunkl level for --identity dunkl")
    vf.set_defaults(func=cmd_verify)

    cn = sub.add_parser("canon", help="canonical gluing matrix of a simple bundle")
    cn.add_argument("--type", required=True, choices=["nodal", "cusp"])
    cn.add_argument("--n1", type=int, required=True)
    cn.add_argument("--n2", type=int, required=True)
    cn.add_argument("--lambda", dest="lam", type=_parse_complex, required=True)
    cn.add_argument("--out", choices=["json"], default="json")
    cn.add_argument("--output", default=None)
    cn.set_defaults(func=cmd_canon)

    sw = sub.add_parser("sweep", help="residual/limit table over a grid (CSV)")
    _add_common_solution_args(sw)
    sw.add_argument("--kind", required=True, choices=["degeneration", "limit"])
    sw.add_argument("--grid", help="comma separated grid values")
    sw.set_defaults(func=cmd_sweep, out="csv")

    return ap


def main(argv=None) -> int:
    """Run one rmx command and return its exit code, the one owner of the
    module docstring's table: DegenerateSystemError exits 3; ValueError,
    EngineError, PoleSampleError, PoleError and OverflowError exit 2; each
    writes one line `error: {e}`, a PoleError `error: evaluation hit a pole
    ({e})` and an OverflowError (Python arithmetic on a huge parameter)
    `error: parameters too large: {e}`.  numpy's division and overflow
    warnings are off: inf and nan show only as values."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return args.func(args)
    except (ValueError, rmatrix.EngineError, verify.PoleSampleError,
            thetafn.PoleError, OverflowError) as e:
        msg = (f"evaluation hit a pole ({e})" if isinstance(e, thetafn.PoleError)
               else f"parameters too large: {e}" if isinstance(e, OverflowError) else e)
        print(f"error: {msg}", file=sys.stderr)
        return 3 if isinstance(e, rmatrix.DegenerateSystemError) else 2


if __name__ == "__main__":
    sys.exit(main())
