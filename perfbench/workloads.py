"""Seeded op lists for the rmx benchmark workloads.

An op is one ``rmx`` command: the argv handed to ``rmx.cli.main`` plus the
fields the checker needs to judge its output.  A workload is an endless
sequence of passes; pass ``k`` of workload ``w`` under seed ``s`` is a pure
function of ``(w, s, k)``, so the same seed gives the same ops, byte for
byte.  The program sees only the argv, never the workload seed.

Passes hold only ops that the program answers correctly.  Inputs that hit
a known defect of the program are issued by ``defect_probe`` instead: the
benchmark runs them in every run, outside the timed region, and reports
how many still fail.

Numbers are written with 12 significant digits and the checker reads them
back from the same strings, so the checker and the program see identical
inputs.  Values go in ``--opt=VALUE`` form because argparse would take a
leading minus sign for an option.
"""

from __future__ import annotations

import cmath
import math
import random
import zlib

ASSOCIATIVE = ("ell21", "trg21", "rat21", "trg20_semistable", "rat21_degenerate")
CLASSICAL = ("ell21_classical", "cherednik", "stolin", "stolin_difference_s", "yang")

# Samples per sampled identity check in catalog-verify.
CATALOG_SAMPLES = 20
# y2 values evaluated per engine base point (v1, v2, y1) in engine-eval.
Y2_PER_BASE = 3


def _num(x: float) -> float:
    """x rounded to the 12 significant digits written on the command line."""
    return float(f"{x:.12g}")


def _cplx(z: complex) -> complex:
    return complex(_num(z.real), _num(z.imag))


def _arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _ring(rng: random.Random, lo: float = 0.3, hi: float = 1.3) -> complex:
    return _cplx(cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi)))


def _box(rng: random.Random, re: float, im: float) -> complex:
    return _cplx(complex(rng.uniform(-re, re), rng.uniform(-im, im)))


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# --- catalog-verify ---------------------------------------------------------

def _verify(identity: str, solution: str, rng: random.Random, extra=(), **fields) -> dict:
    seed = _seed(rng)
    argv = ["verify", f"--identity={identity}", f"--solution={solution}",
            f"--seed={seed}", *extra]
    return {"kind": f"verify:{identity}", "identity": identity, "solution": solution,
            "seed": seed, "argv": argv, **fields}


def _catalog_verify_pass(rng: random.Random) -> list:
    ops = []
    for sol in ASSOCIATIVE:
        for ident in ("aybe", "dual", "unitarity"):
            ops.append(_verify(ident, sol, rng, [f"--samples={CATALOG_SAMPLES}"],
                               samples=CATALOG_SAMPLES))
        v0 = _ring(rng, 0.3, 0.8)
        ops.append(_verify("qybe", sol, rng,
                           [f"--samples={CATALOG_SAMPLES}", f"--v0={_arg(v0)}"],
                           samples=CATALOG_SAMPLES))
        if sol != "ell21":          # both fail on ell21: see defect_probe
            ops.append(_verify("limit", sol, rng))
            for kappa in (0, 1):
                ops.append(_verify("dunkl", sol, rng, [f"--kappa={kappa}"], kappa=kappa))
        ops.append(_verify("laurent", sol, rng))
        grid = [_num(rng.uniform(0.05, 0.1))]
        for _ in range(3):
            grid.append(_num(grid[-1] * rng.uniform(0.05, 0.2)))
        ops.append({"kind": "sweep:limit", "solution": sol, "grid": grid,
                    "argv": ["sweep", "--kind=limit", f"--solution={sol}",
                             "--grid=" + ",".join(repr(g) for g in grid)]})
    for sol in CLASSICAL:
        ops.append(_verify("cybe", sol, rng, [f"--samples={CATALOG_SAMPLES}"],
                           samples=CATALOG_SAMPLES))
        ops.append(_verify("casimir", sol, rng))
    # the degeneration check is cherednik -> yang whatever --solution says
    ops.append(_verify("degeneration", "yang", rng))
    grid = [_num(10 ** rng.uniform(2.0, 2.5))]
    for _ in range(3):
        grid.append(_num(grid[-1] * 10 ** rng.uniform(0.5, 1.0)))
    ops.append({"kind": "sweep:degeneration", "grid": grid,
                "argv": ["sweep", "--kind=degeneration",
                         "--grid=" + ",".join(repr(g) for g in grid)]})
    rng.shuffle(ops)
    return ops


# --- engine-eval ------------------------------------------------------------

# (curve, rank, degree, base points per pass).  Weights keep the median op
# inside one cluster of similar cost (rank 5) instead of on the edge between
# two clusters, where it would jump from run to run.
ENGINE_EVAL_KINDS = (
    ("nodal", 2, 1, 1), ("nodal", 3, 1, 1), ("nodal", 5, 2, 2),
    ("nodal", 8, 3, 1), ("nodal", 12, 5, 1),
    ("cuspidal", 2, 1, 1), ("cuspidal", 3, 2, 1), ("cuspidal", 5, 2, 2),
    ("cuspidal", 8, 3, 1), ("cuspidal", 12, 5, 1),
    ("semistable", 2, 0, 1), ("elliptic", 2, 1, 1),
)


def eisenstein_g2_g3(tau: complex, cutoff: int = 20) -> tuple:
    """(g2, g3) of the lattice Z + tau Z by a truncated lattice sum.  Only
    used to name a smooth curve by its Weierstrass data; truncation does not
    matter because only the discriminant's sign of zero is read."""
    g2 = g3 = 0j
    for m in range(-cutoff, cutoff + 1):
        for k in range(-cutoff, cutoff + 1):
            if m or k:
                w = m + k * tau
                g2 += w**-4
                g3 += w**-6
    return _cplx(60 * g2), _cplx(140 * g3)


# Spread of the spectral parameters (|v1/v2| on the nodal curve, |v1 - v2|
# on the cuspidal one) up to which the rank-12 residue system stays under
# the engines' condition cap 1e6.  Measured at (12, 5): no refusal up to
# ratio 3.0 and spread 1.4, every point refused from ratio 4.0 and spread
# 1.8; ranks up to 8 pass on the whole domain.  Rank-12 passes draw inside
# these limits; defect_probe draws beyond them.
RANK12_MAX_SPREAD = {"nodal": 2.5, "cuspidal": 1.2}
RANK12_PROBE_SPREAD = {"nodal": (3.6, 4.3), "cuspidal": (1.7, 2.0)}


def _spread(curve: str, v1: complex, v2: complex) -> float:
    if curve == "nodal":
        return max(abs(v1 / v2), abs(v2 / v1))
    return abs(v1 - v2)


def _base_point(curve: str, rng: random.Random, n: int = 2):
    """(v1, v2, y1, [y2...], tau) away from the trivial coincidences."""
    while True:
        if curve in ("nodal", "semistable"):
            v1, v2, y1 = _ring(rng), _ring(rng), _ring(rng)
            ok = abs(v1 - v2) >= 0.1 and abs(v1 + v2) >= 0.1
            sep, draw = 0.1, lambda: _ring(rng)
        elif curve == "cuspidal":
            v1, v2, y1 = (_box(rng, 1.0, 0.4) for _ in range(3))
            ok = abs(v1 - v2) >= 0.15
            sep, draw = 0.15, lambda: _box(rng, 1.0, 0.4)
        else:
            v1, v2, y1 = (_box(rng, 0.4, 0.2) for _ in range(3))
            ok = abs(v1 - v2) >= 0.08
            sep, draw = 0.08, lambda: _box(rng, 0.4, 0.2)
        if n >= 12:
            ok = ok and _spread(curve, v1, v2) <= RANK12_MAX_SPREAD[curve]
        if ok:
            break
    y2s = []
    while len(y2s) < Y2_PER_BASE:
        y2 = draw()
        if abs(y2 - y1) >= sep:
            y2s.append(y2)
    tau = None
    if curve == "elliptic":
        tau = _cplx(complex(rng.uniform(-0.2, 0.2), rng.uniform(0.9, 1.3)))
    return v1, v2, y1, y2s, tau


def _curve_args(curve: str, n: int, d: int, tau, by_weierstrass: bool) -> list:
    if by_weierstrass:
        if curve in ("nodal", "semistable"):
            g2, g3 = "3", "1"          # discriminant 3^3 - 27 * 1^2 = 0, g2 != 0
        elif curve == "cuspidal":
            g2, g3 = "0", "0"
        else:
            g2, g3 = (_arg(g) for g in eisenstein_g2_g3(tau))
        args = [f"--g2={g2}", f"--g3={g3}"]
    else:
        args = ["--curve=" + ("nodal" if curve == "semistable" else curve)]
    args += [f"--rank={n}", f"--deg={d}"]
    if tau is not None:
        args.append(f"--tau={_arg(tau)}")
    return args


def _engine_eval_pass(rng: random.Random) -> list:
    groups = []
    pair = 0
    for curve, n, d, bases in ENGINE_EVAL_KINDS:
        for _ in range(bases):
            v1, v2, y1, y2s, tau = _base_point(curve, rng, n)
            group = []
            for j, y2 in enumerate(y2s):
                # the middle y2 names the curve by (g2, g3), so curves.classify runs
                curve_args = _curve_args(curve, n, d, tau, by_weierstrass=(j == 1))
                for swapped, pt in ((False, (v1, v2, y1, y2)), (True, (v2, v1, y2, y1))):
                    argv = ["eval", *curve_args] + [
                        f"--{name}={_arg(z)}" for name, z in zip(("v1", "v2", "y1", "y2"), pt)]
                    group.append({
                        "kind": f"eval:{curve}", "curve": curve, "n": n, "d": d,
                        "point": [[z.real, z.imag] for z in pt],
                        "tau": None if tau is None else [tau.real, tau.imag],
                        "pair": pair, "swapped": swapped, "argv": argv})
                pair += 1
            groups.append(group)
    # ops of one base point stay together so that they share (v1, v2, y1)
    rng.shuffle(groups)
    return [op for g in groups for op in g]


# --- engine-aybe ------------------------------------------------------------

ENGINE_AYBE_DEGREES = {
    "nodal": {3: 1, 4: 1, 5: 2, 6: 1, 7: 3, 8: 3},
    "cuspidal": {3: 2, 4: 3, 5: 3, 6: 5, 7: 4, 8: 5},
}


def _engine_check(curve, n, identity, samples, rng) -> dict:
    d = ENGINE_AYBE_DEGREES[curve][n]
    seed = _seed(rng)
    return {"kind": f"verify:{identity}:{curve}", "identity": identity,
            "curve": curve, "n": n, "d": d, "samples": samples, "seed": seed,
            "argv": ["verify", f"--identity={identity}", f"--curve={curve}",
                     f"--rank={n}", f"--deg={d}", f"--samples={samples}",
                     f"--seed={seed}"]}


def _engine_aybe_pass(rng: random.Random, k: int) -> list:
    # Ops per pass fall with their cost, as a user runs many cheap checks
    # per costly one.  The counts place the median op inside the tight
    # cluster of rank-4 checks and the 95th percentile inside the rank-8
    # AYBE/dual cluster, not on an edge between clusters.
    ops = []
    for curve in ("nodal", "cuspidal"):
        for n, copies in ((3, 2), (4, 2), (5, 2), (6, 1), (7, 1), (8, 1)):
            ops += [_engine_check(curve, n, "unitarity", 4, rng) for _ in range(copies)]
        for n, copies, samples in ((3, 2, 2), (4, 2, 2), (5, 1, 2), (6, 1, 1), (8, 1, 1)):
            for ident in ("aybe", "dual"):
                ops += [_engine_check(curve, n, ident, samples, rng) for _ in range(copies)]
    # rank 7 gets one n^9 check per curve per pass; the identity alternates
    # between passes so both stay covered
    first, second = ("aybe", "dual") if k % 2 == 0 else ("dual", "aybe")
    ops.append(_engine_check("nodal", 7, first, 1, rng))
    ops.append(_engine_check("cuspidal", 7, second, 1, rng))
    rng.shuffle(ops)
    return ops


# --- known defects ----------------------------------------------------------

DUNKL_PROBE_SEEDS = 4
RANK12_PROBE_POINTS = 3


def _rank12_probe_point(curve: str, rng: random.Random) -> list:
    """(v1, v2, y1, y2) with the spectral spread beyond RANK12_MAX_SPREAD."""
    lo, hi = RANK12_PROBE_SPREAD[curve]
    while True:
        if curve == "nodal":
            v2 = _ring(rng, 0.3, 0.35)
            v1 = _cplx(v2 * cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi)))
            y1, y2 = _ring(rng), _ring(rng)
        else:
            v2 = _box(rng, 1.0, 0.4)
            v1 = _cplx(v2 + cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi)))
            y1, y2 = _box(rng, 1.0, 0.4), _box(rng, 1.0, 0.4)
        if abs(y1 - y2) >= 0.15 and abs(v1 + v2) >= 0.1:
            return [v1, v2, y1, y2]


def _catalog_verify_probe(rng: random.Random) -> list:
    ops = [_verify("limit", "ell21", rng)]
    for kappa in (0, 1):
        ops += [_verify("dunkl", "ell21", rng, [f"--kappa={kappa}"], kappa=kappa)
                for _ in range(DUNKL_PROBE_SEEDS)]
    return ops


def _engine_eval_probe(rng: random.Random) -> list:
    ops = []
    for curve, n, d in (("nodal", 12, 5), ("cuspidal", 12, 5)):
        for _ in range(RANK12_PROBE_POINTS):
            pt = _rank12_probe_point(curve, rng)
            argv = ["eval", *_curve_args(curve, n, d, None, by_weierstrass=False)] + [
                f"--{name}={_arg(z)}" for name, z in zip(("v1", "v2", "y1", "y2"), pt)]
            ops.append({"kind": f"eval:{curve}", "curve": curve, "n": n, "d": d,
                        "point": [[z.real, z.imag] for z in pt], "tau": None,
                        "pair": -1 - len(ops), "swapped": False, "argv": argv})
    return ops


DEFECT_PROBES = {
    "catalog-verify": _catalog_verify_probe,
    "engine-eval": _engine_eval_probe,
    "engine-aybe": lambda rng: [],
}


# --- registry ---------------------------------------------------------------

WORKLOADS = {
    "catalog-verify": lambda rng, k: _catalog_verify_pass(rng),
    "engine-eval": lambda rng, k: _engine_eval_pass(rng),
    "engine-aybe": _engine_aybe_pass,
}


def make_pass(workload: str, seed: int, k: int) -> list:
    """Ops of pass k of a workload under a seed."""
    salt = zlib.crc32(workload.encode())
    rng = random.Random(f"{salt}:{seed}:{k}")
    return WORKLOADS[workload](rng, k)


def defect_probe(workload: str, seed: int) -> list:
    """Ops on inputs that hit the program's known defects (see checker.py).
    They are run in every run, untimed and apart from the passes, so the
    defects stay visible while no pass op fails."""
    salt = zlib.crc32(workload.encode())
    return DEFECT_PROBES[workload](random.Random(f"{salt}:{seed}:probe"))


def warmup_ops(workload: str, seed: int) -> list:
    """One op of each kind, the cheapest of its kind (by rank, then samples,
    then solution name, so that every seed warms up on the same solutions)
    in pass -1, which is never measured."""
    best = {}
    for op in make_pass(workload, seed, -1):
        key = (op.get("n", 2), op.get("samples", 0), op.get("solution", ""))
        if op["kind"] not in best or key < best[op["kind"]][0]:
            best[op["kind"]] = (key, op)
    return [best[kind][1] for kind in sorted(best)]
