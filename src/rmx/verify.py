# src/rmx/verify.py

"""Residual evaluators for the Yang-Baxter identities and limit extractors.

Every check samples random admissible parameter points from a seeded
generator, evaluates left minus right side of the identity in Mat_n^(x3)
(or Mat_n^(x2)) and reports the max absolute residual.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import RSolution, as_four_param, as_three_param, as_two_point
from .tensorcore import (Tensor2, Tensor3, casimir, embed, embed_leg, leg_product,
                         project_sl, swap)


@dataclass
class ResidualReport:
    identity: str
    solution: str
    samples: int
    max_residual: float
    argmax_sample: tuple
    tol: float
    seed: int
    passed: bool
    extra: dict = dataclasses.field(default_factory=dict)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["argmax_sample"] = [[z.real, z.imag] for z in
                              (complex(x) for x in self.argmax_sample)]
        return d


class PoleSampleError(RuntimeError):
    """Sampling repeatedly hit (near-)poles of the solution."""


def _rand_points(rng: np.random.Generator, k: int) -> np.ndarray:
    """k generic complex numbers, O(1), kept away from the origin."""
    pts = rng.uniform(0.25, 1.1, k) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, k))
    return pts


def _distinct(pts: Sequence[complex], min_sep: float = 5e-2) -> bool:
    pts = list(pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < min_sep:
                return False
    return True


def _sample(rng, k, max_tries=200) -> np.ndarray:
    for _ in range(max_tries):
        pts = _rand_points(rng, k)
        if _distinct(pts):
            return pts
    raise PoleSampleError("could not draw distinct sample points")


# Tensors larger than this indicate a near-pole sample; the identity residual
# would be dominated by rounding of huge values, so such draws are rejected.
NORM_CAP = 100.0


def _admissible(*tensors) -> bool:
    return all(t.norm() < NORM_CAP for t in tensors)


# check (rmx verify --identity name) -> its tolerance when none is given
DEFAULT_TOL = {"aybe": 1e-8, "dual": 1e-8, "unitarity": 1e-10, "cybe": 1e-9,
               "qybe": 1e-8, "limit": 1e-7, "casimir": 1e-8,
               "degeneration": 1e-6, "dunkl": 1e-5, "dunkl-kappa0": 1e-9}


def default_tol(identity: str, kappa: complex = 1.0):
    """Tolerance of a check when none is given (None for one without).  Dunkl
    at kappa = 0 takes no derivatives and has its own, tighter entry."""
    return DEFAULT_TOL.get("dunkl-kappa0" if identity == "dunkl" and kappa == 0
                           else identity)


def _sampled_residual(identity: str, sol: RSolution, k: int, terms: Callable,
                      residual: Callable, samples: int, tol: float,
                      seed: int) -> ResidualReport:
    """Max over `samples` seeded draws of k points of |residual(*terms(*pts))|.

    A draw whose terms are not all below NORM_CAP is rejected; a sample gets
    at most 50 draws."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    worst, worst_at = -1.0, ()
    for _ in range(samples):
        for _retry in range(50):
            pts = _sample(rng, k)
            ts = terms(*pts)
            if _admissible(*ts):
                break
        else:
            raise PoleSampleError("sampling kept hitting poles")
        res = residual(*ts).norm()
        if res > worst:
            worst, worst_at = res, tuple(pts)
    return ResidualReport(identity, sol.name, samples, worst, worst_at, tol, seed,
                          worst < tol)


def aybe(sol: RSolution, samples: int = 50, tol: float = DEFAULT_TOL["aybe"],
         seed: int = 0) -> ResidualReport:
    """Associative Yang-Baxter residual, in the form matching the arity:
    the full four-parameter equation, its v-difference form, or the full
    difference form."""
    r4 = as_four_param(sol)
    form = {"v12_y12": "AYBE", "vdiff_y12": "AYBE-vdiff",
            "vdiff_ydiff": "AYBE-diff"}[sol.arity]
    return _sampled_residual(
        form, sol, 6,
        lambda v1, v2, v3, y1, y2, y3: (
            r4(v1, v2, y1, y2), r4(v1, v3, y2, y3), r4(v1, v3, y1, y3),
            r4(v3, v2, y1, y2), r4(v2, v3, y2, y3), r4(v1, v2, y1, y3)),
        lambda a, b, c, d, e, f: leg_product(a, 12, b, 23)
        - (leg_product(c, 13, d, 12) + leg_product(e, 23, f, 13)),
        samples, tol, seed)


def aybe_dual(sol: RSolution, samples: int = 50, tol: float = DEFAULT_TOL["dual"],
              seed: int = 0) -> ResidualReport:
    """Residual of the dual associative equation (holds for unitary solutions)."""
    r4 = as_four_param(sol)
    return _sampled_residual(
        "AYBE-dual", sol, 6,
        lambda v1, v2, v3, y1, y2, y3: (
            r4(v2, v3, y2, y3), r4(v1, v3, y1, y2), r4(v1, v2, y1, y2),
            r4(v2, v3, y1, y3), r4(v1, v3, y1, y3), r4(v2, v1, y2, y3)),
        lambda a, b, c, d, e, f: leg_product(a, 23, b, 12)
        - (leg_product(c, 12, d, 13) + leg_product(e, 13, f, 23)),
        samples, tol, seed)


def unitarity(sol: RSolution, samples: int = 50, tol: float = DEFAULT_TOL["unitarity"],
              seed: int = 0) -> ResidualReport:
    """Residual of r(v1,v2;y1,y2) + swap(r(v2,v1;y2,y1))."""
    r4 = as_four_param(sol)
    return _sampled_residual(
        "unitarity", sol, 4,
        lambda v1, v2, y1, y2: (r4(v1, v2, y1, y2), r4(v2, v1, y2, y1)),
        lambda ta, tb: ta + swap(tb),
        samples, tol, seed)


def _comm(a: Tensor3, b: Tensor3) -> Tensor3:
    return a.matmul(b) - b.matmul(a)


def _cybe_lhs(ta: Tensor2, tb: Tensor2, tc: Tensor2) -> Tensor3:
    r12, r13, r23 = embed_leg(ta, 12), embed_leg(tb, 13), embed_leg(tc, 23)
    return _comm(r12, r23) + _comm(r12, r13) + _comm(r13, r23)


def _qybe_difference(ta: Tensor2, tb: Tensor2, tc: Tensor2) -> Tensor3:
    r12, r13, r23 = embed_leg(ta, 12), embed_leg(tb, 13), embed_leg(tc, 23)
    return r12.matmul(r13).matmul(r23) - r23.matmul(r13).matmul(r12)


def cybe(sol: RSolution, samples: int = 50, tol: float = DEFAULT_TOL["cybe"],
         seed: int = 0) -> ResidualReport:
    """Classical Yang-Baxter residual
    [r12, r23] + [r12, r13] + [r13, r23] = 0 at random spectral points."""
    r2 = as_two_point(sol)
    return _sampled_residual(
        "CYBE", sol, 3, lambda y1, y2, y3: (r2(y1, y2), r2(y1, y3), r2(y2, y3)),
        _cybe_lhs, samples, tol, seed)


def qybe(sol: RSolution, v0: complex, samples: int = 50, tol: float = DEFAULT_TOL["qybe"],
         seed: int = 0) -> ResidualReport:
    """Quantum Yang-Baxter residual at fixed spectral value v0:
    R12 R13 R23 = R23 R13 R12 with R^{ij} = r(v0; y_i, y_j)."""
    r3 = as_three_param(sol)
    if v0 == 0:
        raise ValueError("qybe needs v0 != 0: v = 0 is a pole of every "
                         "v-difference solution")
    return _sampled_residual(
        "QYBE", sol, 3,
        lambda y1, y2, y3: (r3(v0, y1, y2), r3(v0, y1, y3), r3(v0, y2, y3)),
        _qybe_difference, samples, tol, seed)


class DivergenceError(RuntimeError):
    """pr(x)pr values blow up as v -> 0; no classical limit."""


def classical_limit_values(sol: RSolution, y_pairs: Sequence[tuple],
                           v0: complex = 0.08, levels: int = 5) -> list:
    """Richardson-extrapolated lim_{v->0} (pr(x)pr) r(v; y1, y2) on a grid.

    Divergence (as for the semistable solution) raises DivergenceError.
    """
    ev = as_three_param(sol)
    out = []
    for (y1, y2) in y_pairs:
        vals = []
        for k in range(levels):
            t = project_sl(ev(v0 / 2**k, y1, y2))
            vals.append(t.coeffs)
        norms = [np.max(np.abs(v)) for v in vals]
        if norms[-1] > 4.0 * norms[0] and norms[-1] > 1e3:
            raise DivergenceError(
                f"pr(x)pr values grow as v -> 0 (|r| ~ {norms[-1]:.3g}); "
                "no classical limit")
        # Richardson on halving steps: eliminate v, v^2, ... terms
        table = [np.array(v) for v in vals]
        for order in range(1, levels):
            f = 2.0**order
            table = [(f * table[i + 1] - table[i]) / (f - 1.0)
                     for i in range(len(table) - 1)]
        out.append(Tensor2(sol.n, table[0]))
    return out


def classical_limit(sol: RSolution, reference: RSolution,
                    y_grid: Sequence[complex], tol: float = DEFAULT_TOL["limit"],
                    v0: complex = 0.08, y_base: complex = 0.0) -> ResidualReport:
    """Compare the extrapolated classical limit against a catalog entry on a
    y-grid (points y interpreted as (y_base, y_base + y) pairs)."""
    pairs = [(y_base, y_base + y) for y in y_grid]
    vals = classical_limit_values(sol, pairs, v0=v0)
    if reference.arity == "cl_ydiff":
        ref = [reference.evaluator(y) for y in y_grid]
    else:
        ref = [reference.evaluator(a, b) for (a, b) in pairs]
    worst, worst_at = -1.0, ()
    for y, got, want in zip(y_grid, vals, ref):
        res = (got - want).norm()
        if res > worst:
            worst, worst_at = res, (y,)
    return ResidualReport("classical-limit", f"{sol.name}->{reference.name}",
                          len(list(y_grid)), worst, worst_at, tol, 0, worst < tol)


def laurent_v(sol: RSolution, y1: complex, y2: complex, radius: float = 0.05,
              n_samples: int = 64, orders: Sequence[int] = (-3, -2, -1, 0)) -> dict:
    """Laurent coefficients of r(v; y1, y2) around v = 0 by circle sampling
    and discrete Fourier inversion."""
    r3 = as_three_param(sol)
    thetas = 2 * np.pi * np.arange(n_samples) / n_samples
    vs = radius * np.exp(1j * thetas)
    vals = np.stack([r3(v, y1, y2).coeffs for v in vs])
    coeffs = {}
    for m in orders:
        phase = np.exp(-1j * m * thetas) / n_samples
        c = np.tensordot(phase, vals, axes=(0, 0)) / radius**m
        coeffs[m] = Tensor2(sol.n, c)
    return coeffs


def casimir_residue(sol: RSolution, radius: float = 0.05, n_samples: int = 64,
                    y_base: complex = 0.0) -> tuple:
    """Residue of a classical solution at coinciding spectral points.

    Returns (alpha, defect): residue = alpha * casimir(n) with defect the
    distance to the Casimir line.
    """
    r2 = as_two_point(sol)
    thetas = 2 * np.pi * np.arange(n_samples) / n_samples
    ys = radius * np.exp(1j * thetas)
    # res = (1/2pi i) contour integral = mean of f(y) * y over the circle
    vals = np.stack([r2(y_base, y_base + y).coeffs * y for y in ys])
    res = Tensor2(sol.n, vals.mean(axis=0))
    omega = casimir(sol.n)
    alpha = complex(np.vdot(omega.coeffs, res.coeffs)
                    / np.vdot(omega.coeffs, omega.coeffs))
    defect = (res - alpha * omega).norm()
    return alpha, defect


DEGENERATION_YS = (0.3, 0.7, 1.1)


def degeneration_error(trg: RSolution, rat: RSolution, t: float,
                       y_grid: Sequence[float] = DEGENERATION_YS) -> float:
    """max over y in y_grid of |(1/t) trg(y/t) - rat(y)|."""
    return max(((1.0 / t) * trg.evaluator(y / t) - rat.evaluator(y)).norm()
               for y in y_grid)


def degeneration_trg_to_rat(trg: RSolution, rat: RSolution,
                            t_seq: Sequence[float] = (1e3, 1e4, 1e5),
                            y_grid: Sequence[float] = DEGENERATION_YS,
                            tol: float = DEFAULT_TOL["degeneration"]) -> ResidualReport:
    """Check (1/t) trg(y/t) -> rat(y) along the t sequence."""
    errs = [degeneration_error(trg, rat, t, y_grid) for t in t_seq]
    final = errs[-1]
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    rep = ResidualReport("degeneration", f"{trg.name}->{rat.name}",
                         len(t_seq) * len(list(y_grid)), final, (t_seq[-1],),
                         tol, 0, final < tol and monotone)
    rep.extra["errors_along_t"] = errs
    return rep


# --- Dunkl operators ---------------------------------------------------------

def dunkl_commutator(sol: RSolution, m: int = 3, kappa: complex = 1.0,
                     y_points: Sequence[complex] = None,
                     testfn: Callable = None, h: float = 1e-4,
                     samples: int = 3, tol: float = None,
                     seed: int = 0) -> ResidualReport:
    """Max |([theta_i, theta_j] f)(x)| over i<j and sample points, where
    theta_i = kappa d_i + sum_{j != i} rtilde^{ij} K^{ij} acts on
    Mat_n^(x m)-valued functions of (x_1..x_m) with fixed distinct y's.

    Derivatives use central differences of step h (second-order accurate);
    the kappa = 0 case involves no differentiation and is exact.
    """
    if tol is None:
        tol = default_tol("dunkl", kappa)
    rng = np.random.default_rng(seed)
    n = sol.n
    rfun = as_three_param(sol)
    if y_points is None:
        y_points = [0.9 * np.exp(2j * np.pi * k / m) + 0.1 for k in range(m)]
    y_points = [complex(y) for y in y_points]
    if testfn is None:
        # generic matrix-valued polynomial test function
        coef = rng.standard_normal((3, n**m, n**m)) \
            + 1j * rng.standard_normal((3, n**m, n**m))

        def testfn(xs):
            acc = np.zeros((n**m, n**m), dtype=complex)
            for k, c in enumerate(coef):
                acc = acc + c * (sum(x**(k + 1) for x in xs))
            return acc

    def swap_args(xs, i, j):
        xs = list(xs)
        xs[i], xs[j] = xs[j], xs[i]
        return xs

    def ddx(f, xs, i, step):
        xp = list(xs); xp[i] = xs[i] + step
        xm = list(xs); xm[i] = xs[i] - step
        return (f(xp) - f(xm)) / (2 * step)

    def theta(i, f):
        def tf(xs):
            out = np.zeros((n**m, n**m), dtype=complex)
            if kappa != 0:
                # central differences with one Richardson refinement
                out = out + kappa * (4 * ddx(f, xs, i, h / 2) - ddx(f, xs, i, h)) / 3
            for j in range(m):
                if j == i:
                    continue
                rij = embed(rfun(xs[i] - xs[j], y_points[i], y_points[j]), (i, j), m)
                out = out + rij @ f(swap_args(xs, i, j))
            return out
        return tf

    worst, worst_at = -1.0, ()
    for _ in range(samples):
        # well-separated arguments keep the r-matrix derivatives moderate
        base = rng.uniform(0.0, 2 * np.pi)
        xs = [np.exp(1j * (base + 2 * np.pi * k / m)) *
              rng.uniform(0.8, 1.2) for k in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                ti_tj = theta(i, theta(j, testfn))
                tj_ti = theta(j, theta(i, testfn))
                res = float(np.max(np.abs(ti_tj(xs) - tj_ti(xs))))
                if res > worst:
                    worst, worst_at = res, tuple(xs)
    return ResidualReport("dunkl-commutator", sol.name,
                          samples * m * (m - 1) // 2, worst, worst_at, tol,
                          seed, worst < tol)
