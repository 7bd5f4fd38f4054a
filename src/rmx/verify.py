# src/rmx/verify.py

"""Residual evaluators for the Yang-Baxter identities and limit extractors.

Every check walks a fixed grid or samples parameter points from a seeded
generator, takes left minus right side of the identity and reports the max
absolute residual through `_report`.  All six sampled checks draw through
`_accepted_draws`, the NORM_CAP guard.  The five Yang-Baxter checks reduce
their accepted draws a block at a time: unitarity as one stacked sum, the
others on the leg plans of tensorcore.leg_residual_norm, which form no
n^3 x n^3 Kronecker matrix and, above n = 4, no whole Mat_n^(x3) tensor.
Dunkl acts on Mat_n^(x3)-valued functions through Kronecker matrices.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Sequence

import numpy as np

from .catalog import RSolution, as_four_param, as_three_param, as_two_point, view
from .rmatrix import EngineError
from .tensorcore import Tensor2, block_draws, casimir, embed, leg_residual_norm, project_sl
from .thetafn import PoleError


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


# Tries a check draws from its generator at a time (_tries).  Counted on 4
# catalog-verify and 2 engine-aybe perfbench passes at seed 1: a 20-sample
# catalog check takes 20-22 tries in the median and at most 36, so one
# refill serves nearly every check; an engine check of 1-4 samples takes
# 2-10 and over-draws, but a refill costs about 20 us fixed and 1 us a try
# (k = 4 and 6), little beside its 1-7 ms op.  A try's radii and angles are
# drawn from the ring's (low, high) bounds
TRIES_AHEAD = 32
_RING_LOW, _RING_HIGH = np.array([[0.25], [0.0]]), np.array([[1.1], [2 * np.pi]])


def _tries(rng: np.random.Generator, k: int):
    """_sample's tries for k points, endless, drawn TRIES_AHEAD at a time:
    (points, ok), points from k radii, then k angles, of rng, and ok that
    they are pairwise at least 0.05 apart.  Each try equals a try drawn on
    its own (tests/oracles.py, sample_sequential) bit for bit: rng gives the
    same values in the same order, and np.hypot is the scalar abs of a
    complex, from which np.abs of a complex array may differ in the last bit."""
    same = np.eye(k, dtype=bool)
    while True:
        u = rng.uniform(_RING_LOW, _RING_HIGH, (TRIES_AHEAD, 2, k))
        pts = u[:, 0] * np.exp(1j * u[:, 1])
        d = pts[:, :, None] - pts[:, None, :]  # |a - b| = |b - a| exactly
        ok = ((np.hypot(d.real, d.imag) >= 5e-2) | same).all(axis=(1, 2))
        yield from zip(pts, ok.tolist())


def _sample(tries) -> np.ndarray:
    """The points of the first good try of tries (_tries), at most 200
    tries."""
    for _ in range(200):
        pts, ok = next(tries)
        if ok:
            return pts
    raise PoleSampleError("could not draw distinct sample points")


# Tensors larger than this indicate a near-pole sample; the identity residual
# would be dominated by rounding of huge values, so such draws are rejected.
NORM_CAP = 100.0


def _admissible(*norms: float) -> bool:
    return all(x < NORM_CAP for x in norms)


# check (rmx verify --identity name) -> its tolerance when none is given.  limit:
# measured error 1.05e-15; 1e-7 stays while the benchmark's checker pins it.
DEFAULT_TOL = {"aybe": 1e-8, "dual": 1e-8, "unitarity": 1e-10, "cybe": 1e-9,
               "qybe": 1e-8, "limit": 1e-7, "casimir": 1e-8,
               "degeneration": 1e-6, "dunkl": 1e-5, "dunkl-kappa0": 1e-9}

# The fixed points of the deterministic checks.  Laurent, Casimir and the
# classical limit sample CIRCLE_POINTS equally spaced points of
# |z| = CIRCLE_RADIUS (_laurent, the one circle sampler); Laurent inverts
# orders LAURENT_ORDERS, the classical limit projects them and takes order 0.
# The degeneration walks t along DEGENERATION_TS at each y in DEGENERATION_YS.
# Dunkl acts on DUNKL_LEGS legs, leg k at y = DUNKL_YS[k], and differentiates
# by central differences of step DUNKL_STEP.
CIRCLE_RADIUS, CIRCLE_POINTS = 0.05, 16
_ANGLES = 2 * np.pi * np.arange(CIRCLE_POINTS) / CIRCLE_POINTS
_UNIT_CIRCLE = np.exp(1j * _ANGLES)
LAURENT_ORDERS = (-3, -2, -1, 0)
DEGENERATION_TS, DEGENERATION_YS = (1e3, 1e4, 1e5), (0.3, 0.7, 1.1)
DUNKL_LEGS, DUNKL_STEP = 3, 1e-4
DUNKL_YS = [complex(0.9 * np.exp(2j * np.pi * k / DUNKL_LEGS) + 0.1)
            for k in range(DUNKL_LEGS)]


def default_tol(identity: str, kappa: complex = 1.0):
    """Tolerance of a check when none is given (None for one without).  Dunkl
    at kappa = 0 takes no derivatives and has its own, tighter entry."""
    return DEFAULT_TOL.get("dunkl-kappa0" if identity == "dunkl" and kappa == 0
                           else identity)


def _report(identity: str, solution: str, pairs: list, tol: float,
            seed: int) -> ResidualReport:
    """The report of a check from its (residual, point) pairs: one sample per pair,
    the first largest residual and its point.  A NaN ranks above every number,
    so the report fails; no pairs is a ValueError, not a vacuous pass."""
    if not pairs:
        raise ValueError(f"{identity}: no samples to report")
    worst, worst_at = max(pairs, key=lambda p: (math.isnan(p[0]), p[0]))
    return ResidualReport(identity, solution, len(pairs), worst, worst_at, tol, seed,
                          worst < tol)


def _accepted_draws(draw: Callable, terms: Callable, samples: int,
                    batch: Callable | None = None):
    """The one draw-and-reject loop of the sampled checks: yields `samples`
    accepted (points, terms), points = draw() and terms the coefficient
    arrays of its terms in order (an (m, n, n, n, n) stack or a list of m
    arrays).  A draw is rejected at its first term with a norm
    (max |coefficient|) at NORM_CAP or above (or NaN); _admissible is called
    once per walked draw with its norms up to that term.  A sample gets 50
    draws, then PoleSampleError.

    The loop draws ahead the draws it will certainly walk, min(samples still
    to accept, draws left before the 50th rejection in a row), and hands
    them to batch(list of points), which gives the (draws, m, n, n, n, n)
    coefficient stack of their terms; the norms of the whole batch are one
    reduction.  Without a batch, terms(*points) yields a draw's coefficient
    arrays lazily, when the walk reaches the draw, and its terms after the
    first over-cap one are never evaluated; a batch has them at hand already.
    A batch that raises ArithmeticError (PoleError among them), ValueError
    or EngineError is replayed from its first draw through terms(), so every
    draw is rejected, or raises, at the same term as it would one term at a
    time.  The draws of a batch are drawn before its first draw is walked,
    so a draw() that raises (_sample does after 200 failed tries) raises
    before the earlier draws of its batch are walked."""
    accepted = rejected = 0
    while accepted < samples:
        draws = [draw() for _ in range(min(samples - accepted, 50 - rejected))]
        stack = None
        if batch is not None:
            try:
                stack = batch(draws)
            except (ArithmeticError, ValueError, EngineError):
                pass
        if stack is not None:
            norms = np.abs(stack).max(axis=(2, 3, 4, 5)).tolist()
        for i, pts in enumerate(draws):
            if stack is not None:
                ts, row = stack[i], norms[i]
                cut = next((j for j, x in enumerate(row) if not x < NORM_CAP), len(row))
                row = row[:cut + 1]
            else:
                ts, row = [], []
                for c in terms(*pts):
                    ts.append(c)
                    row.append(float(np.abs(c).max()))
                    if not row[-1] < NORM_CAP:
                        break
            if _admissible(*row):
                accepted, rejected = accepted + 1, 0
                yield pts, ts
            else:
                rejected += 1
                if rejected == 50:
                    raise PoleSampleError("sampling kept hitting poles")


def _sampled_residual(identity: str, sol: RSolution, k: int, sol_view: tuple,
                      args: Callable, residual: Callable, samples: int, tol: float,
                      seed: int) -> ResidualReport:
    """Max of the residuals, max |left - right| per draw, over `samples`
    accepted draws of k points from a generator seeded by `seed` (see
    _accepted_draws).  sol_view = (one, rows) is a view of sol
    (catalog.view), and the terms of points are those of the rows
    args(*points), in order.  When sol has evaluate_rows, the rows of all the
    draws the loop draws ahead go through one rows() call, one coefficient
    stack, which the loop replays one row at a time if it is refused;
    otherwise each row is one lazy call.

    Accepted draws are held up to one block of leg_residual_norm
    (tensorcore.block_draws(sol.n) draws) and stacked slot-major in one
    copy; residual(*stacks) takes the block's i-th terms as the i-th
    coefficient stack, C-contiguous, draw axis first, and gives one float
    per draw.  Then the block's terms are dropped."""
    one, rows = sol_view
    tries = _tries(np.random.default_rng(seed), k)
    batch = None
    if sol.evaluate_rows is not None:
        def batch(draws):
            stack = rows([a for pts in draws for a in args(*pts)])
            return stack.reshape(len(draws), -1, *stack.shape[1:])
    pairs, block, size = [], [], block_draws(sol.n)

    def flush():
        stacks = np.stack([ts for _, ts in block], axis=1)
        pairs.extend(zip(residual(*stacks), (pts for pts, _ in block)))
        block.clear()
    for pts, ts in _accepted_draws(lambda: _sample(tries),
                                   lambda *pts: (one(*a).coeffs for a in args(*pts)),
                                   samples, batch):
        block.append((tuple(pts), ts))
        if len(block) == size:
            flush()
    if block:
        flush()
    return _report(identity, sol.name, pairs, tol, seed)


def aybe(sol: RSolution, samples: int = 50, tol: float = DEFAULT_TOL["aybe"],
         seed: int = 0) -> ResidualReport:
    """Associative Yang-Baxter residual, in the form matching the arity:
    the full four-parameter equation, its v-difference form, or the full
    difference form."""
    r4 = view(sol, as_four_param)
    form = {"v12_y12": "AYBE", "vdiff_y12": "AYBE-vdiff",
            "vdiff_ydiff": "AYBE-diff"}[sol.arity]
    return _sampled_residual(
        form, sol, 6, r4,
        lambda v1, v2, v3, y1, y2, y3: (
            (v1, v2, y1, y2), (v1, v3, y2, y3), (v1, v3, y1, y3),
            (v3, v2, y1, y2), (v2, v3, y2, y3), (v1, v2, y1, y3)),
        lambda a, b, c, d, e, f: leg_residual_norm(
            [(a, 12, b, 23)], [(c, 13, d, 12), (e, 23, f, 13)]),
        samples, tol, seed)


def aybe_dual(sol: RSolution, samples: int = 50, tol: float = DEFAULT_TOL["dual"],
              seed: int = 0) -> ResidualReport:
    """Residual of the dual associative equation (holds for unitary solutions)."""
    r4 = view(sol, as_four_param)
    return _sampled_residual(
        "AYBE-dual", sol, 6, r4,
        lambda v1, v2, v3, y1, y2, y3: (
            (v2, v3, y2, y3), (v1, v3, y1, y2), (v1, v2, y1, y2),
            (v2, v3, y1, y3), (v1, v3, y1, y3), (v2, v1, y2, y3)),
        lambda a, b, c, d, e, f: leg_residual_norm(
            [(a, 23, b, 12)], [(c, 12, d, 13), (e, 13, f, 23)]),
        samples, tol, seed)


def unitarity(sol: RSolution, samples: int = 50, tol: float = DEFAULT_TOL["unitarity"],
              seed: int = 0) -> ResidualReport:
    """Residual of r(v1,v2;y1,y2) + swap(r(v2,v1;y2,y1))."""
    r4 = view(sol, as_four_param)
    return _sampled_residual(
        "unitarity", sol, 4, r4,
        lambda v1, v2, y1, y2: ((v1, v2, y1, y2), (v2, v1, y2, y1)),
        lambda ta, tb: np.abs(ta + tb.transpose(0, 3, 4, 1, 2)).max(axis=(1, 2, 3, 4)).tolist(),
        samples, tol, seed)


def cybe(sol: RSolution, samples: int = 50, tol: float = DEFAULT_TOL["cybe"],
         seed: int = 0) -> ResidualReport:
    """Classical Yang-Baxter residual
    [r12, r23] + [r12, r13] + [r13, r23] = 0 at random spectral points."""
    r2 = view(sol, as_two_point)
    return _sampled_residual(
        "CYBE", sol, 3, r2, lambda y1, y2, y3: ((y1, y2), (y1, y3), (y2, y3)),
        lambda a, b, c: leg_residual_norm([(a, 12, c, 23), (a, 12, b, 13), (b, 13, c, 23)],
                                          [(c, 23, a, 12), (b, 13, a, 12), (c, 23, b, 13)]),
        samples, tol, seed)


def qybe(sol: RSolution, v0: complex, samples: int = 50, tol: float = DEFAULT_TOL["qybe"],
         seed: int = 0) -> ResidualReport:
    """Quantum Yang-Baxter residual at fixed spectral value v0:
    R12 R13 R23 = R23 R13 R12 with R^{ij} = r(v0; y_i, y_j)."""
    r3 = view(sol, as_three_param)
    if v0 == 0:
        raise ValueError("qybe needs v0 != 0: v = 0 is a pole of every "
                         "v-difference solution")
    return _sampled_residual(
        "QYBE", sol, 3, r3,
        lambda y1, y2, y3: ((v0, y1, y2), (v0, y1, y3), (v0, y2, y3)),
        lambda a, b, c: leg_residual_norm([(a, 12, b, 13, c, 23)], [(c, 23, b, 13, a, 12)]),
        samples, tol, seed)


class DivergenceError(RuntimeError):
    """pr(x)pr r(v) has a pole at v = 0; no classical limit."""


def _laurent(sol: RSolution, as_view: Callable, row: Callable, orders: Sequence[int],
             radius: float = CIRCLE_RADIUS) -> dict:
    """The one circle sampler: m -> the order-m Laurent coefficient at z = 0 of
    the term of view(sol, as_view) at row(z), from one rows call on the circle."""
    _, rows = view(sol, as_view)
    vals = rows([row(z) for z in radius * _UNIT_CIRCLE])
    return {m: Tensor2(sol.n, np.tensordot(np.exp(-1j * m * _ANGLES) / CIRCLE_POINTS, vals,
                                           axes=(0, 0)) / radius**m) for m in orders}


def laurent_v(sol: RSolution, y1: complex, y2: complex,
              radius: float = CIRCLE_RADIUS) -> dict:
    """Laurent coefficients of orders LAURENT_ORDERS of r(v; y1, y2) around
    v = 0 by circle sampling and discrete Fourier inversion."""
    return _laurent(sol, as_three_param, lambda v: (v, y1, y2), LAURENT_ORDERS, radius)


# A pr(x)pr coefficient of negative order above this norm is a pole of pr(x)pr
# r(v) at v = 0.  Measured on rmx verify's grid: at most 1.9e-16 for every
# partnered solution, and 1.0, 0.5, 0.5 (orders -3..-1) for trg20_semistable.
DIVERGENCE_NORM = 1e-9


def classical_limit_values(sol: RSolution, y_pairs: Sequence[tuple]) -> list:
    """lim_{v->0} (pr(x)pr) r(v; y1, y2) at each (y1, y2): pr(x)pr of the
    order-0 coefficient of laurent_v, one circle a pair.  A pole of the
    projection (above DIVERGENCE_NORM) raises DivergenceError."""
    out = []
    for (y1, y2) in y_pairs:
        co = {m: project_sl(c) for m, c in laurent_v(sol, y1, y2).items()}
        for m in LAURENT_ORDERS[:-1]:
            if co[m].norm() > DIVERGENCE_NORM:
                raise DivergenceError(f"pr(x)pr r(v) has a pole at v = 0 (order {m} "
                                      f"coefficient of norm {co[m].norm():.3g})")
        out.append(co[0])
    return out


def classical_limit(sol: RSolution, reference: RSolution,
                    y_grid: Sequence[complex], tol: float = DEFAULT_TOL["limit"],
                    y_base: complex = 0.0) -> ResidualReport:
    """Compare the classical limit against a catalog entry on a y-grid
    (points y interpreted as (y_base, y_base + y) pairs).  A grid point at a
    pole of either solution has a NaN residual: the report fails."""
    def residual(y):
        pair = (y_base, y_base + y)
        try:
            got, = classical_limit_values(sol, [pair])
            want = reference.evaluator(*((y,) if reference.arity == "cl_ydiff" else pair))
        except PoleError:
            return math.nan
        return (got - want).norm()
    res = [(residual(y), (y,)) for y in y_grid]
    return _report("classical-limit", f"{sol.name}->{reference.name}", res, tol, 0)


def _line_fit(t: Tensor2, line: Tensor2) -> tuple:
    """(alpha, defect): alpha * line is the least-squares nearest multiple of
    line to t, and defect = |t - alpha * line|."""
    alpha = complex(np.vdot(line.coeffs, t.coeffs) / np.vdot(line.coeffs, line.coeffs))
    return alpha, (t - alpha * line).norm()


def laurent_payload(sol: RSolution) -> dict:
    """rmx verify --identity laurent: the norms of the Laurent coefficients of
    r(v; y1, y2) at v = 0, and r_{-1} fitted to a multiple of 1 (x) 1, at
    (y1, y2) = (0.2, 0.9) for r(v; y1, y2) and (0.0, 0.47) otherwise."""
    y1, y2 = (0.2, 0.9) if sol.arity == "vdiff_y12" else (0.0, 0.47)
    co = laurent_v(sol, y1, y2)
    a, defect = _line_fit(co[-1], Tensor2.simple(np.eye(sol.n), np.eye(sol.n)))
    return {"identity": "laurent", "solution": sol.name,
            "order_norms": {str(m): c.norm() for m, c in co.items()},
            "r_minus1_identity_component": [a.real, a.imag],
            "r_minus1_offidentity_defect": defect}


def casimir_residue(sol: RSolution) -> tuple:
    """Residue of a classical solution r(y1, y2) at y2 = y1 = 0.

    Returns (alpha, defect): residue = alpha * casimir(n) with defect the
    distance to the Casimir line.
    """
    return _line_fit(_laurent(sol, as_two_point, lambda y: (0.0, y), (-1,))[-1], casimir(sol.n))


def degeneration_error(trg: RSolution, rat: RSolution, t: float) -> float:
    """max over y in DEGENERATION_YS of |(1/t) trg(y/t) - rat(y)|."""
    return max(((1.0 / t) * trg.evaluator(y / t) - rat.evaluator(y)).norm()
               for y in DEGENERATION_YS)


def degeneration_trg_to_rat(trg: RSolution, rat: RSolution,
                            tol: float = DEFAULT_TOL["degeneration"]) -> ResidualReport:
    """Check (1/t) trg(y/t) -> rat(y) along DEGENERATION_TS."""
    errs = [degeneration_error(trg, rat, t) for t in DEGENERATION_TS]
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    return ResidualReport("degeneration", f"{trg.name}->{rat.name}",
                          len(DEGENERATION_TS) * len(DEGENERATION_YS), errs[-1],
                          (DEGENERATION_TS[-1],), tol, 0, errs[-1] < tol and monotone,
                          {"errors_along_t": errs})


# --- Dunkl operators ---------------------------------------------------------

def _dunkl_stencil(derivatives: bool) -> tuple:
    """The stencils of the Dunkl operators theta_a on DUNKL_LEGS = m legs as
    index tables, for kappa != 0 (derivatives) or kappa = 0.

    theta_a at p reads its argument at K stencil points: p + h/2, p - h/2,
    p + h, p - h on leg a (derivatives only), then p with legs a and k swapped
    for each k = others[a, t], increasing.  The ordered leg pairs (a, b) =
    (A[q], B[q]) are the pairs a < b, then the same pairs reversed.  Returns
    (steps, others, A, B, perm1, step1, src, step0, idx0, idx1):
    - theta_a's u-th stencil point around x is x[perm1[q, u]] + step1[q, u];
    - theta_b's v-th stencil point around that one is x[src[d]] + step0[d],
      d = idx0[q, u, v].  Each leg of it is x[src] + s1 + s0 with at most
      one of the two steps nonzero, so points with equal (src, s1 + s0) are
      one point, and d runs over the distinct ones (87 of 216 with
      derivatives).  That keeps a draw's stacks below 128 kB: larger
      temporaries are fresh mmap pages, whose faults cost more than the
      arithmetic on them;
    - idx1[q, u] = K q + u numbers the (q, u) of the first level in order."""
    m, h = DUNKL_LEGS, DUNKL_STEP
    steps = (h / 2, -h / 2, h, -h) if derivatives else ()
    w, st = len(steps) + 1, np.array((0.0, *steps))  # stp indexes st
    others = np.array([[k for k in range(m) if k != a] for a in range(m)])
    perm = np.array([[range(m)] * len(steps) + [[{a: k, k: a}.get(c, c) for c in range(m)]
                                                 for k in others[a]] for a in range(m)])
    K, stp = perm.shape[1], np.zeros(perm.shape, dtype=int)
    stp[:, :len(steps)] = np.eye(m, dtype=int)[:, None] * np.arange(1, w)[:, None]
    ab = list(combinations(range(m), 2))
    A, B = np.array(ab + [(b, a) for a, b in ab]).T
    i0 = (A[:, None, None, None], np.arange(K)[:, None, None], perm[B][:, None])
    src, j = np.broadcast_arrays(perm[i0], stp[i0] + stp[B][:, None])
    _, first, idx0 = np.unique((w * src + j) @ (w * m) ** np.arange(m),
                               return_index=True, return_inverse=True)
    return (steps, others, A, B, perm[A], st[stp[A]], src.reshape(-1, m)[first],
            st[j.reshape(-1, m)[first]], idx0.reshape(j.shape[:-1]),
            np.arange(len(A) * K).reshape(len(A), K))


_DUNKL_STENCILS = {d: _dunkl_stencil(d) for d in (False, True)}


def dunkl_commutator(sol: RSolution, kappa: complex = 1.0, testfn: Callable = None,
                     samples: int = 3, tol: float = None,
                     seed: int = 0) -> ResidualReport:
    """Max |([theta_i, theta_j] f)(x)| over i<j and sample points, where
    theta_i = kappa d_i + sum_{j != i} rtilde^{ij} K^{ij} acts on
    Mat_n^(x m)-valued functions of (x_1..x_m) with fixed distinct y's.

    The generator draws testfn's coefficients, then points through
    _accepted_draws, guarded by the six r^{ij}(x_i - x_j); each accepted draw
    gives the three i < j residuals, all six theta_a theta_b f as stacked
    array operations on _dunkl_stencil's stencils, the same to the bit as one
    point at a time.  Derivatives use central differences (second-order
    accurate); kappa = 0 takes none.  testfn is evaluated once per distinct
    point of a call, r^{ij}(x) once per distinct (i, j, x): a draw's
    distinct terms, the guard's and the stencil's, are one evaluate_rows
    call (catalog.view) when the walk reaches the draw, and the stencil
    gathers its Kronecker matrices from them.  Without rows, or where they
    raise, each term is one evaluator call, in the order of the walk.
    """
    tol = default_tol("dunkl", kappa) if tol is None else tol
    rng = np.random.default_rng(seed)
    n, m, N = sol.n, DUNKL_LEGS, sol.n**DUNKL_LEGS
    steps, others, A, B, perm1, step1, src, step0, idx0, idx1 = _DUNKL_STENCILS[kappa != 0]
    rfun, rows = view(sol, as_three_param)
    values = {}  # point -> testfn there, once per call
    if testfn is None:
        # generic matrix-valued polynomial test function, at the points of a
        # (..., m) array at once.  np.power(X, k) equals the scalar x**k bit for
        # bit (X**k and X*X do not), so each point gets its one-point value
        coef = rng.standard_normal((3, N, N)) + 1j * rng.standard_normal((3, N, N))

        def f(pts):
            xs = [pts[..., k, None, None] for k in range(m)]
            return sum(c * sum(np.power(x, k + 1) for x in xs) for k, c in enumerate(coef))
    else:
        def f(pts):
            keys = list(map(tuple, pts))
            for p in keys:
                values[p] = values[p] if p in values else testfn(list(p))
            return np.array([values[p] for p in keys])

    # scatter[a, t]: flat r^{ak} padded with 0 -> flat embed(r^{ak}, (a, k), m), k = others[a, t]
    ids = Tensor2(n, np.arange(1, n**4 + 1).reshape((n,) * 4))
    scatter = np.array([[embed(ids, (a, k), m).real.astype(int).ravel() - 1 for k in ks]
                        for a, ks in enumerate(others)])
    cache = {}  # (i, j, x) -> r^{ij}(x), once per call

    def term(i, j, x):
        if (i, j, x) not in cache:
            cache[i, j, x] = rfun(x, DUNKL_YS[i], DUNKL_YS[j]).coeffs
        return cache[i, j, x]

    def stencil_terms(legs, pts):
        # theta_legs at pts (..., m) reads r^{ak}(p_a - p_k) at each point p,
        # k = others[a]: (a per point, the (a, k, x) in order, pts.shape[:-1])
        legs = np.broadcast_to(legs, pts.shape[:-1]).ravel()
        flat, ks, i = pts.reshape(-1, m), others[legs], np.arange(len(legs))[:, None]
        diffs = flat[i, legs[:, None]] - flat[i, ks]
        return legs, [(a, k, x) for a, kr, xr in zip(legs.tolist(), ks.tolist(), diffs)
                      for k, x in zip(kr, xr)], pts.shape[:-1]

    def theta(vals, idx, r):
        # theta g at a stencil: vals[idx[..., u]] is g at the u-th stencil
        # points, r[..., t, :, :] the Kronecker matrix of the t-th r-term
        g = [vals[idx[..., u]] for u in range(idx.shape[-1])]
        out = np.zeros(g[0].shape, dtype=complex)
        if kappa != 0:
            # central differences with one Richardson refinement
            d = [(g[u] - g[u + 1]) / (2 * steps[u]) for u in (0, 2)]
            out = out + kappa * (4 * d[0] - d[1]) / 3
        for t in range(m - 1):
            # stacked matmul of N x N matrices equals the one-matrix @ bit for bit
            out = out + r[..., t, :, :] @ g[len(steps) + t]
        return out

    walked = {}  # the points of the draw walked last -> (x, stencils, distinct terms)

    def guard_terms(*xs):
        # the draw's distinct terms, the guard's six first, go to the cache in
        # one rows call; without rows, or where they raise, term evaluates one
        # row at a time, so the guard and the stencil evaluate and raise as
        # that would
        x = np.array(xs)  # x + 0.0 == x below
        stencils = (stencil_terms(B[:, None], x[perm1] + step1),
                    stencil_terms(A, np.broadcast_to(x, (len(A), m))))
        guard = [(i, j, xs[i] - xs[j]) for i, j in permutations(range(m), 2)]
        keys = list(dict.fromkeys(guard + stencils[0][1] + stencils[1][1]))
        new = [key for key in keys if key not in cache]
        if sol.evaluate_rows is not None:
            try:
                cache.update(zip(new, rows([(v, DUNKL_YS[i], DUNKL_YS[j]) for i, j, v in new])))
            except (ArithmeticError, ValueError, EngineError):
                pass
        walked.clear()
        walked[tuple(xs)] = x, stencils, keys
        return (term(*key) for key in guard)

    def commutators(xs):
        x, stencils, keys = walked.pop(tuple(xs))
        vals = f(x[src] + step0)
        # the draw's terms, flat, padded with 0 for scatter's -1
        flat = np.zeros((len(keys), n**4 + 1), dtype=complex)
        flat[:, :-1] = [term(*key).ravel() for key in keys]
        index = {key: i for i, key in enumerate(keys)}
        r_in, r_out = (flat[np.array([index[key] for key in ks])[:, None],
                            scatter[legs].reshape(-1, N * N)].reshape(lead + (m - 1, N, N))
                       for legs, ks, lead in stencils)
        inner = theta(vals, idx0, r_in)
        outer = theta(inner.reshape(-1, N, N), idx1, r_out)
        return np.abs(outer[:len(A) // 2] - outer[len(A) // 2:]).max(axis=(1, 2)).tolist()

    def draw():
        # well-separated arguments keep the r-matrix derivatives moderate
        base = rng.uniform(0.0, 2 * np.pi)
        return [np.exp(1j * (base + 2 * np.pi * k / m)) *
                rng.uniform(0.8, 1.2) for k in range(m)]

    pairs = [(r, tuple(xs)) for xs, _ in _accepted_draws(draw, guard_terms, samples)
             for r in commutators(xs)]
    return _report("dunkl-commutator", sol.name, pairs, tol, seed)
