# tests/oracles.py
"""Independent oracles used by the test suite.

Two kinds live here.  The reference computations (lattice sums, Eisenstein
series, classical theta series, mpmath, exact rational engines, the per-slot
Hom-space loop) deliberately avoid the library code paths they are used to
check.  The theta-identity residuals (the shift table, Watson and Landen,
the theta_1'(0) product) do call rmx.thetafn: they check classical
identities among its values, which no part of rmx needs at run time.
"""

from fractions import Fraction
from math import pi

import mpmath
import numpy as np
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from rmx import tensorcore
from rmx.thetafn import (PI_I, _QUOTIENTS, ThetaParams, jacobi_quotient, theta1_prime_at_0,
                         theta_j)


def wp_lattice(zs, tau, cutoff=40):
    """Weierstrass p-function at each z in zs by direct lattice summation
    over the square window |m'|, |m''| <= cutoff with the convergence-forcing
    subtraction 1/(z-w)^2 - 1/w^2, largest |w| first.  The window is
    symmetric, so the odd tail terms cancel and the truncation error is
    O(|z|^2 / cutoff^2).  The window and its summation order are built once
    for all points."""
    m = np.arange(-cutoff, cutoff + 1)
    mp, mpp = np.meshgrid(m, m, indexing="ij")
    w = mp + mpp * complex(tau)
    w = w[(mp != 0) | (mpp != 0)]
    w = w[np.argsort(-np.abs(w))]
    inv_w2 = 1.0 / w**2
    return [1.0 / z**2 + complex(np.sum(1.0 / (z - w) ** 2 - inv_w2))
            for z in map(complex, zs)]


def eisenstein(tau: complex, cutoff: int = 200) -> tuple:
    """(g2, g3) of the lattice Z + Z tau by direct Eisenstein summation:
    g2 = 60 sum' w^-4, g3 = 140 sum' w^-6 over w = m' + m'' tau with
    |m'|, |m''| <= cutoff, (0,0) excluded."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("Im(tau) must be positive")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    m = np.arange(-cutoff, cutoff + 1)
    mp, mpp = np.meshgrid(m, m, indexing="ij")
    w = mp + mpp * tau
    w = w[(mp != 0) | (mpp != 0)]
    # sum smallest terms first (largest |w| first)
    w = w[np.argsort(-np.abs(w))]
    return 60.0 * complex(np.sum(w**-4)), 140.0 * complex(np.sum(w**-6))


# leg tag -> the two 0-based legs of Mat_n^(x3) it names
LEGS = {12: (0, 1), 13: (0, 2), 23: (1, 2)}


def kron_embed(t2_coeffs, legs, n):
    """Dense Kronecker-product embedding of a 2-leg tensor into Mat_{n^3}:
    sum of c * e_{i1 j1} (at leg a) (x) e_{i2 j2} (at leg b) (x) 1 (elsewhere),
    each term written entry by entry into the row-major Kronecker layout
    (leg k's index has place value n^(2-k)); 1 = sum_m e_{mm}."""
    out = np.zeros((n**3, n**3), dtype=complex)
    a, b = LEGS[legs]
    (rest,) = {0, 1, 2} - {a, b}
    place = [n**2, n, 1]
    diag = np.arange(n) * place[rest]
    for (i1, j1, i2, j2), c in np.ndenumerate(t2_coeffs):
        out[i1 * place[a] + i2 * place[b] + diag, j1 * place[a] + j2 * place[b] + diag] += c
    return out


def swap(t):
    """Exchange the two tensor legs: a (x) b -> b (x) a (rmx.verify.unitarity
    does it to a whole coefficient stack with one transpose)."""
    return tensorcore.Tensor2(t.n, t.coeffs.transpose(2, 3, 0, 1))


def einsum_leg_product(a, legs_a: int, b, legs_b: int) -> np.ndarray:
    """Coefficients (n,)*6 of the shared-leg product a^{legs_a} b^{legs_b} as
    one plain einsum over n^7 index tuples: a's column index on the shared leg
    is contracted with b's row index (subscript z); every other leg keeps the
    one factor on it."""
    la, lb = LEGS[legs_a], LEGS[legs_b]
    (s,) = set(la) & set(lb)
    rows, cols = "ace", "bdf"
    sub_a = "".join(rows[k] + ("z" if k == s else cols[k]) for k in la)
    sub_b = "".join(("z" if k == s else rows[k]) + cols[k] for k in lb)
    return np.einsum(f"{sub_a},{sub_b}->abcdef", a.coeffs, b.coeffs)


def leg_product(a, legs_a: int, b, legs_b: int):
    """embed_leg(a, legs_a).matmul(embed_leg(b, legs_b)) as one whole n^6
    Tensor3, by the same BLAS matmul plan that
    rmx.tensorcore.leg_residual_norm runs one block at a time; the residual
    expressions built from it are the reducer's bit-for-bit reference.
    ValueError on tags not sharing exactly one leg or on tensors of
    different size, as the reducer raises."""
    plan = tensorcore._plan(legs_a, legs_b)
    if a.n != b.n:
        raise ValueError(f"tensors of different size: n = {a.n} and n = {b.n}")
    n = a.n
    factors = [tensorcore._factor(spec, (a, b)[spec[0]].coeffs[None]) for spec in plan[:2]]
    return tensorcore.Tensor3(n, np.matmul(*factors).reshape((n,) * 6))


def _comm(a, b):
    return a.matmul(b) - b.matmul(a)


def cybe_residual_kron(ta, tb, tc):
    """max |[r12, r23] + [r12, r13] + [r13, r23]| with r12, r13, r23 the
    tensors ta, tb, tc embedded in Mat_n^(x3) as n^3 x n^3 Kronecker
    matrices (tensorcore.embed_leg, Tensor.matmul): rmx.verify.cybe's
    residual before the leg plans, their reference."""
    r12, r13, r23 = (tensorcore.embed_leg(t, legs) for t, legs in ((ta, 12), (tb, 13), (tc, 23)))
    return (_comm(r12, r23) + _comm(r12, r13) + _comm(r13, r23)).norm()


def qybe_residual_kron(ta, tb, tc):
    """max |R12 R13 R23 - R23 R13 R12| on Kronecker matrices, as
    cybe_residual_kron: rmx.verify.qybe's residual before the leg plans."""
    r12, r13, r23 = (tensorcore.embed_leg(t, legs) for t, legs in ((ta, 12), (tb, 13), (tc, 23)))
    return (r12.matmul(r13).matmul(r23) - r23.matmul(r13).matmul(r12)).norm()


def theta3_cosine_series(z, tau, nterms=60):
    """theta_3 = 1 + 2 sum q^{n^2} cos(2 pi n z) (classical cosine form)."""
    q = np.exp(1j * np.pi * complex(tau))
    return 1.0 + 2.0 * sum(q ** (n * n) * np.cos(2 * np.pi * n * complex(z))
                           for n in range(1, nterms))


def theta1_sine_series(z, tau, nterms=60):
    """theta_1 = 2 q^{1/4} sum (-1)^n q^{n(n+1)} sin((2n+1) pi z)."""
    q = np.exp(1j * np.pi * complex(tau))
    return 2.0 * q**0.25 * sum((-1) ** n * q ** (n * (n + 1))
                               * np.sin((2 * n + 1) * np.pi * complex(z))
                               for n in range(nterms))


def theta2_cosine_series(z, tau, nterms=60):
    q = np.exp(1j * np.pi * complex(tau))
    return 2.0 * q**0.25 * sum(q ** (n * (n + 1))
                               * np.cos((2 * n + 1) * np.pi * complex(z))
                               for n in range(nterms))


def theta4_cosine_series(z, tau, nterms=60):
    q = np.exp(1j * np.pi * complex(tau))
    return 1.0 + 2.0 * sum((-1) ** n * q ** (n * n)
                           * np.cos(2 * np.pi * n * complex(z))
                           for n in range(1, nterms))


def _jacobi(name: str, z: complex, p: ThetaParams) -> complex:
    """The Jacobi function name (sn, cn or dn) at one z, each theta value on
    its own; the catalog takes them from one theta call for many points."""
    j0, j, k0 = _QUOTIENTS[name]
    return jacobi_quotient(name, z, {k: theta_j(k, 0, p) for k in (k0, j0)},
                           {k: theta_j(k, z, p) for k in (4, j)})


def sn(z: complex, p: ThetaParams) -> complex:
    return _jacobi("sn", z, p)


def cn(z: complex, p: ThetaParams) -> complex:
    return _jacobi("cn", z, p)


def dn(z: complex, p: ThetaParams) -> complex:
    return _jacobi("dn", z, p)


def theta_mpmath(j, z, tau, deriv=0, dps=30):
    """theta_j(z|tau) and its z-derivatives from mpmath.jtheta at dps digits.

    mpmath's series run in cos(2nz) (nome q = exp(pi i tau)), the library's
    in cos(2 pi n z), so theta_j(z|tau) = jtheta(j, pi z, q) and the d-th
    derivative picks up pi^d."""
    with mpmath.workdps(dps):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        val = mpmath.pi**deriv * mpmath.jtheta(j, mpmath.pi * mpmath.mpc(z), q,
                                               derivative=deriv)
        return complex(val)


# --- theta_1'(0) product and the argument scale -------------------------------

def theta_product_identity_residual(p: ThetaParams) -> float:
    """|theta_1'(0) - pi * theta_2(0) theta_3(0) theta_4(0)|.

    Note the factor pi, which the derivative of the sine series forces with
    this argument convention.
    """
    lhs = theta1_prime_at_0(p)
    rhs = pi * theta_j(2, 0, p) * theta_j(3, 0, p) * theta_j(4, 0, p)
    return abs(lhs - rhs)


def arg_scale(p: ThetaParams) -> complex:
    """pi*theta_3(0|tau)^2: z -> u argument scale to textbook Jacobi functions."""
    t3 = theta_j(3, 0.0, p)
    return pi * t3 * t3


# --- shift transformation table --------------------------------------------

def shift_p(z: complex, p: ThetaParams) -> complex:
    """p(z) = exp(-pi i (2z + tau)) of the shift table."""
    return np.exp(-PI_I * (2 * z + p.tau))


def shift_q(z: complex, p: ThetaParams) -> complex:
    """q(z) = exp(-pi i (z + tau/4)) of the shift table."""
    return np.exp(-PI_I * (z + p.tau / 4))


# For each theta_j: factors (as functions of z) for the shifts
#   -z, z+1, z+tau, z+1+tau, z+1/2, z+tau/2.
# An entry (c, g, k) means theta_j(z + shift) = c * g(z) * theta_k(z) with
# g one of 1, p, q.
_ONE = lambda z, p: 1.0  # noqa: E731

SHIFT_TABLE = {
    1: {
        "neg": (-1, _ONE, 1),
        "z+1": (-1, _ONE, 1),
        "z+tau": (-1, shift_p, 1),
        "z+1+tau": (1, shift_p, 1),
        "z+1/2": (1, _ONE, 2),
        "z+tau/2": (1j, shift_q, 4),
    },
    2: {
        "neg": (1, _ONE, 2),
        "z+1": (-1, _ONE, 2),
        "z+tau": (1, shift_p, 2),
        "z+1+tau": (-1, shift_p, 2),
        "z+1/2": (-1, _ONE, 1),
        "z+tau/2": (1, shift_q, 3),
    },
    3: {
        "neg": (1, _ONE, 3),
        "z+1": (1, _ONE, 3),
        "z+tau": (1, shift_p, 3),
        "z+1+tau": (1, shift_p, 3),
        "z+1/2": (1, _ONE, 4),
        "z+tau/2": (1, shift_q, 2),
    },
    4: {
        "neg": (1, _ONE, 4),
        "z+1": (1, _ONE, 4),
        "z+tau": (-1, shift_p, 4),
        "z+1+tau": (-1, shift_p, 4),
        "z+1/2": (1, _ONE, 3),
        "z+tau/2": (1j, shift_q, 1),
    },
}

_SHIFT_ARG = {
    "neg": lambda z, tau: -z,
    "z+1": lambda z, tau: z + 1,
    "z+tau": lambda z, tau: z + tau,
    "z+1+tau": lambda z, tau: z + 1 + tau,
    "z+1/2": lambda z, tau: z + 0.5,
    "z+tau/2": lambda z, tau: z + tau / 2,
}


def shift_residual(j: int, shift: str, z: complex, p: ThetaParams) -> float:
    """Residual of one entry of the shift transformation table at z."""
    c, g, k = SHIFT_TABLE[j][shift]
    lhs = theta_j(j, _SHIFT_ARG[shift](z, p.tau), p)
    rhs = c * g(z, p) * theta_j(k, z, p)
    return abs(lhs - rhs)


# --- Watson / Landen identities --------------------------------------------

def watson_suite(x: complex, y: complex, p: ThetaParams) -> dict:
    """Residuals of the five Watson determinantal identities and the two
    Landen transforms, evaluated at (x, y).  Returns a dict of named
    residuals plus the max under key 'max'."""
    p2 = ThetaParams(2 * p.tau, p.tol)

    def t(j, z, pp=p):
        return theta_j(j, z, pp)

    out = {}
    out["watson1"] = abs(
        t(3, 2 * x, p2) * t(2, 2 * y, p2) - t(3, 2 * y, p2) * t(2, 2 * x, p2)
        - t(1, x + y) * t(1, x - y)
    )
    out["watson2"] = abs(
        t(1, 2 * x, p2) * t(4, 2 * y, p2) - t(1, 2 * y, p2) * t(4, 2 * x, p2)
        - t(2, x + y) * t(1, x - y)
    )
    out["watson3"] = abs(
        t(1, 2 * x, p2) * t(4, 2 * y, p2) + t(1, 2 * y, p2) * t(4, 2 * x, p2)
        - t(1, x + y) * t(2, x - y)
    )
    out["watson4"] = abs(
        t(4, 2 * x, p2) * t(4, 2 * y, p2) - t(1, 2 * y, p2) * t(1, 2 * x, p2)
        - t(3, x + y) * t(4, x - y)
    )
    out["watson5"] = abs(
        t(4, 2 * x, p2) * t(4, 2 * y, p2) + t(1, 2 * y, p2) * t(1, 2 * x, p2)
        - t(4, x + y) * t(3, x - y)
    )
    out["landen1"] = abs(t(4, 0, p2) * t(1, 2 * x, p2) - t(1, x) * t(2, x))
    out["landen2"] = abs(t(4, 0, p2) * t(4, 2 * x, p2) - t(3, x) * t(4, x))
    out["max"] = max(out.values())
    return out


def theta_term_scale(j, z, tau, deriv=0, nterms=60):
    """Sum of the moduli of the series terms of theta_j^(deriv)(z|tau):
    sum_n |exp(pi i (n+a)^2 tau + 2 pi i (n+a) z)| |2 pi (n+a)|^deriv, with
    a = 1/2 for j = 1, 2 and 0 for j = 3, 4.  Rounding in a summed series is
    proportional to this, not to |theta|, which cancels near the zeros."""
    a = 0.5 if j in (1, 2) else 0.0
    n = np.arange(-nterms, nterms + 1) + a
    mods = np.exp(-np.pi * n * n * complex(tau).imag - 2 * np.pi * n * complex(z).imag)
    return float(np.sum(mods * np.abs(2 * np.pi * n) ** deriv))


def hom_space_basis_per_slot(deg, m_src, m_dst, cuspidal):
    """Basis of the glued Hom space, one constraint column per coefficient
    slot: the loop form of rmatrix._hom_space_glued, kept as its reference.

    Returns the basis array (dim, n, n, max_deg+1) with the nullspace taken
    by SVD at the relative threshold 1e-10."""
    n = deg.shape[0]
    slots = [(i, j, k) for i in range(n) for j in range(n)
             for k in range(deg[i, j] + 1)]
    nc = len(slots)
    kmax = int(deg.max()) + 1

    rows = []
    for idx in range(nc):
        coeff = np.zeros((n, n, kmax), dtype=complex)
        i, j, k = slots[idx]
        coeff[i, j, k] = 1.0
        if not cuspidal:
            f0 = np.array([[(-1.0)**deg[i, j] * coeff[i, j, 0]
                            for j in range(n)] for i in range(n)])
            finf = np.array([[coeff[i, j, deg[i, j]]
                              for j in range(n)] for i in range(n)])
            eq = f0 @ m_src - m_dst @ finf
        else:
            f0 = np.array([[coeff[i, j, deg[i, j]]
                            for j in range(n)] for i in range(n)])
            f1 = np.array([[coeff[i, j, deg[i, j] - 1] if deg[i, j] >= 1 else 0.0
                            for j in range(n)] for i in range(n)])
            eq = f1 + f0 @ m_src - m_dst @ f0
        rows.append(eq.ravel())
    constraint = np.array(rows).T

    _, s, vh = np.linalg.svd(constraint)
    rank = int(np.sum(s > 1e-10 * s[0]))
    ns = vh[rank:].conj()
    basis = np.zeros((ns.shape[0], n, n, kmax), dtype=complex)
    for b in range(ns.shape[0]):
        for idx, (i, j, k) in enumerate(slots):
            basis[b, i, j, k] = ns[b, idx]
    return basis


def exact_engine_coeffs(kind, n, d, pattern, lam1, lam2, y1, y2):
    """Exact tensor coefficients [j, i, k, l] of the nodal or cuspidal
    engine at rational (lam1, lam2, y1, y2), by the residue/evaluation
    recipe over Q.

    pattern is the 0/1 gluing pattern: the nonzero pattern of the canonical
    nodal m(0), or the off-diagonal part of the canonical cuspidal mEps.
    Blocks of F go from O^{n-d} + O(1)^d to O(1)^{n-d} + O(2)^d.  Nodal:
    F(0) lam1 P = y1 lam2 P F(inf), res F = F(y1)/y1.  Cuspidal:
    F1 + F0 (P + lam1) = (P + lam2 - y1) F0, res F = F(y1).  Both have
    ev F = F(y2)/(y2 - y1).  Returns a complex array and the dimension of
    the Hom space."""
    lam1, lam2, y1, y2 = map(Fraction, (lam1, lam2, y1, y2))
    n1 = n - d
    deg = [[(1 if i < n1 else 2) - (0 if j < n1 else 1) for j in range(n)]
           for i in range(n)]
    slots = [(i, j, k) for i in range(n) for j in range(n)
             for k in range(deg[i][j] + 1)]
    col = {s: c for c, s in enumerate(slots)}
    p = [[Fraction(int(pattern[i][j])) for j in range(n)] for i in range(n)]
    if kind == "nodal":
        src = [[lam1 * x for x in row] for row in p]
        dst = [[y1 * lam2 * x for x in row] for row in p]
    else:
        src = [[p[i][j] + (lam1 if i == j else 0) for j in range(n)] for i in range(n)]
        dst = [[p[i][j] + (lam2 - y1 if i == j else 0) for j in range(n)] for i in range(n)]

    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * len(slots)
            for m in range(n):
                if kind == "nodal":
                    # F(0)[i,m] src[m,j] - dst[i,m] F(inf)[m,j]
                    row[col[i, m, 0]] += (-1) ** deg[i][m] * src[m][j]
                    row[col[m, j, deg[m][j]]] -= dst[i][m]
                else:
                    # F1[i,j] + F0[i,m] src[m,j] - dst[i,m] F0[m,j]
                    row[col[i, m, deg[i][m]]] += src[m][j]
                    row[col[m, j, deg[m][j]]] -= dst[i][m]
            if kind != "nodal" and deg[i][j] >= 1:
                row[col[i, j, deg[i][j] - 1]] += 1
            rows.append([QQ(x.numerator, x.denominator) for x in row])
    null = DomainMatrix(rows, (n * n, len(slots)), QQ).nullspace().to_list()

    def values(y, scale):
        """Matrix (n^2, dim): column b is F_b(y) * scale, flattened."""
        out = [[Fraction(0)] * len(null) for _ in range(n * n)]
        for b, vec in enumerate(null):
            for (i, j, k), c in zip(slots, vec):
                out[i * n + j][b] += Fraction(int(c.numerator), int(c.denominator)) * y**k * scale
        return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in out],
                            (n * n, len(null)), QQ)

    res = values(y1, 1 / y1 if kind == "nodal" else Fraction(1))
    ev = values(y2, 1 / (y2 - y1))
    lin = (ev * res.inv()).to_list()          # lin[(k,l)][(i,j)]
    coeffs = np.array([[float(Fraction(int(x.numerator), int(x.denominator)))
                        for x in r] for r in lin])
    return coeffs.T.reshape(n, n, n, n).transpose(1, 0, 2, 3).astype(complex), len(null)


# --- sample points, one try at a time ------------------------------------------

def sample_sequential(rng, k):
    """rmx.verify._sample one try at a time: k radii, then k angles, drawn
    from rng per try, and the pairwise distances tested in Python with the
    scalar abs; at most 200 tries, then PoleSampleError.  The bit-for-bit
    reference of verify._tries, which draws the tries as arrays."""
    from itertools import combinations

    from rmx import verify
    for _ in range(200):
        pts = rng.uniform(0.25, 1.1, k) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, k))
        if all(abs(a - b) >= 5e-2 for a, b in combinations(pts, 2)):
            return pts
    raise verify.PoleSampleError("could not draw distinct sample points")


# --- Dunkl commutator, one point at a time ------------------------------------

def dunkl_commutator_pointwise(sol, kappa=1.0, testfn=None, samples=3, seed=0):
    """rmx.verify.dunkl_commutator's report, with each theta_i a closure that
    evaluates one point at a time (nested theta_i(theta_j f)): the stacked
    stencil's bit-for-bit reference.  Same generator, guard, caches and
    tolerance; r^{ij} is embedded by tensorcore.embed per distinct term."""
    from itertools import combinations, permutations

    from rmx import verify
    from rmx.catalog import as_three_param
    rng = np.random.default_rng(seed)
    n, m, h = sol.n, verify.DUNKL_LEGS, verify.DUNKL_STEP
    rfun = as_three_param(sol)
    if testfn is None:
        coef = rng.standard_normal((3, n**m, n**m)) + 1j * rng.standard_normal((3, n**m, n**m))

        def testfn(xs):
            return sum(c * sum(x**(k + 1) for x in xs) for k, c in enumerate(coef))

    values, cache = {}, {}

    def f0(xs):
        if tuple(xs) not in values:
            values[tuple(xs)] = testfn(xs)
        return values[tuple(xs)]

    def ddx(f, xs, i, step):
        xp = list(xs); xp[i] = xs[i] + step
        xm = list(xs); xm[i] = xs[i] - step
        return (f(xp) - f(xm)) / (2 * step)

    def term(i, j, x):
        if (i, j, x) not in cache:
            t = rfun(x, verify.DUNKL_YS[i], verify.DUNKL_YS[j])
            cache[i, j, x] = t, tensorcore.embed(t, (i, j), m)
        return cache[i, j, x]

    def theta(i, f):
        def tf(xs):
            out = np.zeros((n**m, n**m), dtype=complex)
            if kappa != 0:
                out = out + kappa * (4 * ddx(f, xs, i, h / 2) - ddx(f, xs, i, h)) / 3
            for j in (k for k in range(m) if k != i):
                swapped = list(xs)
                swapped[i], swapped[j] = xs[j], xs[i]
                out = out + term(i, j, xs[i] - xs[j])[1] @ f(swapped)
            return out
        return tf

    def draw():
        base = rng.uniform(0.0, 2 * np.pi)
        return [np.exp(1j * (base + 2 * np.pi * k / m)) * rng.uniform(0.8, 1.2)
                for k in range(m)]

    def guard_terms(*xs):
        return (term(i, j, xs[i] - xs[j])[0].coeffs for i, j in permutations(range(m), 2))

    pairs = [(float(np.max(np.abs(theta(i, theta(j, f0))(xs) - theta(j, theta(i, f0))(xs)))),
              tuple(xs))
             for xs, _ in verify._accepted_draws(draw, guard_terms, samples)
             for i, j in combinations(range(m), 2)]
    return verify._report("dunkl-commutator", sol.name, pairs,
                          verify.default_tol("dunkl", kappa), seed)
