# src/rmx/bundles.py

"""Gluing data for vector bundles over the normalization of a Weierstrass
cubic: canonical matrix forms of simple bundles on nodal/cuspidal curves,
Jacobian-compatible families, Atiyah bundles, endomorphism-space
certificates, and elliptic automorphy factors.

A bundle on a singular curve is encoded by its pullback to P^1 together
with gluing data over the preimage of the singular point: a pair of
invertible matrices (m(0), m(infty)) in the nodal case, a dual-number
matrix 1 + eps*mEps over C[eps]/eps^2 in the cuspidal case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, pi

import numpy as np

SVD_RTOL = 1e-10  # rank threshold relative to the largest singular value


@dataclass(frozen=True)
class NodalTriple:
    n1: int
    n2: int
    m0: np.ndarray
    mInf: np.ndarray

    def __post_init__(self):
        n = self.n1 + self.n2
        m0 = np.asarray(self.m0, dtype=complex)
        mi = np.asarray(self.mInf, dtype=complex)
        if m0.shape != (n, n) or mi.shape != (n, n):
            raise ValueError(f"gluing matrices must be {n}x{n}")
        if abs(np.linalg.det(m0)) < 1e-300 or abs(np.linalg.det(mi)) < 1e-300:
            raise ValueError("gluing matrices must be invertible")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "mInf", mi)

    @property
    def n(self) -> int:
        return self.n1 + self.n2


@dataclass(frozen=True)
class CuspTriple:
    """1 + eps*mEps over C[eps]/eps^2; the lower-left n2 x n1 block of mEps
    is the 'non-existing' block: stored as written but never read by the
    morphism constraints."""

    n1: int
    n2: int
    mEps: np.ndarray

    def __post_init__(self):
        n = self.n1 + self.n2
        m = np.asarray(self.mEps, dtype=complex)
        if m.shape != (n, n):
            raise ValueError(f"mEps must be {n}x{n}")
        object.__setattr__(self, "mEps", m)

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def _require_coprime(n1: int, n2: int):
    if n1 < 1 or n2 < 1:
        raise ValueError("block sizes must be positive")
    if gcd(n1, n2) != 1:
        raise ValueError(f"({n1}, {n2}) must be coprime")


def _reduction_chain(n1: int, n2: int) -> list:
    """Euclidean chain from (n1, n2) down to (1, 1)."""
    chain = []
    while (n1, n2) != (1, 1):
        chain.append((n1, n2))
        if n1 > n2:
            n1 -= n2
        else:
            n2 -= n1
    return chain[::-1]


def nodal_pattern(n1: int, n2: int) -> list:
    """The construction of canonical_nodal_matrix as an index list: the
    column pi(i) of the one nonzero of each row i, built from pi = [1, 0]
    ([[0, 1], [lam, 0]]) by the two block-insertion rules.  Step (m1, m2) ->
    (m1 + m2, m2) inserts the identity at rows m1..m1 + m2 - 1, columns
    m1 + m2 on, and moves the later rows down by m2; step (m1, m2) ->
    (m1, m1 + m2) inserts it at the first m1 rows, columns m1 on, moves
    every old row down by m1 and its columns from m1 on right by m1.  The
    last row stays last."""
    pi, m1, m2 = [1, 0], 1, 1
    for (t1, t2) in _reduction_chain(n1, n2):
        if t1 == m1 + m2:
            pi = pi[:m1] + list(range(t1, t1 + t2)) + pi[m1:]
        else:
            pi = list(range(m1, 2 * m1)) + [c if c < m1 else c + m1 for c in pi]
        m1, m2 = t1, t2
    return pi


def canonical_nodal_matrix(n1: int, n2: int, lam: complex) -> np.ndarray:
    """Canonical m(0) of the simple bundle class M_{n1,n2}(lam): built from
    [[0,1],[lam,0]] by the two recursive block-insertion rules
    (nodal_pattern).  The result has exactly one nonzero entry per row and
    column; the single lam sits in the last row."""
    _require_coprime(n1, n2)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    pi = nodal_pattern(n1, n2)
    m = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    m[range(n1 + n2), pi] = 1
    m[-1, pi[-1]] = lam
    return m


def canonical_nodal(n1: int, n2: int, lam: complex) -> NodalTriple:
    m = canonical_nodal_matrix(n1, n2, lam)
    return NodalTriple(n1, n2, m, np.eye(n1 + n2, dtype=complex))


def cusp_pattern(n1: int, n2: int) -> tuple:
    """The construction of canonical_cusp_matrix as index lists: the rows
    and columns of its ones, the index of its one diagonal entry (lam), and
    the grading w of its ones: Z[i, j] != 0 => w(j) = w(i) + 1, so
    diag(t^w) Z diag(t^-w) = Z / t, with w(0) = 0.  Each step inserts one
    identity block, which raises w by one, and leaves the other entries where
    they were (m1 + m2, m2) or moves them down the diagonal by m1 (m1,
    m1 + m2)."""
    rows, cols, at, w = [0], [1], 0, [0, 1]
    m1, m2 = 1, 1
    for (t1, t2) in _reduction_chain(n1, n2):
        if t1 == m1 + m2:      # (m1, m2) -> (m1 + m2, m2): I at [m1:m1 + m2, m1 + m2:]
            rows += range(m1, m1 + m2)
            cols += range(m1 + m2, t1 + t2)
            w += [v + 1 for v in w[m1:]]
        else:                  # (m1, m2) -> (m1, m1 + m2): I at [:m1, m1:2 m1]
            rows = [*range(m1), *(r + m1 for r in rows)]
            cols = [*range(m1, 2 * m1), *(c + m1 for c in cols)]
            at += m1
            w = [v - 1 for v in w[:m1]] + w
        m1, m2 = t1, t2
    return rows, cols, at, [v - w[0] for v in w]


def canonical_cusp_matrix(n1: int, n2: int, lam: complex) -> np.ndarray:
    """Canonical mEps of the cuspidal M_{n1,n2}(lam), built from
    [[lam,1],[x,0]] by reversing the reduction steps (cusp_pattern).
    tr = lam; the current lower-left n2 x n1 block is the masked one (stored
    as zeros)."""
    _require_coprime(n1, n2)
    rows, cols, at, _ = cusp_pattern(n1, n2)
    m = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    m[rows, cols] = 1
    m[at, at] = lam
    return m


def canonical_cusp(n1: int, n2: int, lam: complex) -> CuspTriple:
    return CuspTriple(n1, n2, canonical_cusp_matrix(n1, n2, lam))


def jacobian_nodal_matrices(n1: int, n2: int, ts) -> np.ndarray:
    """m(0) of the Jacobian-compatible family Ntilde_{n1,n2}(t) for every t of
    the 1-d array ts, shape (len(ts), n, n): the canonical pattern, built
    once, with every nonzero entry replaced by t, so Ntilde(beta*t) =
    beta*Ntilde(t).  Each t must be nonzero and each matrix invertible."""
    ts = np.asarray(ts)
    if not ts.all():
        raise ValueError("t must be nonzero")
    m = ts[:, None, None] * (canonical_nodal_matrix(n1, n2, 1.0) != 0)
    if (np.abs(np.linalg.det(m)) < 1e-300).any():
        raise ValueError("gluing matrices must be invertible")
    return m


def jacobian_form_nodal(n1: int, n2: int, t: complex) -> NodalTriple:
    """Jacobian-compatible family Ntilde_{n1,n2}(t) (jacobian_nodal_matrices).
    The determinant coordinate is lam = +-t^n."""
    return NodalTriple(n1, n2, jacobian_nodal_matrices(n1, n2, [t])[0],
                       np.eye(n1 + n2, dtype=complex))


def jacobian_form_cusp(n1: int, n2: int, lam: complex) -> CuspTriple:
    """N_{n1,n2}(lam): canonical pattern with every diagonal entry set to
    lam/n, so that beta*1 + N(lam) = N(n*beta + lam)."""
    n = n1 + n2
    m = canonical_cusp_matrix(n1, n2, 0.0)
    np.fill_diagonal(m, complex(lam) / n)
    return CuspTriple(n1, n2, m)


def jacobian_form(kind: str, n1: int, n2: int, value: complex):
    if kind == "nodal":
        return jacobian_form_nodal(n1, n2, value)
    if kind in ("cusp", "cuspidal"):
        return jacobian_form_cusp(n1, n2, value)
    raise ValueError(f"unknown curve kind {kind!r}")


def atiyah_nodal(m: int) -> NodalTriple:
    """Atiyah bundle of rank m on the nodal curve: (J_m(1), I_m), blocks (m, 0)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    j = np.eye(m, dtype=complex) + np.diag(np.ones(m - 1), 1)
    return NodalTriple(m, 0, j, np.eye(m, dtype=complex))


def det_triple(triple) -> complex:
    """Determinant line-bundle coordinate: det m(0)/det m(infty) for a nodal
    triple, tr(mEps) (the eps-coefficient of det(1 + eps mEps)) for a
    cuspidal one."""
    if isinstance(triple, NodalTriple):
        return complex(np.linalg.det(triple.m0) / np.linalg.det(triple.mInf))
    if isinstance(triple, CuspTriple):
        return complex(np.trace(triple.mEps))
    raise TypeError(f"expected a bundle triple, got {type(triple).__name__}")


def svd_rank(sv: np.ndarray):
    """Numerical rank from descending singular values on the last axis: the
    number above SVD_RTOL times the largest; an int array for a stack."""
    r = (sv > SVD_RTOL * sv[..., :1]).sum(axis=-1)
    return int(r) if r.ndim == 0 else r


def _solution_dim(eq, shapes: list) -> int:
    """Dimension of the solution space of the linear equations eq = 0.

    The unknowns are matrix blocks of the given (rows, cols) shapes.  eq
    takes the blocks, each with a leading batch axis, and returns a tuple of
    equation blocks with the same batch axis; it is evaluated once on the
    batch of all unit unknowns."""
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    flat = np.split(np.eye(total), np.cumsum(sizes)[:-1], axis=1)
    blocks = [f.reshape(total, r, c) for f, (r, c) in zip(flat, shapes)]
    a = np.concatenate([e.reshape(total, -1) for e in eq(*blocks)], axis=1).T
    return total - svd_rank(np.linalg.svd(a, compute_uv=False))


def endo_dimension(triple) -> int:
    """Dimension of the endomorphism space of the triple; 1 certifies
    simplicity.

    Nodal: morphisms are (S0, Sinf, f) with S0, Sinf sharing diagonal blocks
    (A, B), zero upper-right block and independent lower-left blocks, and
    S0 m0 = m0 f, Sinf mInf = mInf f.  Cuspidal: a single block matrix S
    with the three block equations of S M = M S, the lower-left block of
    both products being ignored.
    """
    if isinstance(triple, NodalTriple):
        return _endo_dim_nodal(triple)
    if isinstance(triple, CuspTriple):
        return _endo_dim_cusp(triple)
    raise TypeError(f"expected a bundle triple, got {type(triple).__name__}")


def _endo_dim_nodal(t: NodalTriple) -> int:
    n1, n2, n = t.n1, t.n2, t.n

    def s_matrix(a, b, c):
        s = np.zeros((len(a), n, n), dtype=complex)
        s[:, :n1, :n1] = a
        s[:, n1:, n1:] = b
        s[:, n1:, :n1] = c
        return s

    def eq(a, b, c0, cinf, f):
        return (s_matrix(a, b, c0) @ t.m0 - t.m0 @ f,
                s_matrix(a, b, cinf) @ t.mInf - t.mInf @ f)

    return _solution_dim(eq, [(n1, n1), (n2, n2), (n2, n1), (n2, n1), (n, n)])


def _endo_dim_cusp(t: CuspTriple) -> int:
    n1, n2 = t.n1, t.n2
    m11 = t.mEps[:n1, :n1]
    m12 = t.mEps[:n1, n1:]
    m22 = t.mEps[n1:, n1:]

    def eq(s11, s21, s22):
        return (s11 @ m11 - m11 @ s11 - m12 @ s21,
                s11 @ m12 - m12 @ s22,
                s21 @ m12 + s22 @ m22 - m22 @ s22)

    return _solution_dim(eq, [(n1, n1), (n2, n1), (n2, n2)])


# --- elliptic automorphy factors --------------------------------------------

@dataclass(frozen=True)
class AutomorphyFactor:
    """Cyclic automorphy factor Phi_{n,d}(z, x) of the twisted family of
    stable bundles of rank n and degree d:

        Phi_{n,d}(z, x) = q_{x/n} * (cycle with phi_n(z)^d corner),
        q_{x/n} = exp(-2 pi i x / n),  phi_n(z) = exp(-pi i n tau - 2 pi i z),

    satisfying Phi(z+1, x) = Phi(z, x) and
    exp(-2 pi i y) Phi_{n,d}(z, x) = Phi_{n,d}(z, x + n y).
    """

    n: int
    d: int
    x: complex
    tau: complex

    def __post_init__(self):
        if gcd(self.n, abs(self.d)) != 1:
            raise ValueError(f"({self.n}, {self.d}) must be coprime")

    def __call__(self, z: complex) -> np.ndarray:
        n, d, tau = self.n, self.d, self.tau
        qxn = np.exp(-2j * pi * self.x / n)
        phi_n = np.exp(-1j * pi * n * tau - 2j * pi * z)
        m = np.diag(np.ones(n - 1, dtype=complex), 1)  # 1 x 1 zero at n = 1
        m[n - 1, 0] = phi_n**d
        return qxn * m


def automorphy(n: int, d: int, x: complex, tau: complex) -> AutomorphyFactor:
    return AutomorphyFactor(n, d, complex(x), complex(tau))


def line_bundle_factor(y: complex, tau: complex):
    """psi_y(z) = -exp(-2 pi i (z + tau - y)), the automorphy factor of O(y);
    its section is theta(z + (1+tau)/2 - y | tau)."""
    y, tau = complex(y), complex(tau)

    def psi(z: complex) -> complex:
        return -np.exp(-2j * pi * (complex(z) + tau - y))

    return psi
