# src/rmx/tensorcore.py

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np


def _as_matrix(a, n: int) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    return m


# legs -> axis order of coeffs in the Kronecker layout (every row index, then
# every column index), and its inverse
_TO_KRON = {2: (0, 2, 1, 3), 3: (0, 2, 4, 1, 3, 5)}
_FROM_KRON = {2: (0, 2, 1, 3), 3: (0, 3, 1, 4, 2, 5)}

# "layout" of the JSON form: the data is kron() flattened row-major
LAYOUT = "kron-rowmajor"


@dataclass(frozen=True)
class Tensor:
    """Element of Mat_n^(x m) over C for m = 2 or 3 legs.

    coeffs[i1, j1, ..., im, jm] is the coefficient of
    e_{i1 j1} (x) ... (x) e_{im jm} (0-based indices), so coeffs has shape
    (n,) * 2m.  Serialization flattens to the Kronecker layout: row
    (i1, ..., im), column (j1, ..., jm), row-major, so that simple tensors
    A (x) B flatten to np.kron(A, B).
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.n,) * 4 and c.shape != (self.n,) * 6:
            raise ValueError(f"coeffs must have shape {(self.n,)*4} or {(self.n,)*6}, "
                             f"got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @property
    def legs(self) -> int:
        return self.coeffs.ndim // 2

    @classmethod
    def simple(cls, a, b) -> "Tensor":
        """Simple tensor a (x) b from two n x n matrices."""
        a = np.asarray(a, dtype=complex)
        n = a.shape[0]
        b = _as_matrix(b, n)
        return cls(n, np.einsum("ij,kl->ijkl", _as_matrix(a, n), b))

    @classmethod
    def from_kron(cls, k: np.ndarray, n: int) -> "Tensor":
        """Inverse of kron; the leg count is read off the n^m x n^m shape."""
        k = np.asarray(k, dtype=complex)
        for m in (2, 3):
            if k.shape == (n**m, n**m):
                return cls(n, k.reshape((n,) * 2 * m).transpose(_FROM_KRON[m]))
        raise ValueError(f"expected a {n*n}x{n*n} or {n**3}x{n**3} Kronecker "
                         f"matrix, got {k.shape}")

    def kron(self) -> np.ndarray:
        """Flattened n^m x n^m matrix in the Kronecker layout."""
        m = self.legs
        return self.coeffs.transpose(_TO_KRON[m]).reshape(self.n**m, self.n**m)

    def __add__(self, other: "Tensor") -> "Tensor":
        return Tensor(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return Tensor(self.n, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "Tensor":
        return Tensor(self.n, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return Tensor(self.n, -self.coeffs)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Product in Mat_n^(x m): legwise matrix multiplication, as one
        n^m x n^m matrix product in the Kronecker layout."""
        return Tensor.from_kron(self.kron() @ other.kron(), self.n)

    def norm(self) -> float:
        # the method skips np.max's Python dispatch; the same maximum.reduce,
        # so the bits and NaN propagation are the same
        return float(np.abs(self.coeffs).max())

    def to_json_dict(self) -> dict:
        flat = self.kron().ravel()
        return {
            "n": self.n,
            "layout": LAYOUT,
            "data": [[re, im] for re, im in zip(flat.real.tolist(), flat.imag.tolist())],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Tensor":
        n = int(d["n"])
        if d.get("layout", LAYOUT) != LAYOUT:
            raise ValueError(f"unknown layout {d.get('layout')!r}")
        flat = np.array([complex(re, im) for re, im in d["data"]])
        side = next((n**m for m in (2, 3) if len(flat) == n**(2 * m)), None)
        if side is None:
            raise ValueError(f"expected {n**4} or {n**6} entries, got {len(flat)}")
        return cls.from_kron(flat.reshape(side, side), n)


# two-leg (r-matrices) and three-leg (Yang-Baxter terms) names of the one class
Tensor2 = Tensor3 = Tensor


# --- fixed 2x2 basis symbols ------------------------------------------------

ID2 = np.eye(2, dtype=complex)
H = np.array([[1, 0], [0, -1]], dtype=complex)
E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA = np.array([[0, -1j], [1j, 0]], dtype=complex)
GAMMA = np.array([[0, 1], [1, 0]], dtype=complex)


# leg tag -> the two 0-based legs of Mat_n^(x3) it names
_LEG_TAGS = {12: (0, 1), 13: (0, 2), 23: (1, 2)}
# output axes of a three-leg product in the coefficient order: leg k's row
# index is axis 2k, its column index 2k + 1
_ABCDEF = tuple(range(6))


def _legs(tag: int) -> tuple:
    if tag not in _LEG_TAGS:
        raise ValueError(f"invalid leg tag {tag!r}; expected one of 12, 13, 23")
    return _LEG_TAGS[tag]


def embed(t: Tensor2, legs: tuple, m: int) -> np.ndarray:
    """n^m x n^m Kronecker matrix of t placed on the 0-based legs (a, b) of
    Mat_n^(x m): factor 1 on leg a, factor 2 on leg b, identity elsewhere."""
    rows, cols = string.ascii_letters[:m], string.ascii_letters[m:2 * m]
    a, b = legs
    rest = [k for k in range(m) if k not in legs]
    subs = [rows[a] + cols[a] + rows[b] + cols[b]] + [rows[k] + cols[k] for k in rest]
    eye = np.eye(t.n, dtype=complex)
    c = np.einsum(",".join(subs) + "->" + rows + cols, t.coeffs, *[eye] * len(rest))
    return c.reshape(t.n**m, t.n**m)


def embed_leg(t: Tensor2, legs: int) -> Tensor3:
    """Embed a two-leg tensor into Mat_n^(x3) on the given pair of legs.

    legs is one of 12, 13, 23; the first tensor factor goes to the first
    named leg, the second factor to the second, identity on the rest.
    """
    return Tensor3.from_kron(embed(t, _legs(legs), 3), t.n)


def _product_plan(legs_a: int, legs_b: int, one_gemm: bool = False) -> tuple:
    """How the shared-leg product a^{legs_a} b^{legs_b}, that is
    embed_leg(a, legs_a).matmul(embed_leg(b, legs_b)) for two tags sharing
    exactly one leg, runs as one broadcast matmul in O(n^7) per draw.

    Output axis 2k is leg k's row index and 2k + 1 its column index.  a owns
    the shared leg's row and both indices of its other leg, b the shared
    leg's column and its other leg; the shared leg's inner index is the
    contraction.  The trailing run of output axes owned by one operand is
    the GEMM's N, the run before it (the other operand's) its M, and every
    earlier axis a batch axis, size 1 in the operand that does not own it.
    So the product comes out C-contiguous in the abcdef layout.  With
    one_gemm the operand owning output axis 0 gives M (all its output axes)
    and the other N, with no batch axis: one GEMM per draw, whose output
    layout is M then N; the consumer reads it through a transposed view.

    Returns the plans of the matmul's left and right factor, each (operand,
    0 for a and 1 for b; permutation of the axes of its coefficient stack,
    the draw axis 0 first; exponents e of its reshape shape n**e after the
    draw axis), the cut factor: 0 or 1 for the factor that owns output
    axis 0, and the output layout, the output axes in the order the matmul
    writes them (0 to 5 without one_gemm).  Output axis 0 leads the output's axes, and
    it is axis 0 of its operand's coeffs (leg 1 is the first leg of a tag),
    so it leads the cut factor's axes after the draw axis too.
    """
    la, lb = _LEG_TAGS[legs_a], _LEG_TAGS[legs_b]
    (s,) = set(la) & set(lb)
    # per operand: output axis -> axis of its coeffs; key None is the
    # contracted index (a's column, b's row on the shared leg)
    src = ({}, {})
    for op, legs, inner in ((0, la, 2 * s + 1), (1, lb, 2 * s)):
        for i, k in enumerate(legs):
            for j, out in enumerate((2 * k, 2 * k + 1)):
                src[op][None if out == inner else out] = 2 * i + j
    if one_gemm:
        left = int(0 in src[1])  # the operand owning output axis 0 gives M
        owned = [[out for out in range(6) if out in src[op]] for op in (left, 1 - left)]
        operands = ((left, [owned[0], [None]]), (1 - left, [[None], owned[1]]))
        layout = (*owned[0], *owned[1])
    else:
        right = int(5 in src[1])  # the operand owning the last output axis gives N
        n_start = 1 + max(out for out in range(6) if out not in src[right])
        m_start = 1 + max((out for out in range(n_start) if out in src[right]), default=-1)
        batch = [[out] for out in range(m_start)]
        operands = ((1 - right, batch + [range(m_start, n_start), [None]]),
                    (right, batch + [[None], range(n_start, 6)]))
        layout = _ABCDEF
    plans = []
    for op, groups in operands:
        perm = (0, *(1 + src[op][out] for g in groups for out in g if out in src[op]))
        exps = tuple(sum(out in src[op] for out in g) for g in groups)
        plans.append((op, perm, exps))
    return (*plans, next(k for k, (op, _, _) in enumerate(plans) if 0 in src[op]), layout)


def _chain_plan(legs: tuple) -> tuple:
    """How a chain's second matmul, x y with x a three-leg block in the
    abcdef layout and y on the 0-based legs (p, q), runs as one GEMM per
    draw in O(n^8): x's column indices on legs p and q contract with y's row
    indices.  x's other indices, in output order, are the GEMM's M, so
    output axis 0 leads them, and y's column indices its N.  Returns the plan
    in _product_plan's form; the cut factor is x, and the output layout M
    then N.
    """
    p, q = legs
    inner = [2 * p + 1, 2 * q + 1]
    free = [ax for ax in _ABCDEF if ax not in inner]
    return ((0, (0, *(1 + ax for ax in free + inner)), (4, 2)),
            (1, (0, 1, 3, 2, 4), (2, 2)), 0, (*free, *inner))


# (legs_a, legs_b) -> matmul plan of the shared-leg product, for the six ordered
# pairs.  (13, 23) would batch four axes, n^4 GEMMs of n x n, so it runs as
# one GEMM (n^3 x n) @ (n x n^3) per draw: the AYBE-dual residual took 0.57x
# the time at n = 2, 0.71x at n = 5 and 0.84x at n = 8 (one BLAS thread,
# interleaved).  The other pairs as one GEMM: 0.5-0.8x at n = 2, 1.05-1.19x
# at n = 5 and 8, so they keep their batch axes
_PRODUCT_PLANS = {(p, q): _product_plan(p, q, one_gemm=(p, q) == (13, 23))
                  for p in _LEG_TAGS for q in _LEG_TAGS if p != q}
# leg tag -> plan of a chain's second matmul, a shared-leg product times a
# tensor on that tag
_CHAIN_PLANS = {tag: _chain_plan(legs) for tag, legs in _LEG_TAGS.items()}


def _plan(legs_a: int, legs_b: int) -> tuple:
    """The matmul plan of the product a^{legs_a} b^{legs_b}; ValueError
    unless the two tags are valid and share exactly one leg."""
    plan = _PRODUCT_PLANS.get((legs_a, legs_b))
    if plan is None:
        for tag in (legs_a, legs_b):
            _legs(tag)  # raises on a tag other than 12, 13, 23
        raise ValueError(f"leg tags {legs_a} and {legs_b} must share exactly one leg")
    return plan


def _factor(spec: tuple, x: np.ndarray) -> np.ndarray:
    """One factor of a plan's matmul (see _product_plan) from the coefficient
    stack x, draw axis first.  Its first group after the draw axis takes what
    is left, so a stack cut along output axis 0 gives that block's factor."""
    _, perm, exps = spec
    n = x.shape[-1]
    return x.transpose(perm).reshape(len(x), -1, *[n**e for e in exps[1:]])


# Up to this many output coefficients (n <= 4) make one block of
# leg_residual_norm: as many whole draws as fit, since there one call per
# product costs less than several smaller ones.  Above, a block is one leg-1
# row index of one draw
_ONE_BLOCK_MAX = 4**6


def block_draws(n: int) -> int:
    """Draws per block of leg_residual_norm at size n: 64 at n = 2, 5 at
    n = 3, one from n = 4."""
    return max(1, _ONE_BLOCK_MAX // n**6)


def _block_shape(plan: tuple, step: int, n: int) -> tuple:
    """Shape of a block of plan's matmul output, step leg-1 rows, in its layout."""
    return (-1, *[step if ax == 0 else n for ax in plan[3]])


def _block(steps: list, d: slice, i: int) -> np.ndarray:
    """The block of draws d and leg-1 row block i of one product of
    leg_residual_norm, shape (draws, rows, n, n, n, n, n) in the abcdef
    layout.  steps holds one [plan, left factor, right factor, the cut
    factor's rows per block or 0 for all, output shape, last output] per
    matmul, the factors over the whole stacks; a chain's second matmul has
    no left factor, it takes the first one's block.  Each matmul writes into
    its last output when that has as many draws."""
    x = None
    for step in steps:
        plan, left, right, rows, shape, out = step
        if x is None:
            f = [left[d], right[d]]
            if rows:
                f[plan[2]] = f[plan[2]][:, i * rows:(i + 1) * rows]
        else:
            f = [_factor(plan[0], x), right[d]]
        if out is not None and len(out) != len(f[0]):
            out = None  # the last block of draws is shorter
        step[5] = out = np.matmul(*f, out=out)
        x = out.reshape(shape)
        if plan[3] != _ABCDEF:
            x = x.transpose(0, *[1 + plan[3].index(ax) for ax in range(6)])
    return x


def leg_residual_norm(lhs: list, rhs: list) -> list:
    """Per draw, max |sum(lhs) - sum(rhs)| over the coefficients in
    Mat_n^(x3).  The tensors are coefficient stacks of one shape (k, n, n,
    n, n), draw axis first, and each side is a list of products: shared-leg
    products (a, legs_a, b, legs_b), that is
    embed_leg(a, legs_a).matmul(embed_leg(b, legs_b)) per draw (the two tags
    share exactly one leg), or chains (a, legs_a, b, legs_b, c, legs_c), that
    product times embed_leg(c, legs_c), whose second matmul, an n^8
    contraction, runs by _CHAIN_PLANS.  Returns k floats.

    The output is walked in blocks of at most _ONE_BLOCK_MAX coefficients:
    block_draws(n) whole draws up to n = 4; above, one leg-1 row index i of
    one draw, so no n^6 tensor is formed.  Row block i of a product is its
    first matmul with the plan's cut factor cut to its i-th n-th after the
    draw axis; a chain's second matmul takes that block whole (its rows of
    leg 1 stay rows).  Each block is written into the product's block before
    it, so one array per matmul serves every block.  Each side sums left to
    right, then the right side is subtracted, so a draw's result equals its
    whole-tensor expression, such as p0 - (p1 + p2), bit for bit, whichever
    block holds it.  A NaN in a draw gives that draw NaN."""
    if not lhs or not rhs:
        raise ValueError("each side needs at least one product")
    k, n = lhs[0][0].shape[0], lhs[0][0].shape[-1]
    step = n if n**6 <= _ONE_BLOCK_MAX else 1  # leg-1 rows per block
    sides = []
    for side in (lhs, rhs):
        terms = []
        for a, legs_a, b, legs_b, *chain in side:
            plan = _plan(legs_a, legs_b)
            for x in (a, b, *chain[:1]):
                if x.shape != (k,) + (n,) * 4:
                    raise ValueError(f"coefficient stacks of different shapes: "
                                     f"{lhs[0][0].shape} and {x.shape}")
            f = [_factor(spec, (a, b)[spec[0]]) for spec in plan[:2]]
            rows = 0 if step == n else len(f[plan[2]][0]) // n
            steps = [[plan, *f, rows, _block_shape(plan, step, n), None]]
            if chain:
                c, legs_c = chain
                _legs(legs_c)  # raises on a tag other than 12, 13, 23
                plan = _CHAIN_PLANS[legs_c]
                steps.append([plan, None, _factor(plan[1], c), 0, _block_shape(plan, step, n),
                              None])
            terms.append(steps)
        sides.append(terms)
    draws, worst, magnitude = block_draws(n), [], None
    for d0 in range(0, k, draws):
        d, block_worst = slice(d0, d0 + draws), None
        for i in range(n // step):
            sums = []
            for terms in sides:
                for j, term in enumerate(terms):
                    x = _block(term, d, i)
                    if j == 0:
                        sums.append(x)
                    else:
                        sums[-1] += x
            left, right = sums
            diff = np.subtract(left, right, out=right)
            magnitude = np.abs(diff, out=magnitude if magnitude is not None
                               and magnitude.shape == diff.shape else None)
            m = magnitude.max(axis=(1, 2, 3, 4, 5, 6))
            block_worst = m if block_worst is None else np.maximum(block_worst, m)
        worst += block_worst.tolist()
    return worst


def project_sl(t: Tensor2) -> Tensor2:
    """Apply the traceless projection pr on both legs of the tensor."""
    n = t.n
    eye = np.eye(n, dtype=complex)
    # pr as a 4-index operator: P[i,j,a,b] maps e_{ab} -> component on e_{ij}
    pr = np.einsum("ia,jb->ijab", eye, eye) - np.einsum("ij,ab->ijab", eye, eye) / n
    c = np.einsum("ijab,klcd,abcd->ijkl", pr, pr, t.coeffs)
    return Tensor2(n, c)


def casimir(n: int) -> Tensor2:
    """Casimir element of sl_n with dual bases taken in the trace pairing.

    Equals P - (1/n) 1(x)1 with P the permutation tensor; for n = 2 this is
    (1/2) h(x)h + e12(x)e21 + e21(x)e12.
    """
    if n < 2:
        raise ValueError("casimir requires n >= 2")
    eye = np.eye(n, dtype=complex)
    perm = np.einsum("il,jk->ijkl", eye, eye)  # the permutation tensor P
    return Tensor2(n, perm - np.einsum("ij,kl->ijkl", eye, eye) / n)
