# src/rmx/rmatrix.py

"""Construction engines for the geometric associative r-matrices.

Each engine realizes the evaluation/residue recipe: describe the space Pi of
homomorphisms between two (twisted) bundle gluing data that are compatible
over the singular fiber, then compose

    Mat_n(C) --res^{-1}--> Pi --ev--> Mat_n(C)

and convert the resulting linear map to a tensor via the trace pairing
(e_{ij} -> alpha e_{kl}  corresponds to  alpha e_{ji} (x) e_{kl}).

For the singular curves Pi is a space of matrices of homogeneous polynomials
in (z0, z1) and the compatibility constraint is an exact linear system on
the coefficients.  It is solved by elimination: each equation at an entry of
degree >= 1 gives one coefficient from the top coefficients, the n1 n2
equations at the degree-0 entries go through an SVD, and a Cholesky factor
of the Gram matrix makes the basis orthonormal.  The n1 n2 free directions
are units with unit residues, so a large cuspidal system solves only the
rest of its residue matrix.  For the elliptic curve Pi is spanned by four explicit
theta-type matrices.

The nodal gluing is monomial, so its constraint couples entry (i, j) only
with (pi i, pi j): the nodal engine solves n orbit blocks of n entries each
(_nodal_orbits), and its outputs are exactly 0 off those blocks.  Its digits
differ from those of the whole n^2 x n^2 system at rounding level.  The
cuspidal gluing pattern is graded (_negative_weight): the outputs of
negative weight are 0, and the engine writes them as exact zeros.

What depends on the curve and (n, d) alone (the entry degrees, the nodal
orbits and their selectors, the cusp pattern, the coefficient slots, the
residue layout and the negative-weight mask) is one _GluedPlan, built once
per engine solution (engine_solution) and applied to each of its parameter
rows, one-row and stacked alike.  A plan lives in its solution; no module
cache shares one.
"""

from __future__ import annotations

from math import gcd, isqrt, pi

import numpy as np

from . import bundles
from .catalog import RSolution, as_four_param
from .tensorcore import Tensor2
from .thetafn import ThetaParams, theta_j

COND_CAP = 1e6  # residue systems with a larger condition number are refused


class EngineError(RuntimeError):
    pass


class DegenerateSystemError(EngineError):
    """Residue system singular or ill-conditioned at these parameters."""

    def __init__(self, msg, cond=None):
        super().__init__(msg)
        self.cond = cond


# --- polynomial Hom spaces on P^1 -------------------------------------------
#
# The glued pipeline works on stacks: every array carries a leading axis of k
# parameter rows, and each stage is one numpy call on the whole stack.  A
# stacked LAPACK call runs the same routine on each matrix, so every row is bit
# for bit the result of a one-row stack.

def _at_affine(basis: np.ndarray, ys) -> np.ndarray:
    """Evaluate every Hom-space basis element of stack row s at
    (z0, z1) = (1, y[s]) for each y in ys, arrays of shape (k,): shape
    (len(ys), k, dim, n, n).  basis[s, b, i, j, c] is the coefficient c_c of
    entry (i, j) of element b, q = sum_c c_c z0^(d-c) z1^c (for an orbit
    basis, of entry j of element i of orbit b)."""
    kmax = basis.shape[-1]
    try:
        # complex ** int raises where a float power is inf, and gives nan
        # where a product of infs is inf - inf
        powers = np.array([complex(v)**c for y in ys for v in y for c in range(kmax)])
        if not np.isfinite(powers).all():
            raise OverflowError
    except OverflowError as e:
        raise EngineError(f"spectral parameter too large: its powers up to "
                          f"{kmax - 1} overflow") from e
    # (t, s, 1, c) @ (s, c, b i j): one product per stack row, contiguous
    flat = basis.reshape(len(basis), -1, kmax).swapaxes(-1, -2)
    return np.matmul(powers.reshape(len(ys), -1, 1, kmax), flat).reshape(
        (len(ys),) + basis.shape[:-1])


def _entry_degrees(n1: int, n2: int) -> np.ndarray:
    """Degree of each Hom entry: source O^{n1} + O(1)^{n2}, target
    O(1)^{n1} + O(2)^{n2}."""
    deg = np.ones((n1 + n2, n1 + n2), dtype=int)
    deg[n1:, :n1] = 2
    deg[:n1, n1:] = 0
    return deg


def _nullspace(a: np.ndarray, rank) -> np.ndarray:
    """Right singular vectors of each matrix of the stack a (k, blocks,
    rows, columns), conjugated: shape (k, blocks, columns, columns), where
    rows rank[b]: of block b span its right nullspace.  A block whose
    numerical rank (bundles.svd_rank) is not its expected rank[b] changes
    the dimension of the Hom space, blocks x columns when every rank is as
    expected, and its stack row is refused with that dimension."""
    _, s, vh = np.linalg.svd(a)
    excess = (np.asarray(rank) - bundles.svd_rank(s)).sum(axis=1)
    if excess.any():
        dim = a.shape[1] * a.shape[-1]
        raise DegenerateSystemError(
            f"gluing constraint has nullity {dim + excess[excess != 0][0]}, expected {dim} "
            "(parameters on an exceptional locus)")
    return vh.conj()


def _hom_space_glued(plan: "_GluedPlan", m_src: np.ndarray, m_dst: np.ndarray) -> np.ndarray:
    """Basis (k, dim, n, n, max_deg+1) of the Hom space of matrices of
    homogeneous polynomials cut out by the gluing constraint, one per row of
    the stacks m_src, m_dst of shape (k, n, n); plan (_GluedPlan) holds what
    does not depend on the row.

    Nodal: F(0) m_src = m_dst F(inf) with F(0)/F(inf) the (z1 - z0)-
    normalized evaluations.  Cuspidal: F1 + F0 m_src = m_dst F0 over
    C[eps]/eps^2, with F0 + eps F1 the z1-normalized evaluation and m_src,
    m_dst the eps-parts of the gluing matrices.

    The equation reads the top coefficient X[i, j] = c[i, j, deg] of each
    entry and, where deg >= 1, one partner coefficient (nodal c[i, j, 0],
    cuspidal c[i, j, deg - 1]), which it gives explicitly from X:

        nodal      c[i, j, 0]       = s (m_dst X m_src^{-1}),  s = (-1)^deg
        cuspidal   c[i, j, deg - 1] = -(X m_src - m_dst X).

    A degree-0 entry has no partner (its one coefficient is X), so only the
    n1 n2 equations there constrain X; their nullspace is taken by SVD
    (_nullspace).  The third coefficient of each degree-2 entry (middle
    nodal, lowest cuspidal) is a free direction.  _orthonormal_rows
    orthonormalises the coupled block (X and its partners), the first
    n^2 - n1 n2 basis elements; with the n1 n2 unit free directions after
    it the basis is orthonormal.  A dimension other than n^2 marks an
    exceptional locus.

    A nodal plan splits the constraint into its orbit blocks
    (_nodal_orbits), m_src and m_dst being multiples of one permutation
    matrix: the basis is then (k, n, n, n, 3), the n basis elements of each
    orbit, its free directions included, with their entries in orbit order
    (see there).
    """
    k, n, p = len(m_src), plan.n, plan
    if p.orbits is not None:
        # P[i, pi(i)] = 1, so at (i, j) the partner m_dst X m_src^{-1} is
        # mu X[pi i, pi j]: the next entry of the orbit
        mu = (m_dst[:, 0, p.pi0] / m_src[:, 0, p.pi0])[:, None, None]
        # the glued rows X_t - mu X_{t+1}, padded with zero rows to n per orbit
        constraint = p.glued * (p.eye - mu[..., None] * p.eye_next)
        # basis candidates, over the slots (X, partner, free direction) of
        # the orbit's entries: its nullspace rows with their partners
        # s mu X_{t+1}, and in place of its first nglued (range) rows the unit
        # free directions.  They share no slot with the coupled block, so
        # _orthonormal_rows returns them unchanged
        cand = np.empty((k, n, n, 3 * n), dtype=complex)
        x = cand[..., :n]
        np.multiply(_nullspace(constraint, p.nglued), p.nullspace_rows, out=x)
        np.multiply(x[..., p.nxt], (mu * p.sign)[:, :, None], out=cand[..., n:2 * n])
        cand[..., 2 * n:] = p.free_units
        q = _orthonormal_rows(cand, cand[..., n:2 * n]).reshape(k, n, n, 3, n)
        # coefficients: X at c = deg, the partner at c = 0, the free direction at c = 1
        basis = q[..., 0, :, None] * p.top_units
        basis[..., 0] += q[..., 1, :]
        basis[..., 1] += q[..., 2, :]
        return basis

    def vec_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrices of X -> a X b on row-major vec(X), np.kron(a, b.T), per
        stack row; a stack of one matrix is shared by every row."""
        return (a[:, :, None, :, None] * b.transpose(0, 2, 1)[:, None, :, None, :]
                ).reshape(-1, n * n, n * n)

    # row q of partner maps vec(X) to the partner coefficient that the
    # equation at entry q gives; a degree-0 entry has none, so there the
    # equation constrains X
    if p.cuspidal:
        # with Z + lam1, Z + lam2 - y1 this is Z (x) 1 - 1 (x) Z^T + c on the
        # degree-0 rows, c = lam2 - y1 - lam1; it has full row rank n1 n2 at
        # every c (smallest singular value >= 1.03 for n <= 12, pinned by
        # test_cuspidal_gluing_constraint_has_full_row_rank), so _nullspace
        # refuses only nodal and semistable rows
        partner = vec_map(m_dst, p.vec_eye) - vec_map(p.vec_eye, m_src)
        constraint = partner[:, p.glued]
    else:
        partner = p.sign * vec_map(m_dst, np.linalg.inv(m_src))
        constraint = p.eye_glued - partner[:, p.glued]
    ns = _nullspace(constraint[:, None], [p.rank])[:, 0, p.rank:]
    m = ns @ partner[:, p.lower].swapaxes(-1, -2)
    q = _orthonormal_rows(np.concatenate([ns, m], axis=-1), m)
    # scatter into the coefficient slots, flattened (entry, c) -> entry*kmax + c
    basis = np.zeros((k, n * n, n * n * p.kmax), dtype=complex)
    basis[:, :p.coupled, p.slots] = q
    basis[:, p.free_units[0], p.free_units[1]] = 1.0
    return basis.reshape(k, n * n, n, n, p.kmax)


def _orthonormal_rows(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the row space of each matrix of the stack w,
    whose rows are x | m up to column order with the rows of x orthonormal
    (or zero where the row of w is a unit vector outside x and m): then
    w w^H = I + m m^H = L L^H, and L^{-1} w has orthonormal rows."""
    gram = m @ m.conj().swapaxes(-1, -2)
    size = gram.shape[-1]
    gram.reshape(*gram.shape[:-2], -1)[..., ::size + 1] += 1.0  # its diagonal
    return _inv_lower(np.linalg.cholesky(gram)) @ w


def _inv_lower(low: np.ndarray) -> np.ndarray:
    """Inverse of each lower triangular matrix of the stack low, by halves
    above size 24: [[A, 0], [C, D]]^{-1} = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]
    costs a third of the flops of np.linalg.inv's LU.  One BLAS thread,
    min of 15 repeats: 31 x 31 (cuspidal rank 6) 38 us against 70 us, 109 x
    109 (the cuspidal (12, 5) block) 0.34 ms against 0.89 ms."""
    size = low.shape[-1]
    if size <= 24:
        return np.linalg.inv(low)
    h = size // 2
    a, d = _inv_lower(low[..., :h, :h]), _inv_lower(low[..., h:, h:])
    inv = np.zeros_like(low)
    inv[..., :h, :h] = a
    inv[..., h:, h:] = d
    inv[..., h:, :h] = -(d @ (low[..., h:, :h] @ a))
    return inv


def _frobenius_sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of the complex stack a."""
    flat = a.reshape(len(a), 1, -1).view(float)
    return (flat @ flat.swapaxes(-1, -2))[:, 0, 0]


class _ResidueLayout:
    """How _compose_ev_res reads a residue system of (n, n) matrices: in
    blocks, an (nb, m) array of flat entries i n + j (None: one block of
    every entry, row-major), or with free, a pair of slices (rows,
    columns) of the (n, n) entries (one block only) whose f unit free
    directions are left out of the basis (None: no free entry)."""

    def __init__(self, n: int, blocks: np.ndarray = None, free: tuple = None):
        self.n, self.blocks, self.free = n, blocks, free
        self.nb, self.m = (1, n * n) if blocks is None else blocks.shape
        if blocks is not None:
            self.scatter = (n * n * blocks[:, :, None] + blocks[:, None, :]).ravel()
        self.f = 0
        if free is not None:
            kept = np.ones((n, n), dtype=bool)
            kept[free] = False
            self.kept = kept.ravel()
            self.f = n * n - np.count_nonzero(kept)
            self.free_units = (np.flatnonzero(~self.kept), n * n - self.f + np.arange(self.f))


def _compose_ev_res(res_vals: np.ndarray, ev_vals: np.ndarray,
                    layout: _ResidueLayout = None, free_ev: np.ndarray = None) -> np.ndarray:
    """The (k, n, n, n, n) coefficient stack of ev o res^{-1}, one tensor per
    stack row, from per-basis
    residue/evaluation matrices of shape (k, dim, n, n).  With the blocks of
    layout (_ResidueLayout; default one block of every entry) the shape is
    (k, nb, m, m): block b holds m basis elements and their values at the
    entries blocks[b], every other value being 0, so R, the matrix of res,
    is block diagonal and ev o res^{-1} is solved block by block and is
    exactly 0 off them.

    With free entries the unit free directions at those f entries are not
    in the basis: each has residue e_p at its entry p and value free_ev e_p
    (free_ev of shape (k,)), and res_vals, ev_vals hold the other n^2 - f
    elements.  With the free entries last R = [[A, 0], [B, I]], so only A
    is inverted: R^{-1} = [[A^{-1}, 0], [-B A^{-1}, I]], and ev o res^{-1}
    is (E - free_ev B) A^{-1} at the other entries and free_ev at each free
    one.

    A residue matrix R is refused (DegenerateSystemError with its cond) when
    cond_2(R) = |R|_2 |R^{-1}|_2 exceeds COND_CAP or is not finite, and a
    stack is refused with its first such row.  R^{-1} is computed anyway, and
    |R|_F |R^{-1}|_F >= cond_2(R), so that product at most COND_CAP / 2 (the
    2 is margin for rounding) accepts R without an SVD; with free entries
    |R|_F^2 = |A|^2 + |B|^2 + f and |R^{-1}|_F^2 = |A^{-1}|^2 + |B A^{-1}|^2
    + f.  The singular values of R, assembled with the free directions as
    its last columns, decide the other rows, those of all blocks of a row
    together, as np.linalg.cond does on one block; a singular A makes the
    inverse raise for the whole stack, which is then refused with the cond
    of its first row."""
    k = len(res_vals)
    if layout is None:
        layout = _ResidueLayout(isqrt(res_vals[0, 0].size))
    nb, m, n, f = layout.nb, layout.m, layout.n, layout.f
    c = m - f  # basis elements per block
    if f:
        # the transposed system R^T Y = E^T, Y[ab, kl] the image of e_ab at
        # e_kl: R^T = [[A^T, B^T], [0, I]] over (the basis, the free
        # directions) x (the other entries, the free ones)
        at_free = (slice(None), slice(None)) + layout.free
        r_t = res_vals.reshape(k, c, m)
        b_t = res_vals.reshape(k, c, n, n)[at_free].reshape(k, c, f)
    else:
        r_mat = res_vals.reshape(k, nb, m, m).swapaxes(-1, -2)  # coeff vector -> entries
    # action on the standard basis e_{ab}: solve res(F) = e_{ab}, apply ev
    try:
        if f:
            inv = np.empty((k, c, m), dtype=complex)  # A^{-T} and A^{-T} B^T
            sol = inv[..., :c]
            sol[...] = np.linalg.inv(r_t[..., layout.kept])
            np.matmul(sol, b_t, out=inv[..., c:])
        else:
            inv = sol = np.linalg.inv(r_mat)
        proven = (_frobenius_sq(res_vals) + f) * (_frobenius_sq(inv) + f) <= (COND_CAP / 2) ** 2
    except np.linalg.LinAlgError:
        sol, proven = None, np.zeros(k, dtype=bool)
    if not all(proven):
        if f:  # R with the free directions as its last columns
            r_full = np.zeros((np.count_nonzero(~proven), 1, m, m), dtype=complex)
            r_full[:, 0, :, :c] = r_t[~proven].swapaxes(-1, -2)
            r_full[:, 0, layout.free_units[0], layout.free_units[1]] = 1.0
        else:
            r_full = r_mat[~proven]
        sv = np.linalg.svd(r_full, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = sv[..., 0].max(axis=-1) / sv[..., -1].min(axis=-1)
        cond[np.isnan(cond)] = np.inf  # R = 0, as np.linalg.cond has it
        refused = (sol is None) | ~np.isfinite(cond) | (cond > COND_CAP)
        if refused.any():
            cond = cond[refused.argmax()]
            raise DegenerateSystemError(
                f"residue system condition number {cond:.3g} exceeds cap "
                f"{COND_CAP:.3g}", cond=cond)
    if f:
        # Y at the other entries ab: A^{-T} (E^T - free_ev B^T at the free kl)
        act = sol @ ev_vals.reshape(k, c, m)
        act_free = act.reshape(k, c, n, n)[at_free]
        act_free -= free_ev[:, None, None, None] * inv[..., c:].reshape(act_free.shape)
        action = np.zeros((k, m, m), dtype=complex)  # [s, ab, kl]
        action[:, layout.kept] = act
        # Y at the free entries: free_ev e_ab, on the diagonal
        action.reshape(k, -1)[:, ::m + 1].reshape(k, n, n)[(slice(None),) + layout.free] = \
            free_ev[:, None, None]
        action = action.reshape(k, n, n, n, n)
    else:
        lin = ev_vals.reshape(k, nb, m, m).swapaxes(-1, -2) @ sol  # entries to entries, per block
        if nb > 1:
            full = np.zeros((k, n**4), dtype=complex)
            full[:, layout.scatter] = lin.reshape(k, -1)
            lin = full
        action = lin.reshape(k, n * n, n * n).swapaxes(-1, -2).reshape(k, n, n, n, n)
    # action[s, a, b, k, l]: the image of e_{ab} at e_{kl}
    # trace pairing: e_{ab} -> alpha e_{kl} is alpha e_{ba} (x) e_{kl}
    return action.transpose(0, 2, 1, 3, 4)


# the fewest entries n^2 of a cuspidal engine whose residue solve leaves the
# free directions out: below it the reduced solve's extra numpy calls cost
# more than its smaller inverse saves.  Whole against reduced, in one
# process, interleaved (median us): one-row calls (5, 3) 290 / 316, (6, 5)
# 525 / 560, (7, 4) 962 / 946, (8, 5) 1197 / 1138; six-row stacks (6, 5)
# 2056 / 2082, (7, 4) 4147 / 3867, (8, 5) 7190 / 6670
_REDUCED_MIN_ENTRIES = 49


def _glued_engine(plan: "_GluedPlan", m_src: np.ndarray, m_dst: np.ndarray,
                  y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """ev o res^{-1} on the glued Hom space of each stack row, a coefficient
    stack (_compose_ev_res): the residue at
    y1 is taken against dz on the cuspidal curve and dz/z on the nodal one,
    the evaluation at y2 against 1/(y2 - y1); y1 and y2 have shape (k,).
    A nodal plan solves orbit by orbit.  Where the plan's residue layout has
    free entries (cuspidal, from _REDUCED_MIN_ENTRIES entries on), the
    cuspidal free directions, the last n1 n2 elements of the basis, are left
    to _compose_ev_res: each is the unit at slot c = 0, so its residue is 1
    and its value 1 / (y2 - y1)."""
    gap = y2 - y1
    basis = _hom_space_glued(plan, m_src, m_dst)
    free_ev = None
    if plan.layout.f:
        free_ev = 1.0 / gap
        basis = basis[:, :plan.layout.m - plan.layout.f]  # without the free directions
    # the basis is dropped once evaluated and its values are divided in place,
    # so no more than _compose_ev_res's inputs stays alive while it runs
    res_vals, ev_vals = _at_affine(basis, (y1, y2))
    del basis
    if not plan.cuspidal:
        res_vals /= y1[:, None, None, None]
    ev_vals /= gap[:, None, None, None]
    return _compose_ev_res(res_vals, ev_vals, plan.layout, free_ev)


def _nodal_orbits(pi: list) -> np.ndarray:
    """Orbits of the nodal gluing constraint for a monomial gluing matrix
    whose nonzero in row i sits at column pi[i] (bundles.nodal_pattern), an
    n-cycle pi as for coprime (n, d): entry (u, t) is the flat index of
    (pi^t(0), pi^(t+u)(0)).

    With m_src, m_dst of that pattern the equation at (i, j) reads X at
    (pi i, pi j) only (_hom_space_glued), so the n orbits of n entries each
    are independent: Pi, res and ev are block diagonal over them."""
    n = len(pi)
    c = [0]
    for _ in range(n - 1):
        c.append(pi[c[-1]])
    return np.array([[n * c[t] + c[(t + u) % n] for t in range(n)] for u in range(n)])


def _negative_weight(w: list) -> np.ndarray:
    """Mask (n, n, n, n) of the cuspidal coefficients [i1, j1, i2, j2] of
    negative weight w(i1) - w(j1) + w(i2) - w(j2), w the grading of the cusp
    pattern Z (bundles.cusp_pattern: Z[i, j] != 0 => w(j) = w(i) + 1).

    These coefficients are 0, and the engine writes them as exact zeros
    (40-47% of the coefficients at n >= 5).  That is measured, not proved:
    they are exactly 0 in the rational oracle for every coprime (n, d) with
    n <= 7, and at most 6.6e-15 of the largest coefficient in floats for
    n <= 12.  A scaling symmetry explains part of it: (lam, y) -> (lam, y)/s
    with F -> D F(z0, s z1) D' (D, D' diagonal) maps each glued Hom space
    onto the scaled one, so a coefficient is homogeneous in (lam1, lam2,
    y1, y2), of degree W' - 1 for its weight W' under w + b (b = 1 on the
    last n2 indices)."""
    w = np.array(w)
    d = w[:, None] - w
    return d[:, :, None, None] < -d


class _GluedPlan:
    """Everything of a glued engine that depends on its curve and (n, d)
    only, not on the parameter rows: built once per engine solution
    (engine_solution) and applied to each of its rows, one-row and stacked
    alike; an engine called on its own builds one per call.

    curve is "nodal" or "cuspidal" ((n, d) coprime with 0 < d < n, an
    EngineError otherwise) or "nodal-semistable" ((n, d) = (2, 0)).  Held:
    the entry degrees deg, the residue layout of _compose_ev_res, the
    selectors of _hom_space_glued's orbit path (nodal, with orbits) or of
    its whole-system path (the others), and for the cuspidal engine the
    cusp pattern Z and the negative-weight mask (_negative_weight)."""

    def __init__(self, curve: str, n: int, d: int):
        if curve != "nodal-semistable" and (gcd(n, d) != 1 or not 0 < d < n):
            raise EngineError(f"(n, d) = ({n}, {d}) must be coprime with 0 < d < n")
        n1, n2 = n - d, d
        self.n, self.n1, self.n2 = n, n1, n2
        self.cuspidal = curve == "cuspidal"
        self.deg = _entry_degrees(n1, n2)
        flat = self.deg.ravel()
        self.orbits, free = None, None
        if curve == "nodal":
            pi = bundles.nodal_pattern(n1, n2)
            self.pi0, self.orbits = pi[0], _nodal_orbits(pi)
            degree = flat[self.orbits]
            glued, two = degree == 0, degree == 2
            self.nglued = glued.sum(axis=1)  # also the number of degree-2 entries
            self.glued = glued[:, :, None]
            after = np.arange(1, n + 1)
            self.nxt = after % n
            self.eye = np.eye(n)
            self.eye_next = self.eye[self.nxt]
            self.nullspace_rows = after[:, None] > self.nglued[:, None, None]
            self.sign = np.array([0.0, -1.0, 1.0])[degree]
            self.free_units = two[:, None] & (two.cumsum(axis=1)[:, None] == after[:, None])
            self.top_units = np.eye(3)[degree][:, None]
        else:
            self.glued, self.lower, free_at = flat == 0, flat >= 1, flat == 2
            self.rank = np.count_nonzero(self.glued)
            self.coupled = n * n - self.rank
            # the largest degree sits at the lower-left corner
            self.kmax = int(self.deg[-1, 0]) + 1
            top = np.arange(0, n * n * self.kmax, self.kmax) + flat   # the slot of each X[i, j]
            partner_slot = top[self.lower] - 1 if self.cuspidal else (top - flat)[self.lower]
            self.slots = np.concatenate([top, partner_slot])
            self.free_units = (self.coupled + np.arange(n * n - self.coupled),
                               top[free_at] - (2 if self.cuspidal else 1))
            if self.cuspidal:
                # the canonical matrix at lam = 0 is Z (bundles.canonical_cusp_matrix)
                rows_z, cols_z, _, w = bundles.cusp_pattern(n1, n2)
                self.z = np.zeros((n, n), dtype=complex)
                self.z[rows_z, cols_z] = 1
                self.eye = np.eye(n, dtype=complex)
                self.vec_eye = np.eye(n)[None]  # real: vec_map's products are cheaper
                self.negative = _negative_weight(w)
                if n * n >= _REDUCED_MIN_ENTRIES:
                    free = (slice(n1, None), slice(None, n1))  # the degree-2 entries
            else:
                self.sign = (-1.0) ** flat[:, None]
                self.eye_glued = np.eye(n * n)[self.glued]
        self.layout = _ResidueLayout(n, self.orbits, free)


def _require_finite_det(n: int, *scales):
    """Each glued engine's gluing matrix is s (permutation) or s (1 + nilpotent)
    for a scalar s of its parameter row, so its determinant is +-s^n.  Where
    that overflows the residue system has no digit left (its cond reads
    inf): an EngineError, not a degenerate system."""
    try:
        for s in scales:
            abs(s) ** n  # a float power raises OverflowError
    except OverflowError:
        raise EngineError(f"parameters too large: a gluing matrix's determinant "
                          f"(power {n}) overflows") from None


def _nodal_rows(plan: _GluedPlan, rows) -> np.ndarray:
    """The coefficient stack of engine_nodal at the parameter rows
    (lam1, lam2, y1, y2) of rows, by the nodal plan."""
    for lam1, lam2, y1, y2 in rows:
        if lam1 == 0 or lam2 == 0 or y1 == 0 or y2 == 0:
            raise EngineError("nodal parameters must be nonzero")
        if y1 == y2 or lam1 == lam2:
            raise EngineError("coincident spectral points")
        _require_finite_det(plan.n, lam1, complex(y1) * complex(lam2))
    lam1, lam2, y1, y2 = np.array(rows, dtype=complex).T
    m_src = bundles.jacobian_nodal_matrices(plan.n1, plan.n2, lam1)
    m_dst = y1[:, None, None] * bundles.jacobian_nodal_matrices(plan.n1, plan.n2, lam2)
    return _glued_engine(plan, m_src, m_dst, y1, y2)


def engine_nodal(n: int, d: int, lam1: complex, lam2: complex,
                 y1: complex, y2: complex, plan: _GluedPlan = None) -> Tensor2:
    """Geometric r-matrix of the family of stable bundles of rank n, degree d
    (0 < d < n coprime) on the nodal cubic, at moduli points lam1, lam2 in C*
    and curve points y1 != y2 in C*; plan, the nodal _GluedPlan of (n, d),
    is built when not given.

    Depends on lam2/lam1 only; the gluing data is the Jacobian-compatible
    family with every nonzero canonical entry equal to lam.
    """
    return Tensor2(n, _nodal_rows(plan or _GluedPlan("nodal", n, d), [(lam1, lam2, y1, y2)])[0])


_J2 = bundles.atiyah_nodal(2).m0  # J_2(1), gluing matrix of the Atiyah bundle


def _semistable_rows(plan: _GluedPlan, rows) -> np.ndarray:
    """The coefficient stack of engine_semistable_nodal_20 at the parameter
    rows of rows, by the semistable plan."""
    for lam1, lam2, y1, y2 in rows:
        if lam1 == 0 or lam2 == 0 or y1 == 0 or y2 == 0:
            raise EngineError("nodal parameters must be nonzero")
        if y1 == y2:
            raise EngineError("coincident curve points")
        if lam1 == lam2:
            raise EngineError("residue system degenerate at lam1 = lam2")
        _require_finite_det(2, lam1, complex(y1) * complex(lam2))
    lam1, _, y1, y2 = np.array(rows, dtype=complex).T
    # y1 lam2 as a product of Python complex numbers: numpy's vector product
    # may round differently
    y1_lam2 = np.array([complex(row[2]) * complex(row[1]) for row in rows])
    m_src = lam1[:, None, None] * _J2
    m_dst = y1_lam2[:, None, None] * _J2
    return _glued_engine(plan, m_src, m_dst, y1, y2)


def engine_semistable_nodal_20(lam1: complex, lam2: complex, y1: complex, y2: complex,
                               plan: _GluedPlan = None) -> Tensor2:
    """r-matrix of the rank-2 degree-0 semistable family m(0) = lam J_2(1)
    on the nodal cubic; all polynomial blocks have degree one.  Pole of
    order three in the moduli direction at lam1 = lam2.  plan, the
    semistable _GluedPlan, is built when not given."""
    plan = plan or _GluedPlan("nodal-semistable", 2, 0)
    return Tensor2(2, _semistable_rows(plan, [(lam1, lam2, y1, y2)])[0])


def _cusp_rows(plan: _GluedPlan, rows) -> np.ndarray:
    """The coefficient stack of engine_cusp at the parameter rows
    (lam1, lam2, y1, y2) of rows, by the cuspidal plan."""
    for lam1, lam2, y1, y2 in rows:
        if y1 == y2:
            raise EngineError("coincident curve points")
        if lam1 == lam2:
            raise EngineError("coincident moduli points")
        _require_finite_det(plan.n, lam1, complex(lam2) - complex(y1))
    lam1, lam2, y1, y2 = np.array(rows, dtype=complex).T
    m_src = plan.z + lam1[:, None, None] * plan.eye
    m_dst = plan.z + (lam2 - y1)[:, None, None] * plan.eye
    coeffs = _glued_engine(plan, m_src, m_dst, y1, y2)
    np.copyto(coeffs, 0.0, where=plan.negative)
    return coeffs


def engine_cusp(n: int, d: int, lam1: complex, lam2: complex,
                y1: complex, y2: complex, plan: _GluedPlan = None) -> Tensor2:
    """Geometric r-matrix of the family of stable bundles of rank n, degree d
    on the cuspidal cubic; moduli points lam1, lam2 in C, curve points
    y1 != y2 in C; plan, the cuspidal _GluedPlan of (n, d), is built when
    not given.  Depends on lam2 - lam1 only.

    The gluing family is 1 + eps(lam I + Z) with Z the off-diagonal canonical
    pattern; twisting by O(y1) shifts the target matrix by -y1.
    """
    return Tensor2(n, _cusp_rows(plan or _GluedPlan("cuspidal", n, d), [(lam1, lam2, y1, y2)])[0])


# --- elliptic engine ---------------------------------------------------------

def engine_elliptic_21(tau: complex, x1: complex, x2: complex,
                       y1: complex, y2: complex) -> Tensor2:
    """Geometric r-matrix of the rank-2 degree-1 family on the torus
    C/(Z + tau Z), from the four-dimensional theta basis of the compatible
    homomorphisms, with the diagonal post-gauge diag(e(y/2), e(-tau/4)) that
    makes the output a function of (x2 - x1, y2 - y1) alone."""
    p = ThetaParams(tau)
    tau = complex(tau)
    x = complex(x2) - complex(x1)
    y1, y2 = complex(y1), complex(y2)
    if y1 == y2:
        raise EngineError("coincident curve points")
    q_x = np.exp(-1j * pi * x)

    def e(w):
        return np.exp(-2j * pi * w)

    def phi(z):
        return e(z + tau)

    psi = bundles.line_bundle_factor(y1, tau)

    p4 = ThetaParams(4 * tau)

    def u(k, z):
        return theta_j(3 if k == 1 else 2, 2 * (z - y1 + (x + tau) / 2), p4)

    def v(k, z):
        return theta_j(3 if k == 1 else 2, 2 * (z - y1 + x / 2), p4)

    def basis_mat(b, z):
        if b in (0, 1):      # F_1, F_2: diagonal
            k = b + 1
            return np.array([
                [u(k, z), 0.0],
                [0.0, u(k, z + tau) / (q_x * psi(z))],
            ], dtype=complex)
        k = b - 1            # G_1, G_2: off-diagonal
        return np.array([
            [0.0, v(k, z)],
            [phi(z) * v(k, z + tau) / (q_x * psi(z)), 0.0],
        ], dtype=complex)

    theta3p = theta_j(3, (1 + tau) / 2, p, deriv=1)
    ev_den = theta_j(3, (y2 - y1) + (1 + tau) / 2, p)
    res_vals = np.stack([basis_mat(b, y1) for b in range(4)]) / theta3p
    ev_vals = np.stack([basis_mat(b, y2) for b in range(4)]) / ev_den

    raw = Tensor2(2, _compose_ev_res(res_vals[None], ev_vals[None])[0])

    g1 = np.diag([e(y1 / 2), e(-tau / 4)])
    g2 = np.diag([e(y2 / 2), e(-tau / 4)])
    return conjugate_legs(raw, g1, g2)


def _sandwich(t: Tensor2, a1, a2, b1, b2) -> Tensor2:
    """(a1 (x) a2) t (b1 (x) b2)."""
    c = np.einsum("ia,abkl,bj->ijkl", a1, t.coeffs, b1)
    c = np.einsum("ka,ijab,bl->ijkl", a2, c, b2)
    return Tensor2(t.n, c)


def conjugate_legs(t: Tensor2, a1: np.ndarray, a2: np.ndarray) -> Tensor2:
    """(a1 (x) a2) t (a1^{-1} (x) a2^{-1})."""
    return _sandwich(t, a1, a2, np.linalg.inv(a1), np.linalg.inv(a2))


# --- gauge transformations ---------------------------------------------------

def apply_gauge(sol: RSolution, phi) -> RSolution:
    """Gauge-transform a solution by a pointwise invertible matrix function
    phi(v, y):

    r'(v1,v2;y1,y2) = (phi(v1,y1) (x) phi(v2,y2)) r (phi(v2,y1)^{-1} (x) phi(v1,y2)^{-1})

    The result is a four-parameter solution.
    """
    r4 = as_four_param(sol)

    def ev(v1, v2, y1, y2):
        t = r4(v1, v2, y1, y2)
        a1, a2 = np.asarray(phi(v1, y1)), np.asarray(phi(v2, y2))
        c1, c2 = np.asarray(phi(v2, y1)), np.asarray(phi(v1, y2))
        try:
            i1, i2 = np.linalg.inv(c1), np.linalg.inv(c2)
        except np.linalg.LinAlgError:
            raise EngineError("gauge matrix singular at a sample point") from None
        return _sandwich(t, a1, a2, i1, i2)

    return RSolution(f"gauge({sol.name})", "v12_y12", sol.n, ev, params=dict(sol.params))


# --- engine outputs as solutions --------------------------------------------

# engine -> the rank up to which its solution evaluates parameter rows as one
# stack (its evaluate_rows; the rank-2 semistable engine always stacks): one
# SVD, Cholesky and solve call for all of them, where a one-row call is mostly
# fixed overhead.  A sampled check hands it
# the rows of every draw it draws ahead, rejected draws' later rows
# included.  Above the cutoff evaluate_rows is None and the rows are one-row
# calls, evaluated lazily: there 42-57% of the draws are rejected by
# NORM_CAP, most at their first term, and the lazy path never evaluates the
# later ones.  Six stacked rows against six one-row calls
# (tests/time_engines.py): cuspidal 3.7x at n = 3, 2.2x at n = 5, 1.8x at
# n = 6 and even at n = 8; the nodal orbit blocks 3.1x at n = 6 and 2.4x at
# n = 8.  On engine-aybe (ranks 3-8; 3 rounds of 10 s perfbench runs, seeds
# 2601-2603) a nodal cutoff of 8 in place of 5 took ops_per_s from
# 482/441/453 to 490/469/492 and op_ms.tail from 6.7-7.2 to 7.1-7.5 ms,
# while 8 for both engines gave 373-418 ops/s and an 8.8-10.1 ms tail: the
# cuspidal stack's wasted rows of rejected draws outweigh its gain.
_STACK_MAX_N = {"nodal": 8, "cuspidal": 5}


def engine_solution(kind: str, n: int = 2, d: int = 1,
                    tau: complex = 1.1j) -> RSolution:
    """Wrap an engine as a four-parameter RSolution for the verifier.

    kind is "nodal", "cusp"/"cuspidal", "elliptic" (tau only, (n, d) = (2, 1))
    or "nodal-semistable".  The residue functional's differential form is
    baked per curve type: dz/z on the nodal curve (prefactor 1/y1), dz on the
    cuspidal curve, dz on the torus (theta-normalized).  The glued engines
    evaluate parameter rows together up to their rank in _STACK_MAX_N
    (evaluate_rows)."""
    if kind == "elliptic":
        if (n, d) != (2, 1):
            raise EngineError("elliptic engine implemented for (n, d) = (2, 1)")
        ev = lambda v1, v2, y1, y2: engine_elliptic_21(tau, v1, v2, y1, y2)
        stacked, curve = None, "elliptic"
    elif kind == "nodal":
        plan = _GluedPlan("nodal", n, d)
        ev = lambda v1, v2, y1, y2: engine_nodal(n, d, v1, v2, y1, y2, plan)
        stacked, curve = (lambda rows: _nodal_rows(plan, rows)), "nodal"
    elif kind in ("cusp", "cuspidal"):
        plan = _GluedPlan("cuspidal", n, d)
        ev = lambda v1, v2, y1, y2: engine_cusp(n, d, v1, v2, y1, y2, plan)
        stacked, curve = (lambda rows: _cusp_rows(plan, rows)), "cuspidal"
    elif kind == "nodal-semistable":
        n, d = 2, 0
        plan = _GluedPlan(kind, n, d)
        ev = lambda v1, v2, y1, y2: engine_semistable_nodal_20(v1, v2, y1, y2, plan)
        stacked, curve = (lambda rows: _semistable_rows(plan, rows)), kind
    else:
        raise ValueError(f"unknown engine kind {kind!r}")
    return RSolution(f"engine-{curve}({n},{d})", "v12_y12", n, ev,
                     params={"kind": kind, "n": n, "d": d},
                     evaluate_rows=stacked if n <= _STACK_MAX_N.get(curve, n) else None)
