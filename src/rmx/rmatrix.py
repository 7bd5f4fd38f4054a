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
equations at the degree-0 entries go through an SVD, and one QR makes the
basis orthonormal.  For the elliptic curve Pi is spanned by four explicit
theta-type matrices.

The nodal gluing is monomial, so its constraint couples entry (i, j) only
with (pi i, pi j): the nodal engine solves n orbit blocks of n entries each
(_nodal_orbits), and its outputs are exactly 0 off those blocks.  Its digits
differ from those of the whole n^2 x n^2 system at rounding level.
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
    return np.einsum("sbijc,tsc->tsbij", basis, powers.reshape(len(ys), -1, kmax))


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


def _hom_space_glued(deg: np.ndarray, m_src: np.ndarray, m_dst: np.ndarray,
                     cuspidal: bool, orbits: np.ndarray = None) -> np.ndarray:
    """Basis (k, dim, n, n, max_deg+1) of the Hom space of matrices of
    homogeneous polynomials cut out by the gluing constraint, one per row of
    the stacks m_src, m_dst of shape (k, n, n).

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
    nodal, lowest cuspidal) is a free direction.  One reduced QR
    orthonormalises the coupled block (X and its partners); with the unit
    free directions the basis is orthonormal.  A dimension other than n^2
    marks an exceptional locus.

    orbits (_nodal_orbits) splits a nodal constraint with monomial gluing
    matrices into blocks: the basis is then (k, n, n, n, 3), the n basis
    elements of each orbit with their entries in orbit order (see there).
    """
    n = deg.shape[0]
    flat = deg.ravel()
    if orbits is not None:
        # m_src, m_dst are multiples of one permutation matrix P, with
        # P[i, pi(i)] = 1, so at (i, j) the partner m_dst X m_src^{-1} is
        # mu X[pi i, pi j]: the next entry of the orbit
        k, pi0 = len(m_src), orbits[0, 1] % n
        mu = (m_dst[:, 0, pi0] / m_src[:, 0, pi0])[:, None, None]
        d = flat[orbits]
        glued = d == 0
        nglued = glued.sum(axis=1)  # also the number of degree-2 entries
        after = np.arange(1, n + 1)
        nxt = after % n
        eye = np.eye(n)
        # the glued rows X_t - mu X_{t+1}, padded with zero rows to n per orbit
        constraint = glued[:, :, None] * (eye - mu[..., None] * eye[nxt])
        # basis candidates, over the slots (X, partner, free direction) of
        # the orbit's entries: its nullspace rows with their partners
        # s mu X_{t+1}, and in place of its first nglued (range) rows the unit
        # free directions.  They share no slot with the coupled block, so the
        # one QR returns them as units up to sign
        cand = np.empty((k, n, n, 3 * n), dtype=complex)
        x = cand[..., :n]
        np.multiply(_nullspace(constraint, nglued), after[:, None] > nglued[:, None, None], out=x)
        np.multiply(x[..., nxt], (mu * np.array([0.0, -1.0, 1.0])[d])[:, :, None],
                    out=cand[..., n:2 * n])
        two = d == 2
        cand[..., 2 * n:] = two[:, None] & (two.cumsum(axis=1)[:, None] == after[:, None])
        q = np.linalg.qr(cand.swapaxes(-1, -2))[0].swapaxes(-1, -2).reshape(k, n, n, 3, n)
        # coefficients: X at c = deg, the partner at c = 0, the free direction at c = 1
        basis = q[..., 0, :, None] * np.eye(3)[d][:, None]
        basis[..., 0] += q[..., 1, :]
        basis[..., 1] += q[..., 2, :]
        return basis
    glued, lower, free = flat == 0, flat >= 1, flat == 2

    def vec_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrices of X -> a X b on row-major vec(X), np.kron(a, b.T), per
        stack row; a stack of one matrix is shared by every row."""
        return (a[:, :, None, :, None] * b.transpose(0, 2, 1)[:, None, :, None, :]
                ).reshape(-1, n * n, n * n)

    # row p of partner maps vec(X) to the partner coefficient that the
    # equation at entry p gives; a degree-0 entry has none, so there the
    # equation constrains X
    if cuspidal:
        # with Z + lam1, Z + lam2 - y1 this is Z (x) 1 - 1 (x) Z^T + c on the
        # degree-0 rows, c = lam2 - y1 - lam1; it has full row rank n1 n2 at
        # every c (smallest singular value >= 1.03 for n <= 12, pinned by
        # test_cuspidal_gluing_constraint_has_full_row_rank), so _nullspace
        # refuses only nodal and semistable rows
        eye = np.eye(n)[None]
        partner = vec_map(m_dst, eye) - vec_map(eye, m_src)
        constraint = partner[:, glued]
    else:
        partner = (-1.0) ** flat[:, None] * vec_map(m_dst, np.linalg.inv(m_src))
        constraint = np.eye(n * n)[glued] - partner[:, glued]
    rank = np.count_nonzero(glued)
    ns = _nullspace(constraint[:, None], [rank])[:, 0, rank:]
    k, coupled = ns.shape[:2]
    dim = n * n
    q, _ = np.linalg.qr(np.concatenate(
        [ns, ns @ partner[:, lower].swapaxes(-1, -2)], axis=-1).swapaxes(-1, -2))
    # scatter into the coefficient slots, flattened (entry, c) -> entry*kmax + c;
    # the largest degree sits at the lower-left corner
    kmax = int(deg[-1, 0]) + 1
    top = np.arange(0, n * n * kmax, kmax) + flat   # the slot of each X[i, j]
    partner_slot = top[lower] - 1 if cuspidal else (top - flat)[lower]
    basis = np.zeros((k, dim, n * n * kmax), dtype=complex)
    basis[:, :coupled, np.concatenate([top, partner_slot])] = q.swapaxes(-1, -2)
    basis[:, coupled + np.arange(dim - coupled), top[free] - (2 if cuspidal else 1)] = 1.0
    return basis.reshape(k, dim, n, n, kmax)


def _frobenius_sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of the complex stack a."""
    flat = a.reshape(len(a), 1, -1).view(float)
    return (flat @ flat.swapaxes(-1, -2))[:, 0, 0]


def _compose_ev_res(res_vals: np.ndarray, ev_vals: np.ndarray,
                    blocks: np.ndarray = None) -> np.ndarray:
    """The (k, n, n, n, n) coefficient stack of ev o res^{-1}, one tensor per
    stack row, from per-basis
    residue/evaluation matrices of shape (k, dim, n, n).  With blocks, an
    (nb, m) array of flat entries i n + j, the shape is (k, nb, m, m): block
    b holds m basis elements and their values at the entries blocks[b],
    every other value being 0, so R, the matrix of res, is block diagonal
    and ev o res^{-1} is solved block by block and is exactly 0 off them.

    A residue matrix R is refused (DegenerateSystemError with its cond) when
    cond_2(R) = |R|_2 |R^{-1}|_2 exceeds COND_CAP or is not finite, and a
    stack is refused with its first such row.  R^{-1} is computed anyway, and
    |R|_F |R^{-1}|_F >= cond_2(R), so that product at most COND_CAP / 2 (the
    2 is margin for rounding) accepts R without an SVD.  The singular values
    decide the other rows, those of all blocks of a row together, as
    np.linalg.cond does on one block; a singular R makes solve raise for the
    whole stack, which is then refused with the cond of its first row."""
    k = len(res_vals)
    if blocks is None:  # one block: every entry, row-major
        blocks = np.arange(res_vals[0, 0].size)[None]
    (nb, m), n = blocks.shape, isqrt(blocks.size)
    r_mat = res_vals.reshape(k, nb, m, m).swapaxes(-1, -2)  # coeff vector -> entries
    e_mat = ev_vals.reshape(k, nb, m, m).swapaxes(-1, -2)
    # action on the standard basis e_{ab}: solve res(F) = e_{ab}, apply ev
    try:
        sol = np.linalg.solve(r_mat, np.eye(m, dtype=complex))
        proven = _frobenius_sq(res_vals) * _frobenius_sq(sol) <= (COND_CAP / 2) ** 2
    except np.linalg.LinAlgError:
        sol, proven = None, np.zeros(k, dtype=bool)
    if not all(proven):
        sv = np.linalg.svd(r_mat[~proven], compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = sv[..., 0].max(axis=-1) / sv[..., -1].min(axis=-1)
        cond[np.isnan(cond)] = np.inf  # R = 0, as np.linalg.cond has it
        refused = (sol is None) | ~np.isfinite(cond) | (cond > COND_CAP)
        if refused.any():
            cond = cond[refused.argmax()]
            raise DegenerateSystemError(
                f"residue system condition number {cond:.3g} exceeds cap "
                f"{COND_CAP:.3g}", cond=cond)
    lin = e_mat @ sol                                  # entries to entries, per block
    if nb > 1:
        full = np.zeros((k, n**4), dtype=complex)
        full[:, (n * n * blocks[:, :, None] + blocks[:, None, :]).ravel()] = lin.reshape(k, -1)
        lin = full
    action = lin.reshape(k, n * n, n * n).swapaxes(-1, -2).reshape(k, n, n, n, n)  # [s, a, b, k, l]
    # trace pairing: e_{ab} -> alpha e_{kl} is alpha e_{ba} (x) e_{kl}
    return action.transpose(0, 2, 1, 3, 4)


def _glued_engine(deg: np.ndarray, m_src: np.ndarray, m_dst: np.ndarray,
                  cuspidal: bool, y1: np.ndarray, y2: np.ndarray,
                  orbits: np.ndarray = None) -> np.ndarray:
    """ev o res^{-1} on the glued Hom space of each stack row, a coefficient
    stack (_compose_ev_res): the residue at
    y1 is taken against dz on the cuspidal curve and dz/z on the nodal one,
    the evaluation at y2 against 1/(y2 - y1); y1 and y2 have shape (k,).
    orbits (_nodal_orbits) solves a nodal constraint orbit by orbit."""
    # the basis is dropped once evaluated and its values are divided in place,
    # so no more than _compose_ev_res's inputs stays alive while it runs
    res_vals, ev_vals = _at_affine(_hom_space_glued(deg, m_src, m_dst, cuspidal, orbits),
                                   (y1, y2))
    if not cuspidal:
        res_vals /= y1[:, None, None, None]
    ev_vals /= (y2 - y1)[:, None, None, None]
    return _compose_ev_res(res_vals, ev_vals, orbits)


def _nodal_orbits(m: np.ndarray) -> np.ndarray:
    """Orbits of the nodal gluing constraint for a monomial gluing matrix m
    (one nonzero per row and column, m[i, pi(i)]), an n-cycle pi as for
    coprime (n, d): entry (u, t) is the flat index of (pi^t(0), pi^(t+u)(0)).

    With m_src, m_dst of that pattern the equation at (i, j) reads X at
    (pi i, pi j) only (_hom_space_glued), so the n orbits of n entries each
    are independent: Pi, res and ev are block diagonal over them."""
    n = len(m)
    pi = np.argmax(m != 0, axis=1).tolist()
    c = [0]
    for _ in range(n - 1):
        c.append(pi[c[-1]])
    return np.array([[n * c[t] + c[(t + u) % n] for t in range(n)] for u in range(n)])


def _require_coprime(n: int, d: int):
    if gcd(n, d) != 1 or not (0 < d < n):
        raise EngineError(f"(n, d) = ({n}, {d}) must be coprime with 0 < d < n")


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


def _nodal_rows(n: int, d: int, rows) -> np.ndarray:
    """The coefficient stack of engine_nodal at the parameter rows
    (lam1, lam2, y1, y2) of rows."""
    _require_coprime(n, d)
    for lam1, lam2, y1, y2 in rows:
        if lam1 == 0 or lam2 == 0 or y1 == 0 or y2 == 0:
            raise EngineError("nodal parameters must be nonzero")
        if y1 == y2 or lam1 == lam2:
            raise EngineError("coincident spectral points")
        _require_finite_det(n, lam1, complex(y1) * complex(lam2))
    lam1, lam2, y1, y2 = np.array(rows, dtype=complex).T
    n1, n2 = n - d, d
    m_src = bundles.jacobian_nodal_matrices(n1, n2, lam1)
    m_dst = y1[:, None, None] * bundles.jacobian_nodal_matrices(n1, n2, lam2)
    return _glued_engine(_entry_degrees(n1, n2), m_src, m_dst, False, y1, y2,
                         _nodal_orbits(m_src[0]))


def engine_nodal(n: int, d: int, lam1: complex, lam2: complex,
                 y1: complex, y2: complex) -> Tensor2:
    """Geometric r-matrix of the family of stable bundles of rank n, degree d
    (0 < d < n coprime) on the nodal cubic, at moduli points lam1, lam2 in C*
    and curve points y1 != y2 in C*.

    Depends on lam2/lam1 only; the gluing data is the Jacobian-compatible
    family with every nonzero canonical entry equal to lam.
    """
    return Tensor2(n, _nodal_rows(n, d, [(lam1, lam2, y1, y2)])[0])


_J2 = bundles.atiyah_nodal(2).m0  # J_2(1), gluing matrix of the Atiyah bundle


def _semistable_rows(rows) -> np.ndarray:
    """The coefficient stack of engine_semistable_nodal_20 at the parameter
    rows of rows."""
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
    return _glued_engine(_entry_degrees(2, 0), m_src, m_dst, False, y1, y2)


def engine_semistable_nodal_20(lam1: complex, lam2: complex,
                               y1: complex, y2: complex) -> Tensor2:
    """r-matrix of the rank-2 degree-0 semistable family m(0) = lam J_2(1)
    on the nodal cubic; all polynomial blocks have degree one.  Pole of
    order three in the moduli direction at lam1 = lam2."""
    return Tensor2(2, _semistable_rows([(lam1, lam2, y1, y2)])[0])


def _cusp_rows(n: int, d: int, rows) -> np.ndarray:
    """The coefficient stack of engine_cusp at the parameter rows
    (lam1, lam2, y1, y2) of rows."""
    _require_coprime(n, d)
    for lam1, lam2, y1, y2 in rows:
        if y1 == y2:
            raise EngineError("coincident curve points")
        if lam1 == lam2:
            raise EngineError("coincident moduli points")
        _require_finite_det(n, lam1, complex(lam2) - complex(y1))
    lam1, lam2, y1, y2 = np.array(rows, dtype=complex).T
    n1, n2 = n - d, d
    # at lam = 0 the canonical matrix is Z: its diagonal holds lam and zeros
    z_pat = bundles.canonical_cusp_matrix(n1, n2, 0.0)
    eye = np.eye(n, dtype=complex)
    m_src = z_pat + lam1[:, None, None] * eye
    m_dst = z_pat + (lam2 - y1)[:, None, None] * eye
    return _glued_engine(_entry_degrees(n1, n2), m_src, m_dst, True, y1, y2)


def engine_cusp(n: int, d: int, lam1: complex, lam2: complex,
                y1: complex, y2: complex) -> Tensor2:
    """Geometric r-matrix of the family of stable bundles of rank n, degree d
    on the cuspidal cubic; moduli points lam1, lam2 in C, curve points
    y1 != y2 in C.  Depends on lam2 - lam1 only.

    The gluing family is 1 + eps(lam I + Z) with Z the off-diagonal canonical
    pattern; twisting by O(y1) shifts the target matrix by -y1.
    """
    return Tensor2(n, _cusp_rows(n, d, [(lam1, lam2, y1, y2)])[0])


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
# SVD, QR and solve call for all of them, where a one-row call is mostly
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
        ev = lambda v1, v2, y1, y2: engine_nodal(n, d, v1, v2, y1, y2)
        stacked, curve = (lambda rows: _nodal_rows(n, d, rows)), "nodal"
    elif kind in ("cusp", "cuspidal"):
        ev = lambda v1, v2, y1, y2: engine_cusp(n, d, v1, v2, y1, y2)
        stacked, curve = (lambda rows: _cusp_rows(n, d, rows)), "cuspidal"
    elif kind == "nodal-semistable":
        n, d = 2, 0
        ev = lambda v1, v2, y1, y2: engine_semistable_nodal_20(v1, v2, y1, y2)
        stacked, curve = _semistable_rows, "nodal-semistable"
    else:
        raise ValueError(f"unknown engine kind {kind!r}")
    return RSolution(f"engine-{curve}({n},{d})", "v12_y12", n, ev,
                     params={"kind": kind, "n": n, "d": d},
                     evaluate_rows=stacked if n <= _STACK_MAX_N.get(curve, n) else None)
