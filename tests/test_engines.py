# tests/test_engines.py

import hashlib
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import oracles
from rmx import bundles, catalog, rmatrix, verify
from rmx.rmatrix import (
    DegenerateSystemError, EngineError, apply_gauge, engine_cusp,
    engine_elliptic_21, engine_nodal, engine_semistable_nodal_20,
    engine_solution,
)
from rmx.thetafn import ThetaParams


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def ring_points(rng, k, lo=0.3, hi=1.3):
    return rng.uniform(lo, hi, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))


# --- closed-form comparisons ---------------------------------------------------

def test_nodal_21_spot_value():
    # lam = 2, y1 = 1, y2 = 3: image of e11 under the linear map is
    # diag(1/6, -2/3), i.e. the tensor has e11(x)e11 = 1/6, e11(x)e22 = -2/3
    t = engine_nodal(2, 1, 1.0, 2.0, 1.0, 3.0)
    assert abs(t.coeffs[0, 0, 0, 0] - 1 / 6) < 1e-12
    assert abs(t.coeffs[0, 0, 1, 1] + 2 / 3) < 1e-12


def test_nodal_21_matches_closed_form():
    rng = np.random.default_rng(20)
    for _ in range(20):
        l1, l2, y1, y2 = ring_points(rng, 4)
        if abs(l1 - l2) < 0.1 or abs(l1 + l2) < 0.1 or abs(y1 - y2) < 0.1:
            continue
        got = engine_nodal(2, 1, l1, l2, y1, y2)
        want = catalog.nodal21_multiplicative(l2 / l1, y1, y2)
        assert (got - want).norm() < 1e-10


def test_cusp_21_matches_rational_closed_form():
    rng = np.random.default_rng(21)
    rat = catalog.get("rat21")
    t = engine_cusp(2, 1, 0.0, 1.5, 0.2, 0.9)
    assert (t - rat.evaluator(1.5, 0.2, 0.9)).norm() < 1e-12
    for _ in range(20):
        l1, l2, y1, y2 = (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-0.4, 0.4, 4))
        if abs(l1 - l2) < 0.15 or abs(y1 - y2) < 0.15:
            continue
        got = engine_cusp(2, 1, l1, l2, y1, y2)
        assert (got - rat.evaluator(l2 - l1, y1, y2)).norm() < 1e-10


def test_semistable_matches_closed_form():
    got = engine_semistable_nodal_20(1.0, 2.0, 1.0, 3.0)
    want = catalog.semistable20_multiplicative(2.0, 3.0)
    assert (got - want).norm() < 1e-12


def test_elliptic_matches_closed_form():
    for tau in (1.1j, 0.3 + 1.2j):
        p = ThetaParams(tau)
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 10:
            x1, x2, y1, y2 = (rng.uniform(-0.4, 0.4, 4)
                              + 1j * rng.uniform(-0.2, 0.2, 4))
            if abs(x1 - x2) < 0.08 or abs(y1 - y2) < 0.08:
                continue
            got = engine_elliptic_21(tau, x1, x2, y1, y2)
            want = catalog.elliptic_closed_form(x2 - x1, y2 - y1, p)
            assert (got - want).norm() < 1e-11
            checked += 1


def _elliptic_points():
    rng = np.random.default_rng(2121)
    pts = []
    while len(pts) < 20:
        tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.9, 1.3))
        x1, x2, y1, y2 = rng.uniform(-0.4, 0.4, 4) + 1j * rng.uniform(-0.2, 0.2, 4)
        if abs(y1 - y2) >= 0.08 and abs(x1 - x2) >= 0.08:
            pts.append((tau, x1, x2, y1, y2))
    return pts


# sha256 (first 32 hex digits) of the coefficient bytes of engine_elliptic_21
# at each of the 20 points, recorded with numpy 2.4.6 on x86-64 while the
# engine wrote its own O(y1) factor psi; taking psi from
# bundles.line_bundle_factor must keep every bit
_ELLIPTIC_DIGESTS = """
744a941b743aae0dd693d954d4bae14c d0e7e5aee870b7162c41f3cc602cf3f7
53798c182f0e4856a95072af15bf1c6c b6f17dec67aff3d6833a09d20a8ca141
df66ceadfd5ba1232585a0d60d2f3844 6060d07a6fe1f1e296273845f1e0b239
846dd8d0ce636f8add404fea65cd85e1 bec9568f7fd921a2ce800121af5bbb89
3abacabc2ccd5706ea92e2cc5eb7ce11 fa205f8140c18c8ca273f3b9f02ec080
b6d88dc06156e524cec4f565ed5f71f1 e71f77a01e8860e1e1ba71f883112fd3
0e97c9242acda61457bd2957a97c175f ebb992f1c764710172b234a2ba68a11e
b1d3e4f0847c3ff3ecbbbe9c0d09de45 673245877c91021cc79dc4401c1a9312
5e4dd148f741d6265cd3d584717f0208 a37d7b4870ab500d9033524bfc38af65
f2992318055dc1876a1ab03cafd5b4c4 60f80eca5bdd09eebc339c2fb2b29a36
""".split()


@pytest.mark.parametrize("k", range(20))
def test_elliptic_engine_bits_are_unchanged(k):
    t = engine_elliptic_21(*_elliptic_points()[k])
    assert hashlib.sha256(t.coeffs.tobytes()).hexdigest()[:32] == _ELLIPTIC_DIGESTS[k]


# --- engine-level identities -----------------------------------------------------

ENGINES = [
    ("nodal", {"n": 2, "d": 1}),
    ("nodal", {"n": 3, "d": 2}),
    ("cusp", {"n": 2, "d": 1}),
    ("cusp", {"n": 3, "d": 1}),
    ("nodal-semistable", {}),
    ("elliptic", {"tau": 1.1j}),
]


@pytest.mark.parametrize("kind,kw", ENGINES)
def test_engine_aybe_and_unitarity(kind, kw):
    sol = engine_solution(kind, **kw)
    samples = 15 if kind == "elliptic" else 50
    assert verify.aybe(sol, samples=samples, tol=1e-8, seed=30).passed
    assert verify.unitarity(sol, samples=samples, tol=1e-10, seed=31).passed


@pytest.mark.parametrize("kind,kw,name,params", [
    ("nodal", {"n": 3, "d": 2}, "engine-nodal(3,2)", {"kind": "nodal", "n": 3, "d": 2}),
    ("cusp", {"n": 3, "d": 1}, "engine-cuspidal(3,1)", {"kind": "cusp", "n": 3, "d": 1}),
    ("cuspidal", {}, "engine-cuspidal(2,1)", {"kind": "cuspidal", "n": 2, "d": 1}),
    ("nodal-semistable", {}, "engine-nodal-semistable(2,0)",
     {"kind": "nodal-semistable", "n": 2, "d": 0}),
    ("elliptic", {"tau": 1.1j}, "engine-elliptic(2,1)", {"kind": "elliptic", "n": 2, "d": 1}),
])
def test_engine_solution_names(kind, kw, name, params):
    sol = engine_solution(kind, **kw)
    assert (sol.name, sol.arity, sol.params) == (name, "v12_y12", params)


def test_engine_solution_bad_kind():
    with pytest.raises(ValueError):
        engine_solution("smooth")
    with pytest.raises(EngineError):
        engine_solution("elliptic", 3, 1)


def test_elliptic_v_shift_invariance():
    rng = np.random.default_rng(32)
    for _ in range(5):
        s = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
        a = engine_elliptic_21(1.1j, 0.05 + s, 0.43 + s, 0.03, 0.3)
        b = engine_elliptic_21(1.1j, 0.05, 0.43, 0.03, 0.3)
        assert (a - b).norm() < 1e-10


def test_nodal_ratio_invariance():
    rng = np.random.default_rng(33)
    for _ in range(5):
        beta = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a = engine_nodal(2, 1, 0.7 * beta, 1.4 * beta, 0.5, 1.1)
        b = engine_nodal(2, 1, 0.7, 1.4, 0.5, 1.1)
        assert (a - b).norm() < 1e-11


def test_cusp_difference_invariance():
    rng = np.random.default_rng(34)
    for _ in range(5):
        s = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        a = engine_cusp(2, 1, 0.1 + s, 0.8 + s, 0.2, 0.9)
        b = engine_cusp(2, 1, 0.1, 0.8, 0.2, 0.9)
        assert (a - b).norm() < 1e-11


def test_sqrt_y_gauge_leaves_ratio_dependence():
    # after conjugating by diag(sqrt(y_i), 1) the nodal (2,1) output depends
    # on y2/y1 only
    from rmx.rmatrix import conjugate_legs

    def gauged(l1, l2, y1, y2):
        t = engine_nodal(2, 1, l1, l2, y1, y2)
        return conjugate_legs(t, np.diag([np.sqrt(complex(y1)), 1]),
                              np.diag([np.sqrt(complex(y2)), 1]))

    a = gauged(0.7, 1.3, 0.4, 1.0)
    b = gauged(0.7, 1.3, 0.4 * 1.9, 1.0 * 1.9)
    assert (a - b).norm() < 1e-11


def test_semistable_pole_order_three(monkeypatch):
    # the e12 (x) e12 coefficient blows up like (1 - lam)^-3
    # near the pole the residue system is genuinely ill-conditioned;
    # lift the cap to probe the blowup rate
    with pytest.raises(DegenerateSystemError):  # refused at the default cap
        engine_semistable_nodal_20(1.0, 1.005, 1.0, 3.0)
    monkeypatch.setattr(rmatrix, "COND_CAP", 1e12)
    vals = []
    for eps in (0.02, 0.01, 0.005):
        t = engine_semistable_nodal_20(1.0, 1.0 + eps, 1.0, 3.0)
        vals.append(abs(t.coeffs[0, 1, 0, 1]))
    assert vals[1] / vals[0] == pytest.approx(8.0, rel=0.15)
    assert vals[2] / vals[1] == pytest.approx(8.0, rel=0.15)


def test_engine_rejects_bad_input():
    with pytest.raises(EngineError):
        engine_nodal(4, 2, 0.5, 1.0, 0.3, 0.8)     # not coprime
    with pytest.raises(EngineError):
        engine_nodal(2, 1, 0.0, 1.0, 0.3, 0.8)     # lam = 0
    with pytest.raises(EngineError):
        engine_cusp(2, 1, 0.3, 0.9, 0.5, 0.5)      # y1 = y2
    with pytest.raises(EngineError):
        engine_semistable_nodal_20(1.0, 1.0, 0.3, 0.8)


def test_elliptic_coincident_moduli_degenerate():
    # x1 = x2 makes the residue systems singular
    with pytest.raises(DegenerateSystemError):
        engine_elliptic_21(1.1j, 0.2, 0.2, 0.1, 0.4)


def test_conditioning_guard_near_exceptional_locus():
    # nodal (2,1) degenerates at lam2 -> -lam1 (the 1 - lam^2 denominators)
    with pytest.raises(DegenerateSystemError) as exc:
        engine_nodal(2, 1, 1.0, -1.0 - 1e-9, 0.5, 1.2)
    assert exc.value.cond is None or exc.value.cond > 1e6


def test_residue_system_well_conditioned_generically():
    rng = np.random.default_rng(35)
    for _ in range(10):
        l1, l2, y1, y2 = ring_points(rng, 4)
        if abs(l1 - l2) < 0.15 or abs(l1 + l2) < 0.15 or abs(y1 - y2) < 0.15:
            continue
        engine_nodal(3, 2, l1, l2, y1, y2)  # must not raise


def test_engine_holomorphy_second_order_fd():
    # central difference estimates of d/dy2 converge at second order
    f = lambda y2: engine_nodal(2, 1, 0.6, 1.2, 0.5, y2).coeffs
    y2 = 1.1 + 0.2j
    errs = []
    ref = (f(y2 + 1e-5) - f(y2 - 1e-5)) / 2e-5
    for h in (0.08, 0.04):
        errs.append(np.max(np.abs((f(y2 + h) - f(y2 - h)) / (2 * h) - ref)))
    assert errs[1] / errs[0] == pytest.approx(0.25, rel=0.2)


# --- Hom-space assembly and exact oracle ------------------------------------------

COPRIME_UP_TO_9 = [(n, d) for n in range(2, 10) for d in range(1, n) if gcd(n, d) == 1]


def _gluing_residual(deg, m_src, m_dst, cuspidal, c):
    """Largest entry of the gluing equation on one coefficient array c[i, j, k]."""
    n = deg.shape[0]
    top = np.array([[c[i, j, deg[i, j]] for j in range(n)] for i in range(n)])
    if cuspidal:
        below = np.array([[c[i, j, deg[i, j] - 1] if deg[i, j] else 0.0
                           for j in range(n)] for i in range(n)])
        eq = below + top @ m_src - m_dst @ top
    else:
        at0 = np.array([[(-1) ** deg[i, j] * c[i, j, 0] for j in range(n)]
                        for i in range(n)])
        eq = at0 @ m_src - m_dst @ top
    return np.max(np.abs(eq))


def test_hom_space_matches_per_slot_reference(monkeypatch):
    calls = []
    real = rmatrix._hom_space_glued

    def spy(deg, m_src, m_dst, cuspidal, orbits):
        basis = real(deg, m_src, m_dst, cuspidal, orbits)
        calls.append((deg, m_src, m_dst, cuspidal, _dense_basis(basis[0], orbits)[None]))
        return basis

    monkeypatch.setattr(rmatrix, "_hom_space_glued", spy)
    for n, d in COPRIME_UP_TO_9:
        engine_nodal(n, d, 0.7 + 0.2j, 1.3 - 0.4j, 0.5 + 0.1j, 1.1)
        engine_cusp(n, d, 0.1 + 0.2j, 0.9 - 0.3j, 0.3, -0.6 + 0.1j)
    engine_semistable_nodal_20(0.7 + 0.2j, 1.3 - 0.4j, 0.5 + 0.1j, 1.1)
    assert len(calls) == 2 * len(COPRIME_UP_TO_9) + 1
    for deg, (m_src,), (m_dst,), cuspidal, (basis,) in calls:  # one-row stacks
        n = deg.shape[0]
        want = oracles.hom_space_basis_per_slot(deg, m_src, m_dst, cuspidal)
        assert basis.shape == want.shape and basis.shape[0] == n * n
        # the same subspace: the orthogonal projectors agree
        assert np.max(np.abs(_projector(basis) - _projector(want))) < 1e-12
        # an orthonormal basis, as the SVD basis was, so cond(res) is unchanged
        flat = basis.reshape(n * n, -1)
        assert np.max(np.abs(flat.conj() @ flat.T - np.eye(n * n))) < 1e-13
        for c in basis:
            assert _gluing_residual(deg, m_src, m_dst, cuspidal, c) < 1e-12


def _dense_basis(basis, orbits):
    """A Hom-space basis (dim, n, n, kmax) of one stack row; an orbit basis
    (n, n, n, kmax) of the nodal engine is spread over all n^2 entries."""
    if orbits is None:
        return basis
    n = len(orbits)
    dense = np.zeros((n, n, n * n, basis.shape[-1]), dtype=complex)
    dense[np.arange(n)[:, None, None], np.arange(n)[None, :, None], orbits[:, None, :]] = basis
    return dense.reshape(n * n, n, n, -1)


def _projector(basis):
    """Orthogonal projector onto the span of an orthonormal basis (dim, ...)."""
    flat = basis.reshape(len(basis), -1)
    return flat.T @ flat.conj()


def _residue_cond(basis, cuspidal, y1):
    """cond of the residue system of a Hom-space basis, as _glued_engine takes it."""
    ((res,),) = rmatrix._at_affine(basis[None], [[y1]])
    res = res if cuspidal else res / y1
    return np.linalg.cond(res.reshape(len(res), -1).T)


def _spread_points(monkeypatch):
    """(kind, n, d, spread) at ranks 8 and 12 on both sides of COND_CAP; the
    rank-12 spreads are the benchmark's pass limit and its probe range."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import RANK12_MAX_SPREAD, RANK12_PROBE_SPREAD
    points = [("nodal", 8, 3, 3.6), ("nodal", 8, 5, 7.5),
              ("cusp", 8, 3, 2.5), ("cusp", 8, 5, 3.0)]
    for kind, curve in (("nodal", "nodal"), ("cusp", "cuspidal")):
        lo, hi = RANK12_PROBE_SPREAD[curve]
        top = RANK12_MAX_SPREAD[curve]
        points += [(kind, 12, 5, top), (kind, 12, 7, 0.8 * top),
                   (kind, 12, 5, lo), (kind, 12, 7, hi)]
    return points


def _spread_args(kind, spread):
    """(v1, v2, y1, y2) of a spread point: |v1 / v2| (nodal) or |v1 - v2|
    (cuspidal) is the spread."""
    if kind == "nodal":
        v2 = 0.32 * np.exp(0.4j)
        return v2 * spread * np.exp(1.1j), v2, 0.7 * np.exp(2.0j), 0.9 * np.exp(-0.5j)
    v2 = 1.0 + 0.2j
    return v2 + spread * np.exp(1.1j), v2, 0.8 - 0.3j, 1.2 + 0.1j


def _engine_at_spread(kind, n, d, spread):
    return (engine_nodal if kind == "nodal" else engine_cusp)(n, d, *_spread_args(kind, spread))


@pytest.mark.parametrize("n,d", [(n, d) for n in range(2, 9) for d in range(1, n)
                                 if gcd(n, d) == 1])
def test_cuspidal_gluing_constraint_has_full_row_rank(n, d):
    # the cuspidal constraint is (Z (x) 1 - 1 (x) Z^T + c) on the degree-0
    # rows, c = lam2 - y1 - lam1: its n1 n2 rows are independent at every c,
    # with a smallest singular value above 1 (1.03 at n = 12, d = 1), so
    # _nullspace's nullity refusal never fires on a cuspidal row
    n1, n2 = n - d, d
    deg = rmatrix._entry_degrees(n1, n2)
    glued = deg.ravel() == 0
    assert np.count_nonzero(glued) == n1 * n2
    rng = np.random.default_rng(n * 10 + d)
    c = np.concatenate([[0], np.linspace(-10, 10, 100),
                        10 * (rng.normal(size=100) + 1j * rng.normal(size=100))])
    z, eye = bundles.canonical_cusp_matrix(n1, n2, 0.0), np.eye(n)
    constraint = np.kron(z, eye)[None] - np.kron(eye, z.T) + c[:, None, None] * np.eye(n * n)
    s = np.linalg.svd(constraint[:, glued], compute_uv=False)
    assert s[:, -1].min() > 1.0
    # the engines' own assembly refuses no row and finds all n^2 dimensions
    basis = rmatrix._hom_space_glued(deg, z + 0 * c[:, None, None], z + c[:, None, None],
                                     True)
    assert basis.shape[:2] == (len(c), n * n)


def test_hom_space_cond_and_refusals_match_per_slot_reference(monkeypatch):
    calls = []
    real = rmatrix._hom_space_glued
    monkeypatch.setattr(rmatrix, "_hom_space_glued",
                        lambda *a: calls.append(a) or real(*a))
    refused = []
    for kind, n, d, spread in _spread_points(monkeypatch):
        y1 = _spread_args(kind, spread)[2]
        calls.clear()
        try:
            _engine_at_spread(kind, n, d, spread)
            refused.append(False)
        except DegenerateSystemError:
            refused.append(True)
        deg, (m_src,), (m_dst,), cuspidal, orbits = args = calls[0]  # a one-row stack
        got = _residue_cond(_dense_basis(real(*args)[0], orbits), cuspidal, y1)
        want = _residue_cond(oracles.hom_space_basis_per_slot(deg, m_src, m_dst, cuspidal),
                             cuspidal, y1)
        assert abs(got - want) <= 1e-8 * want, (kind, n, d, spread, got, want)
        assert refused[-1] == (want > rmatrix.COND_CAP), (kind, n, d, spread, want)
    assert len(refused) >= 10 and any(refused) and not all(refused)


def _residue_matrix(res, blocks):
    """The matrix of res (entries x basis) of one stack row from what
    _compose_ev_res receives; with blocks (the nodal orbits) the block
    diagonal matrix with columns (block, basis element)."""
    if blocks is None:
        return res.reshape(len(res), -1).T
    nb, m = blocks.shape
    r_mat = np.zeros((nb * m, nb * m), dtype=complex)
    r_mat[blocks[:, :, None], np.arange(nb * m).reshape(nb, 1, m)] = res.swapaxes(-1, -2)
    return r_mat


# np.linalg.cond of the whole block diagonal matrix finds its smallest
# singular value only to about eps * its largest, a relative error of about
# eps * cond.  Measured |cond of the blocks / that - 1| at the refused nodal
# spread points: 1.6e-11, 1.5e-11 and 1.0e-9 at cond 2.1e6, 2.3e6 and 1.5e7,
# at most 0.29 eps cond; the bound is 10 eps cond
BLOCK_COND_RTOL = 10 * np.finfo(float).eps


def test_cond_cap_decision_matches_svd_cond_at_spread_points(monkeypatch):
    # the engine accepts without an SVD when |R|_F |R^-1|_F <= COND_CAP / 2;
    # every refusal and its cond must still be np.linalg.cond's: bit for bit
    # on one block, and within BLOCK_COND_RTOL * cond on the nodal orbit blocks
    seen = []
    real = rmatrix._compose_ev_res
    monkeypatch.setattr(rmatrix, "_compose_ev_res",
                        lambda res, ev, blocks=None: seen.append((res, blocks))
                        or real(res, ev, blocks))
    skipped = fallback_accepted = refused = 0
    for kind, n, d, spread in _spread_points(monkeypatch):
        seen.clear()
        try:
            _engine_at_spread(kind, n, d, spread)
            got = None
        except DegenerateSystemError as exc:
            got = exc.cond
        ((res,), blocks), = seen  # a one-row stack
        assert (blocks is None) == (kind != "nodal")
        r_mat = _residue_matrix(res, blocks)
        cond = np.linalg.cond(r_mat)
        bound = np.linalg.norm(r_mat) * np.linalg.norm(
            np.linalg.solve(r_mat, np.eye(len(r_mat), dtype=complex)))
        assert bound >= cond, (kind, n, d, spread)
        if cond > rmatrix.COND_CAP:
            if blocks is None:
                assert got == cond, (kind, n, d, spread, got, cond)
            else:
                assert abs(got / cond - 1) <= BLOCK_COND_RTOL * cond, (kind, n, d, spread, got, cond)
            refused += 1
        else:
            assert got is None, (kind, n, d, spread, got)
            skipped += bound <= rmatrix.COND_CAP / 2
            fallback_accepted += bound > rmatrix.COND_CAP / 2
    # both acceptance paths and the refusal are taken
    assert skipped and fallback_accepted and refused


def test_singular_residue_system_is_refused_with_its_cond():
    # an exactly singular R makes solve raise; that is a refusal, not a leak
    res = np.array([np.eye(2), np.zeros((2, 2)), [[0, 1], [0, 0]], [[0, 0], [1, 0]]],
                   dtype=complex)
    r_mat = res.reshape(4, 4).T
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(r_mat, np.eye(4))
    with pytest.raises(DegenerateSystemError) as exc:
        rmatrix._compose_ev_res(res[None], res[None])
    assert exc.value.cond == np.linalg.cond(r_mat)


# --- stacked rows ------------------------------------------------------------------

# every nodal degree up to rank 5: its orbits differ in their numbers of
# glued entries, and each stack row's orbits share the SVD, QR and solve
STACK_ENGINES = [("nodal", n, d) for n, d in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1),
                                                (5, 2), (5, 3), (5, 4), (6, 5), (7, 3), (8, 3))] \
    + [("cusp", n, d) for n, d in ((2, 1), (3, 1), (4, 3), (5, 3), (6, 1), (7, 2), (8, 5))] \
    + [("nodal-semistable", 2, 0)]


def _one_row_and_stacked(kind, n, d):
    if kind == "nodal":
        return (lambda *a: engine_nodal(n, d, *a)), (lambda rows: rmatrix._nodal_rows(n, d, rows))
    if kind == "cusp":
        return (lambda *a: engine_cusp(n, d, *a)), (lambda rows: rmatrix._cusp_rows(n, d, rows))
    return engine_semistable_nodal_20, rmatrix._semistable_rows


def _accepted_rows(kind, n, d, monkeypatch):
    """(rows, number of them decided by singular values): random rows the
    engine accepts, with the accepted spread rows (_spread_args) that take
    the SVD fallback of the cond cap (an SVD without vectors) at rows 2 and 5."""
    one_row, _ = _one_row_and_stacked(kind, n, d)
    conds = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            conds.append(1)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)

    refused = []

    def accepted(row):
        conds.clear()
        try:
            one_row(*row)
        except DegenerateSystemError as e:
            refused.append(e)
            return None
        return bool(conds)

    fallback = []
    if kind != "nodal-semistable":
        fallback = [row for row in (_spread_args(kind, s) for s in (2.0, 2.5, 4.0, 5.0, 6.0, 7.5, 9.0))
                    if accepted(row)][:2]
    rng = np.random.default_rng(100 * n + d)
    rows = []
    for _ in range(200):
        row = tuple(ring_points(rng, 4))
        if accepted(row) is not None:
            rows.append(row)
            if len(rows) == 6 - len(fallback):
                break
    else:
        raise AssertionError(f"{kind} ({n}, {d}) accepts fewer than {6 - len(fallback)} of "
                             f"200 random rows; the last refusal: {refused[-1]}")
    for at, row in zip((2, 5), fallback):
        rows.insert(at, row)
    monkeypatch.setattr(np.linalg, "svd", real_svd)
    return rows, len(fallback)


@pytest.mark.parametrize("kind,n,d", STACK_ENGINES)
def test_stacked_rows_equal_one_row_calls(kind, n, d, monkeypatch):
    # a stack of k parameter rows gives, bit for bit, the k one-row calls
    rows, fallback = _accepted_rows(kind, n, d, monkeypatch)
    # the SVD fallback of the cond cap is taken at these ranks (measured)
    assert fallback > 0 or kind == "nodal-semistable" or n < (7 if kind == "nodal" else 4)
    one_row, stacked = _one_row_and_stacked(kind, n, d)
    want = [one_row(*row).coeffs for row in rows]
    for k in range(1, 7):
        got = stacked(rows[-k:])
        assert got.shape == (k,) + (n,) * 4
        assert all(np.array_equal(t, w) for t, w in zip(got, want[-k:])), k


def test_a_stack_with_one_refused_row_is_refused():
    rows = [(0.7, 1.3, 0.5, 1.1), (1.0, -1.0 - 1e-9, 0.5, 1.2), (0.6, 1.2, 0.5, 0.9)]
    with pytest.raises(DegenerateSystemError):
        rmatrix._nodal_rows(2, 1, rows)
    with pytest.raises(DegenerateSystemError):
        rmatrix._nodal_rows(2, 1, rows[1:2])
    rmatrix._nodal_rows(2, 1, rows[::2])   # the other rows are accepted


@pytest.mark.parametrize("n", [rmatrix._STACK_MAX_N["cuspidal"],
                               rmatrix._STACK_MAX_N["cuspidal"] + 1])
def test_evaluate_rows_stacks_up_to_the_cutoff(n, monkeypatch):
    calls = []
    real = rmatrix._hom_space_glued
    monkeypatch.setattr(rmatrix, "_hom_space_glued",
                        lambda *a: calls.append(len(a[1])) or real(*a))
    rows = [tuple(ring_points(np.random.default_rng(n + k), 4)) for k in range(6)]
    _, evaluate = catalog.view(engine_solution("cusp", n, 1), catalog.as_four_param)
    got = evaluate(rows)
    # one stack up to the cutoff, one call per row above it
    assert calls == ([6] if n <= rmatrix._STACK_MAX_N["cuspidal"] else [1] * 6)
    assert got.shape == (6, n, n, n, n)
    assert all(np.array_equal(t, engine_cusp(n, 1, *row).coeffs) for t, row in zip(got, rows))


def test_evaluate_rows_is_set_for_the_glued_engines_only():
    assert engine_solution("elliptic").evaluate_rows is None
    for kind in ("nodal", "cusp", "nodal-semistable"):
        assert engine_solution(kind).evaluate_rows is not None
    # the nodal orbit blocks stack further than the cuspidal system
    assert rmatrix._STACK_MAX_N == {"nodal": 8, "cuspidal": 5}
    for kind, curve in (("nodal", "nodal"), ("cusp", "cuspidal"), ("cuspidal", "cuspidal")):
        cutoff = rmatrix._STACK_MAX_N[curve]
        assert engine_solution(kind, cutoff, 1).evaluate_rows is not None
        assert engine_solution(kind, cutoff + 1, 1).evaluate_rows is None


EXACT_POINTS = {
    "nodal": [(F(2, 3), F(7, 5), F(1, 2), F(5, 4)),
              (F(1), F(1, 10), F(1, 2), F(6, 5))],   # wide spectral spread
    "cusp": [(F(-1, 3), F(3, 5), F(1, 4), F(-2, 3)),
             (F(0), F(6, 5), F(1, 2), F(-3, 4))],
}


def _exact_vs_engine(kind, n, d, point):
    """Relative max-coefficient error of the double-precision engine against
    the exact rational oracle; the gluing pattern comes from the public
    canonical forms."""
    if kind == "nodal":
        pattern = (bundles.canonical_nodal_matrix(n - d, d, 1.0) != 0).astype(int)
        engine = engine_nodal
    else:
        pattern = bundles.canonical_cusp_matrix(n - d, d, 0.0).real.astype(int)
        np.fill_diagonal(pattern, 0)
        engine = engine_cusp
    want, dim = oracles.exact_engine_coeffs(kind, n, d, pattern, *point)
    assert dim == n * n
    got = engine(n, d, *map(float, point)).coeffs
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_nodal_7_3_matches_exact_rational_oracle():
    # the first nodal point (the second is over COND_CAP at rank 7);
    # measured 1.3e-15, and the oracle takes about 0.3 s
    assert _exact_vs_engine("nodal", 7, 3, EXACT_POINTS["nodal"][0]) < 1e-13


def _same_orbit(n, d):
    """mask[b, a, k, l]: whether entries (a, b) and (k, l) lie in one orbit of
    (i, j) -> (pi i, pi j), pi read off the canonical nodal matrix; the
    engine's coefficient [b, a, k, l] is the image of e_ab at e_kl."""
    pi = np.argmax(bundles.canonical_nodal_matrix(n - d, d, 1.0) != 0, axis=1)
    orbit = np.full((n, n), -1)
    for start in range(n * n):
        i, j = divmod(start, n)
        while orbit[i, j] < 0:
            orbit[i, j] = start
            i, j = pi[i], pi[j]
    assert sorted(np.bincount(orbit.ravel())[np.unique(orbit)]) == [n] * n
    return orbit.T[:, :, None, None] == orbit[None, None]


@pytest.mark.parametrize("n", range(2, 13))
def test_nodal_coefficients_off_the_orbit_blocks_are_exactly_zero(n):
    for d in (d for d in range(1, n) if gcd(n, d) == 1):
        row = (0.8 * np.exp(0.3j), 1.1 * np.exp(-1.2j), 0.6 * np.exp(2.1j), 0.9 * np.exp(-0.4j))
        coeffs = engine_nodal(n, d, *row).coeffs
        off = coeffs[~_same_orbit(n, d)].view(float)
        assert off.size == 2 * n**4 - 2 * n**3
        assert not off.any() and not np.signbit(off).any(), (n, d)
        # not a vacuous pass: the blocks hold at least n^2 nonzero coefficients
        assert np.count_nonzero(coeffs[_same_orbit(n, d)]) >= n * n, (n, d)


@pytest.mark.parametrize("kind,n,d", [
    ("nodal", 2, 1), ("nodal", 3, 1), ("nodal", 3, 2), ("nodal", 5, 2),
    ("cusp", 2, 1), ("cusp", 3, 2), ("cusp", 5, 3),
])
def test_engine_matches_exact_rational_oracle(kind, n, d):
    # worst measured relative error over these points is 2.0e-15 (cuspidal
    # (5,3)); the nodal (5,2) spread point has residue cond 1.3e4 and still
    # agrees to 3e-16, so the bound is that worst value times 50
    for point in EXACT_POINTS[kind]:
        assert _exact_vs_engine(kind, n, d, point) < 1e-13


def test_engine_error_near_exceptional_locus_follows_cond():
    # nodal (2,1) at lam2 = -1.0001 lam1: residue cond 2e4, measured error
    # 9.5e-13, inside cond * eps = 4.4e-12; the bound is 10x the measurement
    assert _exact_vs_engine("nodal", 2, 1, (F(1), F(-10001, 10000), F(1, 2), F(6, 5))) < 1e-11


# --- gauges ----------------------------------------------------------------------

def test_identity_gauge_is_identity():
    sol = catalog.get("rat21")
    g = apply_gauge(sol, lambda v, y: np.eye(2))
    r4 = verify.as_four_param(sol)
    pt = (0.3, 0.8, 0.2, 0.9)
    assert (g.evaluator(*pt) - r4(*pt)).norm() < 1e-14


def test_special_gauge_multiplies_by_exponential():
    c = 0.37 + 0.21j
    sol = catalog.get("rat21")
    g = apply_gauge(sol, lambda v, y: np.exp(c * v * y) * np.eye(2))
    r4 = verify.as_four_param(sol)
    rng = np.random.default_rng(36)
    for _ in range(10):
        v1, v2, y1, y2 = ring_points(rng, 4, 0.3, 1.0)
        want = np.exp(c * (v2 - v1) * (y2 - y1)) * r4(v1, v2, y1, y2)
        assert (g.evaluator(v1, v2, y1, y2) - want).norm() < 1e-12


def test_gauged_solution_still_satisfies_aybe():
    g = apply_gauge(catalog.get("rat21"),
                    lambda v, y: np.exp(0.2 * v * y) * np.eye(2))
    assert verify.aybe(g, samples=8, tol=1e-9, seed=37).passed
    assert verify.unitarity(g, samples=8, tol=1e-10, seed=38).passed


def test_singular_gauge_raises():
    g = apply_gauge(catalog.get("rat21"), lambda v, y: np.zeros((2, 2)))
    with pytest.raises(EngineError):
        g.evaluator(0.3, 0.8, 0.2, 0.9)
