# tests/test_bundles.py

from math import gcd, pi

import numpy as np
import pytest

from rmx import bundles
from rmx.bundles import (
    CuspTriple, NodalTriple, atiyah_nodal, automorphy, canonical_cusp,
    canonical_cusp_matrix, canonical_nodal, canonical_nodal_matrix, det_triple,
    endo_dimension, jacobian_form, jacobian_form_cusp, jacobian_form_nodal,
    line_bundle_factor, svd_rank,
)
from rmx.thetafn import ThetaParams, theta_j

COPRIME_PAIRS = [(a, b) for a in range(1, 7) for b in range(1, 7)
                 if a + b <= 7 and gcd(a, b) == 1]


def offdiag_block_rank(t: NodalTriple) -> int:
    """Rank of the n1 x n2 upper-right block of m(0) (full for simple objects)."""
    return svd_rank(np.linalg.svd(t.m0[:t.n1, t.n1:], compute_uv=False))


# --- canonical nodal forms ----------------------------------------------------

def test_canonical_nodal_displayed_matrices():
    lam = 2.0
    assert np.array_equal(canonical_nodal_matrix(1, 1, lam),
                          np.array([[0, 1], [lam, 0]], dtype=complex))
    assert np.array_equal(canonical_nodal_matrix(1, 2, lam),
                          np.array([[0, 1, 0], [0, 0, 1], [lam, 0, 0]],
                                   dtype=complex))
    want = np.zeros((5, 5), dtype=complex)
    want[0, 1] = 1
    want[1, 3] = 1
    want[2, 4] = 1
    want[3, 2] = 1
    want[4, 0] = lam
    assert np.array_equal(canonical_nodal_matrix(3, 2, lam), want)


@pytest.mark.parametrize("n1,n2", COPRIME_PAIRS)
def test_canonical_nodal_permutation_structure(n1, n2):
    lam = 0.7 - 0.3j
    m = canonical_nodal_matrix(n1, n2, lam)
    nz = m != 0
    assert np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)
    vals = m[nz]
    assert np.sum(vals == lam) == 1
    assert np.sum(vals == 1) == n1 + n2 - 1
    assert m[-1][m[-1] != 0][0] == lam  # the lam entry is in the last row


def test_canonical_nodal_matrix_is_its_block_construction_bit_for_bit():
    # canonical_nodal_matrix is built from nodal_pattern's index list; the
    # recursive block insertions on whole matrices (oracles) give the same
    # bits at every coprime (n1, n2) up to n = 24, for lam real, complex,
    # huge, tiny and NaN, and nodal_pattern is a permutation with lam's entry
    # in the last row
    import oracles
    for n in range(2, 25):
        for n2 in (n2 for n2 in range(1, n) if gcd(n - n2, n2) == 1):
            n1 = n - n2
            pi = bundles.nodal_pattern(n1, n2)
            assert sorted(pi) == list(range(n))
            for lam in (2.0, 0.7 - 0.3j, 1e300, 1e-320, float("nan")):
                m = canonical_nodal_matrix(n1, n2, lam)
                assert m.tobytes() == oracles.canonical_nodal_matrix_blocks(n1, n2, lam).tobytes()
                assert (m[range(n), pi] != 0).all()


@pytest.mark.parametrize("n1,n2", COPRIME_PAIRS)
def test_det_is_plus_minus_lambda(n1, n2):
    lam = 1.3 + 0.4j
    d = det_triple(canonical_nodal(n1, n2, lam))
    assert min(abs(d - lam), abs(d + lam)) < 1e-12


@pytest.mark.parametrize("n1,n2", COPRIME_PAIRS)
def test_offdiagonal_block_full_rank(n1, n2):
    t = canonical_nodal(n1, n2, 2.2)
    assert offdiag_block_rank(t) == min(n1, n2)


def test_canonical_nodal_input_validation():
    with pytest.raises(ValueError):
        canonical_nodal(2, 4, 1.0)
    with pytest.raises(ValueError):
        canonical_nodal(1, 1, 0.0)


# --- canonical cuspidal forms ---------------------------------------------------

def test_canonical_cusp_displayed_matrices():
    lam = 0.6
    assert np.array_equal(canonical_cusp_matrix(1, 1, lam),
                          np.array([[lam, 1], [0, 0]], dtype=complex))
    assert np.array_equal(
        canonical_cusp_matrix(2, 1, lam),
        np.array([[lam, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))


@pytest.mark.parametrize("n1,n2", COPRIME_PAIRS)
def test_cusp_trace_is_lambda(n1, n2):
    lam = -0.8 + 0.1j
    m = canonical_cusp_matrix(n1, n2, lam)
    assert abs(np.trace(m) - lam) < 1e-14
    # lam is the only nonzero diagonal element
    diag = np.diag(m)
    assert np.sum(diag != 0) == (1 if lam != 0 else 0)
    assert det_triple(canonical_cusp(n1, n2, lam)) == pytest.approx(lam)


def test_cusp_determinant_over_dual_numbers():
    # det(1 + eps M) = 1 + eps tr(M): check the eps expansion numerically
    lam = 0.9
    m = canonical_cusp_matrix(1, 1, lam)
    eps = 1e-7
    d = np.linalg.det(np.eye(2) + eps * m)
    assert abs((d - 1) / eps - lam) < 1e-6


# --- endomorphism certificates -------------------------------------------------

@pytest.mark.parametrize("n1,n2", COPRIME_PAIRS)
def test_simplicity_certificate_nodal(n1, n2):
    rng = np.random.default_rng(n1 * 10 + n2)
    for _ in range(5):
        lam = rng.uniform(0.3, 2.0) * np.exp(2j * pi * rng.uniform())
        assert endo_dimension(canonical_nodal(n1, n2, lam)) == 1


@pytest.mark.parametrize("n1,n2", COPRIME_PAIRS)
def test_simplicity_certificate_cusp(n1, n2):
    rng = np.random.default_rng(n1 * 100 + n2)
    for _ in range(5):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert endo_dimension(canonical_cusp(n1, n2, lam)) == 1


def test_non_simple_nodal_example():
    # blocks (2, 2), m(0) = [[0, I], [X, 0]] with X a nontrivial Jordan block
    x = np.array([[1, 1], [0, 1]], dtype=complex)
    m0 = np.zeros((4, 4), dtype=complex)
    m0[:2, 2:] = np.eye(2)
    m0[2:, :2] = x
    t = NodalTriple(2, 2, m0, np.eye(4))
    assert endo_dimension(t) > 1


def test_rank_deficient_offdiagonal_is_not_simple():
    m0 = np.array([[1, 0], [0, 1]], dtype=complex)  # M12 = 0, not full rank
    t = NodalTriple(1, 1, m0, np.eye(2))
    assert endo_dimension(t) > 1
    assert offdiag_block_rank(t) == 0


# --- Atiyah bundles ------------------------------------------------------------

def test_atiyah_rank_one_is_trivial():
    t = atiyah_nodal(1)
    assert np.array_equal(t.m0, np.eye(1))
    assert endo_dimension(t) == 1


def test_atiyah_rank_two():
    t = atiyah_nodal(2)
    assert np.array_equal(t.m0, np.array([[1, 1], [0, 1]], dtype=complex))
    assert np.array_equal(t.mInf, np.eye(2))
    # End(A_2) = C[t]/t^2
    assert endo_dimension(t) == 2
    assert det_triple(t) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_atiyah_endo_dimension_is_rank(m):
    assert endo_dimension(atiyah_nodal(m)) == m


# --- Jacobian-compatible families ------------------------------------------------

def test_jacobian_nodal_displayed():
    t = jacobian_form("nodal", 1, 1, 0.5)
    assert np.array_equal(t.m0, np.array([[0, 0.5], [0.5, 0]], dtype=complex))


def test_jacobian_nodal_scaling():
    beta, tv = 1.7 - 0.2j, 0.8 + 0.1j
    a = jacobian_form_nodal(2, 3, beta * tv).m0
    b = jacobian_form_nodal(2, 3, tv).m0
    assert np.allclose(a, beta * b)


@pytest.mark.parametrize("n1,n2", [(1, 1), (3, 2), (2, 5)])
def test_jacobian_nodal_det_branch(n1, n2):
    tv = 0.83 * np.exp(0.4j)
    n = n1 + n2
    d = det_triple(jacobian_form_nodal(n1, n2, tv))
    assert min(abs(d - tv**n), abs(d + tv**n)) < 1e-12


def test_jacobian_cusp_displayed():
    t = jacobian_form("cuspidal", 1, 1, 0.9)
    assert np.allclose(t.mEps, np.array([[0.45, 1], [0, 0.45]], dtype=complex))


def test_jacobian_cusp_shift_compatibility():
    lam, beta = 0.4 + 0.2j, -0.6
    n1, n2 = 3, 2
    n = n1 + n2
    a = jacobian_form_cusp(n1, n2, n * beta + lam).mEps
    b = jacobian_form_cusp(n1, n2, lam).mEps + beta * np.eye(n)
    assert np.allclose(a, b)
    assert det_triple(jacobian_form_cusp(n1, n2, lam)) == pytest.approx(lam)
    assert endo_dimension(jacobian_form_cusp(n1, n2, lam)) == 1


# --- automorphy factors ----------------------------------------------------------

def test_automorphy_2_1_shape():
    tau = 1.1j
    phi = automorphy(2, 1, 0.31, tau)
    z = 0.12 + 0.05j
    q = np.exp(-2j * pi * 0.31 / 2)
    phi2 = np.exp(-1j * pi * 2 * tau - 2j * pi * z)
    want = q * np.array([[0, 1], [phi2, 0]], dtype=complex)
    assert np.allclose(phi(z), want)


def test_automorphy_periodicity_and_shift():
    tau = 0.2 + 1.3j
    phi = automorphy(3, 2, 0.21 - 0.05j, tau)
    z = 0.4 + 0.2j
    assert np.allclose(phi(z + 1), phi(z), atol=1e-10)
    y = 0.17 + 0.08j
    shifted = automorphy(3, 2, 0.21 - 0.05j + 3 * y, tau)
    assert np.allclose(np.exp(-2j * pi * y) * phi(z), shifted(z), atol=1e-10)


def test_automorphy_requires_coprime():
    with pytest.raises(ValueError):
        automorphy(4, 2, 0.1, 1j)


def test_line_bundle_section_vanishes_at_y():
    tau = 1.1j
    p = ThetaParams(tau)
    y = 0.23 + 0.06j
    # theta_y(z) = theta_3(z + (1+tau)/2 - y) has its only zero at z = y
    assert abs(theta_j(3, y + (1 + tau) / 2 - y, p)) < 1e-13
    psi = line_bundle_factor(y, tau)
    z = 0.4 - 0.1j
    f = lambda w: theta_j(3, w + (1 + tau) / 2 - y, p)
    assert abs(f(z + tau) - psi(z) * f(z)) < 1e-10


def test_triple_validation():
    with pytest.raises(ValueError):
        NodalTriple(1, 1, np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        CuspTriple(1, 1, np.zeros((3, 3)))
