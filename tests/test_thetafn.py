# tests/test_thetafn.py

from fractions import Fraction
from math import pi

import numpy as np
import pytest

from rmx import thetafn
from rmx.thetafn import (
    ThetaParams, cn, dn, sn, theta1_prime_at_0, theta_char, theta_j,
)

import oracles
from oracles import (
    SHIFT_TABLE, arg_scale, shift_residual, theta_product_identity_residual,
    watson_suite,
)

TAUS = [1.1j, 0.3 + 1.1j]


@pytest.fixture(params=TAUS)
def params(request):
    return ThetaParams(request.param)


def rand_z(rng, k=1, scale=1.0):
    z = scale * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-0.4, 0.4, k))
    return z if k > 1 else complex(z[0])


def test_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        ThetaParams(0.3 - 0.2j)
    with pytest.raises(ValueError):
        ThetaParams(0.5)


def test_theta1_vanishes_at_origin(params):
    assert abs(theta_char(Fraction(1, 2), Fraction(1, 2), 0.0, params)) < 1e-13
    assert abs(theta_j(1, 0.0, params)) < 1e-13


def test_theta_char_matches_classical_series(params):
    rng = np.random.default_rng(1)
    for z in rand_z(rng, 8):
        tau = params.tau
        assert abs(theta_j(1, z, params) - oracles.theta1_sine_series(z, tau)) < 1e-11
        assert abs(theta_j(2, z, params) - oracles.theta2_cosine_series(z, tau)) < 1e-11
        assert abs(theta_j(3, z, params) - oracles.theta3_cosine_series(z, tau)) < 1e-11
        assert abs(theta_j(4, z, params) - oracles.theta4_cosine_series(z, tau)) < 1e-11


@pytest.mark.parametrize("a,b", [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), 0),
                                 (Fraction(-2, 5), Fraction(1, 7))])
def test_fraction_and_float_characteristics_agree(params, a, b):
    # characteristics are read as floats: a Fraction gives its float's value
    for z in (0.0, 0.31 - 0.12j, 1.4 + 0.3j):
        for deriv in (0, 1):
            assert theta_char(a, b, z, params, deriv) == \
                theta_char(float(a), float(b), z, params, deriv)


def test_period_one(params):
    rng = np.random.default_rng(2)
    for z in rand_z(rng, 10):
        assert abs(theta_char(0, 0, z + 1, params) - theta_char(0, 0, z, params)) < 1e-12


def test_parity(params):
    rng = np.random.default_rng(3)
    for z in rand_z(rng, 10):
        assert abs(theta_j(1, -z, params) + theta_j(1, z, params)) < 1e-12
        assert abs(theta_j(3, -z, params) - theta_j(3, z, params)) < 1e-12


def test_full_shift_table(params):
    rng = np.random.default_rng(4)
    zs = rand_z(rng, 100)
    worst = 0.0
    for z in zs:
        for j in (1, 2, 3, 4):
            for shift in SHIFT_TABLE[j]:
                worst = max(worst, shift_residual(j, shift, z, params))
    assert worst < 1e-10


def test_theta1_prime_product_identity():
    # theta_1'(0) = pi * theta_2 theta_3 theta_4 (0); the pi is forced by
    # comparing the term-wise differentiated series with the product
    p = ThetaParams(0.3 + 1.1j)
    assert theta_product_identity_residual(p) < 1e-10
    direct = 2 * np.exp(1j * np.pi * p.tau / 4) * sum(
        (-1) ** n * np.exp(1j * np.pi * p.tau * n * (n + 1)) * (2 * n + 1) * np.pi
        for n in range(40))
    assert abs(theta1_prime_at_0(p) - direct) < 1e-11


def test_basic_theta_quasi_periodicity(params):
    # theta_3 spans the sections of L(phi_0), phi_0(z) = exp(-pi i tau - 2 pi i z)
    rng = np.random.default_rng(5)
    tau = params.tau
    for z in rand_z(rng, 10):
        phi0 = np.exp(-1j * pi * tau - 2j * pi * z)
        assert abs(theta_j(3, z + tau, params) - phi0 * theta_j(3, z, params)) < 1e-11


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_characteristic_basis_of_higher_degree_sections(params, ell):
    # f_a(z) = theta[a/ell, 0](ell z | ell tau) satisfies f(z+1) = f(z) and
    # f(z+tau) = phi_0(z)^ell f(z); the family is linearly independent
    tau = params.tau
    p_ell = ThetaParams(ell * tau, params.tol)
    rng = np.random.default_rng(6)

    def f(a, z):
        return theta_char(Fraction(a, ell), 0, ell * z, p_ell)

    for z in rand_z(rng, 5, scale=0.5):
        phi0_l = np.exp((-1j * pi * tau - 2j * pi * z) * ell)
        for a in range(ell):
            assert abs(f(a, z + 1) - f(a, z)) < 1e-10
            assert abs(f(a, z + tau) - phi0_l * f(a, z)) < 1e-9 * max(1.0, abs(phi0_l))
    zs = rand_z(rng, ell, scale=0.5)
    gram = np.array([[f(a, z) for a in range(ell)] for z in np.atleast_1d(zs)])
    sv = np.linalg.svd(gram, compute_uv=False)
    assert sv[-1] > 1e-8 * sv[0]


def test_truncation_refinement(params):
    # doubling the retained terms (via a much smaller tol) changes nothing
    rough = ThetaParams(params.tau, tol=1e-8)
    fine = ThetaParams(params.tau, tol=1e-16)
    rng = np.random.default_rng(7)
    for z in rand_z(rng, 10):
        assert abs(theta_j(3, z, rough) - theta_j(3, z, fine)) < 1e-8


# --- sn / cn / dn ------------------------------------------------------------

def test_jacobi_functions_at_zero(params):
    assert abs(sn(0.0, params)) < 1e-13
    assert abs(cn(0.0, params) - 1) < 1e-13
    assert abs(dn(0.0, params) - 1) < 1e-13


def test_sncn_squares(params):
    rng = np.random.default_rng(8)
    k = theta_j(2, 0, params) ** 2 / theta_j(3, 0, params) ** 2
    for z in rand_z(rng, 10, scale=0.4):
        assert abs(sn(z, params) ** 2 + cn(z, params) ** 2 - 1) < 1e-12
        assert abs(dn(z, params) ** 2 + k**2 * sn(z, params) ** 2 - 1) < 1e-12


def test_pole_raises():
    p = ThetaParams(1.1j)
    # theta_4 vanishes at tau/2
    with pytest.raises(thetafn.PoleError, match="sn pole"):
        sn(p.tau / 2, p)


@pytest.mark.parametrize("den", [complex("nan+1j"), complex("1+nanj"), complex("inf-infj"),
                                 complex("nan+infj")])
def test_pole_guard_passes_non_finite_denominators(den):
    # abs of a complex with a NaN part may raise OverflowError from a stale
    # C errno, so pole_guard tests finiteness first (see test_catalog's
    # theta-overflow test for the path where that happened)
    assert repr(thetafn.pole_guard(den, "f", z=0)) == repr(den)


# --- Watson / Landen ---------------------------------------------------------

def test_watson_suite_random_points(params):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        x, y = rand_z(rng), rand_z(rng)
        worst = max(worst, watson_suite(x, y, params)["max"])
    assert worst < 1e-10


def test_watson_antisymmetry_at_equal_arguments():
    p = ThetaParams(1.0j)
    x = 0.31 + 0.05j
    p2 = ThetaParams(2.0j)
    lhs = theta_j(3, 2 * x, p2) * theta_j(2, 2 * x, p2) \
        - theta_j(3, 2 * x, p2) * theta_j(2, 2 * x, p2)
    assert lhs == 0
    assert abs(theta_j(1, 0, p)) < 1e-13  # rhs theta_1(x-y) factor vanishes


def test_landen_transform():
    p = ThetaParams(1.0j)
    p2 = ThetaParams(2.0j)
    rng = np.random.default_rng(10)
    for x in rand_z(rng, 10):
        lhs = theta_j(4, 0, p2) * theta_j(1, 2 * x, p2)
        rhs = theta_j(1, x, p) * theta_j(2, x, p)
        assert abs(lhs - rhs) < 1e-10


# --- Weierstrass p cross-identities -------------------------------------------

@pytest.mark.parametrize("tau", TAUS)
def test_wp_vs_jacobi_quotients(tau):
    """p(z) - e_k = s^2 * (quotient at z)^2 with s = pi theta_3(0)^2 the
    argument scale between the lattice and the theta conventions; oracle is
    the truncated Eisenstein-summed p."""
    p = ThetaParams(tau)
    cutoff = 1000
    s2 = arg_scale(p) ** 2
    rng = np.random.default_rng(11)
    zs = [complex(rng.uniform(0.1, 0.25), rng.uniform(-0.15, 0.15)) for _ in range(4)]
    e1, e2, e3, *wps = oracles.wp_lattice([0.5, tau / 2, (1 + tau) / 2, *zs], tau, cutoff)
    for z, wp in zip(zs, wps):
        assert abs(wp - e1 - s2 * (cn(z, p) / sn(z, p)) ** 2) < 1e-6
        assert abs(wp - e2 - s2 * (1.0 / sn(z, p)) ** 2) < 1e-6
        assert abs(wp - e3 - s2 * (dn(z, p) / sn(z, p)) ** 2) < 1e-6


def test_wp_half_period_criticality():
    # p'(1/2) = 0: symmetric difference quotient around the half period
    tau = 1.1j
    h = 1e-5
    plus, minus = oracles.wp_lattice([0.5 + h, 0.5 - h], tau, 300)
    d = (plus - minus) / (2 * h)
    assert abs(d) < 1e-4


# Largest error of theta_j against mpmath, relative to the sum of the term
# moduli, over 200 points per tau in this box: 2.0e-15 (9 eps).  Relative
# to |theta_j| itself it reaches 9.3e-15 where the sum cancels near a zero.
THETA_MPMATH_BOUND = 1e-14


@pytest.mark.parametrize("tau", [1.1j, 0.3 + 1.1j, 0.25 + 0.35j])
@pytest.mark.parametrize("deriv", [0, 1])
def test_theta_j_matches_mpmath_jtheta(tau, deriv):
    p = ThetaParams(tau)
    rng = np.random.default_rng(17)
    for _ in range(12):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        for j in range(1, 5):
            err = abs(theta_j(j, z, p, deriv=deriv) - oracles.theta_mpmath(j, z, tau, deriv))
            assert err <= THETA_MPMATH_BOUND * oracles.theta_term_scale(j, z, tau, deriv), (j, z)


# the array path: z = 0, real z, half periods and complex points whose
# windows differ, on upper half plane taus near and far from the real axis
ARRAY_TAUS = [1.1j, 0.3 + 1.1j, 0.25 + 0.35j, 2j, -0.4 + 0.8j, 0.5 + 0.5j]


def _array_points(tau):
    rng = np.random.default_rng(7)
    special = [0.0, 0.5, tau / 2, 0.5 + tau / 2, 1.0, -0.5]
    real = rng.uniform(-1, 1, 100)
    cplx = rng.uniform(-1, 1, 204) + 1j * rng.uniform(-0.6, 0.6, 204)
    return np.concatenate([np.array(special, dtype=complex), real, cplx])


def _theta_one_z(j, z, p, deriv):
    """theta_j at one z, summed as before theta took arrays: the terms of
    thetafn._window's range, smallest modulus first, in one np.sum."""
    a, b, sign = thetafn._JACOBI_CHARS[j]
    zb = complex(z) + b
    n_max = thetafn._window(a, zb, p.tau, p.tol)
    n = np.arange(-n_max, n_max + 1, dtype=float) + a
    terms = np.exp(thetafn.PI_I * n * n * p.tau + thetafn.TWO_PI_I * n * zb)
    if deriv:
        terms = terms * (thetafn.TWO_PI_I * n) ** deriv
    return sign * complex(np.sum(terms[np.argsort(np.abs(terms))]))


@pytest.mark.parametrize("tau", ARRAY_TAUS)
@pytest.mark.parametrize("deriv", [0, 1])
def test_array_theta_is_the_one_z_sum_bit_for_bit(tau, deriv):
    p = ThetaParams(tau)
    zs = _array_points(tau)
    for j in range(1, 5):
        want = np.array([_theta_one_z(j, z, p, deriv) for z in zs.tolist()]).view(np.uint64)
        scalar = [theta_j(j, z, p, deriv) for z in zs.tolist()]
        assert all(type(v) is complex for v in scalar)
        assert np.array_equal(np.array(scalar).view(np.uint64), want), j
        arr = theta_j(j, zs, p, deriv)
        assert arr.shape == zs.shape
        assert np.array_equal(arr.view(np.uint64), want), j


def test_array_theta_keeps_the_shape():
    p = ThetaParams(TAUS[1])
    zs = [[0.1, 0.2 + 0.3j], [0.0, -0.4j]]
    vals = theta_char(0.5, 0.0, zs, p)
    assert vals.shape == (2, 2)
    assert vals[1, 1] == theta_char(0.5, 0.0, -0.4j, p)


@pytest.mark.parametrize("tau", [1.1j, 0.3 + 1.1j, 0.25 + 0.35j])
@pytest.mark.parametrize("deriv", [0, 1])
def test_array_theta_matches_mpmath_jtheta(tau, deriv):
    p = ThetaParams(tau)
    rng = np.random.default_rng(17)
    zs = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-0.4, 0.4, 12)
    for j in range(1, 5):
        for z, val in zip(zs.tolist(), theta_j(j, zs, p, deriv=deriv).tolist()):
            err = abs(val - oracles.theta_mpmath(j, z, tau, deriv))
            assert err <= THETA_MPMATH_BOUND * oracles.theta_term_scale(j, z, tau, deriv), (j, z)
