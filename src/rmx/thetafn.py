# src/rmx/thetafn.py

"""Jacobi theta functions with characteristics and the derived elliptic
functions sn, cn, dn.

Conventions:
    theta[a,b](z|tau) = sum_n exp(pi*i*(n+a)^2*tau + 2*pi*i*(n+a)*(z+b))

with the classical four theta functions given by

    theta_1 = -theta[1/2,1/2],  theta_2 = theta[1/2,0],
    theta_3 =  theta[0,0],      theta_4 = theta[0,1/2],

and

    cn(z) = theta_4(0) theta_2(z) / (theta_2(0) theta_4(z)),
    sn(z) = theta_3(0) theta_1(z) / (theta_2(0) theta_4(z)),
    dn(z) = theta_4(0) theta_3(z) / (theta_3(0) theta_4(z)).

These are the classical Jacobi functions taken at the unscaled argument z;
the textbook functions of modulus k = theta_2(0)^2/theta_3(0)^2 are recovered
at the argument u = pi*theta_3(0)^2 * z (see ARG_SCALE below).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log, pi, sqrt

import numpy as np

TWO_PI_I = 2j * pi
PI_I = 1j * pi


@dataclass(frozen=True)
class ThetaParams:
    """Half-period ratio tau (Im tau > 0) and series truncation tolerance."""

    tau: complex
    tol: float = 1e-14

    def __post_init__(self):
        if complex(self.tau).imag <= 0:
            raise ValueError(f"tau must have positive imaginary part, got {self.tau}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def _window(a: float, z: complex, tau: complex, tol: float) -> int:
    """Symmetric summation bound N: terms with |n+a| >= N are below tol.

    The term modulus is exp(-pi Im(tau) (n+a)^2 + 2 pi |Im(z+b)| |n+a|); solve
    the quadratic for the crossing point and add guard terms.
    """
    im_t = complex(tau).imag
    im_z = abs(complex(z).imag)
    t0 = (im_z + sqrt(im_z * im_z + im_t * log(1.0 / tol) / pi)) / im_t
    return int(ceil(t0 + abs(a))) + 5


def theta_char(a, b, z, p: ThetaParams, deriv: int = 0):
    """Mumford theta with characteristics theta[a,b](z|tau).

    a and b are real characteristics, read as floats (Fraction(1, 3) and
    1/3 give the same value).
    deriv > 0 returns the term-wise d^deriv/dz^deriv of the series.
    z is a number (the value is a complex) or an array (an array of the same
    shape).  Each element is summed over its own window, smallest term
    first, so an array element equals the value at that z bit for bit.
    """
    a, b = float(a), float(b)
    tau = complex(p.tau)
    zb = np.asarray(z, dtype=complex) + b
    flat = zb.reshape(-1)
    windows = [_window(a, w, tau, p.tol) for w in flat.tolist()]
    out = np.empty(flat.shape, dtype=complex)
    for n_max in set(windows):
        rows = [i for i, w in enumerate(windows) if w == n_max]
        n = np.arange(-n_max, n_max + 1, dtype=float) + a
        terms = np.exp(PI_I * n * n * tau + TWO_PI_I * n * flat[rows, None])
        if deriv:
            terms = terms * (TWO_PI_I * n) ** deriv
        # sum each row smallest-first for a touch of accuracy
        order = np.argsort(np.abs(terms), axis=1)
        out[rows] = terms[np.arange(len(rows))[:, None], order].sum(axis=1)
    return complex(out[0]) if zb.ndim == 0 else out.reshape(zb.shape)


_JACOBI_CHARS = {
    1: (0.5, 0.5, -1),
    2: (0.5, 0.0, 1),
    3: (0.0, 0.0, 1),
    4: (0.0, 0.5, 1),
}


def theta_j(j: int, z, p: ThetaParams, deriv: int = 0):
    """Classical Jacobi theta_j(z|tau), j in 1..4 (optionally differentiated),
    at a number or an array z as theta_char."""
    try:
        a, b, sign = _JACOBI_CHARS[j]
    except KeyError:
        raise ValueError(f"theta index must be 1..4, got {j}") from None
    return sign * theta_char(a, b, z, p, deriv=deriv)


def theta1_prime_at_0(p: ThetaParams) -> complex:
    return theta_j(1, 0.0, p, deriv=1)


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


# theta values at moderate arguments are O(1); a denominator this small is
# a numerical zero of theta_4 (or theta_2(0)), i.e. a pole of the quotient
_POLE_EPS = 1e-13


# Jacobi function -> (j0, j, k0) of theta_j0(0) theta_j(z) / (theta_k0(0) theta_4(z))
_QUOTIENTS = {"sn": (3, 1, 2), "cn": (4, 2, 2), "dn": (4, 3, 3)}


def jacobi_quotient(name: str, z: complex, at0: dict, atz: dict) -> complex:
    """The Jacobi function `name` at z from theta_k(0) = at0[k] and
    theta_k(z) = atz[k]; a numerically zero denominator is its pole."""
    j0, j, k0 = _QUOTIENTS[name]
    den = at0[k0] * atz[4]
    if abs(den) < _POLE_EPS:
        raise ZeroDivisionError(f"{name} pole at z={z}")
    return at0[j0] * atz[j] / den


def _jacobi(name: str, z: complex, p: ThetaParams) -> complex:
    j0, j, k0 = _QUOTIENTS[name]
    return jacobi_quotient(name, z, {k: theta_j(k, 0, p) for k in (k0, j0)},
                           {k: theta_j(k, z, p) for k in (4, j)})


def sn(z: complex, p: ThetaParams) -> complex:
    return _jacobi("sn", z, p)


def cn(z: complex, p: ThetaParams) -> complex:
    return _jacobi("cn", z, p)


def dn(z: complex, p: ThetaParams) -> complex:
    return _jacobi("dn", z, p)


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
