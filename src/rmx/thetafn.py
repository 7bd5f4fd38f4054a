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
at the argument u = pi*theta_3(0)^2 * z.
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
    windows = np.array([_window(a, w, tau, p.tol) for w in flat.tolist()])
    out = np.empty(flat.shape, dtype=complex)
    for n_max in set(windows.tolist()):
        rows = windows == n_max
        n = np.arange(-n_max, n_max + 1, dtype=float) + a
        terms = np.exp(PI_I * n * n * tau + TWO_PI_I * n * flat[rows, None])
        if deriv:
            terms = terms * (TWO_PI_I * n) ** deriv
        # sum each row smallest-first for a touch of accuracy
        order = np.argsort(np.abs(terms), axis=1)
        out[rows] = terms[np.arange(len(terms))[:, None], order].sum(axis=1)
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


# theta values at moderate arguments are O(1); a denominator this small is
# a numerical zero of a theta function, i.e. a pole of the quotient over it
_POLE_EPS = 1e-13


class PoleError(ZeroDivisionError):
    """A function was evaluated at (numerically) one of its poles."""


def pole_guard(den: complex, name: str, **at) -> complex:
    """den, the denominator of `name` at the point `at`, unless it is a
    numerical zero: that is a pole of `name`, raised as PoleError."""
    if abs(den) < _POLE_EPS:
        where = ", ".join(f"{k}={v}" for k, v in at.items())
        raise PoleError(f"{name} pole at {where}")
    return den


# Jacobi function -> (j0, j, k0) of theta_j0(0) theta_j(z) / (theta_k0(0) theta_4(z))
_QUOTIENTS = {"sn": (3, 1, 2), "cn": (4, 2, 2), "dn": (4, 3, 3)}


def jacobi_quotient(name: str, z: complex, at0: dict, atz: dict) -> complex:
    """The Jacobi function `name` at z from theta_k(0) = at0[k] and
    theta_k(z) = atz[k]; a numerically zero denominator is its pole."""
    j0, j, k0 = _QUOTIENTS[name]
    return at0[j0] * atz[j] / pole_guard(at0[k0] * atz[4], name, z=z)


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
