# src/rmx/catalog.py

"""Closed-form evaluators for the named r-matrix solutions.

Each entry is an RSolution: an evaluatable family (spectral parameters) ->
Tensor2 with a declared arity; its evaluator takes ARITY_PARAMS[arity], and
its evaluate_rows any number of such rows at once, of which the evaluator is
the one-row case:

    "vdiff_ydiff"   r(v; y)        associative, difference in both slots
    "vdiff_y12"     r(v; y1, y2)   associative, difference in v only
    "v12_y12"       r(v1,v2;y1,y2) associative, no reduction
    "cl_ydiff"      r(y)           classical, difference form
    "cl_y12"        r(y1, y2)      classical, two-point form

Trigonometric entries are written with complex exponentials directly so the
catalog stays independent of the theta-function code paths used by the
construction engines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .tensorcore import E11, E12, E21, E22, GAMMA, H, ID2, SIGMA, Tensor2
from .thetafn import ThetaParams, jacobi_quotient, pole_guard, theta_j, theta1_prime_at_0


def _basis(t: Tensor2) -> np.ndarray:
    """The coefficient array of a constant tensor, made read-only."""
    t.coeffs.flags.writeable = False
    return t.coeffs


# Constant (2,2,2,2) coefficient arrays of the closed forms, built once with
# the same tensor sums as the formulas spell them.  A closed form computes
# each row's scalar factors in Python; its basis sum multiplies these arrays
# by them (_columns) and sums the terms in the formula's order, for all rows
# at once.
_S = Tensor2.simple
_ID_ID = _basis(_S(ID2, ID2))
_H_H, _SIGMA_SIGMA = _basis(_S(H, H)), _basis(_S(SIGMA, SIGMA))
_GAMMA_GAMMA = _basis(_S(GAMMA, GAMMA))
_E12_E12, _E21_E21 = _basis(_S(E12, E12)), _basis(_S(E21, E21))
_E12_E21, _E21_E12 = _basis(_S(E12, E21)), _basis(_S(E21, E12))
_H_E21, _E21_H = _basis(_S(H, E21)), _basis(_S(E21, H))
_DIAG = _basis(_S(E11, E11) + _S(E22, E22))
_CROSS = _basis(_S(E11, E22) + _S(E22, E11))
_OFF = _basis(_S(E12, E21) + _S(E21, E12))
_DIAG_OFF = _basis(_S(E11, E11) + _S(E22, E22) + _S(E12, E21) + _S(E21, E12))
_CASIMIR = _basis(0.5 * _S(H, H) + _S(E12, E21) + _S(E21, E12))
_E21H_HE21 = _basis(_S(E21, H) + _S(H, E21))
_E12H_HE12 = _basis(_S(E12, H) - _S(H, E12))
# e_i (x) e_j for the ordered sl2 basis (h, e12, e21), stacked (3, 3, 2, 2, 2, 2)
_SL2 = (H, E12, E21)
_SL2_BASIS = np.array([[_S(a, b).coeffs for b in _SL2] for a in _SL2])
_SL2_BASIS.flags.writeable = False


def _csin(z):
    return np.sin(complex(z))


def _ccos(z):
    return np.cos(complex(z))


def _columns(factors: list) -> np.ndarray:
    """The scalar factors of k rows (k tuples) as columns f[i] of shape (k,
    1, 1, 1, 1), which a closed form multiplies with its basis arrays and
    sums in the formula's order: every element sees the one-row arithmetic,
    so each row equals its one-row stack bit for bit."""
    return np.array(factors, dtype=complex).T[..., None, None, None, None]


def _closed_form(factors: Callable, basis_sum: Callable) -> tuple:
    """(one-row evaluator, evaluate_rows) of the closed form basis_sum(f),
    f the _columns of the rows' factors(*row).  The evaluator takes the
    signature of factors and is the one-row case of the rows."""
    def rows(rs):
        return basis_sum(_columns([factors(*r) for r in rs]))

    @functools.wraps(factors)
    def one(*row):
        return Tensor2(2, rows([row])[0])
    return one, rows


@dataclass(frozen=True)
class RSolution:
    name: str
    arity: str
    n: int
    evaluator: Callable[..., Tensor2]
    params: dict = field(default_factory=dict)
    # rows -> the (k, n, n, n, n) coefficient stack of the terms
    # evaluator(*row) of k parameter rows, in order, equal to them bit for
    # bit.  Set for every catalog entry, whose evaluator is its one-row case,
    # and for the glued engines up to their stacking rank
    # (rmatrix.engine_solution); None: one evaluator call per row
    evaluate_rows: Callable[[list], np.ndarray] | None = None

    def __call__(self, *args) -> Tensor2:
        return self.evaluator(*args)


# arity -> the evaluator's spectral parameters, in order
ARITY_PARAMS = {
    "vdiff_ydiff": ("v", "y"),
    "vdiff_y12": ("v", "y1", "y2"),
    "v12_y12": ("v1", "v2", "y1", "y2"),
    "cl_ydiff": ("y",),
    "cl_y12": ("y1", "y2"),
}


# view -> arity it takes -> the map of a row of the view's spectral
# parameters to the evaluator's arguments (None: the row is the arguments)
_ROW_ARGS = {
    "as_four_param": {"v12_y12": None,
                      "vdiff_y12": lambda v1, v2, y1, y2: (v2 - v1, y1, y2),
                      "vdiff_ydiff": lambda v1, v2, y1, y2: (v2 - v1, y2 - y1)},
    "as_three_param": {"vdiff_y12": None,
                       "vdiff_ydiff": lambda v, y1, y2: (v, y2 - y1)},
    "as_two_point": {"cl_y12": None, "cl_ydiff": lambda y1, y2: (y2 - y1,)},
}


def _one_row(sol: RSolution, as_view: str, error: str) -> Callable[..., Tensor2]:
    """The term at a row of the parameters of the view named as_view: sol's
    evaluator itself when the row is its arguments; an arity the view does
    not take raises ValueError(error)."""
    if sol.arity not in _ROW_ARGS[as_view]:
        raise ValueError(error)
    to_args = _ROW_ARGS[as_view][sol.arity]
    return sol.evaluator if to_args is None else lambda *row: sol.evaluator(*to_args(*row))


def as_four_param(sol: RSolution) -> Callable[[complex, complex, complex, complex], Tensor2]:
    """Uniform 4-parameter view r(v1, v2; y1, y2) of a solution."""
    return _one_row(sol, "as_four_param", f"solution {sol.name!r} has classical arity "
                    f"{sol.arity!r}; not an associative r-matrix")


def as_three_param(sol: RSolution) -> Callable[[complex, complex, complex], Tensor2]:
    """The r(v; y1, y2) view of a v-difference solution."""
    return _one_row(sol, "as_three_param", f"solution {sol.name!r} has arity "
                    f"{sol.arity!r}; needs a v-difference solution r(v; y1, y2)")


def as_two_point(sol: RSolution) -> Callable[[complex, complex], Tensor2]:
    """The r(y1, y2) view of a classical solution."""
    return _one_row(sol, "as_two_point", f"{sol.name!r} is not a classical solution")


def view(sol: RSolution, as_view: Callable) -> tuple:
    """(one, rows) of the view as_view (as_four_param, as_three_param or
    as_two_point) of sol: one = as_view(sol), the term at one row of the
    view's parameters, and rows(list of rows), the (k, n, n, n, n)
    coefficient stack of their terms in order.  rows is one
    sol.evaluate_rows call when sol has one, otherwise one call of one per
    row, in order."""
    one = as_view(sol)
    to_args = _ROW_ARGS[as_view.__name__][sol.arity]

    def rows(rs):
        if sol.evaluate_rows is None:
            return np.array([one(*r).coeffs for r in rs])
        return sol.evaluate_rows(rs if to_args is None else [to_args(*r) for r in rs])
    return one, rows


# --- associative solutions ---------------------------------------------------

def _ell21(rows, p: ThetaParams, t1p: complex) -> np.ndarray:
    """Coefficient stack of the elliptic rank-2 degree-1 solution at the
    (v, y) of rows, normalized so res_v = (1/4) 1(x)1; t1p = theta_1'(0).  One
    theta_j call per index takes every row's points.  A numerically zero
    theta denominator (theta_1(y), theta_j(v)) is a pole, raised at the first
    row that has one."""
    t1 = theta_j(1, [z for v, y in rows for z in (y + v, v, y)], p).tolist()
    tj = {j: theta_j(j, [z for v, y in rows for z in (y + v, v)], p).tolist()
          for j in (2, 3, 4)}
    factors = []
    for i, (v, y) in enumerate(rows):
        pref = 0.25 * t1p / pole_guard(t1[3 * i + 2], "ell21", y=y)
        factors.append([pref * (t1[3 * i] / pole_guard(t1[3 * i + 1], "ell21", v=v))]
                       + [pref * (tj[j][2 * i] / pole_guard(tj[j][2 * i + 1], "ell21", v=v))
                          for j in (2, 3, 4)])
    f = _columns(factors)
    return _ID_ID * f[0] + _H_H * f[1] + _SIGMA_SIGMA * f[2] + _GAMMA_GAMMA * f[3]


def elliptic_closed_form(x, y, p: ThetaParams) -> Tensor2:
    """Elliptic solution in the half-argument normalization produced by the
    rank-2 degree-1 construction: prefactor 1/2 and theta ratios at (y+x/2, x/2).
    That is 2 * ell21(x/2, y)."""
    return Tensor2(2, _ell21([(x / 2, y)], p, theta1_prime_at_0(p))[0] * 2)


def _ell21_classical(ys, p: ThetaParams, at0: dict) -> np.ndarray:
    """Coefficient stack of the classical elliptic solution at the y of ys;
    at0[k] = theta_k(0) for k = 2, 3, 4.  One theta_j call per index takes
    every point."""
    aty = {k: theta_j(k, ys, p).tolist() for k in (1, 2, 3, 4)}
    factors = []
    for i, y in enumerate(ys):
        at = {k: t[i] for k, t in aty.items()}
        s = pole_guard(jacobi_quotient("sn", y, at0, at), "ell21_classical", y=y)
        c = jacobi_quotient("cn", y, at0, at)
        factors.append((c / s, 1.0 / s, jacobi_quotient("dn", y, at0, at) / s))
    f = _columns(factors)
    return (_H_H * f[0] + _GAMMA_GAMMA * f[1] + _SIGMA_SIGMA * f[2]) * 0.5


# Each closed form below gives its row's scalar factors, in the order of the
# bases of the basis sum _closed_form pairs it with.

def _trg21(v, y):
    sv, sy, syv = _csin(v), _csin(y), _csin(y + v)
    return syv / (sy * sv), 1.0 / sv, 1.0 / sy, syv


def nodal21_multiplicative(lam, y1, y2) -> Tensor2:
    """Rank-2 degree-1 nodal solution before the sqrt-y gauge, lam = lam2/lam1."""
    lam, y1, y2 = complex(lam), complex(y1), complex(y2)
    dy = y2 - y1
    a = (y2 - lam**2 * y1) / (dy * (1 - lam**2))
    return Tensor2(2, _DIAG * a + _CROSS * (lam / (1 - lam**2)) + _E21_E12 * (y1 / dy)
                   + _E12_E21 * (y2 / dy) + _E21_E21 * ((y2 - lam**2 * y1) / lam))


def semistable20_multiplicative(lam, y) -> Tensor2:
    """Rank-2 degree-0 semistable nodal solution, lam = lam2/lam1, y = y2/y1."""
    lam, y = complex(lam), complex(y)
    a = (y - lam) / ((y - 1) * (1 - lam))
    return Tensor2(2, _DIAG_OFF * a + _E12H_HE12 * (lam / (1 - lam) ** 2)
                   - _E12_E12 * (lam * (1 + lam) / (1 - lam) ** 3))


def _cherednik(y):
    sy = _csin(y)
    return 0.5 * _ccos(y) / sy, 1.0 / sy, sy


def _rat21(v, y1, y2):
    lam, y1, y2 = complex(v), complex(y1), complex(y2)
    return (1 / (2 * lam), 1 / (y2 - y1), (lam - y1) / 2, (lam + y2) / 2,
            lam * (lam - y1) * (lam + y2) / 2)


def _stolin(y1, y2):
    y1, y2 = complex(y1), complex(y2)
    return 1 / (y2 - y1), y2 / 2, y1 / 2


def _stolin_difference(y):
    y = complex(y)
    return 1 / y, y, y**3


def _yang(y):
    return (1 / complex(y),)


def _rat21_degenerate(v, y):
    v, y = complex(v), complex(y)
    return 1 / (2 * v), 1 / y


def _trg20(v, y):
    sv, sy = _csin(v), _csin(y)
    return _csin(y + v) / (2 * sy * sv), 1 / (2 * sv**2), _ccos(v) / sv**3


# --- gauge used to bring Stolin's solution to difference form ---------------

def stolin_gauge(y) -> np.ndarray:
    """Matrix of the sl2 automorphism phi(y) in the ordered basis
    (h, e12, e21):

        phi(y) h   = h - 2 y^2 e21
        phi(y) e12 = (y^2/4) h + (1/4) e12 - (y^4/4) e21
        phi(y) e21 = 4 e21

    The h-component of phi(y)e12 is forced by phi being a Lie algebra
    automorphism ([phi h, phi e12] = phi [h, e12] pins it to +y^2/4).
    """
    y = complex(y)
    return np.array([
        [1, (y**2) / 4, 0],
        [0, 0.25, 0],
        [-2 * y**2, -(y**4) / 4, 4],
    ], dtype=complex)


def apply_sl2_automorphism(mat3: np.ndarray, t: Tensor2, leg: int) -> Tensor2:
    """Apply an sl2 automorphism (3x3 matrix in the ordered basis h, e12,
    e21) to one tensor leg.  The tensor must lie in sl2 (x) sl2."""
    # coordinates: for traceless M = a*h + b*e12 + c*e21 we have
    # a = M[0,0], b = M[0,1], c = M[1,0]
    rows, cols = np.array([0, 0, 1]), np.array([0, 1, 0])
    coords = t.coeffs[rows[:, None], cols[:, None], rows, cols]
    if leg == 1:
        coords = mat3 @ coords
    elif leg == 2:
        coords = coords @ mat3.T
    else:
        raise ValueError("leg must be 1 or 2")
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(3):
        for j in range(3):
            out = out + _SL2_BASIS[i, j] * coords[i, j]
    return Tensor2(2, out)


# --- registry ---------------------------------------------------------------

DEFAULT_TAU = 1.1j

# associative solution -> (classical partner, scale(tau) with pr(x)pr r_0 =
# scale * partner, r_0 the order-0 coefficient in v; None: 1).  ell21_classical
# lacks the argument scale pi theta_3(0)^2 (its Casimir residue is its
# inverse); the 1/2 is ell21's own res_v = (1/4) 1(x)1.
_CLASSICAL_PARTNER = {
    "ell21": ("ell21_classical",
              lambda tau: np.pi * theta_j(3, 0.0, ThetaParams(tau)) ** 2 / 2),
    "trg21": ("cherednik", None),
    "rat21": ("stolin", None),
    "rat21_degenerate": ("yang", None),
}

# (trg, rat) of the one recorded degeneration (1/t) trg(y/t) -> rat(y)
_DEGENERATION = ("cherednik", "yang")

NAMES = (
    "ell21", "trg21", "rat21", "trg20_semistable", "ell21_classical",
    "cherednik", "stolin", "stolin_difference_s", "yang", "rat21_degenerate",
)

# name -> (arity, (evaluator, evaluate_rows)) of the rank-2 entries that take
# no tau, with each entry's pole locus
_FIXED = {
    "trg21": ("vdiff_ydiff", _closed_form(                # v, y = 0 mod pi
        _trg21, lambda f: _DIAG * f[0] + _CROSS * f[1] + _OFF * f[2] + _E21_E21 * f[3])),
    "cherednik": ("cl_ydiff", _closed_form(               # y = 0 mod pi
        _cherednik, lambda f: _H_H * f[0] + _OFF * f[1] + _E21_E21 * f[2])),
    "rat21": ("vdiff_y12", _closed_form(                  # v = 0, y1 = y2
        _rat21, lambda f: (_ID_ID * f[0] + _DIAG_OFF * f[1] + _E21_H * f[2]
                           + _H_E21 * f[3] - _E21_E21 * f[4]))),
    "stolin": ("cl_y12", _closed_form(                    # y1 = y2
        _stolin, lambda f: _CASIMIR * f[0] + _H_E21 * f[1] - _E21_H * f[2])),
    "stolin_difference_s": ("cl_ydiff", _closed_form(     # y = 0
        _stolin_difference, lambda f: _CASIMIR * f[0] + _E21H_HE21 * f[1] - _E21_E21 * f[2])),
    "yang": ("cl_ydiff", _closed_form(_yang, lambda f: _CASIMIR * f[0])),  # y = 0
    "rat21_degenerate": ("vdiff_ydiff", _closed_form(     # v = 0, y = 0
        _rat21_degenerate, lambda f: _ID_ID * f[0] + _DIAG_OFF * f[1])),
    "trg20_semistable": ("vdiff_ydiff", _closed_form(     # v, y = 0 mod pi; order 3 in v
        _trg20, lambda f: _DIAG_OFF * f[0] + _E12H_HE12 * f[1] - _E12_E12 * f[2])),
}


def get(name: str, tau: complex = DEFAULT_TAU) -> RSolution:
    """Look up a named solution.  tau only matters for the elliptic entries.
    Every entry's evaluator is the one-row case of its evaluate_rows."""
    if name == "ell21":      # poles at v = 0, y = 0 (mod lattice)
        p = ThetaParams(tau)
        t1p = theta1_prime_at_0(p)
        rows = lambda rs: _ell21(rs, p, t1p)
        return RSolution(name, "vdiff_ydiff", 2, lambda v, y: Tensor2(2, rows([(v, y)])[0]),
                         params={"tau": tau}, evaluate_rows=rows)
    if name == "ell21_classical":      # pole at y = 0 (mod lattice)
        p = ThetaParams(tau)
        at0 = {k: theta_j(k, 0, p) for k in (2, 3, 4)}
        rows = lambda rs: _ell21_classical([y for y, in rs], p, at0)
        return RSolution(name, "cl_ydiff", 2, lambda y: Tensor2(2, rows([(y,)])[0]),
                         params={"tau": tau}, evaluate_rows=rows)
    if name not in _FIXED:
        raise KeyError(f"unknown solution name {name!r}; known: {', '.join(NAMES)}")
    arity, (evaluator, rows) = _FIXED[name]
    return RSolution(name, arity, 2, evaluator, evaluate_rows=rows)


def classical_of(name: str, tau: complex = DEFAULT_TAU) -> RSolution:
    """The classical (pr(x)pr, v->0) partner of a named associative solution,
    scaled to equal its limit (_CLASSICAL_PARTNER); it keeps the partner's
    name."""
    if name == "trg20_semistable":
        raise ValueError("trg20_semistable has no classical limit "
                         "(higher-order pole in v)")
    try:
        partner, scale = _CLASSICAL_PARTNER[name]
    except KeyError:
        raise ValueError(f"no classical partner recorded for {name!r}") from None
    sol, s = get(partner, tau=tau), scale and scale(tau)
    return sol if s is None else replace(sol, evaluator=lambda *a: s * sol.evaluator(*a),
                                         evaluate_rows=lambda rs: s * sol.evaluate_rows(rs))


def degeneration_of(name: str) -> tuple:
    """(trg, rat) of the recorded degeneration, named by either end."""
    if name not in _DEGENERATION:
        raise ValueError(f"no degeneration recorded for {name!r}; "
                         "the catalog records cherednik -> yang")
    return tuple(map(get, _DEGENERATION))
