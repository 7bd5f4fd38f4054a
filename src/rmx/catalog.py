# src/rmx/catalog.py

"""Closed-form evaluators for the named r-matrix solutions.

Each entry is an RSolution: an evaluatable family (spectral parameters) ->
Tensor2 with a declared arity; its evaluator takes ARITY_PARAMS[arity]:

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

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .tensorcore import E11, E12, E21, E22, GAMMA, H, ID2, SIGMA, Tensor2
from .thetafn import ThetaParams, jacobi_quotient, pole_guard, theta_j, theta1_prime_at_0


def _basis(t: Tensor2) -> np.ndarray:
    """The coefficient array of a constant tensor, made read-only."""
    t.coeffs.flags.writeable = False
    return t.coeffs


# Constant (2,2,2,2) coefficient arrays of the closed forms, built once with
# the same tensor sums as the formulas spell them.  Each closed form is
# scalar x array arithmetic on these, term by term in the formula's order,
# and wraps the result in one Tensor2.
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


@dataclass(frozen=True)
class RSolution:
    name: str
    arity: str
    n: int
    evaluator: Callable[..., Tensor2]
    params: dict = field(default_factory=dict)
    # rows -> the terms evaluator(*row) of any number of parameter rows, in
    # order; set for the glued engines up to rank 5 (rmatrix.engine_solution),
    # which stack them, and for ell21 and ell21_classical, which take one
    # theta pass over them; None: one evaluator call per row
    evaluate_rows: Callable[[list], Iterable[Tensor2]] | None = None

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
    view's parameters, and rows(list of rows), their terms in order.  rows
    makes one sol.evaluate_rows call when sol has one, which may evaluate
    every row before the first is read; otherwise one lazy call of one per
    row."""
    one = as_view(sol)
    to_args = _ROW_ARGS[as_view.__name__][sol.arity]

    def rows(rs):
        if sol.evaluate_rows is None:
            return (one(*r) for r in rs)
        return sol.evaluate_rows(rs if to_args is None else [to_args(*r) for r in rs])
    return one, rows


# --- associative solutions ---------------------------------------------------

def _ell21(rows, p: ThetaParams, t1p: complex) -> list:
    """Coefficients of the elliptic rank-2 degree-1 solution at each (v, y)
    of rows, normalized so res_v = (1/4) 1(x)1; t1p = theta_1'(0).  One
    theta_j call per index takes every row's points.  A numerically zero
    theta denominator (theta_1(y), theta_j(v)) is a pole, raised at the first
    row that has one."""
    t1 = theta_j(1, [z for v, y in rows for z in (y + v, v, y)], p).tolist()
    tj = {j: theta_j(j, [z for v, y in rows for z in (y + v, v)], p).tolist()
          for j in (2, 3, 4)}
    out = []
    for i, (v, y) in enumerate(rows):
        pref = 0.25 * t1p / pole_guard(t1[3 * i + 2], "ell21", y=y)
        coeffs = _ID_ID * (pref * (t1[3 * i] / pole_guard(t1[3 * i + 1], "ell21", v=v)))
        for j, basis in ((2, _H_H), (3, _SIGMA_SIGMA), (4, _GAMMA_GAMMA)):
            num, den = tj[j][2 * i:2 * i + 2]
            coeffs = coeffs + basis * (pref * (num / pole_guard(den, "ell21", v=v)))
        out.append(coeffs)
    return out


def elliptic_closed_form(x, y, p: ThetaParams) -> Tensor2:
    """Elliptic solution in the half-argument normalization produced by the
    rank-2 degree-1 construction: prefactor 1/2 and theta ratios at (y+x/2, x/2).
    That is 2 * ell21(x/2, y)."""
    return Tensor2(2, _ell21([(x / 2, y)], p, theta1_prime_at_0(p))[0] * 2)


def _ell21_classical(ys, p: ThetaParams, at0: dict) -> list:
    """The classical elliptic solution at each y of ys; at0[k] = theta_k(0)
    for k = 2, 3, 4.  One theta_j call per index takes every point."""
    aty = {k: theta_j(k, ys, p).tolist() for k in (1, 2, 3, 4)}
    out = []
    for i, y in enumerate(ys):
        at = {k: t[i] for k, t in aty.items()}
        s = pole_guard(jacobi_quotient("sn", y, at0, at), "ell21_classical", y=y)
        c = jacobi_quotient("cn", y, at0, at)
        coeffs = _H_H * (c / s) + _GAMMA_GAMMA * (1.0 / s)
        coeffs = coeffs + _SIGMA_SIGMA * (jacobi_quotient("dn", y, at0, at) / s)
        out.append(Tensor2(2, coeffs * 0.5))
    return out


def _trg21(v, y) -> Tensor2:
    sv, sy = _csin(v), _csin(y)
    out = _DIAG * (_csin(y + v) / (sy * sv))
    out = out + _CROSS * (1.0 / sv)
    out = out + _OFF * (1.0 / sy)
    out = out + _E21_E21 * _csin(y + v)
    return Tensor2(2, out)


def nodal21_multiplicative(lam, y1, y2) -> Tensor2:
    """Rank-2 degree-1 nodal solution before the sqrt-y gauge, lam = lam2/lam1."""
    lam, y1, y2 = complex(lam), complex(y1), complex(y2)
    dy = y2 - y1
    a = (y2 - lam**2 * y1) / (dy * (1 - lam**2))
    out = _DIAG * a
    out = out + _CROSS * (lam / (1 - lam**2))
    out = out + _E21_E12 * (y1 / dy) + _E12_E21 * (y2 / dy)
    out = out + _E21_E21 * ((y2 - lam**2 * y1) / lam)
    return Tensor2(2, out)


def semistable20_multiplicative(lam, y) -> Tensor2:
    """Rank-2 degree-0 semistable nodal solution, lam = lam2/lam1, y = y2/y1."""
    lam, y = complex(lam), complex(y)
    a = (y - lam) / ((y - 1) * (1 - lam))
    out = _DIAG_OFF * a
    out = out + _E12H_HE12 * (lam / (1 - lam) ** 2)
    out = out - _E12_E12 * (lam * (1 + lam) / (1 - lam) ** 3)
    return Tensor2(2, out)


def _cherednik(y) -> Tensor2:
    sy = _csin(y)
    return Tensor2(2, _H_H * (0.5 * _ccos(y) / sy) + _OFF * (1.0 / sy) + _E21_E21 * sy)


def _rat21(v, y1, y2) -> Tensor2:
    lam, y1, y2 = complex(v), complex(y1), complex(y2)
    dy = y2 - y1
    out = _ID_ID * (1 / (2 * lam))
    out = out + _DIAG_OFF * (1 / dy)
    out = out + _E21_H * ((lam - y1) / 2)
    out = out + _H_E21 * ((lam + y2) / 2)
    out = out - _E21_E21 * (lam * (lam - y1) * (lam + y2) / 2)
    return Tensor2(2, out)


def _stolin(y1, y2) -> Tensor2:
    y1, y2 = complex(y1), complex(y2)
    dy = y2 - y1
    return Tensor2(2, _CASIMIR * (1 / dy) + _H_E21 * (y2 / 2) - _E21_H * (y1 / 2))


def _stolin_difference(y) -> Tensor2:
    y = complex(y)
    return Tensor2(2, _CASIMIR * (1 / y) + _E21H_HE21 * y - _E21_E21 * y**3)


def _yang(y) -> Tensor2:
    return Tensor2(2, _CASIMIR * (1 / complex(y)))


def _rat21_degenerate(v, y) -> Tensor2:
    v, y = complex(v), complex(y)
    return Tensor2(2, _ID_ID * (1 / (2 * v)) + _DIAG_OFF * (1 / y))


def _trg20(v, y) -> Tensor2:
    sv, sy = _csin(v), _csin(y)
    out = _DIAG_OFF * (_csin(y + v) / (2 * sy * sv))
    out = out + _E12H_HE12 * (1 / (2 * sv**2))
    out = out - _E12_E12 * (_ccos(v) / sv**3)
    return Tensor2(2, out)


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

_CLASSICAL_PARTNER = {
    "ell21": "ell21_classical",
    "trg21": "cherednik",
    "rat21": "stolin",
    "rat21_degenerate": "yang",
}

# (trg, rat) of the one recorded degeneration (1/t) trg(y/t) -> rat(y)
_DEGENERATION = ("cherednik", "yang")

NAMES = (
    "ell21", "trg21", "rat21", "trg20_semistable", "ell21_classical",
    "cherednik", "stolin", "stolin_difference_s", "yang", "rat21_degenerate",
)

# name -> (arity, evaluator) of the rank-2 entries that take no tau, with
# each entry's pole locus
_FIXED = {
    "trg21": ("vdiff_ydiff", _trg21),                         # v, y = 0 mod pi
    "cherednik": ("cl_ydiff", _cherednik),                    # y = 0 mod pi
    "rat21": ("vdiff_y12", _rat21),                           # v = 0, y1 = y2
    "stolin": ("cl_y12", _stolin),                            # y1 = y2
    "stolin_difference_s": ("cl_ydiff", _stolin_difference),  # y = 0
    "yang": ("cl_ydiff", _yang),                              # y = 0
    "rat21_degenerate": ("vdiff_ydiff", _rat21_degenerate),   # v = 0, y = 0
    "trg20_semistable": ("vdiff_ydiff", _trg20),  # v, y = 0 mod pi; order 3 in v
}


def get(name: str, tau: complex = DEFAULT_TAU) -> RSolution:
    """Look up a named solution.  tau only matters for the elliptic entries."""
    # the elliptic entries evaluate one row as the one-row case of their rows
    if name == "ell21":      # poles at v = 0, y = 0 (mod lattice)
        p = ThetaParams(tau)
        t1p = theta1_prime_at_0(p)
        rows = lambda rs: [Tensor2(2, c) for c in _ell21(rs, p, t1p)]
        return RSolution(name, "vdiff_ydiff", 2, lambda v, y: rows([(v, y)])[0],
                         params={"tau": tau}, evaluate_rows=rows)
    if name == "ell21_classical":      # pole at y = 0 (mod lattice)
        p = ThetaParams(tau)
        at0 = {k: theta_j(k, 0, p) for k in (2, 3, 4)}
        rows = lambda rs: _ell21_classical([y for y, in rs], p, at0)
        return RSolution(name, "cl_ydiff", 2, lambda y: rows([(y,)])[0],
                         params={"tau": tau}, evaluate_rows=rows)
    if name not in _FIXED:
        raise KeyError(f"unknown solution name {name!r}; known: {', '.join(NAMES)}")
    arity, evaluator = _FIXED[name]
    return RSolution(name, arity, 2, evaluator)


def classical_of(name: str, tau: complex = DEFAULT_TAU) -> RSolution:
    """The classical (pr(x)pr, v->0) partner of a named associative solution."""
    if name == "trg20_semistable":
        raise ValueError("trg20_semistable has no classical limit "
                         "(higher-order pole in v)")
    try:
        partner = _CLASSICAL_PARTNER[name]
    except KeyError:
        raise ValueError(f"no classical partner recorded for {name!r}") from None
    return get(partner, tau=tau)


def degeneration_of(name: str) -> tuple:
    """(trg, rat) of the recorded degeneration, named by either end."""
    if name not in _DEGENERATION:
        raise ValueError(f"no degeneration recorded for {name!r}; "
                         "the catalog records cherednik -> yang")
    return tuple(map(get, _DEGENERATION))
