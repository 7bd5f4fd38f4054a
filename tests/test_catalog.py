# tests/test_catalog.py

import dataclasses
import hashlib
import inspect

import numpy as np
import pytest

from rmx import catalog
from rmx.catalog import apply_sl2_automorphism, stolin_gauge
from rmx.tensorcore import E12, E21, H, Tensor2, casimir, project_sl
from rmx.thetafn import PoleError, ThetaParams


def s(a, b):
    return Tensor2.simple(a, b)


def test_registry_names():
    for name in catalog.NAMES:
        sol = catalog.get(name)
        assert sol.name == name
        assert sol.n == 2
    with pytest.raises(KeyError):
        catalog.get("does-not-exist")


def test_yang_formula():
    y = 2.0
    want = (1 / y) * (0.5 * s(H, H) + s(E12, E21) + s(E21, E12))
    assert (catalog.get("yang").evaluator(y) - want).norm() < 1e-15
    assert (catalog.get("yang").evaluator(y) - (1 / y) * casimir(2)).norm() < 1e-15


def test_cherednik_formula():
    y = 0.63 + 0.11j
    want = 0.5 * np.cos(y) / np.sin(y) * s(H, H) \
        + (1 / np.sin(y)) * (s(E12, E21) + s(E21, E12)) + np.sin(y) * s(E21, E21)
    assert (catalog.get("cherednik").evaluator(y) - want).norm() < 1e-14


def test_rat21_projects_to_stolin_at_lam_zero():
    rat = catalog.get("rat21")
    st = catalog.get("stolin")
    y1, y2 = 0.2, 0.9
    # the sl2 (x) sl2 part of rat21 is stolin plus O(lam)
    for lam in (1e-5, 1e-6):
        diff = project_sl(rat.evaluator(lam, y1, y2)) - st.evaluator(y1, y2)
        assert diff.norm() < 10 * lam


def test_trg21_is_the_additive_nodal_form():
    # trg21(v, z) is the gauged multiplicative nodal solution at
    # lam = exp(-iv), y = exp(2iz): sqrt-y gauge, conjugation by diag(1, i/2)
    # and overall factor 2i
    from rmx.rmatrix import conjugate_legs
    trg = catalog.get("trg21")
    rng = np.random.default_rng(3)
    for _ in range(10):
        v, z = rng.uniform(0.2, 1.0, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
        lam, y = np.exp(-1j * v), np.exp(2j * z)
        pre = catalog.nodal21_multiplicative(lam, 1.0, y)
        a2 = np.diag([np.sqrt(complex(y)), 1.0])
        gauged = conjugate_legs(pre, np.eye(2), a2)
        cand = 2j * conjugate_legs(gauged, np.diag([1.0, 0.5j]), np.diag([1.0, 0.5j]))
        assert (cand - trg.evaluator(v, z)).norm() < 1e-12


def test_trg20_is_the_additive_semistable_form():
    # y = exp(2iz), lam = exp(-2iv), the e12 -> 2 e12 rescaling, one more
    # constant conjugation by diag(1, -i) per leg and an overall factor i
    from rmx.rmatrix import conjugate_legs
    trg20 = catalog.get("trg20_semistable")
    rng = np.random.default_rng(4)
    d = np.diag([np.sqrt(2.0), 1 / np.sqrt(2.0)])
    d2 = np.diag([1.0, -1.0j])
    for _ in range(10):
        v, z = rng.uniform(0.2, 1.0, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
        mult = catalog.semistable20_multiplicative(np.exp(-2j * v), np.exp(2j * z))
        cand = 1j * conjugate_legs(conjugate_legs(mult, d, d), d2, d2)
        assert (cand - trg20.evaluator(v, z)).norm() < 1e-11


def test_ell21_normalization_against_construction_form():
    # stored entry = (1/4) of the full-argument theta-ratio form
    #             = (1/2) * closed construction form at x = 2v
    p = ThetaParams(1.1j)
    v, y = 0.21 + 0.03j, 0.37 - 0.08j
    stored = catalog.get("ell21", tau=1.1j).evaluator(v, y)
    constr = catalog.elliptic_closed_form(2 * v, y, p)
    assert (2 * stored - constr).norm() < 1e-12


def test_ell21_classical_coefficients():
    from rmx.thetafn import sn, cn, dn
    from rmx.tensorcore import SIGMA, GAMMA
    p = ThetaParams(1.1j)
    y = 0.41 + 0.05j
    got = catalog.get("ell21_classical", tau=1.1j).evaluator(y)
    want = 0.5 * ((cn(y, p) / sn(y, p)) * s(H, H)
                  + (1 / sn(y, p)) * s(GAMMA, GAMMA)
                  + (dn(y, p) / sn(y, p)) * s(SIGMA, SIGMA))
    assert (got - want).norm() < 1e-13


@pytest.mark.parametrize("name,args", [("ell21_classical", (900j,)), ("ell21", (0.3, 400j))])
def test_ell21_theta_overflow_gives_a_non_finite_tensor(name, args):
    # theta's exp overflows to NaN denominators; abs of one raised
    # OverflowError from the stale errno before pole_guard tested finiteness
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = catalog.get(name).evaluator(*args)
    assert not np.isfinite(t.coeffs).all()


def test_classical_partners():
    assert catalog.classical_of("trg21").name == "cherednik"
    assert catalog.classical_of("rat21").name == "stolin"
    assert catalog.classical_of("rat21_degenerate").name == "yang"
    assert catalog.classical_of("ell21").name == "ell21_classical"
    with pytest.raises(ValueError, match="no classical limit"):
        catalog.classical_of("trg20_semistable")


def test_degeneration_pair():
    for name in ("cherednik", "yang"):
        assert [s.name for s in catalog.degeneration_of(name)] == ["cherednik", "yang"]
    for name in ("trg21", "rat21", "rat21_degenerate"):
        with pytest.raises(ValueError, match="no degeneration recorded"):
            catalog.degeneration_of(name)


def test_stolin_gauge_relation():
    # (phi(y1) (x) phi(y2)) stolin(y1, y2) = s(y2 - y1)
    st = catalog.get("stolin")
    sd = catalog.get("stolin_difference_s")
    rng = np.random.default_rng(7)
    for _ in range(20):
        y1, y2 = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        t = st.evaluator(y1, y2)
        t = apply_sl2_automorphism(stolin_gauge(y1), t, leg=1)
        t = apply_sl2_automorphism(stolin_gauge(y2), t, leg=2)
        assert (t - sd.evaluator(y2 - y1)).norm() < 1e-12


def test_stolin_gauge_is_an_automorphism():
    g = stolin_gauge(0.7 + 0.2j)
    basis = [H, E12, E21]

    def coords(m):
        return np.array([m[0, 0], m[0, 1], m[1, 0]])

    def mat(c):
        return c[0] * H + c[1] * E12 + c[2] * E21

    for i in range(3):
        for j in range(3):
            br = basis[i] @ basis[j] - basis[j] @ basis[i]
            lhs = mat(g @ coords(br))
            a, b = mat(g @ coords(basis[i])), mat(g @ coords(basis[j]))
            assert np.allclose(lhs, a @ b - b @ a, atol=1e-12)


def test_arity_metadata():
    def params(name):
        return catalog.ARITY_PARAMS[catalog.get(name).arity]
    assert params("ell21") == ("v", "y")
    assert params("rat21") == ("v", "y1", "y2")
    assert params("stolin") == ("y1", "y2")
    assert params("yang") == ("y",)
    catalog.as_two_point(catalog.get("yang"))
    with pytest.raises(ValueError, match="not a classical solution"):
        catalog.as_two_point(catalog.get("rat21"))


# --- arity ------------------------------------------------------------------

def _engine_kinds():
    from rmx import rmatrix
    return [rmatrix.engine_solution(kind) for kind in
            ("nodal", "cusp", "elliptic", "nodal-semistable")]


@pytest.mark.parametrize("sol", [catalog.get(name) for name in catalog.NAMES]
                         + _engine_kinds(), ids=lambda s: s.name)
def test_evaluator_takes_the_arity_params(sol):
    names = catalog.ARITY_PARAMS[sol.arity]
    assert len(inspect.signature(sol.evaluator).parameters) == len(names)
    point = [0.31 + 0.07j, 0.83 - 0.11j, 0.52 + 0.23j, 1.13 + 0.05j][:len(names)]
    assert np.all(np.isfinite(sol(*point).coeffs))


@pytest.mark.parametrize("name", ["yang", "cherednik", "stolin_difference_s",
                                  "ell21_classical", "stolin"])
def test_as_two_point_is_the_evaluator(name):
    sol = catalog.get(name)
    r2 = catalog.as_two_point(sol)
    y1, y2 = 0.2 + 0.1j, 0.9 - 0.3j
    direct = sol.evaluator(y2 - y1) if sol.arity == "cl_ydiff" else sol.evaluator(y1, y2)
    assert np.array_equal(r2(y1, y2).coeffs, direct.coeffs)
    if sol.arity == "cl_y12":
        assert r2 is sol.evaluator


def test_views_are_shared_with_verify():
    from rmx import verify
    assert verify.as_four_param is catalog.as_four_param
    assert verify.as_three_param is catalog.as_three_param


# --- bits of the closed forms -----------------------------------------------

def _points():
    rng = np.random.default_rng(20)
    z = rng.uniform(0.2, 1.2, (20, 4)) + 1j * rng.uniform(-0.3, 0.3, (20, 4))
    z[:5] = z[:5].real  # real points: the signs of zero parts show in the bytes
    return [tuple(complex(x) for x in row) for row in z]


def _evaluations(name):
    if name == "elliptic_closed_form":
        p = ThetaParams(catalog.DEFAULT_TAU)
        return [catalog.elliptic_closed_form(x, y, p) for x, y, *_ in _points()]
    if name == "apply_sl2_automorphism":
        st = catalog.get("stolin")
        return [apply_sl2_automorphism(stolin_gauge(y2), apply_sl2_automorphism(
            stolin_gauge(y1), st(y1, y2), leg=1), leg=2) for y1, y2, *_ in _points()]
    if name == "nodal21_multiplicative":
        return [catalog.nodal21_multiplicative(*pt[:3]) for pt in _points()]
    if name == "semistable20_multiplicative":
        return [catalog.semistable20_multiplicative(*pt[:2]) for pt in _points()]
    sol = catalog.get(name)
    k = len(catalog.ARITY_PARAMS[sol.arity])
    return [sol(*pt[:k]) for pt in _points()]


# sha256 (first 32 hex digits) of the coefficient bytes of each evaluator at
# the 20 points, recorded with numpy 2.4.6 on x86-64 while the closed forms
# were still sums of Tensor2.simple terms; building them from constant
# arrays must keep every bit, signed zeros included
_DIGESTS = {
    "ell21": "e73af2fa098a4306fdfb6cf84cf2287e",
    "trg21": "7f19c90a9cdda364aa2f1fea8e17afdb",
    "rat21": "42d354a8896e5d928551545c747e670e",
    "trg20_semistable": "dc0bc6a429fa3b745dbf355ffca87bb8",
    "ell21_classical": "18f1438c56413ed1237315765628f67c",
    "cherednik": "f55c81834227aa9d513098a3a953131c",
    "stolin": "f79f42bc2de918910efe59f8e793331d",
    "stolin_difference_s": "1da13e31f93cd683f42138be3a973c08",
    "yang": "29a882eaa2995b870d771fc8570f8d3b",
    "rat21_degenerate": "2a23d9fb696f5a5d9a729e10623a99c8",
    "elliptic_closed_form": "c44c84d7a639f26c37ca7eeac1cbaaca",
    "apply_sl2_automorphism": "b6076096c9b17b6ef2a7cd07ef65f194",
    "nodal21_multiplicative": "3e9f77a67b97548af5bd74135ec981a2",
    "semistable20_multiplicative": "def4bde8d3232ae66f865850b8d5bd92",
}


@pytest.mark.parametrize("name", list(_DIGESTS))
def test_closed_form_bits_are_unchanged(name):
    data = b"".join(t.coeffs.tobytes() for t in _evaluations(name))
    assert hashlib.sha256(data).hexdigest()[:32] == _DIGESTS[name]


def _constants():
    return [v for k, v in vars(catalog).items()
            if k.startswith("_") and isinstance(v, np.ndarray)]


def test_basis_arrays_are_read_only():
    consts = _constants()
    assert len(consts) > 15
    for c in consts:
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c.flat[0] = 1


@pytest.mark.parametrize("name", list(_DIGESTS))
def test_evaluations_return_fresh_arrays(name):
    first, second = _evaluations(name)[:1] + _evaluations(name)[:1]
    assert first.coeffs.flags.writeable
    assert not np.shares_memory(first.coeffs, second.coeffs)
    assert not any(np.shares_memory(first.coeffs, c) for c in _constants())


# --- rows of every entry ---------------------------------------------------------

# rows at the poles of the entries, per arity: v = 0, y = 0, y1 = y2, zeros
# of sin, signed zeros, and arguments whose sin or theta overflows
_POLE_ROWS = {
    "vdiff_ydiff": [(0.0, 0.4), (0.3, 0.0), (0.0, 0.0), (-0.0, 0.4), (0.3, -0.0),
                    (np.pi, 0.4), (0.3, np.pi), (0.3, -2 * np.pi), (0.3 + 900j, 0.4),
                    (0.3, 0.4 - 900j), (1e-300, 0.4), (complex(0.3, -0.0), 0.4)],
    "vdiff_y12": [(0.0, 0.2, 0.9), (0.3, 0.5, 0.5), (-0.0, 0.2, 0.9), (0.3, -0.0, 0.0),
                  (0.3, 1e300, 0.2), (1e-300, 0.2, 0.9), (0.3, 0.5, 0.5 + 1e-300j)],
    "cl_ydiff": [(0.0,), (-0.0,), (np.pi,), (-np.pi,), (900j,), (1e-300,),
                 (complex(0.4, -0.0),), (1e200,)],
    "cl_y12": [(0.4, 0.4), (0.0, -0.0), (0.2, 0.2 + 1e-300), (1e300, -1e300)],
}


def _one_row_or_error(sol, row):
    try:
        return sol(*row).coeffs.tobytes()
    except ArithmeticError as e:
        return type(e), str(e)


@pytest.mark.parametrize("name", catalog.NAMES)
def test_rows_equal_the_one_row_evaluator_bit_for_bit(name):
    # the _evaluations grid, random rows and pole rows; NaN and inf positions
    # and signed zeros included.  A row that raises raises the same error
    # from the rows of a stack, as the first row that raises
    sol = catalog.get(name)
    k = len(catalog.ARITY_PARAMS[sol.arity])
    rng = np.random.default_rng(sum(map(ord, name)))
    z = rng.uniform(-2, 2, (300, k)) + 1j * rng.uniform(-1, 1, (300, k))
    rows = ([pt[:k] for pt in _points()] + [tuple(map(complex, r)) for r in z]
            + _POLE_ROWS[sol.arity])
    if name.startswith("ell21"):
        # theta is NaN at |Im z| ~ 900, and CPython's abs of a NaN complex
        # raises OverflowError or not by a stale errno: left out
        rows = [r for r in rows if max(abs(complex(x).imag) for x in r) < 100]
    with np.errstate(all="ignore"):
        want = [_one_row_or_error(sol, row) for row in rows]
        good = [row for row, w in zip(rows, want) if isinstance(w, bytes)]
        got = sol.evaluate_rows(good)
        assert got.shape == (len(good), 2, 2, 2, 2) and got.flags.writeable
        assert [t.tobytes() for t in got] == [w for w in want if isinstance(w, bytes)]
        for row, w in zip(rows, want):
            if not isinstance(w, bytes):
                with pytest.raises(w[0]) as exc:
                    sol.evaluate_rows(good[:3] + [row] + good[3:6])
                assert str(exc.value) == w[1]


@pytest.mark.parametrize("name", catalog.NAMES)
def test_rows_of_one_row_are_its_evaluation(name):
    sol = catalog.get(name)
    k = len(catalog.ARITY_PARAMS[sol.arity])
    for pt in _points()[:3]:
        assert sol.evaluate_rows([pt[:k]]).tobytes() == sol(*pt[:k]).coeffs.tobytes()


# --- rows of the theta-bound entries -------------------------------------------

def _theta_calls(monkeypatch):
    """Point counts of every catalog.theta_j call."""
    calls, real = [], catalog.theta_j
    monkeypatch.setattr(catalog, "theta_j",
                        lambda j, z, p, **kw: calls.append(np.size(z)) or real(j, z, p, **kw))
    return calls


# (v, y) rows: generic ones, and rows at 1e-6 .. 1e-11 from the poles v = 0,
# y = 0 and y = 1, tau (the lattice), whose denominators are still above the
# PoleError threshold; the test adds 20 random rows
_ELL21_ROWS = [
    (0.3 + 0.2j, -0.7 + 0.4j), (-0.45 - 0.1j, 1.05 - 0.3j),
    (1e-6, 0.4 + 0.1j), (0.2 - 0.3j, 1e-9j), (1e-11 + 1e-11j, 0.6),
    (0.35, 1 + 1e-8), (0.5 + 0.5j, 1.1j - 1e-7),
]


@pytest.mark.parametrize("name,rows", [
    ("ell21", _ELL21_ROWS),
    ("ell21_classical", [(y,) for _, y in _ELL21_ROWS]),
])
def test_theta_rows_equal_one_row_calls(monkeypatch, name, rows):
    rng = np.random.default_rng(11)
    rows = rows + [tuple(z) for z in (rng.uniform(-1.3, 1.3, (20, len(rows[0])))
                                      + 1j * rng.uniform(-0.5, 0.5, (20, len(rows[0]))))]
    sol = catalog.get(name)
    calls = _theta_calls(monkeypatch)
    got = sol.evaluate_rows(rows)
    # one theta_j call per theta index, whatever the number of rows
    assert len(calls) == 4 and sum(calls) == len(rows) * (9 if name == "ell21" else 4)
    assert got.shape == (len(rows), 2, 2, 2, 2)
    for row, t in zip(rows, got):
        assert np.array_equal(t, sol(*row).coeffs), row


@pytest.mark.parametrize("name,rows,message", [
    # theta_1(y) is guarded before theta_1(v), and a row before the next
    ("ell21", [(0.3, 0.4), (0.0, 0.0), (0.2, 0.0)], "ell21 pole at y=0.0"),
    ("ell21", [(0.3, 0.4), (0.0, 0.5), (0.2, 0.0)], "ell21 pole at v=0.0"),
    ("ell21", [(0.3, 0.4), (1.0, 0.5)], "ell21 pole at v=1.0"),
    ("ell21_classical", [(0.4,), (1.0,), (0.0,)], "ell21_classical pole at y=1.0"),
    # theta_4 vanishes at tau/2: sn's denominator is guarded first
    ("ell21_classical", [(0.4,), (0.55j,)], "sn pole at z=0.55j"),
])
def test_theta_rows_raise_the_one_row_pole_error(name, rows, message):
    # rows[1] is the first row at a pole
    sol = catalog.get(name, tau=1.1j)
    sol(*rows[0])
    with pytest.raises(PoleError) as one:
        sol(*rows[1])
    with pytest.raises(PoleError) as many:
        sol.evaluate_rows(rows)
    assert str(many.value) == str(one.value) == message


@pytest.mark.parametrize("name", catalog.NAMES)
def test_a_replaced_evaluator_serves_the_one_row_calls(name):
    # perfbench/layers.py's catalog.get hook wraps a solution's evaluator by
    # dataclasses.replace(sol, evaluator=...): the field stays, one-row calls
    # and views go through the replacement, and evaluate_rows is kept
    sol = catalog.get(name)
    calls = []
    hooked = dataclasses.replace(sol, evaluator=lambda *a: calls.append(a) or sol.evaluator(*a))
    assert hooked.evaluate_rows is sol.evaluate_rows
    row = _points()[5][:len(catalog.ARITY_PARAMS[sol.arity])]
    assert hooked(*row).coeffs.tobytes() == sol(*row).coeffs.tobytes()
    view = catalog.as_two_point if sol.arity.startswith("cl_") else catalog.as_four_param
    view(hooked)(*_points()[6][:2 if view is catalog.as_two_point else 4])
    assert calls[0] == row and len(calls) == 2
