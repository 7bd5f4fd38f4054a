# tests/test_acceptance.py

"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured figure of merit.  Run with `pytest -s tests/test_acceptance.py`
to see every line."""

import time
from math import gcd

import numpy as np
import pytest

from rmx import bundles, catalog, rmatrix, verify
from rmx.catalog import (apply_sl2_automorphism, elliptic_closed_form,
                         nodal21_multiplicative, stolin_gauge)
from rmx.tensorcore import ID2, Tensor2
from rmx.thetafn import ThetaParams

import oracles
from oracles import (SHIFT_TABLE, arg_scale, cn, dn, shift_residual, sn,
                     theta_product_identity_residual, watson_suite)


def report(num, ok, desc, metric):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} ({metric})")
    assert ok, f"criterion {num}: {desc} ({metric})"


def _admissible_ring(rng, k, lo=0.3, hi=1.3, min_sep=0.12):
    while True:
        pts = rng.uniform(lo, hi, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        ok = all(abs(pts[i] - pts[j]) > min_sep and abs(pts[i] + pts[j]) > min_sep
                 for i in range(k) for j in range(i + 1, k))
        if ok:
            return pts


def test_criterion_01_nodal_engine_matches_closed_form():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        l1, l2, y1, y2 = _admissible_ring(rng, 4)
        got = rmatrix.engine_nodal(2, 1, l1, l2, y1, y2)
        want = nodal21_multiplicative(l2 / l1, y1, y2)
        worst = max(worst, (got - want).norm())
    dt = time.perf_counter() - t0
    report(1, worst < 1e-9 and dt < 1.0,
           "nodal engine (2,1) = closed form, 50 points",
           f"max err {worst:.2e}, {dt:.2f} s")


def test_criterion_02_cuspidal_engine_matches_closed_form():
    rng = np.random.default_rng(1002)
    rat = catalog.get("rat21")
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    while count < 50:
        l1, l2, y1, y2 = (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-0.4, 0.4, 4))
        if abs(l1 - l2) < 0.15 or abs(y1 - y2) < 0.15:
            continue
        got = rmatrix.engine_cusp(2, 1, l1, l2, y1, y2)
        worst = max(worst, (got - rat.evaluator(l2 - l1, y1, y2)).norm())
        count += 1
    dt = time.perf_counter() - t0
    report(2, worst < 1e-9 and dt < 1.0,
           "cuspidal engine (2,1) = rational closed form, 50 points",
           f"max err {worst:.2e}, {dt:.2f} s")


def test_criterion_03_elliptic_engine_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for tau in (1.1j, 0.3 + 1.2j):
        p = ThetaParams(tau)
        rng = np.random.default_rng(1003)
        count = 0
        while count < 20:
            x1, x2, y1, y2 = (rng.uniform(-0.4, 0.4, 4)
                              + 1j * rng.uniform(-0.2, 0.2, 4))
            if abs(x1 - x2) < 0.08 or abs(y1 - y2) < 0.08:
                continue
            got = rmatrix.engine_elliptic_21(tau, x1, x2, y1, y2)
            want = elliptic_closed_form(x2 - x1, y2 - y1, p)
            worst = max(worst, (got - want).norm())
            count += 1
    dt = time.perf_counter() - t0
    report(3, worst < 1e-8 and dt < 5.0,
           "elliptic engine (2,1) = theta closed form, 2 x 20 points",
           f"max err {worst:.2e}, {dt:.2f} s")


def test_criterion_04_identity_suite():
    worst = -1.0
    for name in ("ell21", "trg21", "rat21", "trg20_semistable",
                 "rat21_degenerate"):
        sol = catalog.get(name)
        for check, seed in ((verify.aybe, 41), (verify.aybe_dual, 42),
                            (verify.unitarity, 43)):
            rep = check(sol, samples=50, tol=1e-8, seed=seed)
            worst = max(worst, rep.max_residual)
            assert rep.passed, (name, rep.identity, rep.max_residual)
    for name, v0 in (("ell21", 0.3), ("trg21", 0.4), ("rat21", 0.7)):
        rep = verify.qybe(catalog.get(name), v0, samples=50, tol=1e-8, seed=44)
        worst = max(worst, rep.max_residual)
        assert rep.passed, (name, "qybe", rep.max_residual)
    report(4, worst < 1e-8,
           "aybe+dual+unitarity (5 solutions) and qybe (3 solutions), 50 samples",
           f"max residual {worst:.2e}")


def test_criterion_05_classical_limits():
    grid = [0.3 + 0.1 * k for k in range(10)]
    r1 = verify.classical_limit(catalog.get("trg21"), catalog.get("cherednik"),
                                grid, tol=1e-7)
    r2 = verify.classical_limit(catalog.get("rat21"), catalog.get("stolin"),
                                grid, tol=1e-7, y_base=0.15)
    diverged = False
    try:
        verify.classical_limit_values(catalog.get("trg20_semistable"),
                                      [(0.0, 0.45)])
    except verify.DivergenceError:
        diverged = True
    ok = r1.passed and r2.passed and diverged
    report(5, ok, "classical limits trg21->cherednik, rat21->stolin; "
           "semistable diverges",
           f"errs {r1.max_residual:.2e}, {r2.max_residual:.2e}, "
           f"divergence={diverged}")


def test_criterion_06_cybe_and_casimir_residues():
    worst_cybe, worst_defect = -1.0, -1.0
    for name in ("ell21_classical", "cherednik", "stolin",
                 "stolin_difference_s", "yang"):
        sol = catalog.get(name)
        rep = verify.cybe(sol, samples=50, tol=1e-9, seed=45)
        assert rep.passed, (name, rep.max_residual)
        worst_cybe = max(worst_cybe, rep.max_residual)
        _, defect = verify.casimir_residue(sol)
        worst_defect = max(worst_defect, defect)
    report(6, worst_cybe < 1e-9 and worst_defect < 1e-8,
           "cybe for 5 classical solutions; residues proportional to Casimir",
           f"max cybe {worst_cybe:.2e}, max defect {worst_defect:.2e}")


def test_criterion_07_degeneration():
    trg, rat = catalog.get("cherednik"), catalog.get("yang")
    t = 1e5
    err = max(((1.0 / t) * trg.evaluator(y / t) - rat.evaluator(y)).norm()
              for y in (0.3, 0.7, 1.1))
    report(7, err < 1e-6, "trigonometric -> rational degeneration at t = 1e5",
           f"max err {err:.2e}")


def test_criterion_08_laurent_structure():
    co = verify.laurent_v(catalog.get("ell21"), 0.0, 0.37)
    quarter = 0.25 * Tensor2.simple(ID2, ID2)
    e1 = (co[-1] - quarter).norm()
    co20 = verify.laurent_v(catalog.get("trg20_semistable"), 0.0, 0.8)
    ok = e1 < 1e-7 and co20[-2].norm() > 1e-3
    report(8, ok, "ell21 residue = (1/4) 1(x)1; semistable has order -2 term",
           f"ell21 defect {e1:.2e}, |r_-2| {co20[-2].norm():.3f}")


def test_criterion_09_gauge_equivalences():
    st, sd = catalog.get("stolin"), catalog.get("stolin_difference_s")
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(20):
        y1, y2 = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        t = st.evaluator(y1, y2)
        t = apply_sl2_automorphism(stolin_gauge(y1), t, leg=1)
        t = apply_sl2_automorphism(stolin_gauge(y2), t, leg=2)
        worst = max(worst, (t - sd.evaluator(y2 - y1)).norm())
    c = 0.31 - 0.12j
    g = rmatrix.apply_gauge(catalog.get("rat21"),
                            lambda v, y: np.exp(c * v * y) * np.eye(2))
    r4 = verify.as_four_param(catalog.get("rat21"))
    worst2 = 0.0
    for _ in range(20):
        v1, v2, y1, y2 = _admissible_ring(rng, 4, 0.3, 1.0)
        want = np.exp(c * (v2 - v1) * (y2 - y1)) * r4(v1, v2, y1, y2)
        worst2 = max(worst2, (g.evaluator(v1, v2, y1, y2) - want).norm())
    report(9, worst < 1e-9 and worst2 < 1e-9,
           "Stolin difference gauge; exp(cvy) gauge acts as stated",
           f"errs {worst:.2e}, {worst2:.2e}")


def test_criterion_10_canonical_forms():
    lam = 2.0
    ok_11 = np.array_equal(bundles.canonical_nodal_matrix(1, 1, lam),
                           np.array([[0, 1], [lam, 0]], dtype=complex))
    ok_12 = np.array_equal(bundles.canonical_nodal_matrix(1, 2, lam),
                           np.array([[0, 1, 0], [0, 0, 1], [lam, 0, 0]],
                                    dtype=complex))
    want32 = np.zeros((5, 5), dtype=complex)
    want32[0, 1] = want32[1, 3] = want32[2, 4] = want32[3, 2] = 1
    want32[4, 0] = lam
    ok_32 = np.array_equal(bundles.canonical_nodal_matrix(3, 2, lam), want32)
    rng = np.random.default_rng(1010)
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7)
             if a + b <= 7 and gcd(a, b) == 1]
    ok_endo = ok_det = True
    for n1, n2 in pairs:
        for _ in range(5):
            lam_r = rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.uniform())
            nod = bundles.canonical_nodal(n1, n2, lam_r)
            cus = bundles.canonical_cusp(n1, n2, lam_r)
            ok_endo &= bundles.endo_dimension(nod) == 1
            ok_endo &= bundles.endo_dimension(cus) == 1
            d = bundles.det_triple(nod)
            ok_det &= min(abs(d - lam_r), abs(d + lam_r)) < 1e-10
    ok_atiyah = bundles.endo_dimension(bundles.atiyah_nodal(2)) == 2
    ok = ok_11 and ok_12 and ok_32 and ok_endo and ok_det and ok_atiyah
    report(10, ok, "canonical forms, simplicity certificates, determinants",
           f"displays={ok_11 and ok_12 and ok_32}, endo=1:{ok_endo}, "
           f"det=+-lam:{ok_det}, atiyah(2)->{bundles.endo_dimension(bundles.atiyah_nodal(2))}")


def test_criterion_11_theta_layer():
    p = ThetaParams(0.3 + 1.1j)
    rng = np.random.default_rng(1011)
    worst_shift = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        for j in (1, 2, 3, 4):
            for shift in SHIFT_TABLE[j]:
                worst_shift = max(worst_shift, shift_residual(j, shift, z, p))
    worst_watson = 0.0
    for _ in range(100):
        x = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        y = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        worst_watson = max(worst_watson, watson_suite(x, y, p)["max"])
    prod_res = theta_product_identity_residual(p)
    # Weierstrass p vs Jacobi quotients, lattice-sum oracle
    tau = 1.1j
    pe = ThetaParams(tau)
    cutoff = 1000
    zs = [complex(rng.uniform(0.1, 0.25), rng.uniform(-0.15, 0.15)) for _ in range(4)]
    wps = oracles.wp_lattice([0.5, tau / 2, (1 + tau) / 2, *zs], tau, cutoff)
    e_half = wps[:3]
    s2 = arg_scale(pe) ** 2
    worst_wp = 0.0
    for z, wp in zip(zs, wps[3:]):
        quots = [(cn(z, pe) / sn(z, pe)) ** 2, (1 / sn(z, pe)) ** 2,
                 (dn(z, pe) / sn(z, pe)) ** 2]
        for ek, q in zip(e_half, quots):
            worst_wp = max(worst_wp, abs(wp - ek - s2 * q))
    ok = worst_shift < 1e-10 and worst_watson < 1e-10 and prod_res < 1e-10 \
        and worst_wp < 1e-6
    report(11, ok, "shift table, Watson/Landen, theta' product, p-function",
           f"shift {worst_shift:.1e}, watson {worst_watson:.1e}, "
           f"prod {prod_res:.1e}, wp {worst_wp:.1e}")


def test_criterion_12_dunkl_commutativity():
    worst0 = worst1 = -1.0
    for name in ("rat21", "trg21"):
        sol = catalog.get(name)
        r0 = verify.dunkl_commutator(sol, kappa=0.0, samples=2,
                                     tol=1e-9, seed=46)
        r1 = verify.dunkl_commutator(sol, kappa=1.0, samples=2,
                                     tol=1e-5, seed=47)
        assert r0.passed and r1.passed, (name, r0.max_residual, r1.max_residual)
        worst0 = max(worst0, r0.max_residual)
        worst1 = max(worst1, r1.max_residual)
    report(12, worst0 < 1e-9 and worst1 < 1e-5,
           "Dunkl operators commute (m=3, kappa in {0,1}, rat21/trg21)",
           f"kappa=0: {worst0:.2e}, kappa=1: {worst1:.2e}")


def test_criterion_13_engine_shift_invariance():
    rng = np.random.default_rng(1013)
    worst = 0.0
    for _ in range(20):
        beta = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        s = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
        a = rmatrix.engine_nodal(2, 1, 0.7 * beta, 1.4 * beta, 0.5, 1.1)
        b = rmatrix.engine_nodal(2, 1, 0.7, 1.4, 0.5, 1.1)
        worst = max(worst, (a - b).norm())
        a = rmatrix.engine_cusp(2, 1, 0.1 + s, 0.8 + s, 0.2, 0.9)
        b = rmatrix.engine_cusp(2, 1, 0.1, 0.8, 0.2, 0.9)
        worst = max(worst, (a - b).norm())
        a = rmatrix.engine_elliptic_21(1.1j, 0.05 + s, 0.43 + s, 0.03, 0.3)
        b = rmatrix.engine_elliptic_21(1.1j, 0.05, 0.43, 0.03, 0.3)
        worst = max(worst, (a - b).norm())
    report(13, worst < 1e-9,
           "moduli shift invariance (ratio nodal, difference cusp/elliptic)",
           f"max deviation {worst:.2e}")
