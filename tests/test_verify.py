# tests/test_verify.py

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import oracles
from rmx import catalog, cli, rmatrix, tensorcore, verify
from rmx.catalog import RSolution
from rmx.tensorcore import E12, E21, GAMMA, H, ID2, SIGMA, Tensor2, casimir
from rmx.thetafn import ThetaParams, theta_j


ASSOCIATIVE = ["ell21", "trg21", "rat21", "trg20_semistable", "rat21_degenerate"]
CLASSICAL = ["ell21_classical", "cherednik", "stolin", "stolin_difference_s", "yang"]


@pytest.mark.parametrize("name", ASSOCIATIVE)
def test_aybe_passes(name):
    rep = verify.aybe(catalog.get(name), samples=20, tol=1e-8, seed=1)
    assert rep.passed, rep


@pytest.mark.parametrize("name", ASSOCIATIVE)
def test_dual_passes(name):
    rep = verify.aybe_dual(catalog.get(name), samples=20, tol=1e-8, seed=2)
    assert rep.passed, rep


@pytest.mark.parametrize("name", ASSOCIATIVE)
def test_unitarity_passes(name):
    rep = verify.unitarity(catalog.get(name), samples=20, tol=1e-10, seed=3)
    assert rep.passed, rep


def test_zero_solution_trivially_passes():
    zero = RSolution("zero", "vdiff_ydiff", 2, lambda v, y: Tensor2(2, np.zeros((2,) * 4)))
    assert verify.aybe(zero, samples=3, seed=0).max_residual == 0.0


def test_aybe_rejects_classical_arity():
    # yang is a classical solution; it has no associative arity to test
    with pytest.raises(ValueError):
        verify.aybe(catalog.get("yang"), samples=2)


def test_aybe_detects_broken_solution():
    good = catalog.get("rat21_degenerate")
    bad = RSolution("broken", "vdiff_ydiff", 2,
                    lambda v, y: good.evaluator(v, y) + 0.05 * Tensor2.simple(H, H))
    assert not verify.aybe(bad, samples=5, tol=1e-8, seed=4).passed


def test_unitarity_negative_cases():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)

    def anti(v, y):
        t = Tensor2(2, c * v * y)
        return Tensor2(2, 0.5 * (t.coeffs - oracles.swap(t).coeffs))

    # antisymmetrized odd family is unitary by construction
    assert verify.unitarity(
        RSolution("anti", "vdiff_ydiff", 2, anti), samples=10, seed=6).passed
    # a symmetric nonzero constant is not
    const = RSolution("const", "vdiff_ydiff", 2,
                      lambda v, y: Tensor2.simple(H, H))
    assert not verify.unitarity(const, samples=5, seed=7).passed


def test_dual_fails_for_non_unitary_perturbation():
    good = catalog.get("yang")
    pert = RSolution(
        "pert", "vdiff_ydiff", 2,
        lambda v, y: good.evaluator(y) + 0.1 * Tensor2.simple(E21, E21))
    assert not verify.aybe_dual(pert, samples=8, tol=1e-9, seed=8).passed


@pytest.mark.parametrize("name", CLASSICAL)
def test_cybe_passes(name):
    rep = verify.cybe(catalog.get(name), samples=20, tol=1e-9, seed=9)
    assert rep.passed, rep


def test_cybe_rejects_associative():
    with pytest.raises(ValueError):
        verify.cybe(catalog.get("rat21"))


@pytest.mark.parametrize("name,v0", [("rat21", 0.7), ("trg21", 0.4), ("ell21", 0.3)])
def test_qybe_passes(name, v0):
    rep = verify.qybe(catalog.get(name), v0, samples=20, tol=1e-8, seed=10)
    assert rep.passed, rep


# --- classical limits ---------------------------------------------------------

def test_classical_limit_trg21():
    grid = [0.3 + 0.1 * k for k in range(10)]
    rep = verify.classical_limit(catalog.get("trg21"), catalog.get("cherednik"),
                                 grid, tol=1e-7)
    assert rep.passed, rep


def test_classical_limit_rat21():
    grid = [0.3 + 0.1 * k for k in range(10)]
    rep = verify.classical_limit(catalog.get("rat21"), catalog.get("stolin"),
                                 grid, tol=1e-7, y_base=0.15)
    assert rep.passed, rep


@pytest.mark.parametrize("name,ref,y_base", [("trg21", "cherednik", 0.0),
                                              ("rat21", "stolin", 0.15)])
def test_classical_limit_reads_a_generator_grid_once(name, ref, y_base):
    sol, reference = catalog.get(name), catalog.get(ref)
    grid = [0.3 + 0.1 * k for k in range(10)]
    want = verify.classical_limit(sol, reference, grid, y_base=y_base)
    got = verify.classical_limit(sol, reference, iter(grid), y_base=y_base)
    assert got.samples == 10
    assert (got.max_residual, got.argmax_sample) == (want.max_residual,
                                                      want.argmax_sample)
    assert got.passed


def test_classical_limit_empty_grid_is_an_error():
    # no grid points would report max_residual = -1.0, a vacuous pass
    with pytest.raises(ValueError, match="samples"):
        verify.classical_limit(catalog.get("rat21"), catalog.get("stolin"), [])


def test_classical_limit_nan_residual_fails():
    nan = RSolution("nan", "cl_y12", 2,
                    lambda y1, y2: Tensor2(2, np.full((2,) * 4, np.nan + 0j)))
    rep = verify.classical_limit(catalog.get("rat21"), nan, [0.3, 0.4],
                                 y_base=0.15)
    assert np.isnan(rep.max_residual) and not rep.passed
    assert rep.samples == 2 and rep.argmax_sample == (0.3,)


def test_classical_limit_divergence_for_semistable():
    with pytest.raises(verify.DivergenceError):
        verify.classical_limit_values(catalog.get("trg20_semistable"),
                                      [(0.0, 0.45)])


# rmx verify --identity limit's grid, as (y1, y2) pairs from y_base = 0.15
LIMIT_PAIRS = [(0.15, 0.15 + 0.3 + 0.1 * k) for k in range(10)]


@pytest.mark.parametrize("order,extra,diverges", [
    (-2, Tensor2.simple(H, H), True), (-1, Tensor2.simple(H, H), True),
    (-2, Tensor2.simple(ID2, ID2), False)])
def test_divergence_needs_a_pole_of_the_projected_limit(order, extra, diverges):
    # negative control: rat21 plus c v^order times an sl2 (x) sl2 tensor has a
    # projected coefficient of that order of norm |c| at every grid point, so
    # no classical limit; c v^order times 1 (x) 1 projects away
    base = catalog.get("rat21")
    sol = RSolution("rat21+c/v^k", "vdiff_y12", 2,
                    lambda v, y1, y2: base.evaluator(v, y1, y2) + (1e-3 * v**order) * extra)
    for pair in LIMIT_PAIRS:
        if diverges:
            with pytest.raises(verify.DivergenceError, match=f"order {order} "):
                verify.classical_limit_values(sol, [pair])
        else:
            verify.classical_limit_values(sol, [pair])


@pytest.mark.parametrize("name", ["ell21", "trg21", "rat21", "rat21_degenerate"])
def test_partnered_solutions_do_not_diverge(name):
    # y = 1 (the last but two pair) is ell21's lattice pole
    pairs = [p for p in LIMIT_PAIRS if abs(p[1] - 1.15) > 1e-9]
    assert len(verify.classical_limit_values(catalog.get(name), pairs)) == len(pairs)


def test_classical_limit_is_gauge_invariant():
    # the exp(c v y)-gauged solution has the same classical limit: the
    # prefactor exp(c v (y2 - y1)) -> 1 as v -> 0; measured 4.7e-16, on
    # limits of norm 1.1 to 3.3
    c = 0.4 - 0.15j
    base = catalog.get("rat21")
    gauged = RSolution(
        "gauged", "vdiff_y12", 2,
        lambda v, y1, y2: np.exp(c * v * (y2 - y1)) * base.evaluator(v, y1, y2))
    grid = [0.3, 0.6, 0.9]
    a = verify.classical_limit_values(base, [(0.1, 0.1 + y) for y in grid])
    b = verify.classical_limit_values(gauged, [(0.1, 0.1 + y) for y in grid])
    assert max((x - y).norm() for x, y in zip(a, b)) < 1e-15


@pytest.mark.parametrize("y", [0.2, 0.45 + 0.3j, 0.7, 1.05, 0.3 - 0.2j])
def test_ell21_limit_is_a_multiple_of_ell21_classical(y):
    # the partner table scales ell21_classical by pi theta_3(0)^2 / 2, and
    # ell21's limit equals the scaled partner to rounding (measured at most
    # 1.8e-15, at y = 1.05 near the lattice pole)
    ref = catalog.classical_of("ell21")
    scale = np.pi * theta_j(3, 0.0, ThetaParams(catalog.DEFAULT_TAU)) ** 2 / 2
    want = scale * catalog.get("ell21_classical").evaluator(y)
    assert ref.name == "ell21_classical"
    assert (ref.evaluator(y) - want).norm() <= 1e-15 * want.norm()
    got, = verify.classical_limit_values(catalog.get("ell21"), [(0.15, 0.15 + y)])
    assert (got - want).norm() <= 1e-13


def test_ell21_limit_off_the_lattice_pole():
    # rmx verify --identity limit --solution ell21 fails only at its grid's
    # lattice pole y = 1 (test_cli.py): elsewhere the residual is at most
    # 9.0e-16 (measured)
    grid = [0.3 + 0.1 * k for k in range(10) if k != 7]
    rep = verify.classical_limit(catalog.get("ell21"), catalog.classical_of("ell21"), grid,
                                 y_base=0.15)
    assert rep.samples == 9 and rep.max_residual <= 1e-13


# --- Laurent / residue extraction ----------------------------------------------

def test_laurent_ell21_quarter_identity():
    co = verify.laurent_v(catalog.get("ell21"), 0.0, 0.37)
    want = 0.25 * Tensor2.simple(ID2, ID2)
    assert (co[-1] - want).norm() < 1e-7
    assert co[-2].norm() < 1e-9
    assert co[-3].norm() < 1e-9


def test_laurent_rat21_half_identity():
    co = verify.laurent_v(catalog.get("rat21"), 0.2, 0.9)
    assert (co[-1] - 0.5 * Tensor2.simple(ID2, ID2)).norm() < 1e-9


def test_laurent_semistable_higher_order_pole():
    co = verify.laurent_v(catalog.get("trg20_semistable"), 0.0, 0.8)
    assert co[-2].norm() > 0.1
    assert co[-3].norm() > 0.1


def test_laurent_radius_stability():
    a = verify.laurent_v(catalog.get("ell21"), 0.0, 0.37, radius=0.05)[-1]
    b = verify.laurent_v(catalog.get("ell21"), 0.0, 0.37, radius=0.025)[-1]
    assert (a - b).norm() < 1e-7


@pytest.mark.parametrize("name,alpha", [
    ("yang", 1.0), ("cherednik", 1.0), ("stolin", 1.0),
    ("stolin_difference_s", 1.0),
])
def test_casimir_residue(name, alpha):
    a, defect = verify.casimir_residue(catalog.get(name))
    assert abs(a - alpha) < 1e-10
    assert defect < 1e-10


def test_casimir_residue_elliptic_classical():
    # residue is Omega / (pi theta_3(0)^2): proportional to the Casimir
    from oracles import arg_scale
    a, defect = verify.casimir_residue(catalog.get("ell21_classical", tau=1.1j))
    assert defect < 1e-10
    assert abs(a - 1.0 / arg_scale(ThetaParams(1.1j))) < 1e-8


# --- degeneration ---------------------------------------------------------------

def test_degeneration_cherednik_to_yang():
    rep = verify.degeneration_trg_to_rat(catalog.get("cherednik"),
                                         catalog.get("yang"))
    assert rep.passed
    errs = rep.extra["errors_along_t"]
    assert errs[-1] < 1e-6
    assert errs[0] > errs[1] > errs[2]


def test_degeneration_t_equals_one_is_far():
    err = verify.degeneration_error(catalog.get("cherednik"), catalog.get("yang"), 1.0)
    assert err > 0.1  # no convergence claimed at t = 1


# --- Dunkl operators -------------------------------------------------------------

@pytest.mark.parametrize("name", ["rat21", "trg21"])
def test_dunkl_kappa_zero_exact(name):
    rep = verify.dunkl_commutator(catalog.get(name), kappa=0.0,
                                  samples=2, tol=1e-9, seed=11)
    assert rep.passed, rep


@pytest.mark.parametrize("name", ["rat21", "trg21"])
def test_dunkl_kappa_one_finite_difference(name):
    rep = verify.dunkl_commutator(catalog.get(name), kappa=1.0,
                                  samples=2, tol=1e-5, seed=12)
    assert rep.passed, rep


def test_dunkl_constant_testfn_kappa_zero():
    # constant function: only the algebraic Yang-Baxter relations act
    n = 2
    const = np.kron(np.kron(H, ID2), E21) + 0.3 * np.eye(8)
    rep = verify.dunkl_commutator(catalog.get("rat21"), kappa=0.0,
                                  testfn=lambda xs: const, samples=2,
                                  tol=1e-9, seed=13)
    assert rep.passed, rep


def test_dunkl_nan_residual_fails():
    rep = verify.dunkl_commutator(catalog.get("rat21"), kappa=0.0,
                                  testfn=lambda xs: np.full((8, 8), np.nan),
                                  samples=2, seed=13)
    assert np.isnan(rep.max_residual) and not rep.passed
    assert rep.samples == 6


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("name", ["rat21", "trg21", "trg20_semistable", "rat21_degenerate"])
def test_dunkl_evaluates_each_term_once(name, kappa):
    # the nested theta_i theta_j f meet the same r^{ij}(x_i - x_j) many times;
    # each distinct argument tuple reaches the solution once per call: as a
    # row of the one rows call of each draw, or, without rows, as one
    # evaluator call
    sol = catalog.get(name)
    calls, stacks = [], []

    def counted(*args):
        calls.append(args)
        return sol.evaluator(*args)

    def counted_rows(rows):
        stacks.append(len(rows))
        calls.extend(map(tuple, rows))
        return sol.evaluate_rows(rows)

    reports = []
    for rows in (counted_rows, None):
        calls.clear()
        reports.append(verify.dunkl_commutator(
            dataclasses.replace(sol, evaluator=counted, evaluate_rows=rows),
            kappa=kappa, samples=3))
        assert reports[-1].passed, reports[-1]
        assert len(calls) == len(set(calls)) == (72 if kappa == 0 else 144)
    # one rows call per draw, the guard's six terms with the stencil's
    assert stacks == [24 if kappa == 0 else 48] * 3
    assert reports[0] == reports[1]


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_dunkl_ell21_passes_at_the_default_tol(seed, kappa):
    # draws with some |r^{ij}(x_i - x_j)| >= NORM_CAP sit next to zeros of
    # ell21's theta_j(v) denominators; unrejected they gave 1e-7 .. 2e-3
    rep = verify.dunkl_commutator(catalog.get("ell21"), kappa=kappa, seed=seed)
    assert rep.passed and rep.samples == 9, rep


# sha256 (first 32 hex digits) of the sorted-key JSON of dunkl_commutator's
# report (3 samples), recorded with numpy 2.4.6 on x86-64 while Dunkl drew in
# a loop of its own; none of these draws is near a pole, so drawing through
# verify._accepted_draws must keep every bit
_DUNKL_DIGESTS = {
    ("trg21", 0.0, 0): "ee5bacb9102c42ae19618512084610e9",
    ("trg21", 0.0, 7): "311aff6723e4005c0ea4515f173c6547",
    ("trg21", 1.0, 0): "10e72e30f86f4f294591e1876314e8bf",
    ("trg21", 1.0, 7): "f8f840d787ce8cae2553423d4ab7bb1f",
    ("rat21", 0.0, 0): "94fe7968609697c6857d2c2b6fcb4856",
    ("rat21", 0.0, 7): "46f2e9d144263cf69ee939d363746ac0",
    ("rat21", 1.0, 0): "f269acd5c454c54d504513cc1eb68db6",
    ("rat21", 1.0, 7): "532b6dfcc0f14fe08f78eb2cf65ab217",
    ("trg20_semistable", 0.0, 0): "784bc30db4b89bc01504cba6121b5a45",
    ("trg20_semistable", 0.0, 7): "789cbc3c48472a7d978c7d402375ecff",
    ("trg20_semistable", 1.0, 0): "b0f342bea1eccb239a0b50223944ade6",
    ("trg20_semistable", 1.0, 7): "b1478f0824e5e2f961fff2de189a8a94",
    ("rat21_degenerate", 0.0, 0): "69459eb6f44a93992fc30be88b4e4beb",
    ("rat21_degenerate", 0.0, 7): "c539d3fdd25b938348439125605cee03",
    ("rat21_degenerate", 1.0, 0): "e7b6048061d6549d4e0d078f222765ea",
    ("rat21_degenerate", 1.0, 7): "5c05494e30ed8342b3b1c04299ecb645",
}


@pytest.mark.parametrize("name,kappa,seed", sorted(_DUNKL_DIGESTS))
def test_dunkl_reports_are_pinned(name, kappa, seed):
    rep = verify.dunkl_commutator(catalog.get(name), kappa=kappa, seed=seed)
    text = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest()[:32] == _DUNKL_DIGESTS[name, kappa, seed]


def _digest(rep) -> str:
    return hashlib.sha256(json.dumps(rep.to_json_dict(), sort_keys=True).encode()).hexdigest()[:32]


# as _DUNKL_DIGESTS, for ell21 (its terms come through theta_j), recorded with
# numpy 2.4.6 on x86-64 while each theta_i was a nested one-point closure
_DUNKL_ELL21_DIGESTS = {
    (0.0, 0): "a96e792d86ea21e04188480c68ee01fc",
    (0.0, 7): "ed1a29fab1a5a3d1ad0db6d96e4bd3a5",
    (1.0, 0): "8fe3fbd360be90cb37f5b206b8d6adcf",
    (1.0, 7): "e0398849c1c469ac76ba7f507a0f5c68",
}


@pytest.mark.parametrize("kappa,seed", sorted(_DUNKL_ELL21_DIGESTS))
def test_dunkl_ell21_reports_are_pinned(kappa, seed):
    rep = verify.dunkl_commutator(catalog.get("ell21"), kappa=kappa, seed=seed)
    assert _digest(rep) == _DUNKL_ELL21_DIGESTS[kappa, seed]


# a custom test function that is not symmetric in the legs, with fixed
# coefficients; its reports at seed 4 (3 samples), recorded as above, and the
# number of distinct points of a call it is evaluated at
_A = np.arange(64).reshape(8, 8) * (0.03 - 0.02j) + np.kron(np.kron(H, E12), SIGMA)
_B = np.kron(np.kron(GAMMA, E21), H) - 0.4j * np.eye(8)
_DUNKL_CUSTOM_DIGESTS = {
    ("rat21", 0.0): ("daa9810e30f5bb6f6cf12c3b74b4ba1e", 9),
    ("rat21", 1.0): ("99a437db3dc6a5476bec2cc7d8f08f0f", 261),
    ("trg21", 0.0): ("58447a9549728d6a7b9fc500e44a968f", 9),
    ("trg21", 1.0): ("133cbe8940d0517d2d403d2624e4fc46", 261),
    ("trg20_semistable", 0.0): ("4993f2ce2d118fc2b71ce7f261b3dd5f", 9),
    ("trg20_semistable", 1.0): ("55550eef7adc57ad4a46ea1e9f0ba22a", 261),
}


@pytest.mark.parametrize("name,kappa", sorted(_DUNKL_CUSTOM_DIGESTS))
def test_dunkl_custom_testfn_is_pinned_and_called_once_per_point(name, kappa):
    calls = []

    def testfn(xs):
        calls.append(tuple(xs))
        return _A * xs[0] + _B * xs[1]**2

    rep = verify.dunkl_commutator(catalog.get(name), kappa=kappa, testfn=testfn, seed=4)
    digest, points = _DUNKL_CUSTOM_DIGESTS[name, kappa]
    assert rep.passed and _digest(rep) == digest, rep
    assert len(calls) == len(set(calls)) == points
    assert all(type(x) is np.complex128 for xs in calls for x in xs)


@pytest.mark.parametrize("kappa", [0.0, 1.0, 0.5 - 0.25j])
@pytest.mark.parametrize("name", ASSOCIATIVE)
def test_dunkl_stencil_equals_the_pointwise_reference(name, kappa):
    # the stacked stencil keeps each point's order of arithmetic: equal reports
    sol = catalog.get(name)
    for seed in (5, 10):
        assert (verify.dunkl_commutator(sol, kappa=kappa, seed=seed)
                == oracles.dunkl_commutator_pointwise(sol, kappa=kappa, seed=seed))
    testfn = lambda xs: _A * xs[2] - _B * xs[0]**3  # noqa: E731
    assert (verify.dunkl_commutator(sol, kappa=kappa, testfn=testfn, seed=3)
            == oracles.dunkl_commutator_pointwise(sol, kappa=kappa, testfn=testfn, seed=3))


# --- report plumbing -------------------------------------------------------------

def test_report_takes_the_first_largest_residual():
    rep = verify._report("x", "s", [(1.0, (1,)), (2.0, (2,)), (2.0, (3,)),
                                    (0.5, (4,))], 3.0, 5)
    assert (rep.samples, rep.max_residual, rep.argmax_sample) == (4, 2.0, (2,))
    assert rep.passed and rep.seed == 5


def test_report_ranks_nan_above_every_number():
    nan = float("nan")
    rep = verify._report("x", "s", [(1.0, (1,)), (nan, (2,)), (np.inf, (3,)),
                                    (nan, (4,))], 3.0, 0)
    assert np.isnan(rep.max_residual) and rep.argmax_sample == (2,)
    assert rep.samples == 4 and not rep.passed


def test_report_serialization():
    rep = verify.aybe(catalog.get("rat21"), samples=3, seed=14)
    d = rep.to_json_dict()
    assert d["passed"] is True
    assert len(d["argmax_sample"]) == 6
    assert isinstance(d["argmax_sample"][0], list)


def test_reports_are_reproducible():
    a = verify.aybe(catalog.get("trg21"), samples=5, seed=42)
    b = verify.aybe(catalog.get("trg21"), samples=5, seed=42)
    assert a.max_residual == b.max_residual
    assert a.argmax_sample == b.argmax_sample


# max_residual and the first coordinate of argmax_sample for 4 samples.  The
# engine entries pin rounding noise: that of the nodal engine's Hom-space basis
# (the elimination basis with its Cholesky-orthonormalised coupled block, one
# per orbit block), that of the cuspidal engine's graded evaluation
# (rmatrix._cusp_solve) and that of the BLAS summation order of the
# shared-leg products (tensorcore._PRODUCT_PLANS).
# The catalog entries were computed by the per-identity sampling loops that
# preceded the shared residual driver, the cybe and qybe entries whose digits
# the leg plans moved (tensorcore.leg_residual_norm, _CHAIN_PLANS) by those
# plans; qybe runs at v0 = 0.45.
PINNED_RESIDUALS = {
    ("nodal", 5, 2, "aybe", 0): (6.355287432313019e-14, -0.6203240672829127 - 0.4914667910877345j),
    ("nodal", 5, 2, "aybe", 7): (8.264504967895174e-14, -0.5630387996316589 - 0.034680483300054445j),
    ("nodal", 5, 2, "aybe_dual", 0): (2.194088346924805e-14, -0.16555025306337143 + 0.2754985613524907j),
    ("nodal", 5, 2, "aybe_dual", 7): (5.0242958677880804e-14, -0.28027414690114755 + 0.005506633687292992j),
    ("cusp", 5, 3, "aybe", 0): (9.099386826154683e-14, -0.3007782369697672 + 0.9314340729630426j),
    ("cusp", 5, 3, "aybe", 7): (3.5704330589399866e-14, -0.33575966484332387 - 0.3240641037140451j),
    ("cusp", 5, 3, "aybe_dual", 0): (7.553172887309252e-14, -0.3007782369697672 + 0.9314340729630426j),
    ("cusp", 5, 3, "aybe_dual", 7): (2.2275401441590598e-14, -0.33575966484332387 - 0.3240641037140451j),
    ("ell21", "unitarity", 0): (2.3364326363345895e-14, -0.3046081537309824 - 0.710536736320037j),
    ("ell21", "unitarity", 7): (1.637720085286689e-14, -0.2422208503205726 + 0.7428374117793712j),
    ("trg21", "unitarity", 0): (0.0, 0.30639733867339203 - 0.7297000932207376j),
    ("trg21", "unitarity", 7): (0.0, -0.2422208503205726 + 0.7428374117793712j),
    ("rat21", "unitarity", 0): (2.2887833992611187e-16, 0.444889244658473 - 0.5559975326000511j),
    ("rat21", "unitarity", 7): (6.280369834735101e-16, -0.2422208503205726 + 0.7428374117793712j),
    ("trg20_semistable", "unitarity", 0): (0.0, 0.30639733867339203 - 0.7297000932207376j),
    ("trg20_semistable", "unitarity", 7): (0.0, -0.2422208503205726 + 0.7428374117793712j),
    ("ell21_classical", "cybe", 0): (8.981148454337477e-15, 0.4407666876984843 + 0.8739346126149661j),
    ("ell21_classical", "cybe", 7): (9.880556101808692e-16, 0.12122239229660803 + 0.7718701265595033j),
    ("cherednik", "cybe", 0): (2.3525204118543076e-15, 0.7871539320744513 + 0.0820380546589231j),
    ("cherednik", "cybe", 7): (3.580361673049448e-15, -0.2493283214255425 + 0.050923204487072216j),
    ("stolin", "cybe", 0): (1.1102230246251565e-15, 0.7871539320744513 + 0.0820380546589231j),
    ("stolin", "cybe", 7): (9.226380847435024e-16, -0.2493283214255425 + 0.050923204487072216j),
    ("yang", "cybe", 0): (1.1102230246251565e-15, 0.7871539320744513 + 0.0820380546589231j),
    ("yang", "cybe", 7): (9.226380847435024e-16, -0.2493283214255425 + 0.050923204487072216j),
    ("ell21", "qybe", 0): (1.7288250917028502e-13, 0.4407666876984843 + 0.8739346126149661j),
    ("ell21", "qybe", 7): (3.257326998510068e-14, -0.2493283214255425 + 0.050923204487072216j),
    ("trg21", "qybe", 0): (5.402578411571407e-15, 0.7028083233941284 - 0.30375269065039434j),
    ("trg21", "qybe", 7): (1.517719948885615e-14, -0.2493283214255425 + 0.050923204487072216j),
    ("rat21", "qybe", 0): (1.2560739669470201e-15, 0.7871539320744513 + 0.0820380546589231j),
    ("rat21", "qybe", 7): (3.614624287906422e-15, -0.2493283214255425 + 0.050923204487072216j),
}


def _assert_pinned(key, sol, check, seed):
    residual, first = PINNED_RESIDUALS[key]
    if check == "qybe":
        rep = verify.qybe(sol, 0.45, samples=4, seed=seed)
    else:
        rep = getattr(verify, check)(sol, samples=4, seed=seed)
    assert abs(rep.max_residual - residual) <= 1e-14
    assert abs(rep.argmax_sample[0] - first) <= 1e-15


@pytest.mark.parametrize("key", sorted(k for k in PINNED_RESIDUALS if len(k) == 5))
def test_engine_aybe_residuals_are_pinned(key):
    kind, n, d, check, seed = key
    _assert_pinned(key, rmatrix.engine_solution(kind, n, d), check, seed)


@pytest.mark.parametrize("name,check,seed",
                         sorted(k for k in PINNED_RESIDUALS if len(k) == 3))
def test_catalog_residuals_are_pinned(name, check, seed):
    _assert_pinned((name, check, seed), catalog.get(name), check, seed)


@pytest.mark.parametrize("check,name", [
    ("aybe", "trg21"), ("aybe_dual", "trg21"), ("unitarity", "trg21"),
    ("cybe", "yang"), ("qybe", "trg21"), ("dunkl_commutator", "rat21"),
])
@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_checks_reject_nonpositive_samples(check, name, samples):
    # no draws would report max_residual = -1.0, a vacuous pass
    args = (0.45,) if check == "qybe" else ()
    with pytest.raises(ValueError, match="samples"):
        getattr(verify, check)(catalog.get(name), *args, samples=samples)


@pytest.mark.parametrize("v0", [0, 0j])
@pytest.mark.parametrize("name", ["trg21", "rat21"])
def test_qybe_rejects_v0_at_the_pole(name, v0):
    with pytest.raises(ValueError, match="v0"):
        verify.qybe(catalog.get(name), v0, samples=3)


@pytest.mark.parametrize("check,name", [
    ("aybe", "trg21"), ("aybe_dual", "ell21"), ("unitarity", "trg21"), ("cybe", "yang"),
    ("cybe", "ell21_classical"), ("qybe", "trg21"), ("qybe", "ell21"),
    ("dunkl_commutator", "rat21"),
])
def test_no_check_forms_a_kronecker_product(monkeypatch, check, name):
    def forbidden(*args):
        raise AssertionError("an n^3 x n^3 Kronecker product on a verify path")
    monkeypatch.setattr(tensorcore, "embed_leg", forbidden)
    monkeypatch.setattr(tensorcore.Tensor, "matmul", forbidden)
    args = (0.45,) if check == "qybe" else ()
    assert getattr(verify, check)(catalog.get(name), *args, samples=3, seed=1).passed


@pytest.mark.parametrize("check,name,per_draw", [
    ("aybe", "trg21", 6), ("aybe_dual", "trg21", 6), ("unitarity", "trg21", 2),
    ("cybe", "yang", 3), ("qybe", "trg21", 3), ("dunkl_commutator", "rat21", 6),
])
def test_every_sampled_check_draws_through_admissible(monkeypatch, check, name, per_draw):
    # one draw-and-reject loop: each accepted draw's terms pass _admissible once
    seen, admissible = [], verify._admissible
    monkeypatch.setattr(verify, "_admissible",
                        lambda *ts: seen.append(len(ts)) or admissible(*ts))
    args = (0.45,) if check == "qybe" else ()
    rep = getattr(verify, check)(catalog.get(name), *args, samples=3, seed=5)
    assert rep.passed and seen == [per_draw] * 3


@pytest.mark.parametrize("check,per_draw", [
    ("aybe", 6), ("aybe_dual", 6), ("unitarity", 2), ("qybe", 3),
    ("dunkl_commutator", 6),
])
def test_sampling_gives_up_after_50_draws(check, per_draw):
    calls = []

    def huge(v, y):
        # far above NORM_CAP: every draw is a near-pole draw
        calls.append((v, y))
        return 1e3 * Tensor2.simple(ID2, ID2)

    sol = RSolution("huge", "vdiff_ydiff", 2, huge)
    args = (0.45,) if check == "qybe" else ()
    with pytest.raises(verify.PoleSampleError, match="kept hitting poles"):
        getattr(verify, check)(sol, *args, samples=5, seed=0)
    # a draw is rejected at its first term; its other terms are never evaluated
    assert len(calls) == 50, f"{len(calls)} evaluations for 50 draws of {per_draw} terms"


def test_as_three_param_views():
    rat, trg = catalog.get("rat21"), catalog.get("trg21")
    assert verify.as_three_param(rat) is rat.evaluator
    got = verify.as_three_param(trg)(0.3, 0.2, 0.9)
    assert (got - trg.evaluator(0.3, 0.9 - 0.2)).norm() == 0.0
    for name in ("yang", "stolin"):
        with pytest.raises(ValueError, match="v-difference"):
            verify.as_three_param(catalog.get(name))
    with pytest.raises(ValueError, match="v-difference"):
        verify.as_three_param(rmatrix.engine_solution("nodal", 2, 1))


# --- engine draws: one stack per batch of draws, replayed one row at a time on a refusal

_V = (0.6 + 0.3j, 0.9 - 0.2j)            # v1, v2
_Y = (0.7 + 0.1j, 0.4 - 0.6j, -0.5 + 0.3j)  # y1, y2, y3


def _scripted_sample(monkeypatch, first):
    """verify._sample returns the points `first`, then draws as before."""
    real, script = verify._sample, [np.array(first)]
    monkeypatch.setattr(verify, "_sample",
                        lambda tries: script.pop() if script else real(tries))


def _lazy(sol):
    return dataclasses.replace(sol, evaluate_rows=None)


def _row_counts(monkeypatch, engine="_nodal_rows"):
    """Rows of every rmatrix._nodal_rows (or `engine`) call, stacked and
    one-row alike."""
    counts, real = [], getattr(rmatrix, engine)
    monkeypatch.setattr(rmatrix, engine,
                        lambda plan, rows: counts.append(len(rows)) or real(plan, rows))
    return counts


def test_replay_keeps_the_rejection_of_a_draw_with_a_later_degenerate_term(monkeypatch):
    # term 0 (v1, v2, y1, y2) is near its pole y1 = y2, over NORM_CAP; term 3
    # (v3, v2, y1, y2) is at the nodal (2,1) exceptional locus v3 = -v2, where
    # the engine refuses.  The lazy draw is rejected at term 0 and never
    # reaches term 3; the stack is refused, and its replay must do the same
    (v1, v2), (y1, _, y3) = _V, _Y
    first = [v1, v2, -v2, y1, y1 + 1e-3, y3]
    sol = rmatrix.engine_solution("nodal", 2, 1)
    with pytest.raises(rmatrix.DegenerateSystemError):
        rmatrix.engine_nodal(2, 1, -v2, v2, y1, y1 + 1e-3)
    norms, admissible = [], verify._admissible
    monkeypatch.setattr(verify, "_admissible", lambda *ts: norms.append(ts) or admissible(*ts))
    counts = _row_counts(monkeypatch)
    reports = []
    # stacked: the refused stack of the three drawn-ahead draws, its replay
    # (row 0 of the first, six rows of each other), then a stack for the
    # fourth draw; lazy: row 0, then six rows per accepted draw
    for s, want in ((sol, [18] + [1] * 13 + [6]), (_lazy(sol), [1] * 19)):
        norms.clear()
        counts.clear()
        _scripted_sample(monkeypatch, first)
        reports.append(verify.aybe(s, samples=3, seed=4))
        # the first draw is rejected at its first term, then 3 are accepted
        assert len(norms[0]) == 1 and norms[0][0] >= verify.NORM_CAP
        assert [len(ts) for ts in norms[1:]] == [6] * 3
        assert counts == want
    assert reports[0] == reports[1] and reports[0].passed


def test_stacked_and_lazy_runs_see_the_same_rows(monkeypatch):
    sol = rmatrix.engine_solution("nodal", 2, 1)
    counts = _row_counts(monkeypatch)
    stacked = verify.aybe(sol, samples=3, seed=4)
    assert counts == [18]                # one stack for the three draws
    counts.clear()
    assert verify.aybe(_lazy(sol), samples=3, seed=4) == stacked
    assert counts == [1] * 18


@pytest.mark.parametrize("kind,engine", [("nodal", "_nodal_rows"), ("cusp", "_cusp_rows")])
def test_one_stack_takes_the_drawn_ahead_draws_up_to_the_cutoff(monkeypatch, kind, engine):
    counts = _row_counts(monkeypatch, engine)
    cutoff = rmatrix._STACK_MAX_N["nodal" if kind == "nodal" else "cuspidal"]
    for n in (cutoff, cutoff + 1):
        counts.clear()
        sol = rmatrix.engine_solution(kind, n, 1)
        report = verify.aybe(sol, samples=3, seed=2)
        assert report.passed and report.samples == 3
        if n <= cutoff:
            # the three drawn-ahead draws' 18 rows in one call; at nodal
            # rank 8 one of them is rejected, and its replacement draw's
            # six rows are one more call; at cuspidal rank 6 three draws
            # are, one after the other
            assert counts == ([18, 6] if kind == "nodal" else [18, 6, 6, 6])
            assert verify.aybe(_lazy(sol), samples=3, seed=2) == report
        else:
            assert sol.evaluate_rows is None and set(counts) == {1}


def test_replay_raises_the_degenerate_term_of_an_admissible_draw(monkeypatch, capsys):
    # terms 0-2 are admissible and term 3 (v3, v2, y1, y2) sits at v3 = -v2:
    # the stack is refused, and its replay raises that term's refusal
    (v1, v2), (y1, y2, y3) = _V, _Y
    first = [v1, v2, -v2, y1, y2, y3]
    sol = rmatrix.engine_solution("nodal", 2, 1)
    errors, counts = [], _row_counts(monkeypatch)
    for s, want in ((sol, [12, 1, 1, 1, 1]), (_lazy(sol), [1, 1, 1, 1])):
        counts.clear()
        _scripted_sample(monkeypatch, first)
        with pytest.raises(rmatrix.DegenerateSystemError) as exc:
            verify.aybe(s, samples=2, seed=4)
        errors.append((str(exc.value), exc.value.cond))
        assert counts == want   # the refused stack, then rows 0-3 one at a time
    assert errors[0] == errors[1] and errors[0][1] > rmatrix.COND_CAP
    _scripted_sample(monkeypatch, first)
    code = cli.main(["verify", "--identity", "aybe", "--curve", "nodal", "--rank", "2",
                     "--deg", "1", "--samples", "2"])
    assert code == 3 and capsys.readouterr().err.startswith(f"error: {errors[0][0]}")


@pytest.mark.parametrize("kind,first,message", [
    ("nodal", [_V[0], _V[0], 0.5, *_Y], "coincident spectral points"),
    ("nodal", [0.0, *_V, *_Y], "nodal parameters must be nonzero"),
    ("cusp", [*_V, 0.5, _Y[0], _Y[0], _Y[2]], "coincident curve points"),
])
def test_invalid_rows_raise_as_before(monkeypatch, kind, first, message):
    sol = rmatrix.engine_solution(kind, 2, 1)
    for s in (sol, _lazy(sol)):
        _scripted_sample(monkeypatch, first)
        with pytest.raises(rmatrix.EngineError, match=message):
            verify.aybe(s, samples=2, seed=4)


# --- theta-bound draws: prefetched in one batch, replayed lazily on a pole ------

def _admissible_calls(monkeypatch):
    calls, real = [], verify._admissible
    monkeypatch.setattr(verify, "_admissible", lambda *ts: calls.append(ts) or real(*ts))
    return calls


def _theta_calls(monkeypatch):
    calls, real = [], catalog.theta_j
    monkeypatch.setattr(catalog, "theta_j",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


# every closed form under each sampled identity it takes; seed 2 rejects
# draws of trg20_semistable and ell21 at NORM_CAP
@pytest.mark.parametrize("seed", [1, 2, 4, 9])
@pytest.mark.parametrize("check,name", [
    *[(check, name) for name in ASSOCIATIVE
      for check in ("aybe", "aybe_dual", "unitarity", "qybe", "dunkl_commutator")],
    *[("cybe", name) for name in CLASSICAL],
])
def test_prefetched_and_lazy_draws_agree(monkeypatch, check, name, seed):
    sol = catalog.get(name)
    args = (0.45,) if check == "qybe" else ()
    samples = 3 if check == "dunkl_commutator" else 20
    norms, thetas = _admissible_calls(monkeypatch), _theta_calls(monkeypatch)
    runs = []
    for s in (sol, _lazy(sol)):
        norms.clear()
        thetas.clear()
        runs.append((getattr(verify, check)(s, *args, samples=samples, seed=seed),
                     list(norms), len(thetas)))
    (batched, seen, prefetched), (lazy, seen_lazy, one_row) = runs
    # field for field, and the same draws walked, each rejected at the same term
    assert dataclasses.asdict(batched) == dataclasses.asdict(lazy)
    assert seen == seen_lazy
    # (trg20_semistable fails qybe on both paths)
    assert batched.passed == ((check, name) != ("qybe", "trg20_semistable"))
    if name.startswith("ell21"):
        assert prefetched < one_row / 10


@pytest.mark.parametrize("check", ["aybe", "aybe_dual", "unitarity"])
def test_admissible_sees_every_walked_draw_on_both_paths(monkeypatch, check):
    # one _admissible call per draw, accepted or rejected: the contract of
    # the draw counters of perfbench/layers.py
    sol = catalog.get("trg20_semistable")
    real, drawn, runs = verify._sample, [], []
    monkeypatch.setattr(verify, "_sample", lambda tries: drawn.append(1) or real(tries))
    norms = _admissible_calls(monkeypatch)
    for s in (sol, _lazy(sol)):
        norms.clear()
        drawn.clear()
        report = getattr(verify, check)(s, samples=20, seed=2)
        rejected = sum(not ts[-1] < verify.NORM_CAP for ts in norms)
        assert report.samples == 20 and rejected > 0
        assert len(norms) == len(drawn) == 20 + rejected
        runs.append((report, list(norms)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", ["rat21", "rat21_degenerate", "ell21"])
def test_a_batch_that_divides_by_zero_is_replayed(monkeypatch, name):
    # term 0 (v1, v2, y1, y2) has v = 1e-3, over NORM_CAP; term 1
    # (v1, v3, y2, y3) has v = 0: a ZeroDivisionError (PoleError for ell21)
    # in the batch.  Lazily the draw is rejected at term 0; the replayed
    # batch must do the same.  An admissible draw raises that term's error
    (v1, v2), (y1, y2, y3) = _V, _Y
    sol = catalog.get(name)
    runs, errors = [], []
    norms = _admissible_calls(monkeypatch)
    for s in (sol, _lazy(sol)):
        norms.clear()
        _scripted_sample(monkeypatch, [v1, v1 + 1e-3, v1, y1, y2, y3])
        runs.append((verify.aybe(s, samples=3, seed=4), list(norms)))
        assert len(norms[0]) == 1 and norms[0][0] >= verify.NORM_CAP
        _scripted_sample(monkeypatch, [v1, v2, v1, y1, y2, y3])
        with pytest.raises(ZeroDivisionError) as exc:
            verify.aybe(s, samples=3, seed=4)
        errors.append((type(exc.value), str(exc.value)))
    assert runs[0] == runs[1] and runs[0][0].passed
    assert errors[0] == errors[1]


@pytest.mark.parametrize("k", [3, 4, 6, 12])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_array_tries_equal_the_sequential_sample(seed, k):
    # several buffer refills; at k = 12 about a third of the tries fail
    rng, tries = np.random.default_rng(seed), verify._tries(np.random.default_rng(seed), k)
    for _ in range(3 * verify.TRIES_AHEAD):
        assert verify._sample(tries).tobytes() == oracles.sample_sequential(rng, k).tobytes()


def _counted(tries, seen):
    for t in tries:
        seen.append(t[1])
        yield t


@pytest.mark.parametrize("seed", range(6))
def test_array_tries_take_as_many_tries_as_the_sequential_sample(seed):
    # 40 points: most tries fail, and the first good one comes as late; 100
    # points: 200 tries fail and both give up
    for k in (40, 100):
        rng, seen = np.random.default_rng(seed), []
        tries = _counted(verify._tries(np.random.default_rng(seed), k), seen)
        try:
            want = oracles.sample_sequential(rng, k).tobytes()
        except verify.PoleSampleError:
            want = None
        if want is None:
            with pytest.raises(verify.PoleSampleError, match="distinct sample points"):
                verify._sample(tries)
            assert k == 100 and len(seen) == 200 and not any(seen)
        else:
            assert verify._sample(tries).tobytes() == want and seen[-1]
        # the sequential sample used the values of exactly len(seen) tries
        assert rng.random() == np.random.default_rng(seed).random(2 * k * len(seen) + 1)[-1]


def test_prefetch_rejects_an_over_cap_draw_with_a_later_pole(monkeypatch):
    # term 0 (v1, v2, y1, y2) has v = v2 - v1 = 1e-3, far over NORM_CAP; term 1
    # (v1, v3, y2, y3) has v = 0, a pole.  The lazy draw is rejected at term 0
    # and never reaches term 1; the batch raises, and its replay must do the same
    (v1, _), (y1, y2, y3) = _V, _Y
    first = [v1, v1 + 1e-3, v1, y1, y2, y3]
    sol = catalog.get("ell21")
    with pytest.raises(verify.PoleError):
        sol(0j, y3 - y2)
    norms = _admissible_calls(monkeypatch)
    runs = []
    for s in (sol, _lazy(sol)):
        norms.clear()
        _scripted_sample(monkeypatch, first)
        runs.append((verify.aybe(s, samples=3, seed=4), list(norms)))
        assert len(norms[0]) == 1 and norms[0][0] >= verify.NORM_CAP
    assert runs[0] == runs[1] and runs[0][0].passed


def test_prefetch_raises_the_pole_of_an_admissible_draw(monkeypatch):
    (v1, v2), (y1, y2, y3) = _V, _Y
    first = [v1, v2, v1, y1, y2, y3]      # term 1 (v1, v3, y2, y3) is at v = 0
    sol = catalog.get("ell21")
    errors = []
    for s in (sol, _lazy(sol)):
        norms = _admissible_calls(monkeypatch)
        _scripted_sample(monkeypatch, first)
        with pytest.raises(verify.PoleError) as exc:
            verify.aybe(s, samples=3, seed=4)
        errors.append(str(exc.value))
        assert norms == []
    assert errors[0] == errors[1] == "ell21 pole at v=0j"


def test_fifty_rejections_in_a_row_raise_at_the_same_draw(monkeypatch):
    # r(v, y) is over NORM_CAP where |y| > 1: two good draws, then only bad ones
    def r(v, y):
        return (1e3 if abs(y) > 1 else 1.0) * Tensor2.simple(ID2, ID2)

    lazy = RSolution("step", "vdiff_ydiff", 2, r)
    batched = dataclasses.replace(lazy, evaluate_rows=lambda rows: np.array(
        [r(*a).coeffs for a in rows]))
    good, bad = [0.3, 0.6, 0.2, 0.7], [0.3, 0.6, 0.2, 2.5]
    counts = []
    # the two good draws wait in a block of 64 draws, or each is a block of its own
    for s, block in ((batched, 64), (lazy, 64), (batched, 1)):
        monkeypatch.setattr(verify, "block_draws", lambda n: block)
        script = [bad] * 100 + [good] * 2
        drawn = []
        monkeypatch.setattr(verify, "_sample",
                            lambda tries: drawn.append(1) or np.array(script.pop()))
        norms = _admissible_calls(monkeypatch)
        with pytest.raises(verify.PoleSampleError, match="kept hitting poles"):
            verify.unitarity(s, samples=5, seed=0)
        counts.append((len(drawn), [len(ts) for ts in norms]))
    assert counts == [(52, [2, 2] + [1] * 50)] * 3


def _reported_pairs(monkeypatch):
    """The (residual, point) pairs of every report, as _report gets them."""
    seen, real = [], verify._report
    monkeypatch.setattr(verify, "_report", lambda identity, solution, pairs, *rest:
                        seen.append(list(pairs)) or real(identity, solution, pairs, *rest))
    return seen


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("check", ["aybe", "aybe_dual", "unitarity"])
def test_blocks_of_draws_give_the_per_draw_residuals(monkeypatch, n, check):
    # the samples span several blocks below n = 4: 64 draws a block at n = 2, 5 at n = 3
    sol = rmatrix.engine_solution("nodal", n, 1)
    samples = {2: 70, 3: 12}.get(n, 3)
    pairs = _reported_pairs(monkeypatch)
    blocked = getattr(verify, check)(sol, samples=samples, seed=3)
    monkeypatch.setattr(verify, "block_draws", lambda n: 1)
    assert getattr(verify, check)(sol, samples=samples, seed=3) == blocked
    assert pairs[0] == pairs[1] and len(pairs[0]) == samples


def test_circle_payloads_agree_on_both_paths(monkeypatch):
    ell, cl = catalog.get("ell21"), catalog.get("ell21_classical")
    thetas = _theta_calls(monkeypatch)
    assert verify.laurent_payload(ell) == verify.laurent_payload(_lazy(ell))
    assert verify.casimir_residue(cl) == verify.casimir_residue(_lazy(cl))
    pairs = [(0.15, 0.45), (0.1, 0.8 + 0.2j)]
    for a, b in zip(verify.classical_limit_values(ell, pairs),
                    verify.classical_limit_values(_lazy(ell), pairs)):
        assert np.array_equal(a.coeffs, b.coeffs)
    # the CIRCLE_POINTS circle points are one call, 4 theta_j calls, on the rows path
    thetas.clear()
    verify.casimir_residue(cl)
    assert len(thetas) == 4
