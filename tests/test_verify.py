# tests/test_verify.py

import numpy as np
import pytest

from rmx import catalog, rmatrix, verify
from rmx.catalog import RSolution
from rmx.tensorcore import E21, H, ID2, Tensor2, casimir


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
    zero = RSolution("zero", "vdiff_ydiff", 2, lambda v, y: Tensor2.zero(2))
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
        from rmx.tensorcore import swap
        return Tensor2(2, 0.5 * (t.coeffs - swap(t).coeffs))

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


def test_classical_limit_is_gauge_invariant():
    # the exp(c v y)-gauged solution has the same classical limit: the
    # prefactor exp(c v (y2 - y1)) -> 1 as v -> 0
    c = 0.4 - 0.15j
    base = catalog.get("rat21")
    gauged = RSolution(
        "gauged", "vdiff_y12", 2,
        lambda v, y1, y2: np.exp(c * v * (y2 - y1)) * base.evaluator(v, y1, y2))
    grid = [0.3, 0.6, 0.9]
    a = verify.classical_limit_values(base, [(0.1, 0.1 + y) for y in grid])
    b = verify.classical_limit_values(gauged, [(0.1, 0.1 + y) for y in grid])
    assert max((x - y).norm() for x, y in zip(a, b)) < 1e-7


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
    from rmx.thetafn import ThetaParams, arg_scale
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
    rep = verify.dunkl_commutator(catalog.get(name), m=3, kappa=0.0,
                                  samples=2, tol=1e-9, seed=11)
    assert rep.passed, rep


@pytest.mark.parametrize("name", ["rat21", "trg21"])
def test_dunkl_kappa_one_finite_difference(name):
    rep = verify.dunkl_commutator(catalog.get(name), m=3, kappa=1.0,
                                  samples=2, tol=1e-5, seed=12)
    assert rep.passed, rep


def test_dunkl_constant_testfn_kappa_zero():
    # constant function: only the algebraic Yang-Baxter relations act
    n = 2
    const = np.kron(np.kron(H, ID2), E21) + 0.3 * np.eye(8)
    rep = verify.dunkl_commutator(catalog.get("rat21"), m=3, kappa=0.0,
                                  testfn=lambda xs: const, samples=2,
                                  tol=1e-9, seed=13)
    assert rep.passed, rep


def test_dunkl_nan_residual_fails():
    rep = verify.dunkl_commutator(catalog.get("rat21"), m=3, kappa=0.0,
                                  testfn=lambda xs: np.full((8, 8), np.nan),
                                  samples=2, seed=13)
    assert np.isnan(rep.max_residual) and not rep.passed
    assert rep.samples == 6


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
# engine entries were computed by the identity-padded n^9 einsum products,
# the catalog entries by the per-identity sampling loops that preceded the
# shared residual driver; qybe runs at v0 = 0.45.
PINNED_RESIDUALS = {
    ("nodal", 5, 2, "aybe", 0): (3.1607396448114513e-13, -0.16555025306337143 + 0.2754985613524907j),
    ("nodal", 5, 2, "aybe", 7): (3.26255039830718e-13, -0.5630387996316589 - 0.034680483300054445j),
    ("nodal", 5, 2, "aybe_dual", 0): (1.973996971899478e-13, -0.16555025306337143 + 0.2754985613524907j),
    ("nodal", 5, 2, "aybe_dual", 7): (2.6252059584503803e-13, -0.28027414690114755 + 0.005506633687292992j),
    ("cusp", 5, 3, "aybe", 0): (1.7258767121938798e-12, -0.3007782369697672 + 0.9314340729630426j),
    ("cusp", 5, 3, "aybe", 7): (5.542489538320524e-13, -0.33575966484332387 - 0.3240641037140451j),
    ("cusp", 5, 3, "aybe_dual", 0): (9.012297888552509e-13, -0.5499549551722069 - 0.3702236915925935j),
    ("cusp", 5, 3, "aybe_dual", 7): (1.366295323605161e-13, 0.7809036110345662 + 0.025843973035727958j),
    ("ell21", "unitarity", 0): (2.3364326363345895e-14, -0.3046081537309824 - 0.710536736320037j),
    ("ell21", "unitarity", 7): (1.637720085286689e-14, -0.2422208503205726 + 0.7428374117793712j),
    ("trg21", "unitarity", 0): (0.0, 0.30639733867339203 - 0.7297000932207376j),
    ("trg21", "unitarity", 7): (0.0, -0.2422208503205726 + 0.7428374117793712j),
    ("rat21", "unitarity", 0): (2.2887833992611187e-16, 0.444889244658473 - 0.5559975326000511j),
    ("rat21", "unitarity", 7): (6.280369834735101e-16, -0.2422208503205726 + 0.7428374117793712j),
    ("trg20_semistable", "unitarity", 0): (0.0, 0.30639733867339203 - 0.7297000932207376j),
    ("trg20_semistable", "unitarity", 7): (0.0, -0.2422208503205726 + 0.7428374117793712j),
    ("ell21_classical", "cybe", 0): (8.926082647349967e-15, 0.4407666876984843 + 0.8739346126149661j),
    ("ell21_classical", "cybe", 7): (9.880556101808692e-16, 0.12122239229660803 + 0.7718701265595033j),
    ("cherednik", "cybe", 0): (2.220446049250313e-15, 0.35851943553774046 + 0.3553048442403331j),
    ("cherednik", "cybe", 7): (3.580361673049448e-15, -0.2493283214255425 + 0.050923204487072216j),
    ("stolin", "cybe", 0): (1.1102230246251565e-15, 0.7871539320744513 + 0.0820380546589231j),
    ("stolin", "cybe", 7): (4.965068306494546e-16, -0.2493283214255425 + 0.050923204487072216j),
    ("yang", "cybe", 0): (1.1102230246251565e-15, 0.7871539320744513 + 0.0820380546589231j),
    ("yang", "cybe", 7): (2.482534153247273e-16, -0.44052460035975366 - 0.1539161210840757j),
    ("ell21", "qybe", 0): (1.7288250917028502e-13, 0.4407666876984843 + 0.8739346126149661j),
    ("ell21", "qybe", 7): (3.257326998510068e-14, -0.2493283214255425 + 0.050923204487072216j),
    ("trg21", "qybe", 0): (7.105427357601002e-15, 0.7028083233941284 - 0.30375269065039434j),
    ("trg21", "qybe", 7): (1.517719948885615e-14, -0.2493283214255425 + 0.050923204487072216j),
    ("rat21", "qybe", 0): (1.7763568394002505e-15, 0.7028083233941284 - 0.30375269065039434j),
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


@pytest.mark.parametrize("check,per_draw", [
    ("aybe", 6), ("aybe_dual", 6), ("unitarity", 2), ("qybe", 3),
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
    assert len(calls) == 50 * per_draw


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
