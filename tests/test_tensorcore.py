# tests/test_tensorcore.py

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmx import rmatrix, tensorcore, verify
from rmx.tensorcore import (
    E12, E21, H, ID2, Tensor, Tensor2, Tensor3, casimir, embed, embed_leg,
    leg_residual_norm, project_sl,
)

from oracles import (cybe_residual_kron, einsum_leg_product, kron_embed, leg_product,
                     qybe_residual_kron, swap)


def rand_tensor2(rng, n=2):
    c = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    return Tensor2(n, c)


def rand_matrix(rng, n=2):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def unit_matrix(n, i, j):
    """Matrix unit e_{ij}, 0-based."""
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


# --- embed_leg ---------------------------------------------------------------

def test_embed_13_places_identity_in_the_middle():
    rng = np.random.default_rng(0)
    a, b = rand_matrix(rng), rand_matrix(rng)
    t3 = embed_leg(Tensor2.simple(a, b), 13)
    want = np.kron(np.kron(a, np.eye(2)), b)
    assert np.allclose(t3.kron(), want)


def test_embed_12_of_identity_is_identity():
    t3 = embed_leg(Tensor2.simple(ID2, ID2), 12)
    assert np.allclose(t3.kron(), np.eye(8))


def test_embed_23_basis_case():
    t3 = embed_leg(Tensor2.simple(H, E21), 23)
    want = np.kron(np.kron(np.eye(2), H), E21)
    assert np.allclose(t3.kron(), want)


def test_embed_invalid_leg_tag():
    with pytest.raises(ValueError):
        embed_leg(Tensor2.simple(H, H), 21)


def test_embed_is_linear_and_injective():
    rng = np.random.default_rng(1)
    t1, t2 = rand_tensor2(rng), rand_tensor2(rng)
    lhs = embed_leg(t1 + 2.5 * t2, 13)
    rhs = embed_leg(t1, 13) + 2.5 * embed_leg(t2, 13)
    assert (lhs - rhs).norm() < 1e-14
    # injective: nonzero input stays nonzero
    assert embed_leg(t1, 23).norm() > 0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("legs", [12, 13, 23])
def test_leg_products_match_dense_kron_oracle(n, legs):
    rng = np.random.default_rng(n * 100 + legs)
    t1 = rand_tensor2(rng, n)
    t2 = rand_tensor2(rng, n)
    prod = embed_leg(t1, legs).matmul(embed_leg(t2, 23))
    want = kron_embed(t1.coeffs, legs, n) @ kron_embed(t2.coeffs, 23, n)
    assert np.max(np.abs(prod.kron() - want)) < 1e-12


# --- leg_product and Tensor3.matmul -----------------------------------------

LEG_PAIRS = [(12, 13), (12, 23), (13, 12), (13, 23), (23, 12), (23, 13)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("legs_a,legs_b", LEG_PAIRS)
def test_shared_leg_product_matches_dense_kron_oracle(n, legs_a, legs_b):
    rng = np.random.default_rng(1000 * n + legs_a + legs_b)
    a, b = rand_tensor2(rng, n), rand_tensor2(rng, n)
    got = leg_product(a, legs_a, b, legs_b)
    assert got.coeffs.shape == (n,) * 6 and got.coeffs.flags.c_contiguous
    want = kron_embed(a.coeffs, legs_a, n) @ kron_embed(b.coeffs, legs_b, n)
    assert np.max(np.abs(got.kron() - want)) < 1e-12
    assert np.max(np.abs(got.coeffs - einsum_leg_product(a, legs_a, b, legs_b))) < 1e-12


@pytest.mark.parametrize("n_a,n_b", [(2, 3), (1, 2), (2, 1)])
def test_leg_product_rejects_tensors_of_different_size(n_a, n_b):
    rng = np.random.default_rng(17)
    a, b = rand_tensor2(rng, n_a), rand_tensor2(rng, n_b)
    with pytest.raises(ValueError):
        leg_product(a, 12, b, 23)


@pytest.mark.parametrize("legs_a,legs_b", [(12, 12), (23, 23), (12, 21), (31, 23)])
def test_leg_product_rejects_tags_not_sharing_one_leg(legs_a, legs_b):
    t = Tensor2.simple(H, E21)
    with pytest.raises(ValueError):
        leg_product(t, legs_a, t, legs_b)


# --- leg_residual_norm: the sampled residual reducer ------------------------

# per residual, the (v1, v2, y1, y2) of its six engine terms at the draw
# (v1, v2, v3, y1, y2, y3), as verify.aybe and verify.aybe_dual take them
DRAW_ARGS = {
    "aybe": lambda v1, v2, v3, y1, y2, y3: (
        (v1, v2, y1, y2), (v1, v3, y2, y3), (v1, v3, y1, y3),
        (v3, v2, y1, y2), (v2, v3, y2, y3), (v1, v2, y1, y3)),
    "dual": lambda v1, v2, v3, y1, y2, y3: (
        (v2, v3, y2, y3), (v1, v3, y1, y2), (v1, v2, y1, y2),
        (v2, v3, y1, y3), (v1, v3, y1, y3), (v2, v1, y2, y3)),
}
DRAW = (0.7 + 0.2j, 1.3 - 0.4j, -0.5 + 0.9j, 0.6 - 0.3j, -0.2 + 1.0j, 1.1 + 0.1j)


def _stacks(*ts):
    """Coefficient stacks of one draw: each tensor's coeffs with a draw axis."""
    return [t.coeffs[None] for t in ts]


# (lhs, rhs) of the residuals as verify runs them, slot j standing for the
# j-th term of a draw: AYBE r12 r23 - (r13 r12 + r23 r13), dual
# r23 r12 - (r12 r13 + r13 r23), CYBE from r12, r13, r23 as
# [r12, r23] + [r12, r13] + [r13, r23], QYBE as R12 R13 R23 - R23 R13 R12
SIDES = {"aybe": ([(0, 12, 1, 23)], [(2, 13, 3, 12), (4, 23, 5, 13)]),
         "dual": ([(0, 23, 1, 12)], [(2, 12, 3, 13), (4, 13, 5, 23)]),
         "cybe": ([(0, 12, 2, 23), (0, 12, 1, 13), (1, 13, 2, 23)],
                  [(2, 23, 0, 12), (1, 13, 0, 12), (2, 23, 1, 13)]),
         "qybe": ([(0, 12, 1, 13, 2, 23)], [(2, 23, 1, 13, 0, 12)])}


def _sides(form, stacks):
    """The product lists of a residual with stacks[j] put in for slot j."""
    return tuple([tuple(stacks[x] if i % 2 == 0 else x for i, x in enumerate(p)) for p in side]
                 for side in SIDES[form])


def _random_stacks(rng, count, k, n):
    return [rng.standard_normal((k,) + (n,) * 4) + 1j * rng.standard_normal((k,) + (n,) * 4)
            for _ in range(count)]


def _whole_residual(lhs, rhs):
    """The residual of a one-draw stack as the whole-tensor expression p0 - (p1 + p2)."""
    (p0,), (p1, p2) = ([leg_product(Tensor2(a.shape[-1], a[0]), ta, Tensor2(b.shape[-1], b[0]), tb)
                        for a, ta, b, tb in side] for side in (lhs, rhs))
    return (p0 - (p1 + p2)).norm()


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("form", ["aybe", "dual"])
def test_leg_residual_norm_equals_whole_tensor_expression(n, form):
    rng = np.random.default_rng(100 * n + len(form))
    random_terms = [rand_tensor2(rng, n) for _ in range(6)]
    engine = rmatrix.engine_solution("nodal", n, 1).evaluator
    engine_terms = [engine(*a) for a in DRAW_ARGS[form](*DRAW)]
    for ts in (random_terms, engine_terms):
        lhs, rhs = _sides(form, _stacks(*ts))
        (got,) = leg_residual_norm(lhs, rhs)
        assert isinstance(got, float) and got == _whole_residual(lhs, rhs)
    assert got < 1e-10  # the engine terms satisfy the identity


@pytest.mark.parametrize("n", [3, 5])  # one block; one block per leg-1 row
@pytest.mark.parametrize("slot", range(6))
@pytest.mark.parametrize("form", ["aybe", "dual"])
def test_leg_residual_norm_nan_fails_the_report(n, slot, form):
    rng = np.random.default_rng(40 + slot)
    ts = [rand_tensor2(rng, n) for _ in range(6)]
    # a NaN in leg-1 row n - 1: where its tensor owns output axis 0 and the
    # rows are walked, only the last row block sees it
    ts[slot].coeffs[n - 1, rng.integers(n), rng.integers(n), rng.integers(n)] = np.nan
    (got,) = leg_residual_norm(*_sides(form, _stacks(*ts)))
    assert np.isnan(got)
    assert not verify._report("AYBE", "x", [(0.0, (1,)), (got, (2,))], 1e-8, 0).passed


@pytest.mark.parametrize("n", [2, 3, 5])  # 64 draws a block, 5, one leg-1 row of one draw
@pytest.mark.parametrize("form", ["aybe", "dual"])
def test_a_nan_draw_leaves_its_block_mates_finite(n, form):
    k = 7
    stacks = _random_stacks(np.random.default_rng(70 + n), 6, k, n)
    stacks[4][3, 0, 1, 0, 1] = stacks[1][5, n - 1, 0, 0, 0] = np.nan
    got = leg_residual_norm(*_sides(form, stacks))
    alone = [leg_residual_norm(*_sides(form, [s[j:j + 1] for s in stacks]))[0]
             for j in range(k)]
    assert [np.isnan(r) for r in got] == [j in (3, 5) for j in range(k)]
    assert [r for r in got if not np.isnan(r)] == [r for r in alone if not np.isnan(r)]
    report = verify._report("AYBE", "x", [(r, (j,)) for j, r in enumerate(got)], 1e-8, 0)
    assert np.isnan(report.max_residual) and report.argmax_sample == (3,)
    assert not report.passed


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("form", SIDES)
def test_blocks_of_draws_give_each_draw_its_own_residual_bit_for_bit(n, form):
    # k spans more than one block below n = 4 (64 draws a block at n = 2, 5 at n = 3)
    k = {2: 70, 3: 12}.get(n, 3)
    terms = 6 if form in ("aybe", "dual") else 3  # a draw's
    stacks = _random_stacks(np.random.default_rng(80 + n), terms, k, n)
    got = leg_residual_norm(*_sides(form, stacks))
    assert got == [leg_residual_norm(*_sides(form, [s[j:j + 1] for s in stacks]))[0]
                   for j in range(k)]
    assert tensorcore.block_draws(n) == {2: 64, 3: 5}.get(n, 1)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("form,oracle", [("cybe", cybe_residual_kron),
                                         ("qybe", qybe_residual_kron)])
def test_cybe_and_qybe_leg_plans_match_the_kronecker_residuals(n, form, oracle):
    stacks = _random_stacks(np.random.default_rng(90 + n), 3, 3, n)
    for j, r in enumerate(leg_residual_norm(*_sides(form, stacks))):
        want = oracle(*(Tensor2(n, s[j]) for s in stacks))
        assert abs(r - want) <= 1e-15 * want


@pytest.mark.parametrize("n", [3, 6])
def test_leg_residual_norm_sums_each_side_left_to_right(n):
    # three products a side, as in the CYBE commutators
    rng = np.random.default_rng(60 + n)
    tags = [(12, 23), (12, 13), (13, 23)]
    lhs = [(rand_tensor2(rng, n), ta, rand_tensor2(rng, n), tb) for ta, tb in tags]
    rhs = [(rand_tensor2(rng, n), tb, rand_tensor2(rng, n), ta) for ta, tb in tags]
    p0, p1, p2 = (leg_product(*p) for p in lhs)
    q0, q1, q2 = (leg_product(*p) for p in rhs)
    stacked = [[(a.coeffs[None], ta, b.coeffs[None], tb) for a, ta, b, tb in side]
               for side in (lhs, rhs)]
    assert leg_residual_norm(*stacked) == [((p0 + p1) + p2 - ((q0 + q1) + q2)).norm()]


def test_leg_residual_norm_rejects_an_empty_side():
    t = Tensor2.simple(H, E21).coeffs[None]
    with pytest.raises(ValueError):
        leg_residual_norm([(t, 12, t, 23)], [])
    with pytest.raises(ValueError):
        leg_residual_norm([], [(t, 12, t, 23)])


@pytest.mark.parametrize("n_a,n_b", [(2, 3), (1, 2), (3, 2), (5, 6)])
def test_leg_residual_norm_rejects_tensors_of_different_size(n_a, n_b):
    rng = np.random.default_rng(18)
    a, b = _stacks(rand_tensor2(rng, n_a), rand_tensor2(rng, n_b))
    with pytest.raises(ValueError):
        leg_residual_norm([(a, 12, b, 23)], [(a, 13, a, 12)])
    with pytest.raises(ValueError):  # each product alone fine, the sizes differ
        leg_residual_norm([(a, 12, a, 23)], [(b, 13, b, 12)])
    with pytest.raises(ValueError):  # the draw counts differ
        leg_residual_norm([(a, 12, a, 23)], [(np.concatenate([a, a]), 13, a, 12)])
    with pytest.raises(ValueError):  # a chain's third factor
        leg_residual_norm([(a, 12, a, 13, b, 23)], [(a, 23, a, 13, a, 12)])


@pytest.mark.parametrize("legs_a,legs_b", [(12, 12), (23, 23), (12, 21), (31, 23)])
def test_leg_residual_norm_rejects_tags_not_sharing_one_leg(legs_a, legs_b):
    t = Tensor2.simple(H, E21).coeffs[None]
    with pytest.raises(ValueError):
        leg_residual_norm([(t, 12, t, 23)], [(t, legs_a, t, legs_b)])
    with pytest.raises(ValueError):
        leg_residual_norm([(t, legs_a, t, legs_b)], [(t, 12, t, 23)])
    with pytest.raises(ValueError):
        leg_residual_norm([(t, 12, t, 13, t, 23)], [(t, legs_a, t, legs_b, t, 12)])
    with pytest.raises(ValueError):  # a chain's third tag
        leg_residual_norm([(t, 12, t, 13, t, 23)], [(t, 23, t, 13, t, legs_a + legs_b)])


@pytest.mark.parametrize("form", ["aybe", "dual", "qybe"])
def test_leg_residual_norm_peak_memory_below_one_n6_tensor(form):
    n = 8
    rng = np.random.default_rng(8)
    if form == "qybe":
        lhs, rhs = _sides(form, _stacks(*(rand_tensor2(rng, n) for _ in range(3))))
    else:
        lhs, rhs = _sides(form, _stacks(*(rand_tensor2(rng, n) for _ in range(6))))
    one_tensor = 16 * n**6  # bytes of one complex (n,)*6 array, 4.2 MB
    tracemalloc.start()
    try:
        leg_residual_norm(lhs, rhs)
        reduced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduced < one_tensor
    if form != "qybe":
        tracemalloc.start()
        try:
            _whole_residual(lhs, rhs)
            whole = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # tracemalloc sees numpy's buffers: the whole expression holds several
        assert whole > 3 * one_tensor


def einsum_matmul(x: Tensor3, y: Tensor3) -> np.ndarray:
    """Legwise product of two three-leg tensors as a plain n^9 einsum."""
    return np.einsum("iajbkc,adbecf->idjekf", x.coeffs, y.coeffs)


@pytest.mark.parametrize("n", [2, 3])
def test_tensor3_matmul_matches_einsum_oracle(n):
    rng = np.random.default_rng(n)
    x, y = (Tensor3(n, rng.standard_normal((n,) * 6) + 1j * rng.standard_normal((n,) * 6))
            for _ in range(2))
    assert np.max(np.abs(x.matmul(y).coeffs - einsum_matmul(x, y))) < 1e-12


# --- embed (m legs) -------------------------------------------------------------

def embed_loop(t: Tensor2, i: int, j: int, m: int) -> np.ndarray:
    """Reference m-leg embedding: a sum of Kronecker chains, one per matrix unit."""
    n = t.n
    full = np.zeros((n**m, n**m), dtype=complex)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    factors = [np.eye(n, dtype=complex) for _ in range(m)]
                    factors[i] = unit_matrix(n, a, b)
                    factors[j] = unit_matrix(n, c, d)
                    acc = factors[0]
                    for u in factors[1:]:
                        acc = np.kron(acc, u)
                    full += t.coeffs[a, b, c, d] * acc
    return full


@pytest.mark.parametrize("i,j", [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)])
def test_embed_matches_kron_loop(i, j):
    t = rand_tensor2(np.random.default_rng(10 * i + j), 2)
    assert np.max(np.abs(embed(t, (i, j), 3) - embed_loop(t, i, j, 3))) <= 1e-15


# --- swap --------------------------------------------------------------------

def test_swap_basis_case():
    assert (swap(Tensor2.simple(H, E21)) - Tensor2.simple(E21, H)).norm() == 0


def test_swap_fixes_casimir():
    om = casimir(2)
    assert (swap(om) - om).norm() == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_swap_is_an_involution(seed):
    t = rand_tensor2(np.random.default_rng(seed))
    assert (swap(swap(t)) - t).norm() == 0


# --- project_sl --------------------------------------------------------------

def test_project_kills_identity():
    assert project_sl(Tensor2.simple(ID2, ID2)).norm() < 1e-15


def test_project_fixes_traceless():
    t = Tensor2.simple(H, H)
    assert (project_sl(t) - t).norm() < 1e-15


def test_project_e11_e11():
    # pr(e11) = h/2 on both legs
    got = project_sl(Tensor2.simple(unit_matrix(2, 0, 0), unit_matrix(2, 0, 0)))
    assert (got - 0.25 * Tensor2.simple(H, H)).norm() < 1e-15


def test_project_idempotent_and_partial_traces_vanish():
    rng = np.random.default_rng(5)
    t = rand_tensor2(rng)
    p = project_sl(t)
    assert (project_sl(p) - p).norm() < 1e-14
    tr_leg1 = np.einsum("iikl->kl", p.coeffs)
    tr_leg2 = np.einsum("ijkk->ij", p.coeffs)
    assert np.max(np.abs(tr_leg1)) < 1e-14
    assert np.max(np.abs(tr_leg2)) < 1e-14


# --- casimir -----------------------------------------------------------------

def test_casimir_sl2_value():
    want = 0.5 * Tensor2.simple(H, H) + Tensor2.simple(E12, E21) \
        + Tensor2.simple(E21, E12)
    assert (casimir(2) - want).norm() < 1e-15


def test_casimir_rejects_n1():
    with pytest.raises(ValueError):
        casimir(1)


@pytest.mark.parametrize("n", [2, 3])
def test_casimir_ad_invariance(n):
    # [Omega, a (x) 1 + 1 (x) a] = 0 for traceless a
    rng = np.random.default_rng(n)
    a = rand_matrix(rng, n)
    a = a - np.trace(a) / n * np.eye(n)
    om = casimir(n).kron()
    ad = np.kron(a, np.eye(n)) + np.kron(np.eye(n), a)
    assert np.max(np.abs(om @ ad - ad @ om)) < 1e-13


# --- trace pairing -----------------------------------------------------------

def _unit_basis(n):
    return np.array([unit_matrix(n, a, b) for a in range(n) for b in range(n)])


def test_linmap_to_tensor_rule():
    # the linear map e11 -> e22 (all other units -> 0) is e11 (x) e22
    units = _unit_basis(2)
    ev = np.zeros_like(units)
    ev[0] = unit_matrix(2, 1, 1)
    t = Tensor2(2, rmatrix._compose_ev_res(units[None], ev[None])[0])
    assert (t - Tensor2.simple(unit_matrix(2, 0, 0), unit_matrix(2, 1, 1))).norm() == 0


def test_identity_linmap_tensor():
    # the identity map of Mat_2 is sum_ij e_ji (x) e_ij
    units = _unit_basis(2)
    t = Tensor2(2, rmatrix._compose_ev_res(units[None], units[None])[0])
    want = Tensor2(2, np.zeros((2,) * 4))
    for i in range(2):
        for j in range(2):
            want = want + Tensor2.simple(unit_matrix(2, j, i), unit_matrix(2, i, j))
    assert (t - want).norm() == 0


def test_trace_pairing_convention():
    # unit residues and ev(e_ab) = tr(X e_ab) Y: ev o res^-1 is M -> tr(X M) Y,
    # which the trace pairing turns into X (x) Y
    rng = np.random.default_rng(9)
    x, y, m = rand_matrix(rng), rand_matrix(rng), rand_matrix(rng)
    units = np.array([unit_matrix(2, a, b) for a in range(2) for b in range(2)])
    ev = np.array([np.trace(x @ u) * y for u in units])
    t = Tensor2(2, rmatrix._compose_ev_res(units[None], ev[None])[0])
    assert np.max(np.abs(t.coeffs - Tensor2.simple(x, y).coeffs)) < 1e-14
    # X (x) Y acts as M -> tr(X M) Y: contract leg 1 with M through the trace
    assert np.allclose(np.einsum("ij,jikl->kl", m, t.coeffs), np.trace(x @ m) * y)


# --- serialization -----------------------------------------------------------

def test_kron_layout_matches_numpy_kron():
    rng = np.random.default_rng(11)
    a, b = rand_matrix(rng), rand_matrix(rng)
    assert np.allclose(Tensor2.simple(a, b).kron(), np.kron(a, b))


def test_json_roundtrip():
    rng = np.random.default_rng(12)
    t = rand_tensor2(rng)
    back = Tensor2.from_json_dict(t.to_json_dict())
    assert (back - t).norm() == 0
    d = t.to_json_dict()
    assert d["layout"] == "kron-rowmajor"
    assert len(d["data"]) == 16


def rand_tensor(rng, n, legs):
    shape = (n,) * (2 * legs)
    return Tensor(n, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_one_class_under_both_names():
    assert Tensor2 is Tensor and Tensor3 is Tensor


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("legs", [2, 3])
def test_kron_and_json_roundtrips_are_exact(n, legs):
    t = rand_tensor(np.random.default_rng(10 * n + legs), n, legs)
    assert t.legs == legs
    k = t.kron()
    assert k.shape == (n**legs, n**legs)
    assert np.array_equal(Tensor.from_kron(k, n).coeffs, t.coeffs)
    d = t.to_json_dict()
    assert len(d["data"]) == n ** (2 * legs)
    back = Tensor.from_json_dict(d)
    assert back.legs == legs and np.array_equal(back.coeffs, t.coeffs)


@pytest.mark.parametrize("shape", [(2,) * 3, (2,) * 5, (2,) * 8, (2, 2, 2, 3),
                                   (3, 3, 3, 3), (2,) * 4 + (3, 3)])
def test_coeffs_of_odd_or_mixed_dimensions_are_rejected(shape):
    with pytest.raises(ValueError):
        Tensor(2, np.zeros(shape))


@pytest.mark.parametrize("shape", [(4, 8), (8, 4), (2, 2), (16, 16), (64,), (4, 4, 1)])
def test_from_kron_rejects_non_kronecker_shapes(shape):
    with pytest.raises(ValueError):
        Tensor.from_kron(np.zeros(shape), 2)


@pytest.mark.parametrize("length", [0, 4, 15, 17, 32, 65])
def test_from_json_rejects_lengths_other_than_n4_or_n6(length):
    d = {"n": 2, "layout": "kron-rowmajor", "data": [[1.0, 0.0]] * length}
    with pytest.raises(ValueError):
        Tensor.from_json_dict(d)


def test_from_json_rejects_unknown_layout():
    d = rand_tensor2(np.random.default_rng(15)).to_json_dict()
    d["layout"] = "kron-colmajor"
    with pytest.raises(ValueError):
        Tensor.from_json_dict(d)


def test_tensor3_kron_roundtrip():
    rng = np.random.default_rng(13)
    c = rng.standard_normal((2,) * 6) + 1j * rng.standard_normal((2,) * 6)
    t = Tensor3(2, c)
    assert (Tensor3.from_kron(t.kron(), 2) - t).norm() == 0
    assert (Tensor3.from_json_dict(t.to_json_dict()) - t).norm() == 0
