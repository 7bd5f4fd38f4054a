# tests/test_cli.py

import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from rmx import catalog, cli, floattext, rmatrix, verify
from rmx.cli import main
from rmx.tensorcore import Tensor2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_yang(capsys):
    code, out = run(capsys, "eval", "--solution", "yang", "--y", "2.0")
    assert code == 0
    d = json.loads(out)
    t = Tensor2.from_json_dict(d["tensor"])
    # (1/2) * (1/2) h(x)h coefficient at the e11(x)e11 Kronecker slot
    assert abs(t.kron()[0, 0] - 0.25) < 1e-15


def test_eval_yang_pole_exit_code(capsys):
    code, _ = run(capsys, "eval", "--solution", "yang", "--y", "0")
    assert code == 2


def test_eval_engine_matches_pre_gauge_form(capsys):
    code, out = run(capsys, "eval", "--curve", "nodal", "--rank", "2",
                    "--deg", "1", "--v1", "1", "--v2", "2", "--y1", "1",
                    "--y2", "3")
    assert code == 0
    t = Tensor2.from_json_dict(json.loads(out)["tensor"])
    want = catalog.nodal21_multiplicative(2.0, 1.0, 3.0)
    assert (t - want).norm() < 1e-12


def test_eval_complex_argument_parsing(capsys):
    code, out = run(capsys, "eval", "--solution", "ell21", "--tau", "0,1.1",
                    "--v", "0.21,0.03", "--y", "0.4")
    assert code == 0
    t = Tensor2.from_json_dict(json.loads(out)["tensor"])
    want = catalog.get("ell21", tau=1.1j).evaluator(0.21 + 0.03j, 0.4)
    assert (t - want).norm() < 1e-12


def test_eval_missing_parameters(capsys):
    code, _ = run(capsys, "eval", "--solution", "rat21", "--v", "0.5")
    assert code == 2


def test_verify_aybe_pass(capsys):
    code, out = run(capsys, "verify", "--identity", "aybe", "--solution",
                    "rat21", "--samples", "10", "--tol", "1e-9")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("identity,form", [("aybe", "AYBE"), ("dual", "AYBE-dual")])
def test_verify_engine_aybe_at_rank_10(capsys, identity, form):
    # the north-star rank: the residual is reduced one leg-1 row block at a time
    code, out = run(capsys, "verify", "--identity", identity, "--curve", "nodal",
                    "--rank", "10", "--deg", "3", "--samples", "2")
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert (report["identity"], report["samples"]) == (form, 2)
    assert report["tol"] == verify.DEFAULT_TOL[identity]
    assert 0 < report["max_residual"] < report["tol"]


def test_verify_failure_exit_code(capsys):
    # absurdly tight tolerance forces an identity failure report
    code, out = run(capsys, "verify", "--identity", "aybe", "--solution",
                    "rat21", "--samples", "5", "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("samples", ["0", "-4"])
def test_verify_nonpositive_samples_usage_error(capsys, samples):
    code, out = run(capsys, "verify", "--identity", "aybe", "--solution",
                    "rat21", "--samples", samples)
    assert code == 2
    assert out == ""


def test_verify_tol_zero_is_honoured(capsys):
    code, out = run(capsys, "verify", "--identity", "aybe", "--solution",
                    "trg21", "--samples", "5", "--tol", "0")
    d = json.loads(out)
    assert d["tol"] == 0.0
    assert d["max_residual"] > 0.0
    assert code == 1 and d["passed"] is False


def test_verify_divergence_exit_code(capsys):
    code, out = run(capsys, "verify", "--identity", "limit", "--solution",
                    "trg20_semistable")
    assert code == 1
    assert json.loads(out)["divergence"] is True


def test_verify_bad_identity_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--identity", "nonsense", "--solution", "yang")
    assert exc.value.code == 2


def test_verify_qybe(capsys):
    code, out = run(capsys, "verify", "--identity", "qybe", "--solution",
                    "trg21", "--v0", "0.4", "--samples", "10")
    assert code == 0


@pytest.mark.parametrize("v0", ["0", "0,0"])
@pytest.mark.parametrize("name", ["trg21", "rat21"])
def test_verify_qybe_v0_zero_usage_error(capsys, name, v0):
    # v = 0 is the pole of every v-difference solution; 0 must not be
    # replaced by the default 0.7
    code = main(["verify", "--identity", "qybe", "--solution", name, "--v0", v0,
                 "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "v0" in captured.err


def test_verify_pole_sampling_exit_code(capsys, monkeypatch):
    # every tensor of this stub is above NORM_CAP, so no draw is admissible
    huge = catalog.RSolution("huge", "vdiff_ydiff", 2,
                             lambda v, y: 1e3 * Tensor2.simple(np.eye(2), np.eye(2)))
    monkeypatch.setattr(catalog, "get", lambda name, tau=None: huge)
    code = main(["verify", "--identity", "aybe", "--solution", "huge",
                 "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: sampling kept hitting poles\n"


def test_verify_casimir(capsys):
    code, out = run(capsys, "verify", "--identity", "casimir", "--solution",
                    "cherednik")
    assert code == 0
    d = json.loads(out)
    assert abs(d["alpha"][0] - 1.0) < 1e-8


def test_verify_laurent(capsys):
    code, out = run(capsys, "verify", "--identity", "laurent", "--solution",
                    "ell21")
    assert code == 0
    d = json.loads(out)
    assert abs(d["r_minus1_identity_component"][0] - 0.25) < 1e-7


@pytest.mark.parametrize("name", ["rat21", "ell21"])
def test_verify_laurent_stdout_is_the_library_payload(capsys, name):
    # rat21 is read as r(v; y1, y2), ell21 in difference form
    code, out = run(capsys, "verify", "--identity", "laurent", "--solution", name)
    assert code == 0
    want = verify.laurent_payload(catalog.get(name))
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("identity,check,name", [
    ("aybe", verify.aybe, "trg21"), ("dual", verify.aybe_dual, "rat21"),
    ("unitarity", verify.unitarity, "ell21"), ("cybe", verify.cybe, "stolin"),
])
def test_verify_sampled_identity_stdout_is_the_library_report(capsys, identity,
                                                              check, name):
    code, out = run(capsys, "verify", "--identity", identity, "--solution", name,
                    "--samples", "3", "--seed", "8")
    rep = check(catalog.get(name), samples=3, seed=8)
    assert code == (0 if rep.passed else 1)
    assert out == json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n"


def test_canon_nodal_3_2(capsys):
    code, out = run(capsys, "canon", "--type", "nodal", "--n1", "3", "--n2",
                    "2", "--lambda", "2")
    assert code == 0
    d = json.loads(out)
    m = np.array([[complex(re, im) for re, im in row] for row in d["matrix"]])
    want = np.zeros((5, 5), dtype=complex)
    want[0, 1] = want[1, 3] = want[2, 4] = want[3, 2] = 1
    want[4, 0] = 2
    assert np.array_equal(m, want)
    assert d["endo_dimension"] == 1


def test_canon_cusp_lambda_zero(capsys):
    code, out = run(capsys, "canon", "--type", "cusp", "--n1", "1", "--n2",
                    "1", "--lambda", "0")
    assert code == 0
    d = json.loads(out)
    m = np.array([[complex(re, im) for re, im in row] for row in d["matrix"]])
    assert np.array_equal(m, np.array([[0, 1], [0, 0]]))


def test_sweep_degeneration_decreasing(capsys):
    code, out = run(capsys, "sweep", "--kind", "degeneration", "--grid",
                    "1e2,1e3,1e4,1e5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,max_error"
    errs = [float(l.split(",")[1]) for l in lines[1:]]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-6


@pytest.mark.parametrize("name", ["cherednik", "yang"])
def test_verify_degeneration_stdout_is_the_cherednik_to_yang_report(capsys, name):
    code, out = run(capsys, "verify", "--identity", "degeneration", "--solution", name)
    rep = verify.degeneration_trg_to_rat(catalog.get("cherednik"), catalog.get("yang"))
    assert code == 0 and rep.solution == "cherednik->yang" and rep.samples == 9
    assert out == json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "degeneration", "--solution", "rat21"],
    ["verify", "--identity", "degeneration", "--solution", "trg21"],
    ["verify", "--identity", "degeneration", "--curve", "nodal"],
    ["sweep", "--kind", "degeneration", "--solution", "trg21"],
    ["sweep", "--kind", "degeneration", "--curve", "cuspidal"],
])
def test_degeneration_refuses_a_solution_it_does_not_test(capsys, argv):
    # the one recorded degeneration is cherednik -> yang; any other name is
    # a usage error, not a silent cherednik -> yang report
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "no degeneration recorded" in err


def test_sweep_degeneration_names_either_end_of_the_pair(capsys):
    _, want = run(capsys, "sweep", "--kind", "degeneration")
    for name in ("cherednik", "yang"):
        assert run(capsys, "sweep", "--kind", "degeneration", "--solution", name) == (0, want)


def test_sweep_limit_stabilizes(capsys):
    code, out = run(capsys, "sweep", "--kind", "limit", "--solution", "rat21",
                    "--grid", "1e-1,1e-2,1e-3,1e-4")
    assert code == 0
    lines = out.strip().splitlines()
    deltas = [float(l.split(",")[2]) for l in lines[1:-1]]
    assert deltas == sorted(deltas, reverse=True)


def test_json_output_reproducible(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = main(["verify", "--identity", "unitarity", "--solution",
                     "trg21", "--samples", "8", "--seed", "7",
                     "--output", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_rmx_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("RMX_SEED", "991")
    code, out = run(capsys, "verify", "--identity", "unitarity", "--solution",
                    "yang" if False else "trg21", "--samples", "5")
    assert json.loads(out)["seed"] == 991


def test_conventions_block(capsys):
    code, out = run(capsys, "eval", "--solution", "yang", "--y", "1.5",
                    "--conventions")
    assert code == 0
    assert json.loads(out)["conventions"] == {
        "tensor_layout": "coeffs[i1,j1,i2,j2] is the coefficient of "
                         "e_{i1 j1} (x) e_{i2 j2}, indices 0-based",
        "serialization": "flat data is the n^2 x n^2 Kronecker matrix "
                         "(row (i1*n+i2), column (j1*n+j2)), row-major; "
                         "complex numbers as [re, im]",
        "leg_embedding": "r^{ab} places factor 1 on leg a, factor 2 on leg b, "
                         "identity elsewhere in Mat_n^(x3)",
        "linmap_to_tensor": "e_{ij} -> alpha e_{kl} corresponds to "
                            "alpha e_{ji} (x) e_{kl}",
    }


@pytest.mark.parametrize("argv,evaluate", [
    (["--solution", "trg21", "--v", "0.3,0.1", "--y", "0.4"],
     lambda: catalog.get("trg21").evaluator(0.3 + 0.1j, 0.4 + 0j)),
    (["--curve", "nodal", "--rank", "3", "--deg", "1", "--v1", "1", "--v2", "2,-0.5",
      "--y1", "0.5", "--y2", "0.9,0.2"],
     lambda: rmatrix.engine_nodal(3, 1, 1 + 0j, 2 - 0.5j, 0.5 + 0j, 0.9 + 0.2j)),
])
def test_eval_json_tensor_is_the_in_process_value(capsys, argv, evaluate):
    code, out = run(capsys, "eval", *argv)
    assert code == 0
    got = Tensor2.from_json_dict(json.loads(out)["tensor"])
    assert np.array_equal(got.coeffs, evaluate().coeffs)


def test_g2_g3_curve_dispatch(capsys):
    code, out = run(capsys, "eval", "--g2", "3", "--g3", "1", "--rank", "2",
                    "--deg", "1", "--v1", "1", "--v2", "2", "--y1", "1",
                    "--y2", "3")
    assert code == 0
    assert json.loads(out)["solution"] == "engine-nodal(2,1)"
    code, out = run(capsys, "eval", "--g2", "0", "--g3", "0", "--rank", "2",
                    "--deg", "1", "--v1", "0", "--v2", "1.5", "--y1", "0.2",
                    "--y2", "0.9")
    assert json.loads(out)["solution"] == "engine-cuspidal(2,1)"
    # smooth curve without an explicit tau: usage error (no modular inversion)
    code, _ = run(capsys, "eval", "--g2", "4", "--g3", "0", "--rank", "2",
                  "--deg", "1", "--v1", "0.1", "--v2", "0.4", "--y1", "0.1",
                  "--y2", "0.3")
    assert code == 2


def test_console_script_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rmx
    # the child interpreter finds rmx where this one did, PYTHONPATH set or not
    path = [str(Path(rmx.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    r = subprocess.run([sys.executable, "-m", "rmx.cli", "eval", "--solution",
                        "yang", "--y", "1.0"], capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert json.loads(r.stdout)["solution"] == "yang"


# --- the JSON writer is json.dumps, byte for byte ----------------------------

_ENGINE_POINT = ["--v1=1,0.2", "--v2=1.6,-0.1", "--y1=0.3", "--y2=0.8,0.1"]


def assert_same_text(got: str, want: str):
    """got == want, reporting the first difference (pytest's own diff of
    megabyte strings takes minutes)."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"texts differ at {i}: {got[i - 30:i + 30]!r} != {want[i - 30:i + 30]!r}")


@pytest.mark.parametrize("conventions", [False, True])
@pytest.mark.parametrize("argv,evaluate", [
    (["--curve", "nodal", "--rank", "2", "--deg", "1", *_ENGINE_POINT],
     lambda: rmatrix.engine_nodal(2, 1, 1 + 0.2j, 1.6 - 0.1j, 0.3, 0.8 + 0.1j)),
    (["--curve", "cuspidal", "--rank", "3", "--deg", "2", *_ENGINE_POINT],
     lambda: rmatrix.engine_cusp(3, 2, 1 + 0.2j, 1.6 - 0.1j, 0.3, 0.8 + 0.1j)),
    (["--curve", "nodal", "--rank", "5", "--deg", "2", *_ENGINE_POINT],
     lambda: rmatrix.engine_nodal(5, 2, 1 + 0.2j, 1.6 - 0.1j, 0.3, 0.8 + 0.1j)),
    (["--curve", "cuspidal", "--rank", "8", "--deg", "3", *_ENGINE_POINT],
     lambda: rmatrix.engine_cusp(8, 3, 1 + 0.2j, 1.6 - 0.1j, 0.3, 0.8 + 0.1j)),
    (["--curve", "nodal", "--rank", "12", "--deg", "5", *_ENGINE_POINT],
     lambda: rmatrix.engine_nodal(12, 5, 1 + 0.2j, 1.6 - 0.1j, 0.3, 0.8 + 0.1j)),
    # a catalog solution with solution_params (tau) and one without
    (["--solution", "ell21", "--tau", "0,1.1", "--v", "0.21,0.03", "--y", "0.4"],
     lambda: catalog.get("ell21", tau=1.1j).evaluator(0.21 + 0.03j, 0.4)),
    (["--solution", "yang", "--y", "2.0"],
     lambda: catalog.get("yang").evaluator(2.0)),
])
def test_eval_stdout_is_json_dumps_of_payload(capsys, argv, evaluate, conventions):
    code, out = run(capsys, "eval", *argv, *(["--conventions"] if conventions else []))
    assert code == 0
    payload = {**json.loads(out), "tensor": evaluate().to_json_dict()}
    assert ("conventions" in payload) == conventions
    assert ("solution_params" in payload) == (argv[0] != "--solution" or "--tau" in argv)
    assert_same_text(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def test_eval_writer_float_formats_and_splice(capsys, monkeypatch):
    # a name that spells the splice point must come out as an escaped string
    name = '\n  "tensor": {\n    "data": null'
    vals = [-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, -1e-7, -5e-324, 1.0]
    coeffs = np.array([complex(a, b) for a in vals[:4] for b in vals[4:]])
    t = Tensor2(2, coeffs.reshape(2, 2, 2, 2))
    stub = catalog.RSolution(name, "cl_ydiff", 2, lambda y: t)
    monkeypatch.setattr(catalog, "get", lambda name, tau=None: stub)
    code, out = run(capsys, "eval", "--solution", "stub", "--y", "0.5")
    assert code == 0
    payload = {"solution": name, "arity": "cl_ydiff", "parameters": [[0.5, 0.0]],
               "tensor": t.to_json_dict()}
    assert_same_text(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    assert "\n        -0.0,\n" in out


def test_eval_output_file_equals_stdout(capsys, tmp_path):
    argv = ["eval", "--curve", "nodal", "--rank", "5", "--deg", "2", *_ENGINE_POINT]
    code, out = run(capsys, *argv)
    assert code == 0
    f = tmp_path / "r.json"
    code, printed = run(capsys, *argv, "--output", str(f))
    assert code == 0 and printed == ""
    assert_same_text(f.read_bytes().decode(), out)


def test_eval_csv_values_equal_json_data(capsys):
    argv = ["eval", "--curve", "nodal", "--rank", "3", "--deg", "1", *_ENGINE_POINT]
    code, out = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)["tensor"]["data"]
    code, csv = run(capsys, *argv, "--out", "csv")
    assert code == 0
    header, *rows = csv.splitlines()
    assert header == "row,col,re,im"
    assert len(rows) == len(data) == 81
    for k, row in enumerate(rows):
        i, j, re, im = row.split(",")
        assert (int(i), int(j)) == divmod(k, 9)
        assert [float(re), float(im)] == data[k]


# --- floattext: float.__repr__ of many doubles at once --------------------------

def array_reprs(x) -> list:
    """floattext.repr_parts's texts of the numbers of x by its array path,
    one per number."""
    x = np.asarray(x, dtype=np.float64)
    text = "".join(floattext.repr_parts(np.concatenate([x, [0.0] * (len(x) % 2)]), ",", ";", 0))
    return text.replace(";", ",").split(",")[:len(x)]


def assert_reprs(x):
    got, want = array_reprs(x), [repr(v) for v in np.asarray(x, np.float64).tolist()]
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(want)} differ, first {bad[:5]}"


def repr_calls(monkeypatch) -> list:
    """The numbers floattext hands to float.__repr__, recorded from now on."""
    calls = []
    monkeypatch.setattr(floattext, "repr", lambda v: calls.append(v) or repr(v),
                        raising=False)
    return calls


def test_floattext_random_bit_patterns(monkeypatch):
    bits = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    calls = repr_calls(monkeypatch)
    assert_reprs(x)
    in_range = np.count_nonzero((np.abs(x) >= 1e-250) & (np.abs(x) < 1e250))
    assert in_range > 0.75 * len(x)
    # of the others, the array path leaves only exact interval edges and ties
    # (integers about 1e16, where D is exact) to float.__repr__
    assert len(calls) - (len(x) - in_range) <= 0.01 * in_range


def test_floattext_short_decimals_across_scales():
    rng = np.random.default_rng(21)
    digits = np.concatenate([np.arange(1, 1000), rng.integers(1, 10**7, 3000)])
    scales = 10.0 ** rng.integers(-30, 31, len(digits))
    x = np.array([float(f"{d}e{e}") for d in range(1, 200) for e in range(-30, 31)])
    assert_reprs(np.concatenate([x, -x, [float(f"{d * s:.7g}") for d, s in zip(digits, scales)]]))


def test_floattext_powers_of_two_and_ten_with_neighbours():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    x = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_reprs(np.concatenate([x, -x]))


def test_floattext_edges_switches_and_ties():
    tiny, big = 1e-250, 1e250  # the array path's range
    x = [0.0, -0.0, 5e-324, -5e-324, 2.5e-320, 2.2250738585072014e-308,
         np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308,
         tiny, np.nextafter(tiny, 0), np.nextafter(tiny, 1), big, np.nextafter(big, 0),
         1e-4, 1e-5, 9999999999999998.0, 1e16, 562949953421312.25, 0.1 + 0.2,
         float("nan"), float("inf"), -float("inf")]
    assert_reprs(x)
    assert_reprs(np.zeros(9000))  # a block with no number for the array path
    assert array_reprs([0.0, -0.0, 1e-4, 1e-5, 9999999999999998.0, 1e16,
                        562949953421312.25, 2.0**-56]) == [
        "0.0", "-0.0", "0.0001", "1e-05", "9999999999999998.0", "1e+16",
        "562949953421312.2", "1.3877787807814457e-17"]


def test_floattext_pow10_table_is_exact_to_2_pow_minus_105():
    from fractions import Fraction
    for k, (hi, lo, hi1, hi2) in enumerate(floattext._P10.T, floattext._K0):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * Fraction(1, 2**105)
        assert hi1 + hi2 == hi
        assert float(np.frexp(hi1)[0] * 2**26).is_integer()  # 26 bits: exact products


@pytest.mark.parametrize("engine,n,d", [(rmatrix.engine_nodal, 8, 3),
                                        (rmatrix.engine_cusp, 8, 3),
                                        (rmatrix.engine_nodal, 12, 5),
                                        (rmatrix.engine_cusp, 12, 5)])
def test_floattext_decides_engine_tensors(monkeypatch, engine, n, d):
    x = engine(n, d, 1 + 0.2j, 1.6 - 0.1j, 0.3, 0.8 + 0.1j).kron().ravel().view(np.float64)
    calls = repr_calls(monkeypatch)
    assert_reprs(x)
    assert len(calls) <= 0.01 * len(x)


def _zero_runs(pairs: np.ndarray) -> None:
    """Zero runs about the block boundaries of a 10^4-pair tensor: one over
    pair 4096 (number 8192), and one that starts where floattext's second
    block of other pairs would begin."""
    pairs[4090:4100] = 0
    other = np.flatnonzero(pairs)
    assert len(other) > floattext._BLOCK // 2
    pairs[other[floattext._BLOCK // 2]:][:9] = 0


@pytest.mark.parametrize("n,edit", [
    pytest.param(10, _zero_runs, id="runs-across-blocks"),
    pytest.param(10, lambda p: p.__setitem__(slice(0, 7), 0), id="leading-run"),
    pytest.param(10, lambda p: p.__setitem__(slice(-5, None), 0), id="run-to-the-last-pair"),
    pytest.param(10, lambda p: p.__setitem__(slice(None), 0), id="all-zero"),
    pytest.param(5, lambda p: p.__setitem__(slice(None), 0), id="all-zero-one-block"),
    pytest.param(5, lambda p: p.__setitem__(slice(-1, None), 0), id="last-pair-zero"),
    pytest.param(10, lambda p: p.__setitem__(slice(1, None, 3), [complex(-0.0, 0.0),
                                                               complex(0.0, -0.0),
                                                               complex(-0.0, -0.0)] * 1111),
                 id="negative-zeros"),
    pytest.param(5, lambda p: p.__setitem__(slice(None, None, 2), p[::2].real), id="zero-imag"),
    pytest.param(5, lambda p: p.__setitem__(slice(None, None, 2), 1j * p[::2].imag + 0.0),
                 id="zero-real"),
])
def test_eval_writer_zero_runs_are_json_dumps(capsys, n, edit):
    rng = np.random.default_rng(26)
    pairs = (rng.normal(size=(n**4, 2)) * 10.0 ** rng.uniform(-8, 4, (n**4, 2))).view(complex)[:, 0]
    pairs[rng.random(n**4) < 0.5] = 0  # runs of every length
    edit(pairs)
    t = Tensor2.from_kron(pairs.reshape(n * n, n * n), n)
    assert (t.kron().ravel().view(np.uint64) == pairs.view(np.uint64)).all()
    cli._emit({"solution": "x", "tensor": t}, None)
    want = json.dumps({"solution": "x", "tensor": t.to_json_dict()}, sort_keys=True, indent=2)
    assert_same_text(capsys.readouterr().out, want + "\n")


@pytest.mark.parametrize("repr_max", [0, 10])
def test_floattext_zero_pairs_are_cut_by_offsets(repr_max):
    # parts are whole runs of zero pairs and of other pairs, never a scan's
    # pieces, whether the array path or float.__repr__ writes the others
    x = np.array([0.0, 0.0, 0.0, 0.0, 1.5, -0.0, 0.0, 0.0, 2.0, 3.0])
    parts = floattext.repr_parts(x, ",", ";", repr_max)
    assert parts == ["0.0,0.0;" * 2, "1.5,-0.0;", "0.0,0.0;", "2.0,3.0"]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda p: None, id="sparse"),
    pytest.param(lambda p: p.__setitem__(slice(0, 9), [0] * 8 + [1.5]), id="leading-run"),
    pytest.param(lambda p: p.__setitem__(slice(-9, None), [2.5] + [0] * 8), id="run-to-the-last-pair"),
    pytest.param(lambda p: p.__setitem__(slice(-1, None), 3.0), id="last-pair-other"),
    pytest.param(lambda p: p.__setitem__(slice(None), 0), id="all-zero"),
    pytest.param(lambda p: p.__setitem__(slice(3, 40, 4), [complex(-0.0, 0.0), complex(0.0, -0.0),
                                                            complex(np.inf, 0.0), 1e-300j,
                                                            complex(np.nan, 1e300)] * 2),
                 id="signed-zeros-and-left-to-repr"),
])
def test_floattext_repr_path_gives_the_array_paths_parts(edit):
    # up to repr_max numbers outside the zero pairs float.__repr__ writes
    # them one by one (rmx eval's nodal rank-5 tensors): the same parts
    rng = np.random.default_rng(261)
    pairs = rng.normal(size=(625, 2)).view(complex)[:, 0] * 10.0 ** rng.uniform(-8, 4, 625)
    pairs[rng.random(625) < 0.9] = 0
    edit(pairs)
    x = pairs.view(np.float64)
    want = floattext.repr_parts(x, cli._NUM_SEP, cli._PAIR_SEP, 0)
    assert np.count_nonzero(pairs) <= 150
    assert floattext.repr_parts(x, cli._NUM_SEP, cli._PAIR_SEP, 300) == want
    it = iter(map(float.__repr__, x.tolist()))
    assert "".join(want) == cli._PAIR_SEP.join(map(cli._NUM_SEP.join, zip(it, it)))


@pytest.mark.parametrize("engine,path", [(rmatrix.engine_nodal, "_repr_text"),
                                         (rmatrix.engine_cusp, "_text")])
def test_eval_writer_takes_float_repr_up_to_repr_max_numbers(capsys, monkeypatch, engine, path):
    # rank 5: 1250 numbers, past cli._REPR_MAX; of them the nodal tensor has
    # 172 outside its zero pairs, the cuspidal one 962
    t = engine(5, 2, 1 + 0.2j, 1.6 - 0.1j, 0.3, 0.8 + 0.1j)
    monkeypatch.setattr(floattext, {"_repr_text": "_text", "_text": "_repr_text"}[path], None)
    cli._emit({"solution": "x", "tensor": t}, None)
    want = json.dumps({"solution": "x", "tensor": t.to_json_dict()}, sort_keys=True, indent=2)
    assert_same_text(capsys.readouterr().out, want + "\n")


@pytest.mark.parametrize("curve,rank", [("nodal", "2"), ("cuspidal", "3")])
def test_eval_huge_curve_point_is_a_usage_error(capsys, curve, rank):
    # complex ** int overflows at y2 = 1e200: a usage error, not a crash
    code = main(["eval", "--curve", curve, "--rank", rank, "--deg", "1", "--v1", "1",
                 "--v2", "2", "--y1", "0.5", "--y2", "1e200"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: spectral parameter too large: its powers up to 2 overflow\n"


@pytest.mark.parametrize("argv,err", [
    # (1e300 + 1e300j)**2 is nan + nan j: no OverflowError, but no finite power
    (["--curve", "nodal", "--rank", "2", "--y1", "0.5", "--y2", "1e300,1e300"],
     "spectral parameter too large: its powers up to 2 overflow"),
    # det(lam1 P) = +-lam1^3 overflows; the residue system's cond read inf
    (["--curve", "nodal", "--rank", "3", "--v1", "1e200", "--y1", "0.5", "--y2", "3"],
     "parameters too large: a gluing matrix's determinant (power 3) overflows"),
    (["--curve", "cuspidal", "--rank", "3", "--v1", "1e200", "--y1", "0.5", "--y2", "3"],
     "parameters too large: a gluing matrix's determinant (power 3) overflows"),
])
def test_eval_overflow_is_a_usage_error_not_a_pole_or_a_degenerate_system(capsys, argv, err):
    args = dict(zip(argv[::2], argv[1::2]))
    args = {"--deg": "1", "--v1": "1", "--v2": "2", **args}
    code = main(["eval", *[x for kv in args.items() for x in kv]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {err}\n"


# --- arity, default tolerances, non-finite input ---------------------------------

@pytest.mark.parametrize("argv,arity", [
    (["--solution", "yang"], "cl_ydiff"),
    (["--solution", "stolin", "--y1", "0.2"], "cl_y12"),
    (["--solution", "ell21", "--y", "0.4"], "vdiff_ydiff"),
    (["--solution", "rat21", "--v", "0.5"], "vdiff_y12"),
    (["--curve", "nodal", "--v1", "1", "--v2", "2", "--y1", "0.5"], "v12_y12"),
])
def test_eval_missing_parameter_names_the_count(capsys, argv, arity):
    code = main(["eval", *argv])
    captured = capsys.readouterr()
    names = catalog.ARITY_PARAMS[arity]
    assert code == 2 and captured.out == ""
    assert f"(arity {arity}) needs {len(names)} spectral parameters" in captured.err
    assert all(f"--{name}" in captured.err for name in names)


# identity, solution, extra CLI flags, the tol of the library call without one
_TOL_CASES = [
    ("aybe", "rat21", [], lambda s: verify.aybe(s, samples=1).tol),
    ("dual", "rat21", [], lambda s: verify.aybe_dual(s, samples=1).tol),
    ("unitarity", "rat21", [], lambda s: verify.unitarity(s, samples=1).tol),
    ("cybe", "yang", [], lambda s: verify.cybe(s, samples=1).tol),
    ("qybe", "trg21", [], lambda s: verify.qybe(s, 0.7, samples=1).tol),
    ("limit", "trg21", [],
     lambda s: verify.classical_limit(s, catalog.get("cherednik"), [0.3]).tol),
    ("casimir", "yang", [], lambda s: verify.DEFAULT_TOL["casimir"]),
    ("degeneration", "yang", [], lambda s: verify.degeneration_trg_to_rat(
        catalog.get("cherednik"), catalog.get("yang")).tol),
    ("dunkl", "rat21", [], lambda s: verify.dunkl_commutator(s, samples=1).tol),
    ("dunkl", "rat21", ["--kappa", "0"],
     lambda s: verify.dunkl_commutator(s, kappa=0.0, samples=1).tol),
]


@pytest.mark.parametrize("identity,name,extra,library_tol", _TOL_CASES)
def test_verify_default_tol_is_the_library_default(capsys, identity, name, extra,
                                                    library_tol):
    code, out = run(capsys, "verify", "--identity", identity, "--solution", name,
                    "--samples", "2", *extra)
    assert code in (0, 1)
    assert json.loads(out)["tol"] == library_tol(catalog.get(name))


def test_dunkl_kappa_zero_default_tol():
    rep = verify.dunkl_commutator(catalog.get("rat21"), kappa=0.0, samples=1)
    assert rep.tol == 1e-9 and rep.passed


@pytest.mark.parametrize("argv", [
    ["eval", "--curve", "nodal", "--rank", "2", "--deg", "1", "--v1", "nan",
     "--v2", "0.9", "--y1", "0.3", "--y2", "0.8"],
    ["eval", "--solution", "yang", "--y", "inf"],
    ["eval", "--solution", "ell21", "--v", "0.3,-inf", "--y", "0.4"],
    ["eval", "--solution", "ell21", "--tau", "0,nan", "--v", "0.3", "--y", "0.4"],
    ["verify", "--identity", "qybe", "--solution", "trg21", "--v0", "nan"],
    ["verify", "--identity", "aybe", "--solution", "rat21", "--tol", "nan"],
    ["verify", "--identity", "dunkl", "--solution", "rat21", "--kappa", "inf"],
])
def test_non_finite_number_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "expected a finite number" in captured.err


@pytest.mark.parametrize("grid", ["1e3,inf", "nan", "1e3,-inf,1e4"])
def test_sweep_non_finite_grid_usage_error(capsys, grid):
    code = main(["sweep", "--kind", "degeneration", "--grid", grid])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: bad grid {grid!r}\n"


@pytest.mark.parametrize("argv", [
    "eval --solution ell21 --tau 0,-1 --v 0.2 --y 0.4",
    "verify --identity aybe --solution ell21 --tau 0,-1",
    "verify --identity limit --solution ell21 --tau 0,-1",
    "eval --curve elliptic --tau 0,0 --v1 0.1 --v2 0.3 --y1 0.2 --y2 0.5",
    "eval --solution ell21 --tau 0,0 --v 0.2 --y 0.4",
])
def test_tau_off_the_upper_half_plane_is_usage_error(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: tau must have positive imaginary part")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,err", [
    ("eval --solution ell21 --v 0 --y 0.3", "(ell21 pole at v=0j)"),
    ("eval --solution ell21 --v 0.3 --y 0", "(ell21 pole at y=0j)"),
    ("eval --solution ell21_classical --y 0", "(ell21_classical pole at y=0j)"),
    ("eval --solution yang --y 0", "(complex division by zero)"),
    ("eval --solution trg21 --v 0 --y 0.3", "(non-finite tensor)"),
    ("eval --solution cherednik --y 0", "(non-finite tensor)"),
])
def test_pole_hit_is_one_usage_error(capsys, argv, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the row
        code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: evaluation hit a pole " + err)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_limit_grid_on_a_pole_fails_the_identity(capsys):
    # the limit grid y = 0.3 ... 1.2 meets the lattice pole y = 1 of ell21:
    # the check's own point, so a NaN residual there and exit 1, not a usage error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main("verify --identity limit --solution ell21".split())
    captured = capsys.readouterr()
    d = json.loads(captured.out)
    assert code == 1 and captured.err == ""
    assert np.isnan(d["max_residual"]) and d["passed"] is False and d["samples"] == 10
    assert abs(complex(*d["argmax_sample"][0]) - 1) < 1e-12


def test_other_division_by_zero_is_not_a_pole(monkeypatch):
    # only a PoleError (or eval's own evaluator call) reads as a pole hit;
    # a ZeroDivisionError elsewhere is a fault of rmx and propagates, and so
    # does every class that main's table does not name
    for exc in (ZeroDivisionError, KeyError, TypeError, RuntimeError):
        def broken(*args, **kwargs):
            raise exc("division by zero")
        monkeypatch.setattr(verify, "laurent_payload", broken)
        with pytest.raises(exc) as info:
            main("verify --identity laurent --solution rat21".split())
        assert info.type is exc


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from rmx.cli import build_parser
    assert build_parser() is build_parser()
    argv = ["verify", "--identity", "aybe", "--solution", "rat21", "--samples", "2"]
    assert json.loads(run(capsys, *argv, "--tol=1")[1])["tol"] == 1.0
    assert json.loads(run(capsys, *argv)[1])["tol"] == verify.DEFAULT_TOL["aybe"]
    argv = ["eval", "--solution", "yang", "--y", "2.0"]
    assert run(capsys, *argv, "--out", "csv")[1].startswith("row,col,re,im\n")
    assert json.loads(run(capsys, *argv)[1])["solution"] == "yang"


# --- the exit-code contract: commands raise, cli.main maps ---------------------

_NODAL = "--rank 2 --deg 1 --v1 {} --v2 {} --y1 {} --y2 {}"


@pytest.mark.parametrize("argv,code,err", [
    pytest.param("eval --curve nodal " + _NODAL.format("1e-200", 1, 1, 2), 2,
                 "error: gluing matrices must be invertible", id="eval-singular-gluing"),
    pytest.param("eval --curve elliptic --rank 3 --deg 1 --tau 0,1 --v1 0 --v2 .2 "
                 "--y1 .1 --y2 .3", 2,
                 "error: elliptic engine implemented for (n, d) = (2, 1)",
                 id="eval-elliptic-rank"),
    pytest.param("eval --curve nodal --rank 4 --deg 2 --v1 1 --v2 2 --y1 0.3 --y2 0.8",
                 2, "error: (n, d) = (4, 2) must be coprime", id="eval-not-coprime"),
    pytest.param("eval --curve nodal " + _NODAL.format(1, 1, 0.3, 0.3), 2,
                 "error: coincident spectral points", id="eval-coincident-points"),
    pytest.param("eval --curve cuspidal " + _NODAL.format(1, 1, 0.3, 0.8), 2,
                 "error: coincident moduli points", id="eval-coincident-moduli"),
    pytest.param("eval --curve nodal " + _NODAL.format(0, 1, 0.3, 0.8), 2,
                 "error: nodal parameters must be nonzero", id="eval-zero-nodal"),
    pytest.param("eval --solution nope --y 1", 2, "error: unknown solution name 'nope'",
                 id="eval-unknown-solution"),
    # Python's complex power overflows: a usage error, not a crash
    pytest.param("eval --solution=stolin_difference_s --y=1e300", 2,
                 "error: parameters too large: complex exponentiation",
                 id="eval-closed-form-overflow"),
    # theta's exp overflows to a NaN denominator, which pole_guard lets pass
    # to the finiteness check (abs of it could raise from a stale errno)
    pytest.param("eval --solution=ell21 --v=0.3 --y=0,400", 2,
                 "error: evaluation hit a pole (non-finite tensor)", id="eval-ell21-theta-overflow"),
    pytest.param("eval --solution=ell21_classical --y=0,900", 2,
                 "error: evaluation hit a pole (non-finite tensor)",
                 id="eval-ell21-classical-theta-overflow"),
    pytest.param("eval --rank 2", 2, "error: need --solution NAME", id="eval-no-solution"),
    pytest.param("verify --identity aybe --curve nodal --rank 4 --deg 2 --samples 2", 2,
                 "error: (n, d) = (4, 2) must be coprime", id="verify-not-coprime"),
    pytest.param("verify --identity aybe --curve elliptic --rank 3 --deg 2 --tau 0,1 "
                 "--samples 2", 2,
                 "error: elliptic engine implemented for (n, d) = (2, 1)",
                 id="verify-elliptic-rank"),
    pytest.param("verify --identity unitarity --curve cuspidal --rank 12 --deg 5 "
                 "--samples 3", 3, "error: residue system condition number",
                 id="verify-degenerate"),
    pytest.param("verify --identity casimir --curve nodal", 2,
                 "error: 'engine-nodal(2,1)' is not a classical solution",
                 id="verify-not-classical"),
    # the limit branch validates tau before it looks up a classical partner
    pytest.param("verify --identity limit --curve nodal --tau 0,-1", 2,
                 "error: tau must have positive imaginary part", id="verify-limit-tau"),
    pytest.param("canon --type nodal --n1 2 --n2 4 --lambda 1", 2,
                 "error: (2, 4) must be coprime", id="canon-not-coprime"),
    pytest.param("canon --type nodal --n1 2 --n2 1 --lambda 0", 2,
                 "error: lam must be nonzero", id="canon-zero-lambda"),
    pytest.param("sweep --kind degeneration --grid=", 2, "error: empty grid",
                 id="sweep-empty-grid"),
    pytest.param("sweep --kind degeneration --grid 0", 2,
                 "error: grid values must be nonzero", id="sweep-degeneration-zero"),
    pytest.param("sweep --kind limit --solution rat21 --grid 0.1,0", 2,
                 "error: grid values must be nonzero", id="sweep-limit-zero"),
    pytest.param("sweep --kind limit --curve nodal", 2,
                 "error: solution 'engine-nodal(2,1)' has arity 'v12_y12'",
                 id="sweep-limit-arity"),
    # a sweep prints no inf or NaN: rat21's v^3 term overflows, 1/t at a
    # subnormal t is inf
    pytest.param("sweep --kind limit --solution rat21 --grid 1e300", 2,
                 "error: evaluation hit a pole (non-finite pr_norm or delta_to_next)",
                 id="sweep-limit-overflow"),
    pytest.param("sweep --kind degeneration --grid 5e-324", 2,
                 "error: evaluation hit a pole (non-finite max_error)",
                 id="sweep-degeneration-overflow"),
    pytest.param("canon --type nodal --n1 1 --n2 1 --lambda 5e-324,5e-324", 2,
                 "error: evaluation hit a pole (non-finite det_coordinate)",
                 id="canon-subnormal-lambda"),
    # a sampled check sizes its blocks of draws by n before it evaluates
    pytest.param("verify --curve cuspidal --rank 0 --deg 0 --identity dual --samples 2", 2,
                 "error: (n, d) = (0, 0) must be coprime", id="verify-rank-0"),
])
def test_exit_code_contract(capsys, argv, code, err):
    got = main(argv.split())
    captured = capsys.readouterr()
    assert got == code and captured.out == ""
    assert captured.err.startswith(err)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_main_is_the_one_owner_of_exit_codes():
    # no command writes to stderr or exits by itself: main maps every error
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    in_main = {id(n) for n in ast.walk(main_def)}
    stderr = [n.lineno for n in ast.walk(tree) if id(n) not in in_main and (
        isinstance(n, ast.Attribute) and n.attr == "stderr"
        or isinstance(n, ast.Name) and n.id == "stderr")]
    assert stderr == [], f"sys.stderr outside main at lines {stderr}"
    exits = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
             and any("SystemExit" in ast.unparse(b) for b in n.bases)]
    assert exits == [], f"SystemExit subclasses: {exits}"
