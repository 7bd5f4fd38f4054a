"""Tests of the benchmark itself: op generation, span accounting, the
checker, and the run's command-line contract.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import gzip
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checker
import layers
import run
from checker import Checker
from tracer import Tracer
from workloads import RANK12_MAX_SPREAD, WORKLOADS, _spread, defect_probe, make_pass, warmup_ops

ROOT = Path(__file__).resolve().parents[2]


# --- op generation ---------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_ops(workload):
    a = json.dumps([make_pass(workload, 7, k) for k in range(2)])
    b = json.dumps([make_pass(workload, 7, k) for k in range(2)])
    assert a == b
    assert a != json.dumps([make_pass(workload, 8, k) for k in range(2)])
    assert make_pass(workload, 7, 0) != make_pass(workload, 7, 1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_argv_never_carries_the_workload_seed(workload):
    for op in make_pass(workload, 123456789, 0) + warmup_ops(workload, 123456789):
        assert all("123456789" not in arg for arg in op["argv"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_probe_is_seeded_and_apart_from_the_passes(workload):
    assert json.dumps(defect_probe(workload, 7)) == json.dumps(defect_probe(workload, 7))
    ops = [op for k in range(3) for op in make_pass(workload, 7, k)]
    assert not any(op.get("solution") == "ell21" and op.get("identity") in ("limit", "dunkl")
                   for op in ops)
    for op in ops:
        if op.get("n") == 12:
            v1, v2 = (complex(*z) for z in op["point"][:2])
            assert _spread(op["curve"], v1, v2) <= RANK12_MAX_SPREAD[op["curve"]] + 1e-9


def test_engine_eval_pairs_are_swapped_points():
    ops = make_pass("engine-eval", 3, 0)
    for a, b in zip(ops[::2], ops[1::2]):
        assert a["pair"] == b["pair"] and not a["swapped"] and b["swapped"]
        v1, v2, y1, y2 = a["point"]
        assert b["point"] == [v2, v1, y2, y1]


# --- tracing ---------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_duration_minus_children(tmp_path):
    clock = FakeClock()
    tr = Tracer(clock)
    fns = {}

    def inner():
        clock.t += 5

    def outer():
        clock.t += 1
        fns["inner"]()
        clock.t += 2
        fns["inner"]()
        clock.t += 3

    fns["inner"] = tr.wrap(inner, "inner")
    tr.wrap(outer, "outer")()
    assert tr.totals() == {"inner": (2, 10.0), "outer": (1, 6.0)}
    s = tr.spans()
    assert list(s["parent"]) == [-1, 0, 0]
    assert list(s["dur"]) == [16.0, 5.0, 5.0]
    tr.dump(tmp_path / "spans.json.gz")
    with gzip.open(tmp_path / "spans.json.gz", "rt") as fh:
        assert json.load(fh) == {"names": ["inner", "outer"], "name": [1, 0, 0],
                                 "parent": [-1, 0, 0], "start": [0.0, 1.0, 8.0],
                                 "end": [16.0, 6.0, 13.0]}


def test_recursion_counts_one_layer_entry():
    clock = FakeClock()
    tr = Tracer(clock)
    fns = {}

    def f(k):
        clock.t += 1
        return fns["f"](k - 1) if k else 0

    fns["f"] = tr.wrap(f, "f")
    fns["f"](3)
    assert tr.totals()["f"] == (1, 4.0)


def test_patch_reaches_every_binding_site_and_restores():
    a = types.ModuleType("a")
    b = types.ModuleType("b")

    def f():
        return 42

    a.f = f
    b.g = f          # as after `from a import f as g`
    tr = Tracer()
    assert tr.patch([a, b], a, "f", lambda fn: tr.wrap(fn, "f"))
    assert b.g() == 42 and a.f() == 42
    assert tr.totals()["f"][0] == 2
    tr.restore()
    assert a.f is f and b.g is f
    assert not tr.patch([a, b], a, "missing", lambda fn: fn)


def test_missing_private_helper_reports_metric_absent(monkeypatch):
    from rmx import cli, rmatrix  # noqa: F401 - install patches loaded modules
    monkeypatch.delattr(rmatrix, "_nullspace")
    tr = Tracer()
    try:
        missing = layers.install(tr)
    finally:
        tr.restore()
    assert missing == {"rmatrix.nullspace"}
    values, absent = layers.metrics(tr, missing, 0, 0.0)
    assert absent == ["rmatrix.nullspace.calls", "rmatrix.nullspace.self_s"]
    assert "rmatrix.engine.calls" in values


def test_traced_engine_call_records_layers():
    from rmx import cli
    tr = Tracer()
    layers.install(tr)
    try:
        code, out, err, *_ = run.execute(cli, ["eval", "--curve=nodal", "--rank=3", "--deg=1",
                                              "--v1=1", "--v2=2", "--y1=0.5", "--y2=0.9"])
    finally:
        tr.restore()
    assert code == 0
    values, absent = layers.metrics(tr, set(), len(out), 0.0)
    assert absent == []
    assert values["rmatrix.engine.calls"]["value"] == 1
    assert values["rmatrix.nullspace.calls"]["value"] == 1
    assert values["bundles.gluing.calls"]["value"] == 2
    assert values["rmatrix.engine_ms.n3"]["value"] > 0
    assert values["tensorcore.matmul.calls"]["value"] == 0
    # restore put the originals back
    from rmx import rmatrix
    assert not hasattr(rmatrix.engine_nodal, "__wrapped__")


# --- scaling ---------------------------------------------------------------

def test_scales_divide_out_a_slowdown_but_not_one_slow_sample():
    ref = calibrate.KERNEL_REF_S
    s = calibrate.scales([ref] * 4 + [2 * ref] * 8)
    assert len(s) == 11 and s[0] == 1.0 and s[-1] == 2.0
    assert list(calibrate.scales([ref] * 3 + [5 * ref] + [ref] * 3)) == [1.0] * 6


def test_kernel_takes_cpu_time():
    assert 0 < calibrate.kernel() < 1.0


# --- checker ---------------------------------------------------------------

def _run_op(op):
    from rmx import cli
    code, out, err, *_ = run.execute(cli, op["argv"])
    return code, out, err


def _flip_sign(out: str) -> str:
    d = json.loads(out)
    d["tensor"]["data"] = [[-re, -im] for re, im in d["tensor"]["data"]]
    return json.dumps(d)


def test_sign_flipped_rank2_tensor_fails_closed_form():
    op = next(o for o in make_pass("engine-eval", 5, 0)
              if o["curve"] == "nodal" and o["n"] == 2)
    code, out, err = _run_op(op)
    assert Checker().check(op, code, out, err) is None
    label, detail = Checker().check(op, code, _flip_sign(out), err)
    assert label == "unexpected" and "closed form" in detail


def test_sign_flipped_tensor_fails_pairwise_unitarity():
    ops = make_pass("engine-eval", 5, 0)
    first = next(i for i, o in enumerate(ops) if o["curve"] == "cuspidal" and o["n"] == 3)
    a, b = ops[first], ops[first + 1]
    ra, rb = _run_op(a), _run_op(b)
    good = Checker()
    assert good.check(a, *ra) is None and good.check(b, *rb) is None
    bad = Checker()
    assert bad.check(a, *ra) is None
    label, detail = bad.check(b, rb[0], _flip_sign(rb[1]), rb[2])
    assert label == "unexpected" and "unitarity" in detail


def test_report_with_fewer_samples_than_requested_fails():
    op = next(o for o in make_pass("catalog-verify", 5, 0) if o["kind"] == "verify:aybe")
    code, out, err = _run_op(op)
    assert Checker().check(op, code, out, err) is None
    d = json.loads(out)
    d.update(samples=0, max_residual=-1.0)     # the vacuous --samples 0 report
    label, _ = Checker().check(op, code, json.dumps(d), err)
    assert label == "unexpected"


def test_known_defects_are_labelled_not_hidden():
    op = next(o for o in defect_probe("catalog-verify", 5)
              if o["kind"] == "verify:limit" and o["solution"] == "ell21")
    verdict = Checker().check(op, *_run_op(op))
    assert verdict is not None and verdict[0] == "limit-ell21-lattice-pole"
    op = next(o for o in defect_probe("engine-eval", 5) if o["curve"] == "cuspidal")
    verdict = Checker().check(op, *_run_op(op))
    assert verdict is not None and verdict[0] == "engine-condition-cap"


def test_checker_closed_forms_match_the_catalog():
    from rmx import catalog
    from rmx.thetafn import ThetaParams
    rng = np.random.default_rng(0)
    for _ in range(5):
        lam, y1, y2, v = rng.uniform(0.3, 1.2, 4) * np.exp(1j * rng.uniform(0, 6, 4))
        assert np.allclose(checker.nodal21(lam, y1, y2),
                           catalog.nodal21_multiplicative(lam, y1, y2).kron(), atol=1e-12)
        assert np.allclose(checker.rat21(v, y1, y2),
                           catalog.get("rat21").evaluator(v, y1, y2).kron(), atol=1e-12)
        assert np.allclose(checker.semistable20(lam, y2 / y1),
                           catalog.semistable20_multiplicative(lam, y2 / y1).kron(), atol=1e-12)
        tau = 0.1 + 1.1j
        x, y = 0.3 * v, 0.2 * y1
        assert np.allclose(checker.elliptic21(x, y, tau),
                           catalog.elliptic_closed_form(x, y, ThetaParams(tau)).kron(),
                           atol=1e-11)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_first_pass_passes_the_checker_except_known_defects(workload):
    if workload == "engine-aybe":
        ops = [o for o in make_pass(workload, 9, 0) if o["n"] <= 4]
    else:
        ops = [o for o in make_pass(workload, 9, 0) if o.get("n", 2) <= 5]
    chk = Checker()
    labels = [chk.check(op, *_run_op(op)) for op in ops]
    assert all(v is None or v[0] in checker.KNOWN_FAILURES for v in labels), labels


# --- contract --------------------------------------------------------------

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in layers.PER_LAYER.items()}


def test_run_prints_result_line(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "catalog-verify", "--seed", "4",
                           "--seconds", "0.05", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 54 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "engine-eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
