"""Which rmx functions the traced run wraps, and the per-layer metrics.

Spans are recorded around calls into each rmx module, from the benchmark's
side; nothing under src/ knows about them.  Private helpers can disappear
in a refactor: a metric whose functions are gone is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys

from tracer import Tracer

# (module, owner attribute or None, function, span name).  All functions of
# one span name must be present for that layer's metrics to be reported.
SPANS = [
    ("rmx.cli", None, "main", "cli.main"),
    ("rmx.cli", None, "_emit", "cli.emit"),
    *[("rmx.verify", None, f, "verify.check") for f in (
        "aybe", "aybe_dual", "unitarity", "cybe", "qybe", "classical_limit",
        "classical_limit_values", "laurent_v", "casimir_residue",
        "degeneration_trg_to_rat", "dunkl_commutator")],
    *[("rmx.rmatrix", None, f, "rmatrix.engine") for f in (
        "engine_nodal", "engine_cusp", "engine_semistable_nodal_20",
        "engine_elliptic_21")],
    ("rmx.rmatrix", None, "_hom_space_glued", "rmatrix.hom_space"),
    ("rmx.rmatrix", None, "_nullspace", "rmatrix.nullspace"),
    ("rmx.rmatrix", None, "_compose_ev_res", "rmatrix.res_solve"),
    *[("rmx.bundles", None, f, "bundles.gluing") for f in (
        "canonical_nodal_matrix", "canonical_nodal", "canonical_cusp_matrix",
        "canonical_cusp", "jacobian_form_nodal", "jacobian_form_cusp",
        "jacobian_form", "atiyah_nodal")],
    ("rmx.curves", None, "classify", "curves.classify"),
    ("rmx.thetafn", None, "theta_char", "thetafn.theta"),
    ("rmx.thetafn", None, "theta_j", "thetafn.theta"),
    ("rmx.tensorcore", None, "embed_leg", "tensorcore.embed_leg"),
    ("rmx.tensorcore", "Tensor3", "matmul", "tensorcore.matmul"),
    ("rmx.tensorcore", "Tensor2", "to_json_dict", "tensorcore.to_json"),
    ("rmx.tensorcore", "Tensor3", "to_json_dict", "tensorcore.to_json"),
]

ENGINE_RANKS = (2, 3, 5, 8, 12)


def _engine_rank(*args, **kwargs):
    # engine_nodal / engine_cusp take (n, d, ...); the others are rank 2
    return args[0] if args and isinstance(args[0], int) else 2


def _matmul_rank(self, other):
    return self.n


def _count_window(tracer: Tracer, fn):
    def counted(*args, **kwargs):
        n = fn(*args, **kwargs)
        tracer.count("thetafn.series_terms", 2 * n + 1)
        return n
    return counted


def _count_draws(tracer: Tracer, fn):
    def counted(*args, **kwargs):
        ok = fn(*args, **kwargs)
        tracer.count("verify.draws")
        if not ok:
            tracer.count("verify.draws_rejected")
        return ok
    return counted


def _trace_catalog_get(tracer: Tracer, fn):
    """catalog.get returns a solution; its evaluator is the closed form."""
    def get(*args, **kwargs):
        sol = fn(*args, **kwargs)
        return dataclasses.replace(sol, evaluator=tracer.wrap(sol.evaluator, "catalog.eval"))
    return get


# (module, owner, function, group, wrapper factory) for the counting hooks
HOOKS = [
    ("rmx.thetafn", None, "_window", "thetafn.series_terms", _count_window),
    ("rmx.verify", None, "_admissible", "verify.draws", _count_draws),
    ("rmx.catalog", None, "get", "catalog.eval", _trace_catalog_get),
]

TAGS = {"rmatrix.engine": _engine_rank, "tensorcore.matmul": _matmul_rank}


def install(tracer: Tracer) -> set:
    """Patch every wrapped rmx function; returns the groups (span names or
    counters) with a function missing, whose metrics are absent."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "rmx" or name.startswith("rmx."))]
    missing = set()
    for modname, owner, attr, span in SPANS:
        target = sys.modules.get(modname)
        if owner is not None:
            target = getattr(target, owner, None)
        make = lambda fn, span=span: tracer.wrap(fn, span, TAGS.get(span))
        if target is None or not tracer.patch(modules, target, attr, make):
            missing.add(span)
    for modname, owner, attr, group, factory in HOOKS:
        target = sys.modules.get(modname)
        if target is None or not tracer.patch(modules, target, attr,
                                              lambda fn, f=factory: f(tracer, fn)):
            missing.add(group)
    return missing


# name -> (unit, group whose functions it needs, or None)
PER_LAYER = {
    "tensorcore.matmul.calls": ("count", "tensorcore.matmul"),
    "tensorcore.matmul.self_s": ("s", "tensorcore.matmul"),
    "tensorcore.matmul.nominal_gflops": ("GFLOP/s", "tensorcore.matmul"),
    "tensorcore.embed_leg.self_s": ("s", "tensorcore.embed_leg"),
    "tensorcore.to_json.self_s": ("s", "tensorcore.to_json"),
    "cli.emit.self_s": ("s", "cli.emit"),
    "cli.emit.bytes": ("bytes", None),
    "cli.main.self_s": ("s", "cli.main"),
    "rmatrix.engine.calls": ("count", "rmatrix.engine"),
    "rmatrix.engine.self_s": ("s", "rmatrix.engine"),
    "rmatrix.hom_space.self_s": ("s", "rmatrix.hom_space"),
    "rmatrix.nullspace.calls": ("count", "rmatrix.nullspace"),
    "rmatrix.nullspace.self_s": ("s", "rmatrix.nullspace"),
    "rmatrix.res_solve.self_s": ("s", "rmatrix.res_solve"),
    "rmatrix.degenerate.count": ("count", "rmatrix.engine"),
    **{f"rmatrix.engine_ms.n{n}": ("ms", "rmatrix.engine") for n in ENGINE_RANKS},
    "bundles.gluing.calls": ("count", "bundles.gluing"),
    "bundles.gluing.self_s": ("s", "bundles.gluing"),
    "curves.classify.calls": ("count", "curves.classify"),
    "thetafn.theta.calls": ("count", "thetafn.theta"),
    "thetafn.theta.self_s": ("s", "thetafn.theta"),
    "thetafn.series_terms": ("count", "thetafn.series_terms"),
    "catalog.eval.calls": ("count", "catalog.eval"),
    "catalog.eval.self_s": ("s", "catalog.eval"),
    "verify.check.calls": ("count", "verify.check"),
    "verify.check.self_s": ("s", "verify.check"),
    "verify.draws": ("count", "verify.draws"),
    "verify.draws_rejected": ("count", "verify.draws"),
    "verify.accept_ratio": ("ratio", "verify.draws"),
    "trace.overhead_s": ("s", None),
}

NOTES = {
    "tensorcore.matmul.nominal_gflops":
        "computed, not measured: calls x 8 n^9 flops (complex n^9 einsum) / matmul "
        "self time; 0 when matmul is not called",
    "rmatrix.engine_ms.n2": "median engine call duration per rank, 0 when no call",
    "verify.accept_ratio":
        "accepted draws / attempted draws (NORM_CAP admissibility); 0 when nothing is drawn",
}


def metrics(tracer: Tracer, missing: set, emitted_bytes: int, overhead_s: float):
    """(metrics dict of {name: {value, unit}}, list of absent metric names)."""
    totals = tracer.totals()
    dur = tracer.spans()["dur"]

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    engine_idx = tracer.indices("rmatrix.engine")
    by_rank = {}
    for i in engine_idx:
        by_rank.setdefault(tracer.tags[i], []).append(dur[i] * 1e3)
    flops = sum(8.0 * tracer.tags[i] ** 9 for i in tracer.indices("tensorcore.matmul"))
    draws = tracer.counters.get("verify.draws", 0)
    rejected = tracer.counters.get("verify.draws_rejected", 0)
    matmul_s = self_s("tensorcore.matmul")
    values = {
        "tensorcore.matmul.calls": calls("tensorcore.matmul"),
        "tensorcore.matmul.self_s": matmul_s,
        "tensorcore.matmul.nominal_gflops": flops / matmul_s / 1e9 if matmul_s else 0.0,
        "tensorcore.embed_leg.self_s": self_s("tensorcore.embed_leg"),
        "tensorcore.to_json.self_s": self_s("tensorcore.to_json"),
        "cli.emit.self_s": self_s("cli.emit"),
        "cli.emit.bytes": emitted_bytes,
        "cli.main.self_s": self_s("cli.main"),
        "rmatrix.engine.calls": calls("rmatrix.engine"),
        "rmatrix.engine.self_s": self_s("rmatrix.engine"),
        "rmatrix.hom_space.self_s": self_s("rmatrix.hom_space"),
        "rmatrix.nullspace.calls": calls("rmatrix.nullspace"),
        "rmatrix.nullspace.self_s": self_s("rmatrix.nullspace"),
        "rmatrix.res_solve.self_s": self_s("rmatrix.res_solve"),
        "rmatrix.degenerate.count": sum(
            1 for i in engine_idx if tracer.errors.get(i) == "DegenerateSystemError"),
        **{f"rmatrix.engine_ms.n{n}": statistics.median(by_rank[n]) if n in by_rank else 0.0
           for n in ENGINE_RANKS},
        "bundles.gluing.calls": calls("bundles.gluing"),
        "bundles.gluing.self_s": self_s("bundles.gluing"),
        "curves.classify.calls": calls("curves.classify"),
        "thetafn.theta.calls": calls("thetafn.theta"),
        "thetafn.theta.self_s": self_s("thetafn.theta"),
        "thetafn.series_terms": tracer.counters.get("thetafn.series_terms", 0),
        "catalog.eval.calls": calls("catalog.eval"),
        "catalog.eval.self_s": self_s("catalog.eval"),
        "verify.check.calls": calls("verify.check"),
        "verify.check.self_s": self_s("verify.check"),
        "verify.draws": draws,
        "verify.draws_rejected": rejected,
        "verify.accept_ratio": (draws - rejected) / draws if draws else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out, absent = {}, []
    for name, (unit, group) in PER_LAYER.items():
        if group in missing:
            absent.append(name)
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out, absent
