# tests/test_benchmark_spans.py

"""The benchmark's per-layer metrics name rmx functions (perfbench/layers.py);
a refactor that renames one of them must fail here instead of silently
turning its metrics absent."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_span_finds_its_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    from rmx import cli  # noqa: F401 - install patches the loaded rmx modules
    tr = Tracer()
    try:
        missing = layers.install(tr)
    finally:
        tr.restore()
    assert missing == set()
