"""The public surface: every exported name, and every function that the
benchmark's traced mode (perfbench/spans.py) wraps, resolves in fdrm."""

import importlib
import importlib.util
from pathlib import Path

import fdrm

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_export_resolves():
    for name in fdrm.__all__:
        assert hasattr(fdrm, name), name


def test_every_traced_target_resolves():
    # spans.py imports only the standard library, so it loads without perfbench.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, function, _, cached in spans.TARGETS:
        fn = getattr(importlib.import_module(f"fdrm.{module}"), function, None)
        assert callable(fn), f"fdrm.{module}.{function}"
        assert hasattr(fn, "cache_info") or not cached, f"fdrm.{module}.{function}"
