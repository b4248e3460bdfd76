"""The public surface: every exported name, and every function that the
benchmark's traced mode (perfbench/spans.py) wraps, resolves in fdrm; and
every exported class or function is used somewhere besides the tests."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import fdrm

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


def _texts_without(name):
    """The package modules (bar `__init__`) with the top-level definition
    of `name` cut out, then every demo and the README."""
    texts = []
    for path in sorted((ROOT / "src" / "fdrm").glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        for node in reversed(ast.parse("\n".join(lines)).body):
            if getattr(node, "name", None) == name:
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                del lines[start - 1 : node.end_lineno]
        texts.append("\n".join(lines))
    texts += [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    return texts + [(ROOT / "README.md").read_text()]


def test_every_export_is_used_outside_the_tests():
    # Nothing should be public that only tests call; submodules and
    # constants are not checked.
    unused = [
        name for name in fdrm.__all__
        if callable(getattr(fdrm, name)) and not inspect.ismodule(getattr(fdrm, name))
        and not any(re.search(rf"\b{name}\b", t) for t in _texts_without(name))
    ]
    assert unused == []


def test_every_private_helper_is_used_in_the_package():
    # A private function or class that nothing in src/fdrm names besides its
    # own definition is dead code, whatever the tests still call.
    sources = {p: p.read_text() for p in sorted((ROOT / "src" / "fdrm").glob("*.py"))}
    unused = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            lines = text.splitlines()
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            del lines[start - 1 : node.end_lineno]
            rest = ["\n".join(lines)] + [t for p, t in sources.items() if p != path]
            if not any(re.search(rf"\b{name}\b", t) for t in rest):
                unused.append(f"{path.name}:{name}")
    assert unused == []
