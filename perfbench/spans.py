"""Span recorder and outside-in layer wrappers for the fdrm benchmark.

The benchmark never edits fdrm.  To see inside it, `install` replaces the
public functions of each layer (`fields`, `linalg`, `ferrers`, `codes`,
`constructions`, `_gf2`, `cli`) with thin wrappers, in every loaded
`fdrm` module namespace that binds the function.  A function imported
into another module (`constructions` imports `mrd_check` from `codes`) is
therefore wrapped where it is called, and nested calls come out as child
spans: construction -> `mrd_check` -> `_gf2` kernel.

A span is [name, start, end, parent index, operation id, attrs].  Spans
stay in memory and are written as JSON lines when a run ends.  `reduce`
turns the spans of one pass into the per-layer metrics; self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import sys
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Recorder:
    """In-memory span store for one pass (or one traced process)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None

    def add(self, name: str, start: float, end: float, attrs=None) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, end, parent, self.op, attrs])

    def extend(self, rows, op: str) -> None:
        """Append spans recorded by another process, re-rooted under `op`."""
        offset = len(self.spans)
        for name, start, end, parent, _, attrs in rows:
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset, op, attrs]
            )

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "a") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs:
                    row["attrs"] = attrs
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_rows(path: str) -> list[list]:
    """Spans written by `Recorder.dump`, as recorder rows."""
    rows = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            rows.append([d["name"], d["start"], d["end"], d["parent"], d["op"],
                         d.get("attrs")])
    return rows


# -- what each wrapper records besides timing --


def _exhaustive_attrs(args, kwargs, result):
    basis_rows = args[0]
    floor = kwargs.get("floor", args[2] if len(args) > 2 else None)
    done = floor is None or result >= floor
    return {"codewords": (1 << len(basis_rows)) - 1 if done else 0}


def _sampled_attrs(args, kwargs, result):
    return {"samples": kwargs.get("samples", args[2] if len(args) > 2 else None)}


def _covered_attrs(args, kwargs, result):
    # min_rank_distance always completes; distance_at_least completes its
    # enumeration only when it answers True (False means early exit).
    code = args[0]
    done = result is True or not isinstance(result, bool)
    return {"codewords": code.field.order ** code.dimension - 1 if done else 0}


def _attempts_attrs(args, kwargs, result):
    return {"attempts": int(result.provenance.get("attempts", 0))}


def _bytes_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path) if path else 0}


# (module, function, attrs hook, cached: the function is an lru_cache whose
# miss count tells a cold call from a cache hit)
TARGETS = (
    ("_gf2", "min_rank_exhaustive", _exhaustive_attrs, False),
    ("_gf2", "min_rank_sampled", _sampled_attrs, False),
    ("codes", "min_rank_distance", _covered_attrs, False),
    ("codes", "distance_at_least", _covered_attrs, False),
    ("codes", "sampled_min_rank", None, False),
    ("codes", "mrd_check", None, False),
    ("codes", "code_from_generator", None, False),
    ("codes", "certify", None, False),
    ("codes", "is_optimal", None, False),
    ("codes", "certificate", None, False),
    ("codes", "code_from_certificate", None, False),
    ("fields", "gf", None, True),
    ("fields", "build_tower", None, True),
    ("linalg", "rank", None, False),
    ("linalg", "systematic_form", None, False),
    ("ferrers", "singleton_bound", None, False),
    ("ferrers", "combine_diagrams", None, False),
    ("ferrers", "contains", None, False),
    ("ferrers", "full_diagram", None, False),
    ("constructions", "moore_matrix", None, False),
    ("constructions", "gabidulin_generator", None, False),
    ("constructions", "restricted_gabidulin", None, False),
    ("constructions", "systematic_mrd_with_first_column", _attempts_attrs, False),
    ("constructions", "construct_shortened", None, False),
    ("constructions", "build_extended_generator", None, False),
    ("constructions", "construct_staircase", None, False),
    ("constructions", "construct_staircase_l2", None, False),
    ("constructions", "combine_codes", None, False),
    ("constructions", "lift_vector", None, False),
    ("constructions", "lift_matrix", None, False),
    ("constructions", "lift_matrix_optimal", None, False),
    # The CLI's command handlers and its certificate file I/O.
    ("cli", "_cmd_construct", None, False),
    ("cli", "_cmd_verify", None, False),
    ("cli", "_cmd_lift", None, False),
    ("cli", "_cmd_combine", None, False),
    ("cli", "_cmd_bound", None, False),
    ("cli", "_write_json", _bytes_attrs, False),
    ("cli", "_load_cert", None, False),
)


def _wrap(rec: Recorder, name: str, fn, hook, cached: bool):
    perf = time.perf_counter
    spans, stack = rec.spans, rec.stack

    def wrapper(*args, **kwargs):
        misses = fn.cache_info().misses if cached else 0
        idx = len(spans)
        span = [name, perf(), 0.0, stack[-1] if stack else None, rec.op, None]
        spans.append(span)
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            span[END] = perf()
            span[ATTRS] = {"raised": type(e).__name__}
            raise
        finally:
            stack.pop()
        span[END] = perf()
        if cached:
            span[ATTRS] = {"cold": fn.cache_info().misses > misses}
        elif hook is not None:
            span[ATTRS] = hook(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(rec: Recorder) -> list[tuple]:
    """Wrap every target in every loaded fdrm module; returns an undo list."""
    modules = {n: m for n, m in list(sys.modules.items())
               if m is not None and (n == "fdrm" or n.startswith("fdrm."))}
    undo = []
    for short, func, hook, cached in TARGETS:
        home = modules.get(f"fdrm.{short}")
        if home is None:
            continue  # e.g. fdrm.cli in a library workload
        orig = getattr(home, func)
        wrapper = _wrap(rec, f"{short}.{func}", orig, hook, cached)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, attr, orig in reversed(undo):
        setattr(mod, attr, orig)


# -- reduction to per-layer metrics --


def _children(spans):
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            kids[s[PARENT]].append(i)
    return kids


def _outermost(spans, names):
    """Spans named in `names` with no ancestor also named in `names`."""
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p is None:
            out.append(s)
    return out


def _attr(s, key):
    return (s[ATTRS] or {}).get(key) or 0


def reduce(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass, keyed by the BENCHMARK.json names."""
    kids = _children(spans)
    dur = [s[END] - s[START] for s in spans]
    self_t = [dur[i] - sum(dur[c] for c in kids[i]) for i in range(len(spans))]

    def total(*names):
        return sum(s[END] - s[START] for s in _outermost(spans, set(names)))

    def self_sum(*names):
        names = set(names)
        return sum(self_t[i] for i, s in enumerate(spans) if s[NAME] in names)

    def count(*names):
        return sum(1 for s in spans if s[NAME] in names)

    def attr_sum(key, *names):
        return sum(_attr(s, key) for s in _outermost(spans, set(names)))

    def rate(n, t):
        return n / t if t > 0 else 0.0

    refusals = 0
    for i, s in enumerate(spans):
        if _attr(s, "raised") == "BudgetExceeded" and not any(
            _attr(spans[c], "raised") == "BudgetExceeded" for c in kids[i]
        ):
            refusals += 1

    ex_s = total("_gf2.min_rank_exhaustive")
    sa_s = total("_gf2.min_rank_sampled")
    min_rank = ("codes.min_rank_distance", "codes.distance_at_least")
    cmds = {c: total(f"cli._cmd_{c}") * 1e3
            for c in ("construct", "verify", "lift", "combine", "bound")}
    return {
        "gf2.exhaustive_s": ex_s,
        "gf2.exhaustive_calls": count("_gf2.min_rank_exhaustive"),
        "gf2.exhaustive_codewords_per_s": rate(
            attr_sum("codewords", "_gf2.min_rank_exhaustive"), ex_s),
        "gf2.sampled_s": sa_s,
        "gf2.sampled_per_s": rate(attr_sum("samples", "_gf2.min_rank_sampled"), sa_s),
        "codes.min_rank_self_s": self_sum(*min_rank),
        "codes.codewords_covered": attr_sum("codewords", *min_rank),
        "codes.sampled_self_s": self_sum("codes.sampled_min_rank"),
        "codes.mrd_check_self_s": self_sum("codes.mrd_check"),
        "codes.code_from_generator_s": total("codes.code_from_generator"),
        "codes.budget_refusals": refusals,
        "codes.certificate_write_s": self_sum("codes.certificate", "cli._write_json"),
        "codes.certificate_read_s": self_sum("codes.code_from_certificate",
                                             "cli._load_cert"),
        "codes.certificate_bytes": attr_sum("bytes", "cli._write_json"),
        "fields.gf_s": total("fields.gf"),
        "fields.gf_cold_calls": sum(1 for s in spans
                                    if s[NAME] == "fields.gf" and _attr(s, "cold")),
        "fields.build_tower_s": total("fields.build_tower"),
        "fields.build_tower_cold_calls": sum(
            1 for s in spans if s[NAME] == "fields.build_tower" and _attr(s, "cold")),
        "constructions.extended_generator_self_s": self_sum(
            "constructions.build_extended_generator"),
        "constructions.prescribed_search_self_s": self_sum(
            "constructions.systematic_mrd_with_first_column"),
        "constructions.prescribed_attempts": attr_sum(
            "attempts", "constructions.systematic_mrd_with_first_column"),
        "constructions.staircase_self_s": self_sum(
            "constructions.construct_staircase", "constructions.construct_staircase_l2"),
        "constructions.shortened_self_s": self_sum("constructions.construct_shortened"),
        "constructions.lift_self_s": self_sum(
            "constructions.lift_vector", "constructions.lift_matrix",
            "constructions.lift_matrix_optimal"),
        "constructions.combine_self_s": self_sum("constructions.combine_codes"),
        "constructions.moore_s": total(
            "constructions.moore_matrix", "constructions.gabidulin_generator",
            "constructions.restricted_gabidulin"),
        "linalg.rank_s": total("linalg.rank"),
        "linalg.rank_calls": count("linalg.rank"),
        "linalg.systematic_form_s": total("linalg.systematic_form"),
        "linalg.systematic_form_calls": count("linalg.systematic_form"),
        "ferrers.singleton_bound_calls": count("ferrers.singleton_bound"),
        "ferrers.self_s": self_sum("ferrers.singleton_bound", "ferrers.combine_diagrams",
                                   "ferrers.contains", "ferrers.full_diagram"),
        "cli.construct_ms": cmds["construct"],
        "cli.verify_ms": cmds["verify"],
        "cli.lift_ms": cmds["lift"],
        "cli.combine_ms": cmds["combine"],
        "cli.bound_ms": cmds["bound"],
        "cli.import_ms": total("cli.import") * 1e3,
    }
