"""Command-line front end: construct, verify, bound, lift, combine.

Exit codes form a contract scripts can branch on:

* 0: constructed and every in-budget verification passed;
* 1: verification failed (a support or distance check found a codeword
  the claim does not allow), or a construction's own check of its output
  failed;
* 2: unparseable or malformed input (diagram, field, request, certificate);
* 3: the construction's stated preconditions reject the input;
* 4: constructed, but distance verification exceeded the codeword budget
  (the certificate is written and marked unverified-at-scale).

A certificate is never marked verified unless the exhaustive check ran.
A code's m x n ambient is capped at 1024 cells (codes.MAX_AMBIENT): an
over-cap diagram exits 2 from construct and verify, 3 from combine and lift.
"""

from __future__ import annotations

import argparse
import json
import sys

from .codes import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CodeError,
    certificate,
    certify,
    check_ambient,
    code_from_certificate,
    json_value,
)
from .constructions import (
    ConstructionError,
    combine_codes,
    construct_prescribed_column,
    construct_shortened,
    construct_staircase,
    construct_staircase_l2,
    lift_matrix,
    lift_matrix_optimal,
    lift_vector,
    tower_for_prescribed,
    tower_for_shortened,
)
from .fields import FieldError, build_tower, factor_prime_power
from .ferrers import DiagramError, FerrersDiagram, singleton_bound

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_UNVERIFIED = 4

CONSTRUCTION_ALIASES = {
    "shortened": "shortened",
    "thm23": "thm23",
    "prescribed": "thm23",
    "staircase": "staircase",
    "cor28": "cor28",
    "two-level": "cor28",
}


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_diagram(text: str) -> FerrersDiagram:
    try:
        return FerrersDiagram.parse(text)
    except DiagramError as e:
        raise _Exit(EXIT_PARSE, f"diagram: {e}")


def _parse_field(args) -> tuple[int, int]:
    if args.q is not None:
        try:
            return factor_prime_power(args.q)
        except FieldError as e:
            raise _Exit(EXIT_PARSE, f"field: {e}")
    return args.p, args.s


def _parse_chain(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise _Exit(EXIT_PARSE, f"chain: cannot parse {text!r}")


def _write_json(obj: dict, path: str | None) -> None:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if path is None:
        sys.stdout.write(blob)
    else:
        with open(path, "w") as fh:
            fh.write(blob)


def _load_cert(path: str, kind: str) -> dict:
    """Parse the JSON file at `path`; `kind` ("certificate" or "request")
    names it in the one-line error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, RecursionError, ValueError) as e:  # ValueError: bad JSON, huge ints
        raise _Exit(EXIT_PARSE, f"{kind} {path}: {e}")


def _rebuild(path: str, data: dict | None = None):
    data = _load_cert(path, "certificate") if data is None else data
    try:
        return code_from_certificate(data)
    except (CodeError, DiagramError, FieldError) as e:
        raise _Exit(EXIT_PARSE, f"certificate {path}: {e}")


def _tower_record(data: dict, code) -> dict | None:
    """The certificate's `field` block if it reads as `certificate` writes
    one for `code` (`p`, `s` the entry field's; `chain`, `modulus` lists of
    int), else None: an informational block is not an error, just not kept."""
    try:
        fld = json_value(data, "field", dict)
        record = {key: json_value(fld, key, kind) for key, kind in
                  (("p", int), ("s", int), ("chain", list), ("modulus", list))}
    except CodeError:
        return None
    if (record["p"], record["s"]) != (code.field.p, code.field.degree):
        return None
    return record


def _cmd_bound(args) -> int:
    diagram = _parse_diagram(args.diagram)
    try:
        bound, v = singleton_bound(diagram, args.delta)
    except DiagramError as e:
        raise _Exit(EXIT_PRECONDITION, f"delta: {e}")
    print(f"bound={bound} v=[{','.join(str(x) for x in v)}]")
    return EXIT_OK


def _certify_and_emit(code, field_serial, budget, path) -> int:
    code, status = certify(code, budget)
    _write_json(certificate(code, status == "verified", field_serial=field_serial), path)
    print(f"{code.describe()}: {status}", file=sys.stderr)
    return EXIT_OK if status == "verified" else EXIT_UNVERIFIED


def _apply_request(args) -> None:
    """Fold a JSON construction request into the argument namespace.

    Request keys: construction, diagram, delta, r, w, seed, budget, and
    field (either {"p","s","chain",...} or {"q",...}).
    """
    req = _load_cert(args.request, "request")
    if not isinstance(req, dict):
        raise _Exit(EXIT_PARSE, f"request {args.request}: not a JSON object")
    try:
        for key, kind in (("construction", str), ("diagram", str), ("delta", int),
                          ("r", int), ("w", int), ("seed", int), ("budget", int)):
            if key in req:
                setattr(args, key, json_value(req, key, kind))
        fld = json_value(req, "field", dict, {})
        if "q" in fld:
            args.q = json_value(fld, "q", int)
        if "p" in fld:
            args.p, args.q = json_value(fld, "p", int), None
        if "s" in fld:
            args.s = json_value(fld, "s", int)
        chain = req if "chain" in req else fld
        if "chain" in chain:
            args.chain = ",".join(str(t) for t in json_value(chain, "chain", list))
    except CodeError as e:
        raise _Exit(EXIT_PARSE, f"request {args.request}: {e}")


def _cmd_construct(args) -> int:
    if args.request:
        _apply_request(args)
    if args.construction is None or args.diagram is None or args.delta is None:
        raise _Exit(EXIT_PARSE, "construct needs --construction, -F and -d (or --request)")
    name = CONSTRUCTION_ALIASES.get(args.construction)
    if name is None:
        raise _Exit(EXIT_PARSE, f"unknown construction {args.construction!r}")
    diagram = _parse_diagram(args.diagram)
    p, s = _parse_field(args)
    try:
        check_ambient(diagram)
        if name in ("staircase", "cor28"):
            if args.chain is None:
                raise _Exit(EXIT_PARSE, "staircase constructions require --chain")
            tower = build_tower(p, s, _parse_chain(args.chain))
            build = construct_staircase_l2 if name == "cor28" else construct_staircase
            code = build(tower, diagram, args.delta, args.r, args.w, budget=args.budget)
        elif name == "shortened":
            tower = (
                build_tower(p, s, _parse_chain(args.chain))
                if args.chain
                else tower_for_shortened(p, s, diagram, args.delta)
            )
            code = construct_shortened(tower, diagram, args.delta)
        else:
            tower = (
                build_tower(p, s, _parse_chain(args.chain))
                if args.chain
                else tower_for_prescribed(p, s, diagram, args.delta)
            )
            code = construct_prescribed_column(
                tower, diagram, args.delta, seed=args.seed, budget=args.budget
            )
    except (ConstructionError, FieldError) as e:
        raise _Exit(EXIT_PRECONDITION, str(e))
    except DiagramError as e:
        raise _Exit(EXIT_PARSE, f"diagram: {e}")
    return _certify_and_emit(code, tower.serialize(), args.budget, args.json)


def _cmd_verify(args) -> int:
    data = _load_cert(args.cert, "certificate")
    code, status = certify(_rebuild(args.cert, data), args.budget)
    if status != "verified":
        print(f"{code.describe()}: {status}", file=sys.stderr)
        return EXIT_UNVERIFIED
    bound, _ = singleton_bound(code.diagram, code.claimed_delta)
    print(
        f"{code.describe()}: verified (bound {bound}, dimension {code.dimension})",
        file=sys.stderr,
    )
    if args.json:
        record = _tower_record(data, code)
        _write_json(certificate(code, status == "verified", field_serial=record), args.json)
    return EXIT_OK


def _cmd_lift(args) -> int:
    code = _rebuild(args.input)
    try:
        if args.mode == "vector":
            out = lift_vector(code, args.m)
        elif args.mode == "matrix":
            out = lift_matrix(code, args.m)
        else:
            out = lift_matrix_optimal(code, args.m, budget=args.budget)
    except (ConstructionError, DiagramError) as e:
        raise _Exit(EXIT_PRECONDITION, str(e))
    return _certify_and_emit(out, None, args.budget, args.json)


def _cmd_combine(args) -> int:
    c1 = _rebuild(args.first)
    c2 = _rebuild(args.second)
    try:
        out = combine_codes(c1, c2, args.m3, args.n3)
    except (ConstructionError, DiagramError) as e:
        raise _Exit(EXIT_PRECONDITION, str(e))
    return _certify_and_emit(out, None, args.budget, args.json)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fdrm",
        description="Ferrers diagram rank-metric codes: bounds, constructions, verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_field_opts(p):
        p.add_argument("-q", type=int, default=None, help="base field size (prime power)")
        p.add_argument("--p", type=int, default=2, help="characteristic")
        p.add_argument("--s", type=int, default=1, help="base field is GF(p^s)")
        p.add_argument("--chain", default=None, help="tower chain t_1,...,t_l")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="codeword enumeration budget")
        p.add_argument("--seed", type=int, default=0, help="search seed")
        p.add_argument("--json", default=None, help="certificate output path")

    b = sub.add_parser("bound", help="dimension bound for a diagram and distance")
    b.add_argument("-F", dest="diagram", required=True, help='diagram, e.g. "[2,3,3,5]"')
    b.add_argument("-d", dest="delta", type=int, required=True, help="rank distance")
    b.set_defaults(func=_cmd_bound)

    c = sub.add_parser("construct", help="build a code and verify it in budget")
    c.add_argument("--construction", default=None,
                   help="shortened | thm23 | staircase | cor28")
    c.add_argument("-F", dest="diagram", default=None)
    c.add_argument("-d", dest="delta", type=int, default=None)
    c.add_argument("-r", type=int, default=0, help="staircase extension count")
    c.add_argument("-w", type=int, default=1, help="staircase width multiplier")
    c.add_argument("--request", default=None,
                   help="JSON construction request (overrides flags)")
    add_field_opts(c)
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="re-verify a certificate")
    v.add_argument("cert", help="certificate path")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.add_argument("--json", default=None, help="rewrite verified certificate here")
    v.set_defaults(func=_cmd_verify)

    l = sub.add_parser("lift", help="lift a code over an extension field")
    l.add_argument("input", help="input certificate path")
    l.add_argument("--mode", choices=["vector", "matrix", "matrix-optimal"],
                   default="matrix")
    l.add_argument("--m", type=int, default=None, help="extension degree of the lift")
    l.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    l.add_argument("--json", default=None)
    l.set_defaults(func=_cmd_lift)

    m = sub.add_parser("combine", help="block-combine two codes of equal dimension")
    m.add_argument("first", help="first certificate path")
    m.add_argument("second", help="second certificate path")
    m.add_argument("--m3", type=int, required=True)
    m.add_argument("--n3", type=int, required=True)
    m.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    m.add_argument("--json", default=None)
    m.set_defaults(func=_cmd_combine)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Exit as e:
        print(f"fdrm: {e}", file=sys.stderr)
        return e.code
    except BudgetExceeded as e:
        print(f"fdrm: {e}", file=sys.stderr)
        return EXIT_UNVERIFIED
    except CodeError as e:  # a failed verification or construction self-check
        print(f"fdrm: check failed: {e}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
