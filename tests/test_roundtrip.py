"""Property tests: certificates round-trip byte for byte, the canonical
basis depends only on the code, not on the order of its basis, and
`fdrm verify` answers a mutated certificate, and `fdrm construct` a mutated
request, with an exit code and one line.

Random codes: diagrams of 1 to 4 columns of heights 1 to 5, and random
independent bases supported on them over GF(2), GF(3), GF(4), GF(5) and
GF(17); GF(17) writes its rows as dotted decimals.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from fdrm.cli import main
from fdrm.codes import FdrmCode, canonical_basis, certificate, code_from_certificate
from fdrm.fields import eliminate, gf
from fdrm.ferrers import FerrersDiagram

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (17, 1)]
SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@st.composite
def random_codes(draw):
    field = gf(*draw(st.sampled_from(FIELDS)))
    gammas = tuple(sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))))
    diagram = FerrersDiagram(gammas)
    m, n = diagram.m, diagram.n
    dots = [i * n + j for j in range(n) for i in range(gammas[j])]
    basis = []
    for _ in range(draw(st.integers(1, len(dots)))):
        flat = [0] * (m * n)
        for cell in dots:
            flat[cell] = draw(st.integers(0, field.order - 1))
        if len(eliminate(basis + [flat], field)) > len(basis):
            basis.append(flat)  # keep only draws independent of the ones kept
    assume(basis)
    delta = draw(st.integers(1, min(m, n)))
    return FdrmCode(field, diagram, tuple(map(tuple, basis)), delta, {"construction": "random"})


def _dump(cert):
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


@SETTINGS
@given(random_codes(), st.booleans())
def test_certificate_round_trip_is_byte_identical(code, verified):
    blob = _dump(certificate(code, verified))
    back = code_from_certificate(json.loads(blob))
    assert back.basis == code.basis
    assert _dump(certificate(back, verified)) == blob


@SETTINGS
@given(random_codes(), st.randoms(use_true_random=False))
def test_canonical_basis_ignores_basis_order(code, rng):
    basis = list(code.basis)
    rng.shuffle(basis)
    shuffled = FdrmCode(code.field, code.diagram, tuple(basis), code.claimed_delta, {})
    assert canonical_basis(shuffled) == canonical_basis(code)


@SETTINGS
@given(random_codes())
def test_canonical_basis_spans_the_code(code):
    canon = canonical_basis(code)
    k = code.dimension
    assert len(canon) == k
    # k independent rows whose union with the basis still has rank k
    assert len(eliminate(list(canon), code.field)) == k
    assert len(eliminate(list(code.basis) + list(canon), code.field)) == k


# -- hardening: mutated certificates --


def _paths(obj, path=()):
    """Every key or index path in a JSON tree, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _parent(cert, path):
    for key in path[:-1]:
        cert = cert[key]
    return cert


ODD_VALUES = st.one_of(
    st.text(max_size=6), st.integers(-(2**70), 2**70), st.floats(), st.booleans(),
    st.none(), st.lists(st.integers(-3, 300), max_size=4),
)
EXTREMES = st.sampled_from([0, -1, 25, 2**64])
DIAGRAMS = st.one_of(
    st.lists(st.integers(0, 2**40), min_size=0, max_size=5).map(
        lambda gs: "[" + ",".join(map(str, gs)) + "]"),
    st.text(alphabet="[],0123456789 \n-+_.x", max_size=12),
)


@st.composite
def mutated_certificates(draw):
    cert = json.loads(json.dumps(certificate(draw(random_codes()), draw(st.booleans()))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "row", "diagram", "extreme"]))
        event(kind)
        if kind == "drop":
            path = draw(st.sampled_from(list(_paths(cert))))
            del _parent(cert, path)[path[-1]]
        elif kind == "retype":
            path = draw(st.sampled_from(list(_paths(cert))))
            _parent(cert, path)[path[-1]] = draw(ODD_VALUES)
        elif kind == "row":
            rows = [p for p in _paths(cert) if p[0] == "basis" and len(p) == 3
                    and isinstance(_parent(cert, p)[p[-1]], str)]
            if not rows:
                continue
            path = draw(st.sampled_from(rows))
            text = _parent(cert, path)[path[-1]]
            at = draw(st.integers(0, len(text)))
            if draw(st.booleans()):  # cut the row at `at`
                text = text[:at]
            else:  # flip the character at `at` to another one, or append one
                flip = st.characters(codec="utf-8", exclude_characters=text[at : at + 1])
                text = text[:at] + draw(flip) + text[at + 1 :]
            _parent(cert, path)[path[-1]] = text
        elif kind == "diagram":
            cert["diagram"] = draw(DIAGRAMS)
        else:
            block, key = draw(st.sampled_from(
                [("entry_field", "p"), ("entry_field", "degree"), ("field", "p")]))
            if isinstance(cert.get(block), dict):
                cert[block][key] = draw(EXTREMES)
    return cert


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(mutated_certificates())
def test_verify_answers_mutated_certificates_with_one_line(cert):
    # A small budget: the test is about refusing input, not about how fast
    # a well-formed mutation's walk runs.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(cert))
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", str(path), "--budget", "4096",
                         "--json", str(Path(tmp) / "out.json")])
        took = time.perf_counter() - start
    assert code in (0, 1, 2, 3, 4)
    assert took < 2, took
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0], err.getvalue()


# -- hardening: mutated requests --

# The README's staircase request.
REQUEST = {"construction": "staircase", "field": {"p": 2, "s": 1}, "chain": [2, 6],
           "diagram": "[4,4,6,6]", "delta": 3, "r": 0, "w": 2, "seed": 0}
RETYPED = st.one_of(
    st.none(), st.text(max_size=6), st.floats(), st.booleans(),
    st.lists(st.integers(-3, 9), max_size=3), st.dictionaries(st.text(max_size=2), st.integers()),
)


@st.composite
def mutated_requests(draw):
    req = json.loads(json.dumps(REQUEST))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "perturb", "chain", "field"]))
        event(kind)
        if kind == "drop":
            path = draw(st.sampled_from(list(_paths(req))))
            del _parent(req, path)[path[-1]]
        elif kind == "retype":
            path = draw(st.sampled_from(list(_paths(req))))
            _parent(req, path)[path[-1]] = draw(RETYPED)
        elif kind == "perturb":
            key = draw(st.sampled_from(["delta", "r", "w", "seed"]))
            if type(req.get(key)) is int:
                req[key] += draw(st.integers(-3, 3))
        elif kind == "chain":
            if type(req.get("chain")) is list and req["chain"]:
                at = draw(st.integers(0, len(req["chain"]) - 1))
                if type(req["chain"][at]) is int:
                    req["chain"][at] += draw(st.integers(-3, 3))
        else:
            if type(req.get("field")) is not dict:
                req["field"] = {}
            key = draw(st.sampled_from(["p", "s", "q", "chain"]))
            req["field"][key] = draw(st.one_of(
                st.integers(-2, 9), st.sampled_from([16, 27, 2**61 - 1, 2**64]),
                st.lists(st.integers(-1, 8), max_size=3), RETYPED))
    return req


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(mutated_requests())
def test_construct_answers_mutated_requests_with_one_line(req):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "req.json"
        path.write_text(json.dumps(req))
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["construct", "--request", str(path), "--budget", "4096",
                         "--json", str(Path(tmp) / "out.json")])
        took = time.perf_counter() - start
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4)
    assert took < 2, took
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0], err.getvalue()
