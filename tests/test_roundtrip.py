"""Property tests: certificates round-trip byte for byte, and the canonical
basis depends only on the code, not on the order of its basis.

Random codes: diagrams of 1 to 4 columns of heights 1 to 5, and random
independent bases supported on them over GF(2), GF(3), GF(4), GF(5) and
GF(17); GF(17) writes its rows as dotted decimals.
"""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
