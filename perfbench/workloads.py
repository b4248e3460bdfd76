"""The fdrm benchmark's workloads: fixed operation lists with pinned outcomes.

Every workload is a closed loop with one client: each operation starts
only after the previous one has finished.  A pass runs the operation list
once, in order.  Set-up builds every field and tower a library workload
uses, so the `gf`/`build_tower` caches are warm before timing, as they are
for a library user; `cli-cold` instead pays that cost in every process.

Each operation carries the outcome it must produce (the correctness gate)
and the number of nonzero codewords its completed exhaustive checks cover,
q^k' - 1 per check, sub-contract checks inside constructions included.
That count is part of the workload: it does not depend on how fdrm
enumerates, so a kernel that covers the same codewords with fewer rank
evaluations raises codewords/s.  The smoke test checks it against the
count the traced run sees.

The seed only picks the probe seeds and the prescribed-column search seed;
the expected outcomes hold for every seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fdrm import codes as C
from fdrm import constructions as K
from fdrm import fields as FL
from fdrm import ferrers as FR


@dataclass(frozen=True)
class AtLeast:
    """Expected value: any number >= `low` (a probe, not an exact minimum)."""

    low: int

    def __repr__(self) -> str:
        return f">={self.low}"


def matches(expected, observed) -> bool:
    if isinstance(expected, AtLeast):
        return isinstance(observed, int) and observed >= expected.low
    return expected == observed


@dataclass(frozen=True)
class LibOp:
    """One library call sequence; `run(state)` returns the observed outcome."""

    name: str
    run: Callable[[dict], dict]
    expect: dict
    codewords: int = 0
    samples: int = 0


@dataclass(frozen=True)
class CliOp:
    """One `fdrm` process: argv after the program name and its pinned outcome.

    `sha256` pins the bytes of the certificate file named by `cert`, which
    the command writes (construct, combine, lift) or reads (verify).
    """

    name: str
    argv: tuple[str, ...]
    exit_code: int
    stdout: str | None = None
    cert: str | None = None
    sha256: str | None = None
    codewords: int = 0
    samples: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path], None]
    ops: Callable[[int], list]
    kind: str = "library"


def _tower_setup(towers, extra_fields=()):
    def setup(workdir: Path) -> None:
        for p, s, chain in towers:
            FL.build_tower(p, s, chain)
        for p, n in extra_fields:
            FL.gf(p, n)
    return setup


def D(*gammas) -> FR.FerrersDiagram:
    return FR.FerrersDiagram(tuple(gammas))


def _full(m: int, n: int) -> FR.FerrersDiagram:
    return FR.FerrersDiagram((m,) * n)


def _cw(q: int, k: int) -> int:
    """Nonzero codewords of a k-dimensional code over GF(q)."""
    return q**k - 1


# -- gf2-exhaustive --


CRIT4 = D(1, 2, 4, 4, 8, 8, 8, 8, 9, 11)
MRD_CASES = ((3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3), (6, 4))
PRESCRIBED = ((D(2, 3, 4, 4), 4, 2), (D(2, 2, 4, 5, 5), 4, 4))


def _build_certify_optimal(key, make, delta):
    def run(state):
        code, status = C.certify(make())
        state[key] = code
        return {"dimension": code.dimension, "status": status,
                "generator_verified": code.provenance.get("generator_verified"),
                "optimal": C.is_optimal(code, delta)}
    return run


def _mrd(p: int, n: int, delta: int):
    def run(state):
        tower = FL.build_tower(p, 1, (n,))
        G = K.moore_matrix(tower, tower.betas[:n], n - delta + 1)
        return {"mrd": C.mrd_check(tower, G, delta)}
    return run


def _prescribed(p: int, diagram, delta: int, seed: int):
    def run(state):
        tower = K.tower_for_prescribed(p, 1, diagram, delta)
        code = K.construct_prescribed_column(tower, diagram, delta, seed=seed)
        return {"dimension": code.dimension, "optimal": C.is_optimal(code, delta)}
    return run


def _combination(s: int):
    def run(state):
        f1, f2 = D(2, 3, 3), D(2)
        c1 = K.construct_shortened(K.tower_for_shortened(2, s, f1, 3), f1, 3)
        c2 = K.construct_shortened(K.tower_for_shortened(2, s, f2, 1), f2, 1)
        comb = K.combine_codes(c1, c2, 3, 1)
        state["comb"] = comb
        comb, status = C.certify(comb)
        return {"diagram": comb.diagram.text(), "dimension": comb.dimension,
                "status": status, "optimal": C.is_optimal(comb, 4)}
    return run


def _false_claim(state):
    code = state["crit4"]
    return {"distance_at_least": C.distance_at_least(code, code.claimed_delta + 1)}


def gf2_ops(seed: int) -> list:
    ops = [
        # Sub-contracts nu = 0, 1, 2 are 3-, 2- and 1-row generators over
        # GF(2^8); then certify and is_optimal each cover the 2^7 code.
        LibOp("criterion4-staircase", _build_certify_optimal(
            "crit4",
            lambda: K.construct_staircase(FL.build_tower(2, 1, (4, 8)), CRIT4, 8, 2, 1), 8),
              {"dimension": 7, "status": "verified", "generator_verified": True,
               "optimal": True},
              codewords=_cw(2, 24) + _cw(2, 16) + _cw(2, 8) + 2 * _cw(2, 7)),
        LibOp("staircase-4466", _build_certify_optimal(
            "4466", lambda: K.construct_staircase(FL.build_tower(2, 1, (2, 6)), D(4, 4, 6, 6),
                                          3, 0, 2), 3),
              {"dimension": 8, "status": "verified", "generator_verified": True,
               "optimal": True},
              codewords=_cw(2, 12) + 2 * _cw(2, 8)),
    ]
    for n, delta in MRD_CASES:
        ops.append(LibOp(f"gabidulin-mrd-{n}-{delta}", _mrd(2, n, delta), {"mrd": True},
                         codewords=_cw(2, n * (n - delta + 1))))
    # k = 2 rows over GF(2^11): 2^22 codewords, 11 columns pack into uint16.
    ops.append(LibOp("gabidulin-mrd-11-10", _mrd(2, 11, 10), {"mrd": True},
                     codewords=_cw(2, 22)))
    for diagram, delta, dim in PRESCRIBED:
        k = diagram.n - delta + 1
        ops.append(LibOp(f"prescribed-{diagram.text()}", _prescribed(2, diagram, delta, seed),
                         {"dimension": dim, "optimal": True},
                         codewords=_cw(2, diagram.n * k) + _cw(2, dim)))
    ops.append(LibOp("criterion7-combination", _combination(1),
                     {"diagram": "[2,3,3,5]", "dimension": 2, "status": "verified",
                      "optimal": True},
                     codewords=2 * _cw(2, 2)))
    ops.append(LibOp("false-claim", _false_claim, {"distance_at_least": False}))
    return ops


GF2_TOWERS = [(2, 1, c) for c in ((4, 8), (2, 6), (3,), (4,), (5,), (6,), (11,), (1,))]


# -- generic-exhaustive --


def _shortened(p: int, s: int, diagram, delta: int, exact: bool):
    def run(state):
        tower = K.tower_for_shortened(p, s, diagram, delta)
        code, status = C.certify(K.construct_shortened(tower, diagram, delta))
        out = {"dimension": code.dimension, "status": status}
        if exact:
            out["min_rank"] = C.min_rank_distance(code)
            out["optimal"] = C.is_optimal(code, delta)
        return out
    return run


def _staircase_q3(state):
    code = K.construct_staircase(FL.build_tower(3, 1, (3,)), D(1, 3, 3, 4), 3, 1, 1)
    return {"dimension": code.dimension,
            "generator_verified": code.provenance["generator_verified"],
            "optimal": C.is_optimal(code, 3)}


def _lift(state):
    lifted = K.lift_matrix_optimal(state["comb"], 2)
    return {"diagram": lifted.diagram.text(), "dimension": lifted.dimension,
            "delta": lifted.claimed_delta, "optimal": C.is_optimal(lifted, 8)}


def generic_ops(seed: int) -> list:
    return [
        LibOp("shortened-3444-q3", _shortened(3, 1, D(3, 4, 4, 4), 2, False),
              {"dimension": 11, "status": "verified"}, codewords=_cw(3, 11)),
        LibOp("shortened-2344-q4", _shortened(2, 2, D(2, 3, 4, 4), 2, False),
              {"dimension": 9, "status": "verified"}, codewords=_cw(4, 9)),
        LibOp("shortened-333-q5", _shortened(5, 1, D(3, 3, 3), 2, True),
              {"dimension": 6, "status": "verified", "min_rank": 2, "optimal": True},
              codewords=3 * _cw(5, 6)),
        LibOp("shortened-233-q3", _shortened(3, 1, D(2, 3, 3), 2, True),
              {"dimension": 5, "status": "verified", "min_rank": 2, "optimal": True},
              codewords=3 * _cw(3, 5)),
        LibOp("gabidulin-mrd-q3-5-4", _mrd(3, 5, 4), {"mrd": True}, codewords=_cw(3, 10)),
        LibOp("prescribed-[2,3,4,4]-q3", _prescribed(3, D(2, 3, 4, 4), 4, seed),
              {"dimension": 2, "optimal": True}, codewords=_cw(3, 4) + _cw(3, 2)),
        # Sub-contracts nu = 0, 1 over GF(27) (2 rows, 1 row), then optimality.
        LibOp("staircase-1334-q3", _staircase_q3,
              {"dimension": 4, "generator_verified": True, "optimal": True},
              codewords=_cw(3, 6) + _cw(3, 3) + _cw(3, 4)),
        LibOp("criterion8-combination-q4", _combination(2),
              {"diagram": "[2,3,3,5]", "dimension": 2, "status": "verified",
               "optimal": True},
              codewords=2 * _cw(4, 2)),
        # lift_matrix_optimal re-checks the input, then the lift is checked.
        LibOp("criterion8-lift-matrix-optimal", _lift,
              {"diagram": "[4,4,6,6,6,6,10,10]", "dimension": 4, "delta": 8,
               "optimal": True},
              codewords=_cw(4, 2) + _cw(2, 4)),
    ]


GENERIC_TOWERS = [(3, 1, (4,)), (2, 2, (4,)), (5, 1, (3,)), (3, 1, (3,)), (3, 1, (5,)),
                  (2, 2, (3,)), (2, 2, (1,))]


# -- at-scale-probe --


AT_SCALE = (
    # (name, p, chain, diagram, delta, w, dimension, samples)
    ("cor28-dim40-gf2^15", 2, (5, 15), D(*((10,) * 5 + (15,) * 10)), 12, 2, 40, 1 << 20),
    ("cor28-dim64-gf2^16", 2, (4, 16), _full(16, 16), 13, 4, 64, 1 << 18),
    ("cor28-dim18-gf3^6", 3, (3, 6), _full(6, 6), 4, 2, 18, 5000),
)


def _probe(p, chain, diagram, delta, w, samples, probe_seed):
    def run(state):
        code = K.construct_staircase_l2(FL.build_tower(p, 1, chain), diagram, delta, 0, w)
        code, status = C.certify(code)
        out = {"dimension": code.dimension, "status": status,
               "bound": FR.singleton_bound(diagram, delta)[0]}
        if status == "unverified-at-scale":  # probe only what was refused
            t0 = time.perf_counter()
            out["probe"] = C.sampled_min_rank(code, samples, seed=probe_seed)
            state["probe_s"] += time.perf_counter() - t0
        return out
    return run


def at_scale_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for name, p, chain, diagram, delta, w, dim, samples in AT_SCALE:
        ops.append(LibOp(
            name, _probe(p, chain, diagram, delta, w, samples, rng.randrange(1 << 30)),
            {"dimension": dim, "status": "unverified-at-scale", "bound": dim,
             "probe": AtLeast(delta)},
            samples=samples))
    return ops


AT_SCALE_TOWERS = [(p, 1, chain) for _, p, chain, *_ in AT_SCALE]


# -- cli-cold --


STAIR_REQUEST = {"construction": "staircase", "field": {"p": 2, "s": 1},
                 "chain": [2, 6], "diagram": "[4,4,6,6]", "delta": 3, "r": 0, "w": 2,
                 "seed": 0}
SETUP_CERT = "setup-staircase-q3.json"
SETUP_ARGV = ("construct", "--construction", "staircase", "-q", "3", "--chain", "3",
              "-F", "[1,3,3,4]", "-d", "3", "-r", "1", "-w", "1", "--json", SETUP_CERT)


def cli_setup(workdir: Path) -> None:
    """Write the request file and, through the CLI in-process, the q=3
    staircase certificate that the pass re-verifies."""
    from fdrm import cli

    (workdir / "request.json").write_text(json.dumps(STAIR_REQUEST) + "\n")
    rc = cli.main([*SETUP_ARGV[:-1], str(workdir / SETUP_CERT)])
    if rc != 0:
        raise RuntimeError(f"set-up construct exited {rc}")


BOUNDS = (  # (diagram, delta, stdout)
    ("[2,3,3,5]", 4, "bound=2 v=[2,3,2,2]"),
    ("[2,3,4,4]", 4, "bound=2 v=[2,3,3,2]"),
    ("[2,2,4,5,5]", 4, "bound=4 v=[4,5,5,5]"),
    (AT_SCALE[0][3].text(), 12, "bound=40 v=[40,45,53,59,63,65,65,63,59,53,45,40]"),
    ("[1,2,4,4,8,8,8,8,9,11]", 8, "bound=7 v=[7,7,10,12,12,12,11,10]"),
    ("[4,4,6,6,6,6,10,10]", 8, "bound=4 v=[4,6,8,8,6,4,4,6]"),
    ("[4,4,6,6]", 3, "bound=8 v=[8,11,12]"),
    (_full(16, 16).text(), 13, "bound=64 v=[64,75,84,91,96,99,100,99,96,91,84,75,64]"),
    ("[6,6,6,6,6,6]", 4, "bound=18 v=[18,20,20,18]"),
    ("[3,4,4,4]", 2, "bound=11 v=[11,11]"),
)

COR28 = (  # (name, -q, chain, diagram, delta, w, certificate sha256)
    ("cor28-15", 2, "5,15", AT_SCALE[0][3].text(), 12, 2,
     "4f3d05f372983d8e1ea0050f398a220bfa3c34875f95de7ebe1239795e3abd29"),
    ("cor28-16", 2, "4,16", _full(16, 16).text(), 13, 4,
     "a0362de9f75498ce8b4926101f067223f3ae5d6875c8c3070fe7686fb726b521"),
    ("cor28-18", 2, "6,18", _full(18, 18).text(), 13, 3,
     "fe0e75e9a9a055e492b89ee2dd5e118311c40769fc02f381e9fdb3f58f7705eb"),
    ("cor28-q3", 3, "3,6", "[6,6,6,6,6,6]", 4, 2,
     "7069d2e71c89c43de9e1b2dd8374b568fcd8b2c7963eefcd75ef932eb5d64198"),
)


def cli_ops(seed: int) -> list:
    # The README pipeline over F_4 (each step certifies 2-dimensional codes
    # over F_4 or, after the lift, a 4-dimensional code over F_2).
    ops = [
        CliOp("readme-construct-c1",
              ("construct", "--construction", "shortened", "-F", "[2,3,3]", "-d", "3",
               "-q", "4", "--json", "c1.json"), 0, cert="c1.json",
              sha256="9ea6cf5d962977382e6c4589cfae35995a01c9f1acc2ffce58176aa6324ead48",
              codewords=_cw(4, 2)),
        CliOp("readme-construct-c2",
              ("construct", "--construction", "shortened", "-F", "[2]", "-d", "1",
               "-q", "4", "--json", "c2.json"), 0, cert="c2.json",
              sha256="492534683aa89c0c2f3ae5f958ee38a631d6720f33eb0e57623c02c40afc91a6",
              codewords=_cw(4, 2)),
        CliOp("readme-combine",
              ("combine", "c1.json", "c2.json", "--m3", "3", "--n3", "1",
               "--json", "comb.json"), 0, cert="comb.json",
              sha256="bf462a310f736a4d15dcfbf6b17d123213ccc84789619416b7cb22d4327ac372",
              codewords=_cw(4, 2)),
        CliOp("readme-lift",
              ("lift", "comb.json", "--mode", "matrix-optimal", "--json", "lifted.json"),
              0, cert="lifted.json",
              sha256="3456af4024f7be71ca8a15d8762fe7e83345c6bf83cb55d029c6f387c32af932",
              codewords=_cw(4, 2) + _cw(2, 4)),
        CliOp("readme-verify", ("verify", "lifted.json"), 0, cert="lifted.json",
              sha256="3456af4024f7be71ca8a15d8762fe7e83345c6bf83cb55d029c6f387c32af932",
              codewords=_cw(2, 4)),
        # Sub-contract: 2 rows over GF(2^6); then the 8-dimensional code.
        CliOp("readme-request-staircase",
              ("construct", "--request", "request.json", "--json", "stair.json"), 0,
              cert="stair.json",
              sha256="307cddef9437f75672fd4edb91758f28958ca15fafa6aa1bb4a1946c86b8cad2",
              codewords=_cw(2, 12) + _cw(2, 8)),
    ]
    for i, (diagram, delta, stdout) in enumerate(BOUNDS):
        ops.append(CliOp(f"bound-{i}", ("bound", "-F", diagram, "-d", str(delta)), 0,
                         stdout=stdout))
    for name, q, chain, diagram, delta, w, sha in COR28:
        ops.append(CliOp(
            name, ("construct", "--construction", "cor28", "-q", str(q), "-d", str(delta),
                   "-r", "0", "-w", str(w), "--chain", chain, "-F", diagram,
                   "--json", f"{name}.json"), 4, cert=f"{name}.json", sha256=sha))
        ops.append(CliOp(f"verify-{name}", ("verify", f"{name}.json"), 4,
                         cert=f"{name}.json", sha256=sha))
    ops.append(CliOp("verify-setup-staircase-q3", ("verify", SETUP_CERT), 0,
                     cert=SETUP_CERT,
                     sha256="ed9c3c38a2670af22ec95c074597e1f7fc933f1341277f4feae259a11c74999d",
                     codewords=_cw(3, 4)))
    return ops


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gf2-exhaustive", _tower_setup(GF2_TOWERS), gf2_ops),
        Workload("generic-exhaustive", _tower_setup(GENERIC_TOWERS, [(2, 1)]), generic_ops),
        Workload("at-scale-probe", _tower_setup(AT_SCALE_TOWERS), at_scale_ops),
        Workload("cli-cold", cli_setup, cli_ops, kind="cli"),
    )
}
