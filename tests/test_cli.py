"""CLI contract tests: output formats, exit codes, certificate round trips."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import fdrm
from fdrm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_output_format(capsys):
    code, out, _ = run(capsys, "bound", "-F", "[2,3,3,5]", "-d", "4")
    assert code == 0
    assert out.strip() == "bound=2 v=[2,3,2,2]"


def test_bound_trivial(capsys):
    code, out, _ = run(capsys, "bound", "-F", "[1]", "-d", "1")
    assert code == 0
    assert out.strip() == "bound=1 v=[1]"


def test_bound_parse_error(capsys):
    code, _, err = run(capsys, "bound", "-F", "[3,2]", "-d", "1")
    assert code == 2


def test_bound_delta_range(capsys):
    code, _, err = run(capsys, "bound", "-F", "[2,3]", "-d", "9")
    assert code == 3


def test_construct_verified(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, err = run(
        capsys, "construct", "--construction", "shortened",
        "-F", "[2,3,3]", "-d", "2", "--json", str(out),
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["dimension"] == 5
    assert cert["delta"] == 2
    assert cert["verified"] is True
    assert cert["diagram"] == "[2,3,3]"
    assert cert["field"]["chain"] == [3]


def test_construct_reproducible_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["construct", "--construction", "thm23", "-F", "[2,2,4,5,5]",
            "-d", "4", "--seed", "3"]
    assert main(args + ["--json", str(a)]) == 0
    assert main(args + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_precondition_exit(capsys):
    code, _, err = run(
        capsys, "construct", "--construction", "shortened",
        "-F", "[2,2,3]", "-d", "3",
    )
    assert code == 3


def test_construct_parse_exit(capsys):
    code, _, _ = run(
        capsys, "construct", "--construction", "shortened", "-F", "[3,2]", "-d", "2"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "construct", "--construction", "nope", "-F", "[2,2]", "-d", "2"
    )
    assert code == 2


def test_construct_unverified_at_scale(tmp_path, capsys):
    out = tmp_path / "big.json"
    code, _, err = run(
        capsys, "construct", "--construction", "cor28",
        "-F", "[10,10,10,10,10,15,15,15,15,15,15,15,15,15,15]",
        "-d", "12", "-r", "0", "-w", "2", "--chain", "5,15",
        "--json", str(out),
    )
    assert code == 4
    cert = json.loads(out.read_text())
    assert cert["dimension"] == 40
    assert cert["verified"] is False


def test_full_pipeline_combine_and_lift(tmp_path, capsys):
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    comb, lifted = tmp_path / "comb.json", tmp_path / "lift.json"
    assert main(["construct", "--construction", "shortened", "-F", "[2,3,3]",
                 "-d", "3", "-q", "4", "--json", str(c1)]) == 0
    assert main(["construct", "--construction", "shortened", "-F", "[2]",
                 "-d", "1", "-q", "4", "--json", str(c2)]) == 0
    assert main(["combine", str(c1), str(c2), "--m3", "3", "--n3", "1",
                 "--json", str(comb)]) == 0
    cert = json.loads(comb.read_text())
    assert cert["diagram"] == "[2,3,3,5]" and cert["delta"] == 4
    assert main(["lift", str(comb), "--mode", "matrix-optimal",
                 "--json", str(lifted)]) == 0
    cert = json.loads(lifted.read_text())
    assert cert["diagram"] == "[4,4,6,6,6,6,10,10]"
    assert cert["delta"] == 8 and cert["dimension"] == 4
    assert main(["verify", str(lifted)]) == 0


def test_verify_catches_tampering(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["construct", "--construction", "shortened", "-F", "[2,2]",
                 "-d", "2", "--json", str(path)]) == 0
    cert = json.loads(path.read_text())
    cert["delta"] = 2
    cert["basis"].append(["10", "00"])  # rank-1 interloper
    cert["dimension"] += 1
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path)]) == 1


@pytest.mark.parametrize("delta", [-3, 0, 3])
def test_verify_rejects_delta_outside_rank_range(tmp_path, capsys, delta):
    path = tmp_path / "c.json"
    assert main(["construct", "--construction", "shortened", "-F", "[2,2]",
                 "-d", "2", "--json", str(path)]) == 0
    cert = json.loads(path.read_text())
    cert["delta"] = delta  # ranks of a 2x2 code lie in 1..2
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path)]) == 2


def test_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2


def test_combine_dimension_mismatch_exit(tmp_path, capsys):
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["construct", "--construction", "shortened", "-F", "[2,3,3]",
                 "-d", "3", "--json", str(c1)]) == 0
    assert main(["construct", "--construction", "shortened", "-F", "[2,3,3]",
                 "-d", "2", "--json", str(c2)]) == 0
    assert main(["combine", str(c1), str(c2), "--m3", "3", "--n3", "3"]) == 3


def test_thm23_over_budget_is_refused_before_the_search(capsys):
    # k = 6 over GF(2^10): 2^60 codewords, and 53.7M witnesses the search
    # would build before its closing MRD check refused the same budget.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "construct", "--construction", "thm23",
                         "-F", "[1,2,3,4,5,6,9,10,10,10]", "-d", "5", "-q", "2")
    assert time.perf_counter() - t0 < 2.0
    assert code == 4 and out == ""
    assert err.startswith("fdrm: ") and err.count("\n") == 1


def test_verify_at_scale_exits_4(tmp_path, capsys):
    path = tmp_path / "big.json"
    assert main(["construct", "--construction", "cor28",
                 "-F", "[10,10,10,10,10,15,15,15,15,15,15,15,15,15,15]",
                 "-d", "12", "-r", "0", "-w", "2", "--chain", "5,15",
                 "--json", str(path)]) == 4
    assert main(["verify", str(path)]) == 4  # still beyond the budget


def test_staircase_requires_chain(capsys):
    code, _, _ = run(
        capsys, "construct", "--construction", "staircase",
        "-F", "[4,4,6,6]", "-d", "3", "-w", "2",
    )
    assert code == 2


def test_construction_aliases(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["construct", "--construction", "prescribed", "-F", "[2,3,4,4]",
                 "-d", "4", "--json", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["provenance"]["construction"] == "thm23"


def test_construct_from_request_file(tmp_path, capsys):
    req = tmp_path / "req.json"
    out = tmp_path / "out.json"
    req.write_text(json.dumps({
        "construction": "staircase",
        "field": {"p": 2, "s": 1},
        "chain": [2, 6],
        "diagram": "[4,4,6,6]",
        "delta": 3,
        "r": 0,
        "w": 2,
        "seed": 0,
    }))
    assert main(["construct", "--request", str(req), "--json", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["dimension"] == 8 and cert["verified"] is True
    assert main(["construct", "-F", "[2,2]", "-d", "2"]) == 2  # no construction


@pytest.mark.parametrize("construct", [
    ["--construction", "shortened", "-F", "[2,3,3]", "-d", "3", "-q", "4"],
    ["--request", "req.json"],
], ids=["readme-c1", "request-staircase"])
def test_verify_json_rewrites_the_certificate_byte_for_byte(
    tmp_path, capsys, monkeypatch, construct
):
    # verify --json keeps the tower the code came from (its `field` block).
    monkeypatch.chdir(tmp_path)
    (tmp_path / "req.json").write_text(json.dumps({
        "construction": "staircase", "field": {"p": 2, "s": 1}, "chain": [2, 6],
        "diagram": "[4,4,6,6]", "delta": 3, "r": 0, "w": 2, "seed": 0,
    }))
    assert main(["construct", *construct, "--json", "c.json"]) == 0
    assert main(["verify", "c.json", "--json", "out.json"]) == 0
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "c.json").read_bytes()


@pytest.mark.parametrize("field", [
    None, "tower", {"p": 2, "s": 2, "chain": "3", "modulus": [1, 1]},
    {"p": 3, "s": 2, "chain": [3], "modulus": [1, 1]},
])
def test_verify_json_writes_the_default_field_block_for_a_bad_one(tmp_path, capsys, field):
    c1, out = tmp_path / "c1.json", tmp_path / "out.json"
    assert main(["construct", "--construction", "shortened", "-F", "[2,3,3]", "-d", "3",
                 "-q", "4", "--json", str(c1)]) == 0
    cert = json.loads(c1.read_text())
    if field is None:
        del cert["field"]
    else:
        cert["field"] = field
    assert main(["verify", _write(c1, cert), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["field"] == {
        "p": 2, "s": 2, "chain": [1], "modulus": [1, 1, 1]}


def test_distance_one_claim_past_the_budget_is_verified(capsys):
    # 2^1024 codewords, but every nonzero matrix has rank >= 1.
    code, _, err = run(capsys, "construct", "--construction", "shortened",
                       "-F", "[1024]", "-d", "1", "-q", "2")
    assert code == 0 and err.strip().endswith("verified")


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _request(tmp_path, req):
    return ["construct", "--request", _write(tmp_path / "req.json", req)]


def _tampered_cert(tmp_path, edit):
    path = tmp_path / "c.json"
    assert main(["construct", "--construction", "shortened", "-F", "[2,2]",
                 "-d", "2", "--json", str(path)]) == 0
    cert = json.loads(path.read_text())
    edit(cert)
    return ["verify", _write(path, cert)]


def _raw(tmp_path, command, text):
    path = tmp_path / "raw.json"
    path.write_text(text)
    return [*command, str(path)]


DEEP = "[" * 100_000 + "]" * 100_000  # nested past the recursion limit
HUGE = "1" + "0" * 5000  # an integer literal past the 4300-digit conversion limit
REQUEST = ["construct", "--request"]
SHORTENED = {"construction": "shortened", "diagram": "[2,3,4,4]", "delta": 3,
             "field": {"q": 2}}


def _huge_delta_cert(tmp_path):
    argv = _tampered_cert(tmp_path, lambda c: None)
    path = tmp_path / "c.json"
    text = path.read_text()
    assert '"delta": 2' in text
    path.write_text(text.replace('"delta": 2', f'"delta": {HUGE}'))
    return argv


def _zero_dimension(cert):
    cert["dimension"], cert["basis"] = 0, []


def _integer_rows(cert):
    cert["basis"] = [[int(row) for row in b] for b in cert["basis"]]


def _basis_cert(tmp_path, basis, diagram="[1]", p=2, degree=1):
    cert = {"entry_field": {"p": p, "degree": degree}, "diagram": diagram,
            "dimension": len(basis), "delta": 1, "basis": basis}
    return ["verify", _write(tmp_path / "basis.json", cert)]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: _request(tmp, {"delta": "x"}),
        lambda tmp: _request(tmp, ["construction", "staircase"]),
        lambda tmp: _tampered_cert(tmp, _zero_dimension),
        lambda tmp: _tampered_cert(tmp, _integer_rows),
        lambda tmp: _tampered_cert(tmp, lambda c: c.update(provenance=[1])),
        lambda tmp: _raw(tmp, REQUEST, DEEP),
        lambda tmp: _raw(tmp, REQUEST, f'{{"delta": {HUGE}}}'),
        lambda tmp: _raw(tmp, REQUEST, '{"delta": Infinity}'),
        lambda tmp: _request(tmp, {**SHORTENED, "delta": 3.9}),
        lambda tmp: _request(tmp, {**SHORTENED, "delta": "3"}),
        lambda tmp: _request(tmp, {"construction": "staircase", "diagram": "[4,4,6,6]",
                                   "delta": 3, "w": 2, "chain": "26"}),
        lambda tmp: _raw(tmp, ["verify"], DEEP),
        lambda tmp: _huge_delta_cert(tmp),
        lambda tmp: _tampered_cert(tmp, lambda c: c.update(delta=float("inf"))),
        lambda tmp: _tampered_cert(tmp, lambda c: c["entry_field"].update(degree=1.5)),
        lambda tmp: _tampered_cert(tmp, lambda c: c.update(verified="false")),
        lambda tmp: _basis_cert(tmp, ["1"]),
        lambda tmp: _basis_cert(tmp, {"1": 1}),
        lambda tmp: _basis_cert(tmp, [[1]]),
        lambda tmp: _basis_cert(tmp, [["1"], "1"]),
        lambda tmp: _basis_cert(tmp, [["1", "0"], "01"], diagram="[2]"),
        lambda tmp: _basis_cert(tmp, [[" 1.+1_0"]], diagram="[1,1]", p=17),
        lambda tmp: _basis_cert(tmp, [["1..0"]], diagram="[1,1]", p=17),
        lambda tmp: _basis_cert(tmp, [["A0"]], diagram="[1,1]", degree=4),
        lambda tmp: _basis_cert(tmp, [["2"]]),
        lambda tmp: _basis_cert(tmp, [["f"]], p=3),
        lambda tmp: _basis_cert(tmp, [["17"]], p=17),
        lambda tmp: _basis_cert(tmp, [["10", ""]], diagram="[2]"),
        lambda tmp: _basis_cert(tmp, [["1.0.0", "0"]], diagram="[2,2]", p=17),
        lambda tmp: _raw(tmp, ["verify"], '[{"diagram": "[1]"}]'),
        lambda tmp: _tampered_cert(tmp, lambda c: c.pop("dimension")),
        lambda tmp: _tampered_cert(tmp, lambda c: c.pop("basis")),
        lambda tmp: _tampered_cert(tmp, lambda c: c.update(diagram=f"[{HUGE}]")),
        lambda tmp: ["bound", "-F", f"[{HUGE}]", "-d", "1"],
    ],
    ids=["request-delta-x", "request-list", "cert-zero-dimension",
         "cert-integer-rows", "cert-provenance-list", "request-deep",
         "request-huge-int", "request-infinity", "request-delta-float",
         "request-delta-string", "request-chain-string", "cert-deep",
         "cert-huge-int", "cert-infinity", "cert-degree-float",
         "cert-verified-string", "cert-basis-strings", "cert-basis-object",
         "cert-basis-integer-row", "cert-basis-mixed", "cert-basis-string-matrix",
         "cert-row-int-syntax", "cert-row-empty-entry", "cert-row-upper-hex",
         "cert-entry-2-gf2", "cert-entry-f-gf3", "cert-entry-17-gf17",
         "cert-row-lengths-hex", "cert-row-lengths-dotted", "cert-list",
         "cert-no-dimension", "cert-no-basis", "cert-diagram-huge-int",
         "bound-diagram-huge-int"],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    capsys.readouterr()
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("fdrm: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [DEEP, f'{{"delta": {HUGE}}}', None],
                         ids=["deep", "huge-int", "missing"])
def test_request_load_error_names_the_request(tmp_path, capsys, text):
    path = tmp_path / "r.json"
    if text is not None:
        path.write_text(text)
    code, _, err = run(capsys, "construct", "--request", str(path))
    assert code == 2
    assert err.startswith(f"fdrm: request {path}: ") and err.count("\n") == 1


def test_verify_rejects_oversized_entry_field_quickly(tmp_path, capsys):
    cert = {"entry_field": {"p": 2, "degree": 40}, "diagram": "[1]",
            "dimension": 1, "delta": 1, "basis": [["1"]]}
    t0 = time.perf_counter()
    code, _, err = run(capsys, "verify", _write(tmp_path / "big.json", cert))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and "GF(2^40)" in err


@pytest.mark.parametrize("p,degree", [(2, 24), (3, 12), (5, 8)])
def test_verify_certificate_at_the_field_cap(tmp_path, p, degree):
    # A fresh process builds the entry field cold (gf() caches per process);
    # searching every candidate modulus took 37 s, 166 s and 51 s on these
    # (2-core machine).
    cert = {"entry_field": {"p": p, "degree": degree}, "diagram": "[1]",
            "dimension": 1, "delta": 1, "basis": [["1"]]}
    src = os.path.dirname(os.path.dirname(fdrm.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "fdrm.cli", "verify", _write(tmp_path / "cap.json", cert)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.endswith("code: verified (bound 1, dimension 1)\n")


# SHA-256 of each README pipeline certificate, as pinned by the benchmark
# (perfbench/workloads.py, cli_ops), then of both lifts of c1 and of two
# staircases with r > 0 (criterion 4, and the q=3 code the benchmark
# re-verifies): certificates must stay byte-identical.
README_PIPELINE = [
    ("c1.json", ["construct", "--construction", "shortened", "-F", "[2,3,3]",
                 "-d", "3", "-q", "4", "--json", "c1.json"],
     "9ea6cf5d962977382e6c4589cfae35995a01c9f1acc2ffce58176aa6324ead48"),
    ("c2.json", ["construct", "--construction", "shortened", "-F", "[2]",
                 "-d", "1", "-q", "4", "--json", "c2.json"],
     "492534683aa89c0c2f3ae5f958ee38a631d6720f33eb0e57623c02c40afc91a6"),
    ("comb.json", ["combine", "c1.json", "c2.json", "--m3", "3", "--n3", "1",
                   "--json", "comb.json"],
     "bf462a310f736a4d15dcfbf6b17d123213ccc84789619416b7cb22d4327ac372"),
    ("lifted.json", ["lift", "comb.json", "--mode", "matrix-optimal",
                     "--json", "lifted.json"],
     "3456af4024f7be71ca8a15d8762fe7e83345c6bf83cb55d029c6f387c32af932"),
    ("stair.json", ["construct", "--request", "request.json", "--json", "stair.json"],
     "307cddef9437f75672fd4edb91758f28958ca15fafa6aa1bb4a1946c86b8cad2"),
    ("c1v.json", ["lift", "c1.json", "--mode", "vector", "--json", "c1v.json"],
     "6c4ca0ef72a1233feee79830d4c3805f36f32c92354a5f272c0aeb0b6781fbcf"),
    ("c1m.json", ["lift", "c1.json", "--mode", "matrix", "--json", "c1m.json"],
     "27db63ce25fec840f5d9964eb9f7faae1c048e8c347d08b0f4adda817c89545f"),
    ("crit4.json", ["construct", "--construction", "staircase", "-q", "2", "--chain", "4,8",
                    "-F", "[1,2,4,4,8,8,8,8,9,11]", "-d", "8", "-r", "2", "-w", "1",
                    "--json", "crit4.json"],
     "3e5833e7e688e0f3c7a27c95932595ceeffcc6bdf1ba05cb90760e75222ead82"),
    ("q3.json", ["construct", "--construction", "staircase", "-q", "3", "--chain", "3",
                 "-F", "[1,3,3,4]", "-d", "3", "-r", "1", "-w", "1", "--json", "q3.json"],
     "ed9c3c38a2670af22ec95c074597e1f7fc933f1341277f4feae259a11c74999d"),
]


def test_readme_pipeline_certificate_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "request.json", {
        "construction": "staircase", "field": {"p": 2, "s": 1}, "chain": [2, 6],
        "diagram": "[4,4,6,6]", "delta": 3, "r": 0, "w": 2, "seed": 0,
    })
    for name, argv, sha in README_PIPELINE:
        assert main(argv) == 0, name
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha, name


# SHA-256 of thm23 certificates: the prescribed-column route over GF(2) at
# two seeds and over GF(3), and the shortened route it delegates to.
THM23_PINS = [
    (["-F", "[2,2,4,5,5]", "-d", "4", "-q", "2", "--seed", "0"],
     "e1275c22befa22cc744ccbb5ab9a8f414639c2ff77a930d277aa785aba42d82c"),
    (["-F", "[2,2,4,5,5]", "-d", "4", "-q", "2", "--seed", "1"],
     "f67e1741bf7b2ca3d08d08416b18e6983a082705d712a913b2f68b7b8b23efaa"),
    (["-F", "[2,3,4,4]", "-d", "4", "-q", "2"],
     "5058c2b17ba5e61fb2c23fbcbcf340e05c071e3edbd6204c0b0d4f29e78b6eec"),
    (["-F", "[2,3,4,4]", "-d", "4", "-q", "3"],
     "ae011b868689858e7a386a21160a6246f4c1c96eeb9eb971cb861713333caf87"),
    (["-F", "[2,3,4,4]", "-d", "3", "-q", "2"],
     "642369aaaad2973d99a8466aa1ae49c164bcb6f59633cce7fe61146262fbf2a2"),
]


@pytest.mark.parametrize(
    "argv,sha", THM23_PINS,
    ids=["22455-seed0", "22455-seed1", "2344-q2", "2344-q3", "2344-shortened"],
)
def test_thm23_certificate_bytes(tmp_path, argv, sha):
    out = tmp_path / "thm23.json"
    assert main(["construct", "--construction", "thm23", *argv, "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


# SHA-256 of a tall certificate: 1024 basis matrices of 1024 one-entry rows,
# each matrix written as one hex string cut into rows.
TALL_SHA = "ecbd0389a61ee1fb1c4c6f00fd1c0fbffeae0f93dad3364ff360ce8600ebfa02"


def test_tall_certificate_bytes_and_round_trip(tmp_path, capsys):
    out = tmp_path / "tall.json"
    assert main(["construct", "--construction", "shortened", "-F", "[1024]", "-d", "1",
                 "-q", "2", "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TALL_SHA
    again = tmp_path / "again.json"
    assert main(["verify", str(out), "--json", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "target,argv",
    [
        ("construct_shortened", ["construct", "--construction", "shortened",
                                 "-F", "[2,3,3]", "-d", "3", "-q", "4"]),
        ("lift_vector", ["lift", "c1.json", "--mode", "vector"]),
        ("combine_codes", ["combine", "c1.json", "c1.json", "--m3", "3", "--n3", "3"]),
    ],
)
def test_construction_check_failure_exits_1_with_one_line(
    tmp_path, capsys, monkeypatch, target, argv
):
    import fdrm.cli as cli

    def fail(*args, **kwargs):
        raise cli.CodeError("internal check failed")

    monkeypatch.chdir(tmp_path)
    assert main(README_PIPELINE[0][1]) == 0  # c1.json
    monkeypatch.setattr(cli, target, fail)
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "fdrm: check failed: internal check failed\n"


BIG_PRIME = "2305843009213693951"  # 2^61 - 1: trial division takes minutes


@pytest.mark.parametrize(
    "argv,want",
    [
        (lambda tmp: ["construct", "--construction", "shortened", "-F", "[2,3,3]",
                      "-d", "2", "-q", BIG_PRIME], 2),
        (lambda tmp: _request(tmp, {"construction": "shortened", "diagram": "[2,3,3]",
                                    "delta": 2, "field": {"q": int(BIG_PRIME)}}), 2),
        (lambda tmp: ["construct", "--construction", "shortened", "-F", "[2,3,3]",
                      "-d", "2", "--p", BIG_PRIME], 3),
    ],
    ids=["flag-q", "request-q", "flag-p"],
)
def test_huge_field_size_is_refused_quickly(tmp_path, capsys, argv, want):
    argv = argv(tmp_path)
    t0 = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == want and err.startswith("fdrm: ") and err.count("\n") == 1


def _lift_over_cap(tmp_path, mode):
    # One GF(4) matrix on the full 32 x 32 diagram, at the 1024-cell cap;
    # either lift doubles the row count past it.
    rows = ["1" + "0" * 31] + ["0" * 32] * 31
    _, path = _basis_cert(tmp_path, [rows], diagram="[" + ",".join(["32"] * 32) + "]",
                          degree=2)
    return ["lift", path, "--mode", mode]


def _combine_over_cap(tmp_path):
    _, path = _tampered_cert(tmp_path, lambda c: None)  # [2,2], delta 2
    return ["combine", path, path, "--m3", "100000", "--n3", "100000"]


def _shortened_argv(diagram, delta):
    return ["construct", "--construction", "shortened", "-F", diagram, "-d", delta, "-q", "2"]


@pytest.mark.parametrize(
    "argv,want",
    [
        (lambda tmp: _shortened_argv("[2,3,20000]", "2"), 2),
        (lambda tmp: _shortened_argv("[2,3,200000]", "2"), 2),
        (lambda tmp: _shortened_argv("[4096]", "1"), 2),
        (lambda tmp: ["construct", "--construction", "staircase", "--chain", "3",
                      "-F", "[1,3,3,2000]", "-d", "3", "-r", "1"], 2),
        (lambda tmp: _request(tmp, {"construction": "shortened", "diagram": "[2,3,200000]",
                                    "delta": 2, "field": {"q": 2}}), 2),
        (lambda tmp: _basis_cert(tmp, [["1"]], diagram="[1025]"), 2),
        (_combine_over_cap, 3),
        (lambda tmp: _lift_over_cap(tmp, "vector"), 3),
        (lambda tmp: _lift_over_cap(tmp, "matrix"), 3),
    ],
    ids=["shortened-20000", "shortened-200000", "full-4096", "staircase-2000",
         "request", "verify-1025", "combine-1e5", "lift-vector", "lift-matrix"],
)
def test_oversized_ambient_is_refused_quickly(tmp_path, capsys, argv, want):
    argv = argv(tmp_path)
    capsys.readouterr()
    t0 = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == want and err.startswith("fdrm: ") and err.count("\n") == 1
    assert "exceeds 1024 cells" in err
