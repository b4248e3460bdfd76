"""CLI contract tests: output formats, exit codes, certificate round trips."""

import json

import pytest

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
