"""Smoke test of the benchmark itself (not part of the fdrm test suite).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload for one pass, untraced and traced, and checks that
the final line carries exactly the metrics BENCHMARK.json declares, with
their units, and that the traced codeword count equals the one the
workload declares; then checks that a wrong expected outcome is counted as
a failed operation.  Takes about a minute and a half on 2 cores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:  # the codeword counts the workloads declare are the ones fdrm checks
        covered = final["metrics"]["codes.codewords_covered"]["value"]
        assert covered == record["declared_codewords"]


def _summary(passes, kind="library"):
    res = {"passes": passes, "codewords": 1, "samples": 0, "kind": kind,
           "numpy": None, "peak_rss_mb": 1.0}
    return run.summarize("test", 0, 1, False, [0.1], res)


def test_wrong_expected_library_outcome_counts_as_failed():
    ops = [op for op in workloads.gf2_ops(0) if op.name.startswith("gabidulin-mrd-3-")]
    wrong = dataclasses.replace(ops[0], expect={"mrd": False})
    p = worker.run_library_pass([*ops, wrong], workloads.matches)
    p["traced"] = False
    assert [r["ok"] for r in p["ops"]] == [True, True, False]
    final, record = _summary([p])
    assert final["correct"] is False
    assert (final["attempted"], final["failed"]) == (3, 1)
    assert record["failed_frac"] == pytest.approx(1 / 3)


def test_wrong_expected_cli_outcome_counts_as_failed(tmp_path):
    right = next(op for op in workloads.cli_ops(0) if op.name == "bound-0")
    wrong = dataclasses.replace(right, name="bound-wrong", stdout="bound=3 v=[2,3,2,2]")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    p = worker.run_cli_pass([right, wrong], tmp_path, env)
    p["traced"] = False
    assert [r["ok"] for r in p["ops"]] == [True, False]
    final, record = _summary([p], kind="cli")
    assert (final["correct"], final["failed"]) == (False, 1)
    assert record["failed_frac"] == pytest.approx(0.5)


def test_exits_nonzero_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gf2-exhaustive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
