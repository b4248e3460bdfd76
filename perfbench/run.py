"""The fdrm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fdrm is imported from its `src`, nothing
is installed.  A run starts several fresh processes that only set up
(import fdrm, build the workload's fields and towers), then one fresh
process that sets up and runs whole passes over the workload for S
seconds.  Every operation's outcome is checked against its pinned value.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are the per-layer ones, from passes run with
the layer wrappers of `spans.py` installed.  The line before it is a
record with the environment, the samples behind each median and the
workload-specific figures.  Exit code 0 when every outcome was right, 1
when any was wrong, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up-only processes run until SETUP_BUDGET_S has passed, at least
# SETUP_MIN and at most SETUP_MAX of them; the measuring process adds one
# more sample.  Cheap set-ups (~0.06 s) get more repeats than the ~0.8 s
# big-field one, so every setup_s median rests on enough samples.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 10, 2.0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def high_percentile(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return {"percentile": 100 * k // n, "value": sorted(values)[k - 1]}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _worker(workload, seed, seconds, trace, workdir, tag) -> dict:
    out = workdir / f"result-{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
           "1" if trace else "0", str(workdir), str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=seconds + 150)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def _metric(value, name):
    return {"value": value, "unit": UNITS[name]}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run set-ups and the measuring process; returns (final line, record)."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        setups = []
        started = time.perf_counter()
        while len(setups) < SETUP_MAX and (
            len(setups) < SETUP_MIN or time.perf_counter() - started < SETUP_BUDGET_S
        ):
            # A fresh directory each time: rewriting a file that was just
            # written can wait on the disk, which is not fdrm's cost.
            sub = workdir / f"setup{len(setups)}"
            sub.mkdir()
            setups.append(_worker(workload, seed, 0, False, sub, "setup")["setup_s"])
        res = _worker(workload, seed, seconds, trace, workdir, "measure")
        if trace:
            shutil.move(str(workdir / "trace.jsonl"),
                        str(OUT / f"trace-{workload}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    return summarize(workload, seed, seconds, trace, setups, res)


def summarize(workload, seed, seconds, trace, setups, res) -> tuple[dict, dict]:
    """Final line and record from set-up samples and the worker's result."""
    codewords, samples = res["codewords"], res["samples"]

    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    rows = [r for p in passes for r in p["ops"]]
    failures = [r for r in rows if not r["ok"]]
    walls = [p["wall_s"] for p in plain]
    wall = statistics.median(walls)
    op_ms = [r["s"] * 1e3 for p in plain for r in p["ops"]]

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                "python": platform.python_version(), "numpy": res["numpy"],
                "commit": git_commit()},
        "setup_s": {"samples": setups, "spread": spread(setups)},
        "wall_s": {"samples": walls, "spread": spread(walls)},
        "passes": len(passes),
        "op_median_s": {name: statistics.median(r["s"] for p in plain for r in p["ops"]
                                                if r["op"] == name)
                        for name in dict.fromkeys(r["op"] for r in plain[0]["ops"])},
        "failed_frac": len(failures) / len(rows),
        "failures": failures[:5],
    }
    if samples:
        record["samples_per_s"] = samples / statistics.median(
            p["probe_s"] for p in plain)
    if res["kind"] == "cli":
        bound_ms = [r["s"] * 1e3 for p in plain for r in p["ops"]
                    if r["op"].startswith("bound-")]
        record.update(cmd_count=len(op_ms), cmd_p50_ms=statistics.median(op_ms),
                      cmd_high_ms=high_percentile(op_ms),
                      cold_start_ms=statistics.median(bound_ms),
                      cold_start_spread=spread(bound_ms))

    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers.update(res["setup_layers"])
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - wall)
        metrics = {k: _metric(v, k) for k, v in layers.items()}
        record["declared_codewords"] = codewords
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "setup_s"),
            "wall_s": _metric(wall, "wall_s"),
            "codewords_per_s": _metric((codewords + samples) / wall, "codewords_per_s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "peak_rss_mb"),
        }
    final = {"correct": not failures, "attempted": len(rows), "failed": len(failures),
             "metrics": metrics}
    return final, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fdrm" / "__init__.py").is_file():
        print(f"perfbench: no fdrm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        final, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
