"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs `run.py` once per (workload, seed) over every workload of
BENCHMARK.json at its `run_seconds`, one run at a time, and prints per
workload and metric the median of the per-run values and the interquartile
range as a share of that median (`statistics.quantiles(values, n=4)`),
next to the bound in BENCHMARK.json.  --out writes the summary, with every
run's final line and record, as JSON.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import SPEC, spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1500:]}",
                      file=sys.stderr)
                ok = False
                continue
            final, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
            runs.append({"seed": seed, "final": final, "record": record})
            shown = final["metrics"] if args.trace == 0 else {}
            print(f"{name} seed {seed}: correct={final['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in shown.items()), flush=True)
        if not runs:
            continue
        metrics = {}
        for key in runs[0]["final"]["metrics"]:
            values = [r["final"]["metrics"][key]["value"] for r in runs]
            med, iqr = statistics.median(values), spread(values)
            metrics[key] = {"median": med, "spread": iqr, "bound": bounds.get(key),
                            "values": values}
            if args.trace == 0:
                print(f"  {name:20s} {key:18s} median {med:12.6g}  spread {iqr:6.2%}"
                      f"  bound {bounds.get(key)}")
        summary["workloads"][name] = {"metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
