"""One fresh benchmark process: set-up, then timed passes over a workload.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR OUT

Set-up is `import fdrm` plus the workload's set-up (every field and tower
it uses), timed from before the import.  With SECONDS = 0 the process stops
there.  Otherwise it runs whole passes until SECONDS have elapsed (at
least one).  With TRACE = 1 it alternates untraced and traced passes (at
least one of each), so the tracing overhead is measured in one process.
The result is written as JSON to OUT; spans of traced passes go to
WORKDIR/trace.jsonl.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import spans

perf = time.perf_counter
HERE = Path(__file__).resolve().parent
CMD_TIMEOUT_S = 120


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _outcome(name, seconds, ok, detail=None) -> dict:
    row = {"op": name, "s": seconds, "ok": ok}
    if not ok:
        row["detail"] = detail
    return row


def run_library_pass(ops, matches, rec=None) -> dict:
    """Run each op in order; an exception or a wrong outcome is a failure."""
    state = {"probe_s": 0.0}
    rows = []
    start = perf()
    for op in ops:
        if rec is not None:
            rec.op = op.name
        t0 = perf()
        try:
            observed, err = op.run(state), None
        except Exception as e:  # counted as a failed operation, not fatal
            observed, err = {}, f"{type(e).__name__}: {e}"
        dt = perf() - t0
        ok = err is None and all(matches(v, observed.get(k)) for k, v in op.expect.items())
        rows.append(_outcome(op.name, dt, ok, err or {
            "observed": repr(observed), "expected": repr(op.expect)}))
    return {"wall_s": perf() - start, "ops": rows, "probe_s": state["probe_s"]}


def run_cli_pass(ops, workdir: Path, env: dict, rec=None) -> dict:
    """Run each op as its own `fdrm` process, one at a time."""
    rows = []
    start = perf()
    for i, op in enumerate(ops):
        if "--json" in op.argv:  # a stale file must not satisfy the hash check
            (workdir / op.argv[op.argv.index("--json") + 1]).unlink(missing_ok=True)
        if rec is None:
            cmd = [sys.executable, "-m", "fdrm.cli", *op.argv]
        else:
            span_file = workdir / f"spans-{i}.jsonl"
            span_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "launch.py"), str(span_file), *op.argv]
        t0 = perf()
        try:
            proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                                  text=True, timeout=CMD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rows.append(_outcome(op.name, perf() - t0, False, "timeout"))
            continue
        dt = perf() - t0
        got = {"exit": proc.returncode}
        want = {"exit": op.exit_code}
        if op.stdout is not None:
            got["stdout"], want["stdout"] = proc.stdout.strip(), op.stdout
        if op.sha256 is not None:
            got["sha256"], want["sha256"] = _sha256(workdir / op.cert), op.sha256
        ok = got == want
        rows.append(_outcome(op.name, dt, ok, {"observed": got, "expected": want,
                                                "stderr": proc.stderr[-500:]}))
        if rec is not None and span_file.exists():
            rec.extend(spans.load_rows(str(span_file)), op.name)
    return {"wall_s": perf() - start, "ops": rows, "probe_s": 0.0}


def main(argv) -> int:
    name, seed, seconds, trace, workdir, out = argv
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    src = HERE.parent / "src"

    t0 = perf()
    import fdrm

    import_s = perf() - t0
    if Path(fdrm.__file__).resolve().parent != (src / "fdrm").resolve():
        raise SystemExit(f"fdrm imported from {fdrm.__file__}, not from {src}")
    import workloads

    wl = workloads.WORKLOADS[name]
    setup_rec = spans.Recorder() if trace else None
    undo = spans.install(setup_rec) if trace else []
    wl.setup(workdir)
    spans.uninstall(undo)
    setup_s = perf() - t0

    ops = wl.ops(seed)
    result = {"setup_s": setup_s, "import_s": import_s, "passes": [], "kind": wl.kind,
              "codewords": sum(op.codewords for op in ops),
              "samples": sum(op.samples for op in ops),
              "numpy": getattr(sys.modules.get("numpy"), "__version__", None)}
    if seconds > 0:
        env = dict(os.environ, PYTHONPATH=str(src))
        deadline = perf() + seconds
        i = 0
        while True:
            traced = trace and i % 2 == 1
            rec = spans.Recorder() if traced else None
            if wl.kind == "cli":
                p = run_cli_pass(ops, workdir, env, rec)
            else:
                undo = spans.install(rec) if traced else []
                try:
                    p = run_library_pass(ops, workloads.matches, rec)
                finally:
                    spans.uninstall(undo)
            p["traced"] = traced
            if traced:
                p["layers"] = spans.reduce(rec.spans)
                rec.dump(str(workdir / "trace.jsonl"), {"pass": i})
            result["passes"].append(p)
            i += 1
            if perf() >= deadline and i >= (2 if trace else 1):
                break
        if trace:
            setup_rec.dump(str(workdir / "trace.jsonl"), {"pass": "setup"})
            setup_layers = spans.reduce(setup_rec.spans)
            result["setup_layers"] = {
                "setup.import_s": import_s,
                "setup.gf_s": setup_layers["fields.gf_s"],
                "setup.build_tower_s": setup_layers["fields.build_tower_s"],
            }
    who = resource.RUSAGE_CHILDREN if wl.kind == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
