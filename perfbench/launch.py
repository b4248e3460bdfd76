"""Traced `fdrm` process: wrap the layers, then run the real CLI entry point.

    python3 perfbench/launch.py SPANS_OUT [fdrm arguments...]

Behaves like `python -m fdrm.cli` (same arguments, output and exit code)
and writes the process's spans, the import of `fdrm.cli` included, to
SPANS_OUT as JSON lines when the command ends.
"""

import sys
import time

t0 = time.perf_counter()
import fdrm.cli  # noqa: E402

t1 = time.perf_counter()

import spans  # noqa: E402


def main() -> int:
    rec = spans.Recorder()
    rec.add("cli.import", t0, t1)
    spans.install(rec)
    code = 1
    try:
        code = fdrm.cli.main(sys.argv[2:])
    except SystemExit as e:  # argparse errors exit through SystemExit
        code = e.code if isinstance(e.code, int) else 1
    finally:
        rec.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
