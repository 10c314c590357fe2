"""One benchmark pass, run in a fresh interpreter.

Usage (started by ``bench/run.py``, not by hand)::

    python3 bench/worker.py <monotonic time the parent spawned us>

stdin holds one JSON job ``{"calls": [argv, ...], "trace": bool}``.  The
worker imports numpy and the package from ``src/`` of this checkout,
builds the five built-in presentations, then runs every argv through
``bianchicoh.cli.main`` in order with stdout and stderr captured.  It
writes one JSON line to stdout: the set-up seconds, each call's exit
code, stdout sha256 and seconds, the pass wall time, the peak resident
memory and, when traced, the span totals of ``tracing.Tracer``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIELDS = (1, 2, 3, 7, 11)


def _run_call(main, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_call(argv)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects a malformed argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing call is a failed call, not a dead pass
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_call(seconds)
    return {
        "rc": rc,
        "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "seconds": seconds,
        "stderr": err.getvalue()[-400:] if rc != 0 else "",
    }


def main() -> int:
    spawned = float(sys.argv[1])
    result_out = sys.stdout
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of the set-up a user pays)
    from bianchicoh import cli
    from bianchicoh.fpres import builtin_presentation
    from bianchicoh.qfield import field

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"bianchicoh imported from {cli.__file__}, not {SRC}\n")
        return 2
    for d in FIELDS:
        builtin_presentation(field(d))
    setup_s = time.monotonic() - spawned

    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    calls = [_run_call(cli.main, argv, tracer) for argv in job["calls"]]
    wall_s = time.perf_counter() - t0
    report = {
        "setup_s": setup_s,
        "calls": calls,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    result_out.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
