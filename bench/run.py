"""End-to-end and per-layer benchmark of the ``bianchicoh`` command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload verify-a5 --seed 1 --seconds 60 --trace 0

A workload is a fixed list of ``bianchicoh`` argv lists, frozen with the
exit code and stdout sha256 each must produce in ``bench/expected.json``
(regenerate with ``bench/make_expected.py``).  A pass runs every call of
the workload once inside a fresh worker process (``bench/worker.py``), so
no in-process cache carries from one pass to the next.  The order is
shuffled from ``--seed`` and then rotated by one place in each pass, so
each call runs first about equally often: the first call of a worker pays
for lazy set-up that later calls find done, about 10% of a call at
``dims-large-d2``.  Passes repeat until another one would end after
``--seconds``; there is always at least one.

Each call is timed in every pass, and its time is the median over the
passes.  A pass's wall time is the sum of these medians, and the median
and 90th-percentile call times are taken over them.  A slow spell of the
host that lasts no longer than a pass slows at most two samples of a
call, one at the end of a pass and one at the start of the next, and
the rotation keeps these apart.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported: the pass wall time and the median and 90th-percentile call
time as above, the median worker set-up time over every worker started
(``SETUP_PROBES`` set-up-only workers plus one per pass), the median
peak resident memory, and the share of calls whose exit code and stdout
match.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics of ``bench/tracing.py`` are reported,
with the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
seed, the commit and the machine.  Exit code 2 means nothing could be
measured (no program in this checkout, a worker died or ran out of time).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
PROGRAM = ROOT / "src" / "bianchicoh" / "cli.py"
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure; nothing is reported."""


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for the end-to-end and per-layer lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def run_pass(argvs: list[list[str]], trace: bool, deadline: float) -> dict:
    """One pass in a fresh worker; returns the worker's report."""
    job = json.dumps({"calls": argvs, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), repr(spawned)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, text=True,
    )
    try:
        out, err = proc.communicate(job, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a pass ran past the time limit") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def check_pass(report: dict, calls: list[dict], order: list[int]) -> int:
    """Number of calls whose exit code or stdout differ from the table."""
    failed = 0
    for k, got in zip(order, report["calls"]):
        want = calls[k]
        if got["rc"] != want["rc"] or got["sha256"] != want["sha256"]:
            failed += 1
            sys.stderr.write(
                f"mismatch: {' '.join(want['argv'])}: rc {got['rc']} "
                f"(want {want['rc']}) {got['stderr']}\n"
            )
    return failed


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(calls: list[dict], seed: int, seconds: float, trace: bool) -> dict:
    """Run passes over calls; return the raw pass reports and counts."""
    deadline = time.monotonic() + TIME_LIMIT_S
    base = random.Random(seed).sample(range(len(calls)), len(calls))
    setups = [run_pass([], False, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    kinds = (False, True) if trace else (False,)
    passes = {kind: [] for kind in kinds}
    attempted = failed = 0
    t0 = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        for kind in kinds:
            shift = len(passes[kind]) % len(calls)
            order = base[shift:] + base[:shift]
            report = run_pass([calls[i]["argv"] for i in order], kind, deadline)
            setups.append(report["setup_s"])
            attempted += len(calls)
            failed += check_pass(report, calls, order)
            report["order"] = order
            passes[kind].append(report)
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now - t0 + longest > seconds or deadline - now < 1.5 * longest:
            break
    return {"passes": passes, "setups": setups,
            "attempted": attempted, "failed": failed}


def call_medians(passes: list[dict]) -> list[float]:
    """Each call's median seconds over the passes, in workload order."""
    times = defaultdict(list)
    for p in passes:
        for k, call in zip(p["order"], p["calls"]):
            times[k].append(call["seconds"])
    return [statistics.median(times[k]) for k in sorted(times)]


def end_to_end(run: dict) -> dict[str, float]:
    passes = run["passes"][False]
    per_call = call_medians(passes)
    return {
        "wall_s": math.fsum(per_call),
        "call_p50_s": statistics.median(per_call),
        "call_p90_s": _p90(per_call),
        "setup_s": statistics.median(run["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_share": (run["attempted"] - run["failed"]) / run["attempted"],
    }


def per_layer(run: dict) -> dict[str, float]:
    traced = run["passes"][True]
    per_pass = [layer_metrics(p["trace"], p["wall_s"]) for p in traced]
    out = {
        name: statistics.median_low(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    out["trace.overhead_s"] = (
        math.fsum(call_medians(traced))
        - math.fsum(call_medians(run["passes"][False]))
    )
    return out


def _commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, run: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "passes": {str(int(k)): len(v) for k, v in run["passes"].items()},
        "setups": len(run["setups"]),
    }


def result_line(run: dict, values: dict, units: dict) -> dict:
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        sys.stderr.write(f"no program to measure: {PROGRAM} is missing\n")
        return 2
    workloads = load_expected()["workloads"]
    if args.workload not in workloads:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads)}\n")
        return 2
    units = declared_units()
    try:
        run = measure(workloads[args.workload], args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    info = environment(args, run)
    if args.trace:
        values, units = per_layer(run), units["per_layer"]
        info["spans"] = run["passes"][True][-1]["trace"]
    else:
        values, units = end_to_end(run), units["end_to_end"]
    print(json.dumps({"bench": info}))
    print(json.dumps(result_line(run, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
