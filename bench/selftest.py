"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs ``run.main`` on a two-call subset of ``dims-small-all`` three times:
untraced against the real expected digests (every end-to-end metric of
BENCHMARK.json must be printed by name with its unit, and no call may
fail), untraced with one digest corrupted (that call must count as
failed), and traced (every per-layer metric must be printed).  It then
installs the tracer with one wrapped name deleted, whose metrics must be
left out rather than read 0.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import tracing

ARGV = ["--workload", "dims-small-all", "--seed", "0", "--seconds", "1"]


def _result(calls, trace):
    table = {"workloads": {"dims-small-all": calls}}
    out = io.StringIO()
    saved = run.load_expected
    run.load_expected = lambda: table
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(ARGV + ["--trace", str(trace)])
    finally:
        run.load_expected = saved
    if rc != 0:
        raise AssertionError(f"run.main exited {rc}")
    info, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    missing = {"seed", "commit", "python", "numpy", "nproc", "cpu"} - set(info["bench"])
    if missing:
        raise AssertionError(f"environment lacks {sorted(missing)}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys are {sorted(result)}")
    return result


def _check_units(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        raise AssertionError(f"metrics {got} differ from declared {declared}")


def _check_missing_name():
    """A wrapped name that no longer exists leaves its metrics out."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from bianchicoh import hecke

    saved = hecke._quotient_in_gamma0
    del hecke._quotient_in_gamma0
    try:
        tracer = tracing.Tracer()
        tracer.install()
    finally:
        hecke._quotient_in_gamma0 = saved
    metrics = tracing.layer_metrics(tracer.summary(), 1.0)
    gone = {"hecke.quotient_tests", "hecke.quotient_hits", "hecke.locate_yield"}
    if gone & set(metrics) or "hecke.cosets_s" not in metrics:
        raise AssertionError(f"missing name handled wrongly: {sorted(metrics)}")


def main() -> int:
    calls = run.load_expected()["workloads"]["dims-small-all"][:2]
    units = run.declared_units()

    clean = _result(calls, 0)
    _check_units(clean, units["end_to_end"])
    if not clean["correct"] or clean["failed"] or clean["attempted"] < 2:
        raise AssertionError(f"clean subset failed: {clean}")

    corrupt = [calls[0], {**calls[1], "sha256": "0" * 64}]
    broken = _result(corrupt, 0)
    if broken["correct"] or broken["failed"] * 2 != broken["attempted"]:
        raise AssertionError(f"corrupted digest not counted as failed: {broken}")

    traced = _result(calls, 1)
    _check_units(traced, units["per_layer"])
    if not traced["correct"]:
        raise AssertionError(f"traced subset failed: {traced}")

    _check_missing_name()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
