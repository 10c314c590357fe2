"""Write bench/expected.json: every workload's calls with the exit code
and stdout sha256 each must produce.

    python3 bench/make_expected.py

Run it only at a commit whose outputs are trusted, and only to add a
workload: the table is what later commits are checked against.  Each
workload runs twice in fresh workers and the two passes must agree byte
for byte.  The outputs are also checked against values the test suite
freezes: the q=5 rows of ``FROZEN_DIMS`` in ``tests/test_cohom.py``, the
d=2 ``(3+1*w)`` dimensions pinned by ``tests/test_cli.py`` (3/1/1 at
level N, 5/1/1 at level N*p), and ``"passed": true`` in every verify
report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

from run import EXPECTED, ROOT, run_pass

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from bianchicoh import cli  # noqa: E402
from bianchicoh.ideals import enumerate_ideals, format_ideal, parse_ideal  # noqa: E402
from bianchicoh.qfield import field  # noqa: E402
from test_acceptance import A_CONFIGS as ALL_A_CONFIGS  # noqa: E402
from test_cohom import FROZEN_DIMS as ALL_FROZEN_DIMS  # noqa: E402

FIELDS = (1, 2, 3, 7, 11)

# without d=1 (about 36 s a call on a 2-core Xeon) and d=3 (about 13 s):
# a run must hold several passes so that its medians shrug off the host's
# slow spells
A_CONFIGS = {d: cfg for d, cfg in ALL_A_CONFIGS.items() if d not in (1, 3)}

# d=2, modulus 5: N=323 (|P^1|=360), N=459 (|P^1|=648, where RREF takes
# about two thirds of the call) and the inert (23), N=529 (|P^1|=530,
# where the P^1 table takes longer than RREF)
LARGE_LEVELS = ("(9+11*w)", "(19+7*w)", "(23)")

# the q=5 rows: each level has norm 2..60, so each is a dims-small-all call
FROZEN_DIMS = [(d, text, dims) for d, text, q, dims in ALL_FROZEN_DIMS if q == 5]

# tests/test_cli.py: d=2 (3+1*w), levels N and N*p
PINNED_VERIFY = {
    2: {"h1_N": 3, "h1p_N": 1, "h1pu_N": 1, "h1_Np": 5, "h1p_Np": 1, "h1pu_Np": 1},
}


def _dims(d, level):
    return ["inspect", "dims", "--field-d", str(d), "--level", level,
            "--modulus", "5"]


def workloads() -> dict[str, list[list[str]]]:
    verify = [
        ["verify", "--field-d", str(d), "--level", n, "--prime", p,
         "--modulus", str(q), "--test-primes", "1"]
        for d, (n, p, q) in A_CONFIGS.items()
    ]
    large = [_dims(2, lv) for lv in LARGE_LEVELS]
    small = [
        _dims(d, format_ideal(n))
        for d in FIELDS
        for n in enumerate_ideals(field(d), 60)
        if n.norm() >= 2
    ]
    return {"verify-a5": verify, "dims-large-d2": large, "dims-small-all": small}


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    text = out.getvalue()
    return rc, hashlib.sha256(text.encode()).hexdigest(), json.loads(text)


def _frozen(d, level):
    for fd, text, dims in FROZEN_DIMS:
        if fd == d and parse_ideal(field(d), text) == level:
            return dims
    return None


def _cross_check(name, argvs, table):
    """Compare outputs with the values the test suite freezes."""
    checked = 0
    for argv, entry in zip(argvs, table):
        d = int(argv[argv.index("--field-d") + 1])
        frozen = _frozen(d, parse_ideal(field(d), argv[argv.index("--level") + 1]))
        if name == "verify-a5":
            keys = ("h1_N", "h1p_N", "h1pu_N")
            want = {**dict(zip(keys, frozen or ())), **PINNED_VERIFY.get(d, {})}
        elif frozen is not None:
            want = dict(zip(("h1", "h1_parabolic", "h1_parabolic_unit"), frozen))
        else:
            continue
        rc, digest, report = _in_process(argv)
        if (rc, digest) != (entry["rc"], entry["sha256"]):
            raise SystemExit(f"in-process output differs from the worker's: {argv}")
        if name == "verify-a5" and report["passed"] is not True:
            raise SystemExit(f"verify did not pass: {argv}")
        if {k: report["dims"][k] for k in want} != want:
            raise SystemExit(f"{argv}: dims {report['dims']} != frozen {want}")
        checked += 1
    if name == "dims-small-all" and checked != len(FROZEN_DIMS):
        raise SystemExit(f"only {checked} of {len(FROZEN_DIMS)} frozen levels found")
    return checked


def main() -> int:
    deadline = time.monotonic() + 3600
    out = {"workloads": {}}
    for name, argvs in workloads().items():
        first, second = (run_pass(argvs, False, deadline) for _ in range(2))
        table = []
        for argv, a, b in zip(argvs, first["calls"], second["calls"]):
            if (a["rc"], a["sha256"]) != (b["rc"], b["sha256"]):
                raise SystemExit(f"two passes differ on {argv}")
            if a["rc"] != 0:
                raise SystemExit(f"{argv} exited {a['rc']}: {a['stderr']}")
            table.append({"argv": argv, "rc": a["rc"], "sha256": a["sha256"]})
        checked = _cross_check(name, argvs, table)
        print(f"{name}: {len(table)} calls, {checked} cross-checked, "
              f"passes {first['wall_s']:.1f} s and {second['wall_s']:.1f} s")
        out["workloads"][name] = table
    out["commit"] = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
    ).stdout.strip() or None
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
