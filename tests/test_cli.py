"""Command-line interface: exit codes, output shape, hypothesis rejection."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "bianchicoh.cli"]


def run_cli(*args):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=300
    )


def test_verify_vacuous_config_passes():
    r = run_cli(
        "verify", "--field-d", "1", "--level", "(2+1*w)",
        "--prime", "(1+1*w)", "--modulus", "7",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["passed"] is True
    assert report["schema"] == 1
    assert report["lemma1_injective"] is True
    assert report["alpha"] == {"kernel_dim": 0, "rank": 0}
    assert set(report["dims"]) == {
        "h1_N", "h1p_N", "h1pu_N", "h1_Np", "h1p_Np", "h1pu_Np",
    }
    assert len(report["eisenstein"]) == 3
    assert all(e["passed"] for e in report["eisenstein"])


def test_verify_nontrivial_kernel_config():
    r = run_cli(
        "verify", "--field-d", "2", "--level", "(3+1*w)",
        "--prime", "(0+1*w)", "--modulus", "5", "--test-primes", "1",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["passed"] is True
    assert report["dims"] == {
        "h1_N": 3, "h1p_N": 1, "h1pu_N": 1,
        "h1_Np": 5, "h1p_Np": 1, "h1pu_Np": 1,
    }
    assert report["alpha"] == {"kernel_dim": 1, "rank": 1}
    assert report["equivariance"][0]["holds"] is True
    assert report["eisenstein"][0]["nilpotency_index"] == 1


def test_verify_output_is_deterministic():
    args = (
        "verify", "--field-d", "1", "--level", "(2+1*w)",
        "--prime", "(1+1*w)", "--modulus", "7",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    # timings go to stderr so they cannot break reproducibility
    assert "timing" in a.stderr


def test_small_level_rejected_with_named_hypothesis():
    r = run_cli(
        "verify", "--field-d", "1", "--level", "(3)",
        "--prime", "(1+2*w)", "--modulus", "5",
    )
    assert r.returncode == 2
    assert 'violates the hypothesis "has a generator greater than 3"' in r.stderr


def test_dividing_prime_rejected_with_named_hypothesis():
    r = run_cli(
        "verify", "--field-d", "1", "--level", "(2+1*w)",
        "--prime", "(2+1*w)", "--modulus", "5",
    )
    assert r.returncode == 2
    assert 'violates the hypothesis "p does not divide N"' in r.stderr


def test_bad_moduli_rejected():
    base = (
        "verify", "--field-d", "1", "--level", "(2+1*w)", "--prime", "(1+1*w)",
    )
    r = run_cli(*base, "--modulus", "6")
    assert r.returncode == 2
    assert "modulus 6 is not prime" in r.stderr
    r = run_cli(*base, "--modulus", "3")
    assert r.returncode == 2
    assert "must be a prime >= 5" in r.stderr


def test_composite_auxiliary_prime_rejected():
    r = run_cli(
        "verify", "--field-d", "1", "--level", "(2+1*w)",
        "--prime", "(5)", "--modulus", "7",
    )
    assert r.returncode == 2
    assert "(5) is not a prime ideal" in r.stderr


def test_missing_field_rejected():
    r = run_cli("verify", "--level", "(2+1*w)", "--prime", "(1+1*w)")
    assert r.returncode == 2
    assert "--field-d" in r.stderr


def test_exhausted_prime_search_exits_one():
    r = run_cli(
        "verify", "--field-d", "2", "--level", "(3+1*w)",
        "--prime", "(0+1*w)", "--modulus", "5", "--max-norm", "20",
    )
    assert r.returncode == 1
    assert "ray-trivial" in r.stderr


def test_zero_test_primes_rejected_before_any_space():
    r = run_cli(
        "verify", "--field-d", "2", "--level", "(3+1*w)",
        "--prime", "(0+1*w)", "--modulus", "5", "--test-primes", "0",
    )
    assert r.returncode == 2
    assert 'violates the hypothesis "at least one test prime"' in r.stderr
    assert "timing" not in r.stderr  # no level was built


def test_zero_conductor_rejected_before_any_space():
    r = run_cli(
        "verify", "--field-d", "2", "--level", "(3+1*w)",
        "--prime", "(0+1*w)", "--modulus", "5", "--conductor", "(0)",
    )
    assert r.returncode == 2
    assert ('violates the hypothesis "the conductor is a nonzero ideal"'
            in r.stderr)
    assert "# timing" not in r.stderr  # no level was built
    r = run_cli("findprimes", "--field-d", "2", "--level", "(3+1*w)",
                "--conductor", "(0)")
    assert r.returncode == 2
    assert ('violates the hypothesis "the conductor is a nonzero ideal"'
            in r.stderr)


def test_findprimes_rejects_a_zero_level_before_any_search():
    r = run_cli("findprimes", "--field-d", "2", "--level", "(0)")
    assert r.returncode == 2
    assert 'violates the hypothesis "the level is a nonzero ideal"' in r.stderr
    assert "search exhausted" not in r.stderr


def test_max_norm_below_two_rejected_before_any_space():
    r = run_cli(
        "verify", "--field-d", "2", "--level", "(3+1*w)",
        "--prime", "(0+1*w)", "--modulus", "5", "--max-norm", "0",
    )
    assert r.returncode == 2
    assert ('violates the hypothesis "the search reaches norm 2, the least '
            'norm of a prime"' in r.stderr)
    assert "timing" not in r.stderr  # no level was built


_TEST_PRIMES_HYPOTHESIS = 'violates the hypothesis "at least one test prime"'
_MAX_NORM_HYPOTHESIS = ('violates the hypothesis "the search reaches norm 2, '
                        'the least norm of a prime"')


def test_findprimes_rejects_search_bounds_with_named_hypotheses():
    base = ("findprimes", "--field-d", "2", "--level", "(3+1*w)")
    r = run_cli(*base, "--test-primes", "0")
    assert r.returncode == 2
    assert _TEST_PRIMES_HYPOTHESIS in r.stderr
    r = run_cli(*base, "--max-norm", "1")
    assert r.returncode == 2
    assert _MAX_NORM_HYPOTHESIS in r.stderr
    assert "search exhausted" not in r.stderr


def test_inspect_degeneracy_rejects_search_bounds_with_named_hypotheses():
    base = ("inspect", "degeneracy", "--field-d", "2", "--level", "(3+1*w)",
            "--prime", "(0+1*w)")
    r = run_cli(*base, "--test-primes", "0")
    assert r.returncode == 2
    assert _TEST_PRIMES_HYPOTHESIS in r.stderr
    r = run_cli(*base, "--max-norm", "1")
    assert r.returncode == 2
    assert _MAX_NORM_HYPOTHESIS in r.stderr


def test_inspect_p1_unit_level():
    r = run_cli("inspect", "p1", "--field-d", "3", "--level", "(1)")
    assert r.returncode == 0, r.stderr
    blob = json.loads(r.stdout)
    assert blob["size"] == 1
    assert len(blob["points"]) == 1


def test_inspect_cosets_counts():
    r = run_cli(
        "inspect", "cosets", "--field-d", "1", "--level", "(2+1*w)",
        "--prime", "(3)",
    )
    assert r.returncode == 0, r.stderr
    blob = json.loads(r.stdout)
    assert blob["hecke"]["count"] == 10
    assert len(blob["hecke"]["reps"]) == 10
    assert blob["gamma01"]["count"] == 10
    assert len(blob["gamma01"]["reps"]) == 10


def test_inspect_dims_frozen():
    r = run_cli(
        "inspect", "dims", "--field-d", "2", "--level", "(3+1*w)",
        "--modulus", "5",
    )
    assert r.returncode == 0, r.stderr
    blob = json.loads(r.stdout)
    assert blob["dims"] == {"h1": 3, "h1_parabolic": 1, "h1_parabolic_unit": 1}


def test_inspect_hecke_zero_space():
    r = run_cli(
        "inspect", "hecke", "--field-d", "1", "--level", "(3)",
        "--prime", "(1+1*w)", "--modulus", "5",
    )
    assert r.returncode == 0, r.stderr
    blob = json.loads(r.stdout)
    assert blob["matrix"] == []


def test_inspect_degeneracy_shapes():
    r = run_cli(
        "inspect", "degeneracy", "--field-d", "2", "--level", "(3+1*w)",
        "--prime", "(0+1*w)", "--modulus", "5",
    )
    assert r.returncode == 0, r.stderr
    blob = json.loads(r.stdout)
    assert {"restriction", "twisted", "alpha"} <= set(blob)
    assert blob["alpha"]["domain"]["copies"] == 2
    assert blob["restriction"]["domain"]["dim"] == 1


def test_findprimes_reports_certified_units():
    r = run_cli(
        "findprimes", "--field-d", "1", "--level", "(2+1*w)",
        "--exponent", "3", "--test-primes", "2",
    )
    assert r.returncode == 0, r.stderr
    blob = json.loads(r.stdout)
    assert len(blob["ray_trivial"]) == 2
    assert all(e["certified"] for e in blob["ray_trivial"])
    assert blob["coprime_norm_minus_one"]["gcd_with_exponent"] == 1
    r = run_cli("findprimes", "--field-d", "1", "--level", "(2+1*w)",
                "--exponent", "4")
    assert r.returncode == 2
    assert "exponent must be odd and >= 3" in r.stderr


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "field_d = 2\n"
        "level = (3+1*w)\n"
        "modulus = 7\n"
    )
    r = run_cli(
        "inspect", "dims", "--config", str(cfg), "--modulus", "5",
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["dims"]["h1"] == 3  # modulus 5 from the flag won
    bad = tmp_path / "bad.cfg"
    bad.write_text("fieldd = 2\n")
    r = run_cli("inspect", "dims", "--config", str(bad))
    assert r.returncode == 2
    assert "fieldd" in r.stderr


def test_unreadable_config_file_rejected(tmp_path):
    missing = tmp_path / "missing.cfg"
    r = run_cli("verify", "--config", str(missing), "--field-d", "2")
    assert r.returncode == 2
    assert str(missing) in r.stderr
    assert "Traceback" not in r.stderr


def test_bad_config_literal_names_line_and_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field_d = 2\ntest_primes = x\n")
    r = run_cli("verify", "--config", str(cfg))
    assert r.returncode == 2
    assert f"{cfg}:2" in r.stderr
    assert "test_primes" in r.stderr


def test_table_format():
    r = run_cli(
        "inspect", "dims", "--field-d", "2", "--level", "(3+1*w)",
        "--modulus", "5", "--format", "table",
    )
    assert r.returncode == 0, r.stderr
    lines = dict(
        line.split(None, 1) for line in r.stdout.strip().splitlines()
    )
    assert lines["dims.h1"] == "3"
    assert lines["dims.h1_parabolic_unit"] == "1"


# (field, level, extra flags) -> [(prime, unit)] as findprimes printed them
# before ray_trivial_unit switched to FieldCtx.units.  At the d=3 level
# (1+1*w), of norm 3, three units certify each prime, so that case pins
# the order in which units are tried.
FROZEN_RAY_UNITS = [
    (1, "(2+5*w)", (), [("(7+2*w)", "0+1*w"), ("(8+3*w)", "1"),
                        ("(4+9*w)", "0+1*w")]),
    (2, "(3+1*w)", (), [("(1-3*w)", "-1"), ("(3+5*w)", "-1"),
                        ("(9-1*w)", "1")]),
    (3, "(1+5*w)", (), [("(5)", "0-1*w"), ("(1+6*w)", "1-1*w"),
                        ("(7+3*w)", "-1+1*w")]),
    (7, "(1+2*w)", (), [("(1+4*w)", "-1"), ("(3+4*w)", "1"),
                        ("(9-2*w)", "-1")]),
    (11, "(1-2*w)", (), [("(5-1*w)", "-1"), ("(4+1*w)", "-1"),
                         ("(8-3*w)", "1")]),
    (3, "(1+5*w)", ("--conductor", "(1)"),
     [("(1+1*w)", "1"), ("(2)", "1"), ("(2+1*w)", "1")]),
    (3, "(1+1*w)", ("--test-primes", "6", "--max-norm", "200"),
     [("(2)", "-1"), ("(2+1*w)", "1"), ("(1+2*w)", "-1"),
      ("(3+1*w)", "-1"), ("(1+3*w)", "1"), ("(3+2*w)", "1")]),
]


def test_findprimes_units_frozen():
    for d, level, extra, expected in FROZEN_RAY_UNITS:
        r = run_cli("findprimes", "--field-d", str(d), "--level", level,
                    *extra)
        assert r.returncode == 0, r.stderr
        entries = json.loads(r.stdout)["ray_trivial"]
        assert [(e["prime"], e["unit"]) for e in entries] == expected, d
        assert all(e["certified"] for e in entries)


def test_modulus_at_or_above_two_to_the_31_rejected():
    args = ("inspect", "dims", "--field-d", "2", "--level", "(3+1*w)")
    r = run_cli(*args, "--modulus", "4294967311")
    assert r.returncode == 2
    assert "not below 2^31" in r.stderr
    assert r.stdout == ""
    # the largest prime below the bound is computed exactly
    r = run_cli(*args, "--modulus", "2147483647")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["dims"]["h1"] == 2


# stdout sha256 of inspect p1, hecke and degeneracy on the acceptance
# A-configurations (field, level, prime, modulus), recorded before P^1 was
# built by divisor class; they pin the point order of P^1 and, through
# the Schreier generators, the bytes of the Hecke and degeneracy reports.
A_CONFIGS = [
    (1, "(2+5*w)", "(1+1*w)", 7),
    (2, "(3+1*w)", "(0+1*w)", 5),
    (3, "(1+5*w)", "(1+1*w)", 5),
    (7, "(1+2*w)", "(0+1*w)", 5),
    (11, "(1-2*w)", "(0+1*w)", 5),
]

FROZEN_INSPECT_SHA256 = {
    "p1": {
        1: "1fad5d4c5893688223eea2478cfff3891688dff4a0707752dbf94ca3f3733895",
        2: "ff53363cf6a4c8473ad2d67930e404186e58d74752e013450d96a18c541ece0f",
        3: "6312862b1088c25ee9c017e140db1bd48677ee2cbad69841f05919c7810c8ce4",
        7: "990d7787c79eb0b29819a1b37db0e47dab0efdfd11064aa11943fdcf04fc388b",
        11: "34d748dacf8d360cc7ebc6fc526fcf5a07c376beb6e34b76095c9f7809d4bf86",
    },
    "hecke": {
        1: "1b8614457e85e512247368470757fa2bbd9b55da2b731a9b552613fe3bb61801",
        2: "e91d308ff6037670c34bb7217309ecbfcb3a77f78d609cc92bb5b57e8afdcf57",
        3: "f3aeab469500e13dac5397138a4e5aea27139bd55992472a476b600f3c161715",
        7: "195a1064a56474693d7c717d5620969fc8486ddad9fbc6ae38aad5cc7bccf5fe",
        11: "cec45f4e26d1282302f4b43e783163cf099048c52ff7c48abb602629f3bd6c5d",
    },
    "degeneracy": {
        1: "025a2ead72153d7a9424151fe6f727def5f9fd71dbcc195624773cac7cb13c0b",
        2: "18ce13be80ae2b9d6d61347333162c6a5c47e7730cff82cdd80f718953f69b52",
        3: "28c9c197950e0e1c0a24cf746157710c2faaa2fb7aa896c10fe1f7d0fb6139f1",
        7: "a89073738f6d9d64046276152a2115d2f4cf61abe6520b2c2090ae8f88b056fa",
        11: "89318ef9c24e55c140a4676ef2b38994f50e2d0fbf83c79259773a60f1a30f9c",
    },
    # recorded while the representatives were still Mat2 objects
    "cosets": {
        1: "5406cf7669fca59931bbd7c28dcf2363be7b7a38047aca7947e1976691c6a7cb",
        2: "ea8ab6e2f5bc314f3adf8212e33f77bc8ec26cd12c8e36817ce5321f3327b7c0",
        3: "eb268800bfa05f6cf80cbd656d27a5c4a178018162cbb8f9751c6f0f8cd8099b",
        7: "5fc309b43a8ef932dd95575255439e77e2a64383639869001c9ce2c993323563",
        11: "1c7e7e1c5aecb3e1b97b8b989aac8cf920c19efbf30c80a681efeaca23324178",
    },
}


def test_inspect_reports_frozen_on_a_configurations():
    for what, digests in FROZEN_INSPECT_SHA256.items():
        for d, level, prime, q in A_CONFIGS:
            r = run_cli("inspect", what, "--field-d", str(d), "--level", level,
                        "--prime", prime, "--modulus", str(q))
            assert r.returncode == 0, r.stderr
            digest = hashlib.sha256(r.stdout.encode()).hexdigest()
            assert digest == digests[d], (what, d)


# stdout sha256 of inspect dims at the inert level (71) of d=2 (norm 5041,
# |P^1| = 5042), recorded before the coset build ran on integer
# coordinates; dims 22 / 20 / 8 at q = 5.
DIMS_71_SHA256 = "42341fcc8e5e94446eaab7eb5a9a8e658bc85b6ad0b20ab520b52fb760c4e889"


def test_inspect_dims_frozen_at_norm_5041():
    r = run_cli("inspect", "dims", "--field-d", "2", "--level", "(71)",
                "--modulus", "5")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["dims"] == {
        "h1": 22, "h1_parabolic": 20, "h1_parabolic_unit": 8,
    }
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == DIMS_71_SHA256


# stdout sha256 of inspect cosets and hecke at sizes the A-configurations
# miss: the d=1 gamma01 cosets at p = (19), residues of O/(l*N) at level
# norm 5041 and 4225, and T_l with N(l) = 211 on a 1-dimensional space.
FROZEN_LARGE_SHA256 = [
    (("cosets", "--field-d", "1", "--level", "(2+1*w)", "--prime", "(19)"),
     "1e99428924d2b7f993b78e20fb2c0d9ae284d582dd019f1f6c5a57f8d1adf9d5"),
    (("cosets", "--field-d", "2", "--level", "(71)", "--prime", "(3+7*w)"),
     "df93f3f1d9fecfa5e3421725859fe579076795cb2e8d2b8b000a78a2def43042"),
    (("cosets", "--field-d", "2", "--level", "(50+35*w)",
      "--prime", "(9+4*w)"),
     "fdcf7b39327cfca6e13a43f496f8fc411ecf416e30ca55e1730c216d70ecfa9a"),
    (("hecke", "--field-d", "2", "--level", "(3+1*w)", "--prime", "(7+9*w)",
      "--modulus", "5"),
     "d9c429d44ffb9cc7310fef158180a28942618b6d50792cc257aceaf715ddaa92"),
    (("hecke", "--field-d", "7", "--level", "(1+2*w)", "--prime", "(1+10*w)",
      "--modulus", "5"),
     "bdbe30105b21b3d2b7b18b088668a624587ba88629270d3fe2a6e96f5468db99"),
]


def test_inspect_reports_frozen_at_large_primes_and_levels():
    for args, expected in FROZEN_LARGE_SHA256:
        r = run_cli("inspect", *args)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == expected, args


def test_bad_modulus_is_rejected_before_the_level_group_is_built(
        monkeypatch, capsys):
    from bianchicoh import cli

    def no_build(*args):
        raise AssertionError("CongCtx built before the modulus was checked")

    monkeypatch.setattr(cli, "CongCtx", no_build)
    for what in (["dims"], ["hecke", "--prime", "(1+1*w)"]):
        for q in ("4", "2147483648"):
            rc = cli.main(["inspect", *what, "--field-d", "2",
                           "--level", "(3+1*w)", "--modulus", q])
            assert rc == 2, (what, q)
            assert "modulus" in capsys.readouterr().err


def test_failed_cusp_certificate_is_not_a_rejected_input(monkeypatch):
    """An open cusp loop is an internal failure, not exit code 2.

    Exit 2 means the input violates a named hypothesis; a walk-closure
    certificate that fails raises ConstructionFailure, which cli.main
    does not turn into an exit code.
    """
    from bianchicoh import cli, cohom
    from bianchicoh.errors import ConstructionFailure

    real = cohom.cusps

    def lengthened(cc):
        out = real(cc)
        x, loop_t, loop_u = out[1]
        out[1] = (x, loop_t + [(cc.pres.t_id, 1)], loop_u)
        return out

    monkeypatch.setattr(cohom, "cusps", lengthened)
    with pytest.raises(ConstructionFailure,
                       match="cusp loop at coset 1 did not close"):
        cli.main(["inspect", "dims", "--field-d", "2",
                  "--level", "(19+7*w)"])


# Installs the benchmark tracer, which wraps package names where the
# calling module binds them, and runs one traced inspect dims call.
_TRACED_DIMS = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer
from bianchicoh import cli
tracer = Tracer()
tracer.install()
argv = ["inspect", "dims", "--field-d", "2", "--level", "(3+1*w)"]
tracer.begin_call(argv)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(argv)
tracer.end_call(0.0)
print(json.dumps({"rc": rc, "missing": tracer.summary()["missing"]}))
"""


def test_every_name_the_benchmark_tracer_wraps_exists():
    """The tracer finds every package name that bench/tracing.py reads.

    A missing name leaves its per-layer metrics out of a traced run;
    this catches a rename or deletion in the Tier-1 run.
    """
    root = Path(__file__).resolve().parent.parent
    r = subprocess.run(
        [sys.executable, "-c", _TRACED_DIMS, str(root / "bench"),
         str(root / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1]) == {"rc": 0, "missing": []}
