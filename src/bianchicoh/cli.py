"""Command-line interface: end-to-end verification and inspection.

Subcommands:

* ``verify`` runs the full pipeline for one configuration: builds the
  cohomology spaces at levels N and N*p, the two degeneracy maps and
  their sum alpha, checks injectivity of the restriction map, then
  samples ray-trivial primes and certifies that the kernel of alpha is
  Eisenstein (each T_l acts on it as multiplication by norm(l) + 1 up
  to nilpotents).  Exit code 0 when every check passes, 1 when a check
  fails, 2 for a rejected configuration.
* ``inspect`` prints one intermediate artifact (projective line, coset
  certificates, dimensions, a Hecke matrix, or the degeneracy maps).
* ``findprimes`` runs the two prime samplers with certificates.

All reports are JSON on stdout with a top-level ``"schema": 1`` field;
diagnostics and timings go to stderr so that identical configurations
produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .cohom import (
    PARABOLIC_UNIT,
    CoefficientModulus,
    h1,
    parabolic,
    unit_invariants,
)
from .degmaps import alpha, kernel, restriction_map, twisted_map
from .errors import ExhaustedSearch, NotStable
from .hecke import (
    eisenstein_check,
    gamma01_cosets,
    hecke_cosets,
    hecke_matrix,
    ray_trivial_primes,
    ray_trivial_unit,
)
from .ideals import (
    PIdeal,
    format_ideal,
    parse_ideal,
    search_prime_coprime_normminus1,
)
from .modlinalg import block_diag2
from .projline import p1_table
from .qfield import Mat2, field
from .schreier import CongCtx

_FORMATS = ("json", "table")


# ---------------------------------------------------------------------------
# configuration


class ConfigError(ValueError):
    """A rejected run configuration; the message names the hypothesis."""


class RunConfig:
    """Validated parameters for one run."""

    __slots__ = (
        "field_d", "level", "prime", "modulus", "test_primes", "max_norm",
        "conductor", "format", "seed", "exponent", "ctx",
    )

    def __init__(self, field_d, level, prime, modulus, test_primes, max_norm,
                 conductor, fmt, seed, exponent):
        self.ctx = field(field_d)
        self.field_d = field_d
        self.level = parse_ideal(self.ctx, level) if level else None
        self.prime = parse_ideal(self.ctx, prime) if prime else None
        self.modulus = modulus
        self.test_primes = test_primes
        self.max_norm = max_norm
        self.conductor = (
            parse_ideal(self.ctx, conductor) if conductor else None
        )
        for name in ("level", "conductor"):
            ideal = getattr(self, name)
            if ideal is not None and ideal.is_zero():
                raise ConfigError(
                    f'rejected: {name} (0); violates the hypothesis "the '
                    f'{name} is a nonzero ideal"'
                )
        if fmt not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {fmt}")
        self.format = fmt
        self.seed = seed
        self.exponent = exponent

    def to_json_dict(self):
        return {
            "field_d": self.field_d,
            "level": format_ideal(self.level) if self.level else None,
            "prime": format_ideal(self.prime) if self.prime else None,
            "modulus": self.modulus,
            "test_primes": self.test_primes,
            "max_norm": self.max_norm,
            "conductor": (
                format_ideal(self.conductor) if self.conductor else None
            ),
            "format": self.format,
            "seed": self.seed,
        }


def _require_level(cfg) -> PIdeal:
    if cfg.level is None:
        raise ConfigError("a --level ideal is required")
    return cfg.level


def _require_prime(cfg) -> PIdeal:
    if cfg.prime is None:
        raise ConfigError("a --prime ideal is required")
    if not cfg.prime.is_prime():
        raise ConfigError(
            f"rejected: {format_ideal(cfg.prime)} is not a prime ideal"
        )
    return cfg.prime


def _check_theorem_hypotheses(cfg):
    """The standing hypotheses of the verification pipeline."""
    n = _require_level(cfg)
    p = _require_prime(cfg)
    g = n.smallest_rational()
    if g <= 3:
        raise ConfigError(
            f'rejected: level {format_ideal(n)} meets Z in {g}Z; violates '
            f'the hypothesis "has a generator greater than 3"'
        )
    if p.divides(n):
        raise ConfigError(
            f'rejected: {format_ideal(p)} divides {format_ideal(n)}; '
            f'violates the hypothesis "p does not divide N"'
        )
    CoefficientModulus(cfg.modulus)  # raises BadModulus with the reason
    return n, p


def _check_search_bounds(cfg):
    """The bounds of the prime searches: a test prime, and norm 2 reached."""
    if cfg.test_primes < 1:
        raise ConfigError(
            f'rejected: --test-primes {cfg.test_primes}; violates the '
            f'hypothesis "at least one test prime"'
        )
    if cfg.max_norm < 2:
        raise ConfigError(
            f'rejected: --max-norm {cfg.max_norm}; violates the hypothesis '
            f'"the search reaches norm 2, the least norm of a prime"'
        )


# ---------------------------------------------------------------------------
# config file / flags


_CONFIG_KEYS = {
    "field_d": int, "level": str, "prime": str, "modulus": int,
    "test_primes": int, "max_norm": int, "conductor": str, "format": str,
    "seed": int, "exponent": int,
}


def _read_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(
            f"cannot read config file {path}: {exc.strerror or exc}"
        ) from exc
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def _merge_config(args) -> RunConfig:
    base = {
        "field_d": None, "level": None, "prime": None, "modulus": 5,
        "test_primes": 3, "max_norm": 600, "conductor": None,
        "format": "json", "seed": 0, "exponent": 3,
    }
    if getattr(args, "config", None):
        base.update(_read_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            base[key] = flag
    if base["field_d"] is None:
        raise ConfigError("a --field-d value is required")
    return RunConfig(
        base["field_d"], base["level"], base["prime"], base["modulus"],
        base["test_primes"], base["max_norm"], base["conductor"],
        base["format"], base["seed"], base["exponent"],
    )


# ---------------------------------------------------------------------------
# output helpers


def _emit(cfg, obj):
    if cfg.format == "json":
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        for line in _tabulate(obj, ""):
            sys.stdout.write(line + "\n")


def _tabulate(obj, prefix):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _tabulate(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, item in enumerate(obj):
            yield from _tabulate(item, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]}  {obj}"


class _Timer:
    def __init__(self):
        self.t0 = time.perf_counter()

    def lap(self, label):
        t1 = time.perf_counter()
        sys.stderr.write(f"# timing {label}: {t1 - self.t0:.2f}s\n")
        self.t0 = t1


# ---------------------------------------------------------------------------
# verify


def _spaces(level, ctx, q):
    q = CoefficientModulus(q)  # rejects a bad modulus before the build
    full = h1(CongCtx(level, ctx), q)
    par = parabolic(full)
    return full, par, unit_invariants(par)


def cmd_verify(cfg: RunConfig) -> int:
    n, p = _check_theorem_hypotheses(cfg)
    _check_search_bounds(cfg)
    q = cfg.modulus
    timer = _Timer()
    full_n, par_n, us = _spaces(n, cfg.ctx, q)
    timer.lap("level N spaces")
    ndst = n * p
    full_d, par_d, ud = _spaces(ndst, cfg.ctx, q)
    timer.lap("level N*p spaces")
    rmap = restriction_map(us, ud)
    tmap = twisted_map(us, ud)
    amap = alpha(rmap, tmap)
    ker = kernel(amap)
    lemma1 = kernel(rmap).nrows == 0
    timer.lap("degeneracy maps")
    primes = ray_trivial_primes(
        n, cfg.test_primes, avoid=(p,), max_norm=cfg.max_norm,
        conductor=cfg.conductor,
    )
    equivariance = []
    eisenstein = []
    for l in primes:
        t_src = hecke_matrix(l, us)
        t_dst = hecke_matrix(l, ud)
        lhs = block_diag2(t_src.mat) @ amap.mat
        rhs = amap.mat @ t_dst.mat
        equivariance.append({
            "l": format_ideal(l),
            "norm": l.norm(),
            "holds": bool((lhs.arr == rhs.arr).all()),
        })
        try:
            eisenstein.append(eisenstein_check(t_src, ker, l))
        except NotStable:
            eisenstein.append({
                "l": format_ideal(l), "norm": l.norm(),
                "cosets": l.norm() + 1, "stable": False,
                "nilpotency_index": None, "passed": False,
            })
        timer.lap(f"hecke {format_ideal(l)}")
    passed = (
        lemma1
        and all(e["holds"] for e in equivariance)
        and all(e["passed"] for e in eisenstein)
    )
    report = {
        "schema": 1,
        "config": cfg.to_json_dict(),
        "dims": {
            "h1_N": full_n.dim,
            "h1p_N": par_n.dim,
            "h1pu_N": us.dim,
            "h1_Np": full_d.dim,
            "h1p_Np": par_d.dim,
            "h1pu_Np": ud.dim,
        },
        "alpha": {"rank": amap.rank(), "kernel_dim": ker.nrows},
        "lemma1_injective": lemma1,
        "equivariance": equivariance,
        "eisenstein": eisenstein,
        "passed": passed,
    }
    _emit(cfg, report)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# inspect


def _mat_entries(m):
    return [str(e) for e in m.entries()]


def cmd_inspect(sub: str, cfg: RunConfig) -> int:
    if sub == "p1":
        n = _require_level(cfg)
        table = p1_table(n)
        _emit(cfg, {
            "schema": 1,
            "config": cfg.to_json_dict(),
            "size": len(table.points),
            "points": [[str(x.c), str(x.d)] for x in table.points],
        })
        return 0
    if sub == "cosets":
        n = _require_level(cfg)
        l = _require_prime(cfg)
        reps = hecke_cosets(l, n)
        out = {
            "schema": 1,
            "config": cfg.to_json_dict(),
            "hecke": {
                "count": len(reps),
                "reps": [_mat_entries(Mat2.from_coords(cfg.ctx, t))
                         for t in reps],
            },
        }
        g01 = gamma01_cosets(n, l)
        out["gamma01"] = {
            "count": len(g01),
            "reps": [_mat_entries(m) for m in g01],
        }
        _emit(cfg, out)
        return 0
    if sub == "dims":
        n = _require_level(cfg)
        full, par, unit = _spaces(n, cfg.ctx, cfg.modulus)
        _emit(cfg, {
            "schema": 1,
            "config": cfg.to_json_dict(),
            "dims": {
                "h1": full.dim,
                "h1_parabolic": par.dim,
                "h1_parabolic_unit": unit.dim,
            },
        })
        return 0
    if sub == "hecke":
        n = _require_level(cfg)
        l = _require_prime(cfg)
        _, _, unit = _spaces(n, cfg.ctx, cfg.modulus)
        t = hecke_matrix(l, unit)
        _emit(cfg, {
            "schema": 1,
            "config": cfg.to_json_dict(),
            "space": PARABOLIC_UNIT,
            "dim": unit.dim,
            "matrix": t.mat.to_lists(),
        })
        return 0
    if sub == "degeneracy":
        n, p = _check_theorem_hypotheses(cfg)
        _check_search_bounds(cfg)
        _, _, us = _spaces(n, cfg.ctx, cfg.modulus)
        _, _, ud = _spaces(n * p, cfg.ctx, cfg.modulus)
        rmap = restriction_map(us, ud)
        tmap = twisted_map(us, ud)
        amap = alpha(rmap, tmap)
        _emit(cfg, {
            "schema": 1,
            "config": cfg.to_json_dict(),
            "restriction": rmap.to_json_dict(),
            "twisted": tmap.to_json_dict(),
            "alpha": amap.to_json_dict(),
        })
        return 0
    raise ConfigError(f"unknown inspect subcommand {sub!r}")


# ---------------------------------------------------------------------------
# findprimes


def cmd_findprimes(cfg: RunConfig) -> int:
    n = _require_level(cfg)
    _check_search_bounds(cfg)
    from math import gcd as igcd

    coprime = search_prime_coprime_normminus1(
        cfg.ctx, cfg.exponent, cfg.max_norm
    )
    conductor = cfg.conductor if cfg.conductor is not None else n
    avoid = (cfg.prime,) if cfg.prime is not None else ()
    ray = ray_trivial_primes(
        n, cfg.test_primes, avoid=avoid, max_norm=cfg.max_norm,
        conductor=cfg.conductor,
    )
    entries = []
    for l in ray:
        u = ray_trivial_unit(l, conductor)
        entries.append({
            "prime": format_ideal(l),
            "norm": l.norm(),
            "unit": str(u),
            "certified": bool(conductor.contains(u * l.gen - cfg.ctx.one)),
        })
    _emit(cfg, {
        "schema": 1,
        "config": {**cfg.to_json_dict(), "exponent": cfg.exponent},
        "coprime_norm_minus_one": {
            "prime": format_ideal(coprime),
            "norm": coprime.norm(),
            "gcd_with_exponent": igcd(coprime.norm() - 1, cfg.exponent),
        },
        "ray_trivial": entries,
    })
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parse_args leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="bianchicoh",
        description=(
            "first cohomology of congruence subgroups of Bianchi groups: "
            "degeneracy maps, Hecke operators, Eisenstein kernel checks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--field-d", dest="field_d", type=int,
                        choices=(1, 2, 3, 7, 11),
                        help="discriminant choice d of Q(sqrt(-d))")
        sp.add_argument("--level", help='level ideal, e.g. "(2+5*w)"')
        sp.add_argument("--prime", help='prime ideal p, e.g. "(1+1*w)"')
        sp.add_argument("--modulus", type=int, help="coefficient prime q >= 5")
        sp.add_argument("--test-primes", dest="test_primes", type=int,
                        help="number of ray-trivial primes to sample")
        sp.add_argument("--max-norm", dest="max_norm", type=int,
                        help="norm bound for prime searches")
        sp.add_argument("--conductor", help="conductor override ideal")
        sp.add_argument("--format", choices=_FORMATS, help="output format")
        sp.add_argument("--seed", type=int, help="seed echoed into reports")

    sp_verify = sub.add_parser("verify", help="run the full verification")
    common(sp_verify)

    sp_inspect = sub.add_parser("inspect", help="print one artifact")
    sp_inspect.add_argument(
        "what", choices=("p1", "cosets", "dims", "hecke", "degeneracy")
    )
    common(sp_inspect)

    sp_find = sub.add_parser("findprimes", help="run the prime samplers")
    common(sp_find)
    sp_find.add_argument("--exponent", type=int,
                         help="odd exponent >= 3 for the coprimality search")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "inspect":
            return cmd_inspect(args.what, cfg)
        if args.command == "findprimes":
            return cmd_findprimes(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ExhaustedSearch as exc:
        sys.stderr.write(f"error: search exhausted: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
