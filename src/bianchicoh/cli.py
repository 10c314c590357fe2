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
  certificates, dimensions, a Hecke matrix, or the degeneracy maps),
  each from its own handler in _INSPECT.
* ``findprimes`` runs the two prime samplers with certificates.

Every option is one row of _OPTIONS, which gives its flag, its
config-file key (``_`` or ``-``), its type, its default and the commands
that take it; RunConfig holds the merged values.  Each command returns
the body of its report, and _emit adds the ``"schema": 1`` and
``"config"`` fields.  Reports go to stdout as JSON (or as a table);
diagnostics and timings go to stderr so that identical configurations
produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from math import gcd

from .cohom import (
    PARABOLIC_UNIT,
    CoefficientModulus,
    h1,
    parabolic,
    unit_invariants,
)
from .degmaps import alpha, kernel, restriction_map, twisted_map
from .errors import ExhaustedSearch
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
from .qfield import EUCLIDEAN_DS, Mat2, QuadInt, field
from .schreier import CongCtx


# ---------------------------------------------------------------------------
# configuration


class ConfigError(ValueError):
    """A rejected run configuration; the message names the hypothesis."""


class _Ideal(str):
    """Option type of an ideal literal, parsed once the field is known."""


# key: (type, default, choices, the one command that takes it or None
# for every command, help)
_OPTIONS = {
    "field_d": (int, None, EUCLIDEAN_DS, None,
                "discriminant choice d of Q(sqrt(-d))"),
    "level": (_Ideal, None, None, None, 'level ideal, e.g. "(2+5*w)"'),
    "prime": (_Ideal, None, None, None, 'prime ideal p, e.g. "(1+1*w)"'),
    "modulus": (int, 5, None, None, "coefficient prime q >= 5"),
    "test_primes": (int, 3, None, None,
                    "number of ray-trivial primes to sample"),
    "max_norm": (int, 600, None, None, "norm bound for prime searches"),
    "conductor": (_Ideal, None, None, None, "conductor override ideal"),
    "format": (str, "json", ("json", "table"), None, "output format"),
    "seed": (int, 0, None, None, "seed echoed into reports"),
    "exponent": (int, 3, None, "findprimes",
                 "odd exponent >= 3 for the coprimality search"),
}


class RunConfig:
    """Validated parameters for one run, one attribute per option."""

    def __init__(self, command, values):
        self.command = command
        self.ctx = field(values["field_d"])
        for key, (kind, *_) in _OPTIONS.items():
            value = values[key]
            if kind is _Ideal:
                value = parse_ideal(self.ctx, value) if value else None
            setattr(self, key, value)
        for name in ("level", "conductor"):
            ideal = getattr(self, name)
            if ideal is not None and ideal.is_zero():
                raise ConfigError(
                    f'rejected: {name} (0); violates the hypothesis "the '
                    f'{name} is a nonzero ideal"'
                )
        for key, (_, _, choices, *_) in _OPTIONS.items():
            if choices and getattr(self, key) not in choices:
                raise ConfigError(
                    f"{key} must be one of {choices}, got {getattr(self, key)}"
                )

    def to_json_dict(self):
        """The options this command takes, as its report echoes them."""
        out = {}
        for key, (*_, only, _) in _OPTIONS.items():
            if only in (None, self.command):
                value = getattr(self, key)
                out[key] = (format_ideal(value) if isinstance(value, PIdeal)
                            else value)
        return out


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
        written, _, value = line.partition("=")
        written = written.strip()
        key = written.replace("-", "_")
        if key not in _OPTIONS:
            bare = written.lstrip("-")
            hint = (f"; drop the leading dashes, as in {bare!r}"
                    if bare.replace("-", "_") in _OPTIONS else "")
            raise ConfigError(
                f"{path}:{lineno}: unknown key {written!r}{hint}")
        try:
            out[key] = _OPTIONS[key][0](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def _merge_config(args) -> RunConfig:
    """Defaults, then the config file, then the flags given."""
    values = {key: spec[1] for key, spec in _OPTIONS.items()}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values["field_d"] is None:
        raise ConfigError("a --field-d value is required")
    return RunConfig(args.command, values)


# ---------------------------------------------------------------------------
# output helpers


def _emit(cfg, body):
    """Write one report: body plus the schema and the echoed options."""
    report = {"schema": 1, "config": cfg.to_json_dict(), **body}
    if cfg.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for line in _tabulate(report, ""):
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


def _spaces(level, cfg):
    q = CoefficientModulus(cfg.modulus)  # rejects a bad modulus first
    full = h1(CongCtx(level, cfg.ctx), q)
    par = parabolic(full)
    return full, par, unit_invariants(par)


def _degeneracy(cfg, lap):
    """The unit spaces at N and N*p, their dims, and the restriction,
    twisted and stacked maps between them; lap(label) after each level.
    """
    n, p = _check_theorem_hypotheses(cfg)
    _check_search_bounds(cfg)
    dims, units = {}, []
    for tag, level in (("N", n), ("N*p", n * p)):
        full, par, unit = _spaces(level, cfg)
        key = tag.replace("*", "")
        dims.update({f"h1_{key}": full.dim, f"h1p_{key}": par.dim,
                     f"h1pu_{key}": unit.dim})
        units.append(unit)
        lap(f"level {tag} spaces")
    us, ud = units
    rmap = restriction_map(us, ud)
    tmap = twisted_map(us, ud)
    return dims, us, ud, rmap, tmap, alpha(rmap, tmap)


def cmd_verify(cfg: RunConfig) -> dict:
    timer = _Timer()
    dims, us, ud, rmap, _, amap = _degeneracy(cfg, timer.lap)
    ker = kernel(amap)
    lemma1 = kernel(rmap).nrows == 0
    timer.lap("degeneracy maps")
    primes = ray_trivial_primes(cfg.level, cfg.test_primes,
                                avoid=(cfg.prime,), max_norm=cfg.max_norm,
                                conductor=cfg.conductor)
    equivariance = []
    eisenstein = []
    for l in primes:
        t_src = hecke_matrix(l, us)
        t_dst = hecke_matrix(l, ud)
        lhs = block_diag2(t_src.mat) @ amap.mat
        rhs = amap.mat @ t_dst.mat
        equivariance.append({"l": format_ideal(l), "norm": l.norm(),
                             "holds": bool((lhs.arr == rhs.arr).all())})
        eisenstein.append(eisenstein_check(t_src, ker, l))
        timer.lap(f"hecke {format_ideal(l)}")
    return {
        "dims": dims,
        "alpha": {"rank": amap.rank(), "kernel_dim": ker.nrows},
        "lemma1_injective": lemma1,
        "equivariance": equivariance,
        "eisenstein": eisenstein,
        "passed": (
            lemma1
            and all(e["holds"] for e in equivariance)
            and all(e["passed"] for e in eisenstein)
        ),
    }


# ---------------------------------------------------------------------------
# inspect


def _listed(mats):
    return {"count": len(mats),
            "reps": [[str(e) for e in m.entries()] for m in mats]}


def _inspect_p1(cfg):
    points = p1_table(_require_level(cfg)).points.tolist()
    ctx = cfg.ctx
    return {"size": len(points),
            "points": [[str(QuadInt(ctx, c0, c1)), str(QuadInt(ctx, d0, d1))]
                       for c0, c1, d0, d1 in points]}


def _inspect_cosets(cfg):
    n = _require_level(cfg)
    l = _require_prime(cfg)
    return {
        "hecke": _listed([Mat2.from_coords(cfg.ctx, t)
                          for t in hecke_cosets(l, n)]),
        "gamma01": _listed(gamma01_cosets(n, l)),
    }


def _inspect_dims(cfg):
    full, par, unit = _spaces(_require_level(cfg), cfg)
    return {"dims": {"h1": full.dim, "h1_parabolic": par.dim,
                     "h1_parabolic_unit": unit.dim}}


def _inspect_hecke(cfg):
    n = _require_level(cfg)
    l = _require_prime(cfg)
    unit = _spaces(n, cfg)[2]
    return {"space": PARABOLIC_UNIT, "dim": unit.dim,
            "matrix": hecke_matrix(l, unit).mat.to_lists()}


def _inspect_degeneracy(cfg):
    *_, rmap, tmap, amap = _degeneracy(cfg, lambda label: None)
    return {"restriction": rmap.to_json_dict(),
            "twisted": tmap.to_json_dict(), "alpha": amap.to_json_dict()}


_INSPECT = {"p1": _inspect_p1, "cosets": _inspect_cosets,
            "dims": _inspect_dims, "hecke": _inspect_hecke,
            "degeneracy": _inspect_degeneracy}


# ---------------------------------------------------------------------------
# findprimes


def cmd_findprimes(cfg: RunConfig) -> dict:
    n = _require_level(cfg)
    _check_search_bounds(cfg)
    coprime = search_prime_coprime_normminus1(cfg.ctx, cfg.exponent,
                                              cfg.max_norm)
    conductor = cfg.conductor if cfg.conductor is not None else n
    avoid = (cfg.prime,) if cfg.prime is not None else ()
    ray = ray_trivial_primes(n, cfg.test_primes, avoid=avoid,
                             max_norm=cfg.max_norm, conductor=cfg.conductor)
    entries = []
    for l in ray:
        u = ray_trivial_unit(l, conductor)
        entries.append({
            "prime": format_ideal(l), "norm": l.norm(), "unit": str(u),
            "certified": bool(conductor.contains(u * l.gen - cfg.ctx.one))})
    return {
        "coprime_norm_minus_one": {
            "prime": format_ideal(coprime), "norm": coprime.norm(),
            "gcd_with_exponent": gcd(coprime.norm() - 1, cfg.exponent)},
        "ray_trivial": entries,
    }


# ---------------------------------------------------------------------------
# entry point


def _add_options(parser, only):
    """One flag per option that only this command (None: every one) takes."""
    for key, (kind, _, choices, scope, text) in _OPTIONS.items():
        if scope == only:
            parser.add_argument("--" + key.replace("_", "-"), type=kind,
                                choices=choices, help=text)


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parse_args leaves it
    unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    _add_options(common, None)
    parser = argparse.ArgumentParser(
        prog="bianchicoh",
        description=(
            "first cohomology of congruence subgroups of Bianchi groups: "
            "degeneracy maps, Hecke operators, Eisenstein kernel checks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common],
                   help="run the full verification")
    sp_inspect = sub.add_parser("inspect", parents=[common],
                                help="print one artifact")
    sp_inspect.add_argument("what", choices=tuple(_INSPECT))
    sp_find = sub.add_parser("findprimes", parents=[common],
                             help="run the prime samplers")
    _add_options(sp_find, "findprimes")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        report = (_INSPECT[args.what](cfg) if args.command == "inspect"
                  else cmd_verify(cfg) if args.command == "verify"
                  else cmd_findprimes(cfg))
        _emit(cfg, report)
        return 0 if report.get("passed", True) else 1
    except ExhaustedSearch as exc:
        sys.stderr.write(f"error: search exhausted: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
