"""Spans and counters recorded around the package's public names.

Only a traced pass installs these wrappers; the end-to-end metrics come
from untraced passes.  Each wrapper replaces a name where the calling
module binds it (``cli.h1``, ``schreier.P1Table``, ...), so the span
sees exactly the calls that module makes.  A span's self time is its
duration minus the durations of the spans it caused.  Spans are summed
by (name, parent) in memory, which keeps the hot ones (``express``,
``matrix_to_word``) cheap; the hottest names (``_quotient_in_gamma0``,
``word_to_matrix``) are counted, not timed.

A name that no longer exists is listed as missing and every metric
that reads it is left out, never reported as 0.  ``qfield`` and
``ideals`` are not wrapped: their per-element operations run millions
of times, and their time shows up in their callers' self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric -> (span, field); field 0 = calls, 1 = seconds, 2 = self seconds
SPAN_METRICS = {
    "projline.table_s": ("projline.table", 1),
    "schreier.build_s": ("schreier.build", 1),
    "schreier.build_self_s": ("schreier.build", 2),
    "schreier.express_calls": ("schreier.express", 0),
    "schreier.express_s": ("schreier.express", 1),
    "fpres.matrix_to_word_calls": ("fpres.matrix_to_word", 0),
    "fpres.matrix_to_word_s": ("fpres.matrix_to_word", 1),
    "modlinalg.rref_calls": ("modlinalg.rref", 0),
    "modlinalg.rref_s": ("modlinalg.rref", 1),
    "modlinalg.coords_calls": ("modlinalg.coordinates_in_rowspace", 0),
    "cohom.h1_s": ("cohom.h1", 1),
    "cohom.cusps_s": ("cohom.cusps", 1),
    "cohom.parabolic_self_s": ("cohom.parabolic", 2),
    "cohom.unit_invariants_s": ("cohom.unit_invariants", 1),
    "degmaps.restriction_s": ("degmaps.restriction", 1),
    "degmaps.twisted_s": ("degmaps.twisted", 1),
    "degmaps.kernel_s": ("degmaps.kernel", 1),
    "hecke.ray_primes_s": ("hecke.ray_primes", 1),
    "hecke.cosets_s": ("hecke.cosets", 1),
    "hecke.matrix_src_s": ("hecke.matrix_src", 1),
    "hecke.matrix_dst_s": ("hecke.matrix_dst", 1),
    "hecke.matrix_in_check_s": ("hecke.matrix_in_check", 1),
    "cli.self_s": ("cli", 2),
}

COUNTER_METRICS = (
    "projline.points",
    "schreier.sgens",
    "schreier.relator_rows",
    "fpres.word_to_matrix_calls",
    "modlinalg.rref_cells",
    "cohom.cusps",
    "hecke.quotient_tests",
    "hecke.quotient_hits",
)

_MATRIX_SPANS = ("hecke.matrix_src", "hecke.matrix_dst", "hecke.matrix_in_check")
# hecke spans whose parent is the call itself; hecke.cosets nests in them
_HECKE_TOP = ("hecke.ray_primes",) + _MATRIX_SPANS


class Tracer:
    """Span stack and totals for one pass; install() patches the package."""

    def __init__(self):
        self.stack: list[list] = []  # frames [span name, child seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self.level = None

    # -- per call -----------------------------------------------------

    def begin_call(self, argv):
        self.stack[:] = [["cli", 0.0]]
        self.level = _level_of(argv)

    def end_call(self, seconds):
        _, child = self.stack.pop()
        self._add("cli", "", seconds, seconds - child)

    def _add(self, name, parent, seconds, self_seconds):
        rec = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += self_seconds

    # -- wrappers -----------------------------------------------------

    def wrap(self, owner, attr, name, after=None, feeds=(), name_of=None):
        """Time every call of owner.attr as a span called name.

        feeds names the other spans and counters this wrapper records, so
        they are reported missing with it; name_of picks the span name
        from the arguments.
        """
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.update((name, *feeds))
            return
        frames = self.stack

        def wrapper(*args, **kwargs):
            span = name_of(args) if name_of is not None else name
            frames.append([span, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                _, child = frames.pop()
                parent = frames[-1]
                parent[1] += seconds
                self._add(span, parent[0], seconds, seconds - child)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_everywhere(self, home, attr, name, after=None, feeds=()):
        """wrap() home.attr in every package module that binds it."""
        original = getattr(home, attr, None)
        if original is None:
            self.missing.update((name, *feeds))
            return
        for modname, mod in list(sys.modules.items()):
            if (modname.startswith("bianchicoh.")
                    and getattr(mod, attr, None) is original):
                self.wrap(mod, attr, name, after=after)

    def count(self, owner, attr, name, hits=None):
        """Count calls of owner.attr, and those returning non-None as hits."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.update(n for n in (name, hits) if n)
            return
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            result = fn(*args, **kwargs)
            if hits is not None and result is not None:
                counters[hits] += 1
            return result

        setattr(owner, attr, wrapper)

    def _bump(self, counter, amount):
        self.counters[counter] += amount

    def _matrix_role(self, args):
        try:
            at_level = args[1].cc.level == self.level
        except (AttributeError, IndexError):
            self.missing.update(("hecke.matrix_src", "hecke.matrix_dst"))
            return "hecke.matrix_cli"
        return "hecke.matrix_src" if at_level else "hecke.matrix_dst"

    def install(self):
        from bianchicoh import cli, cohom, fpres, hecke, modlinalg, schreier

        bump = self._bump
        congctx = getattr(schreier, "CongCtx", None)

        def built(args, _):
            bump("schreier.sgens", len(args[0].sgens))
            bump("schreier.relator_rows", len(args[0].relmat))

        self.wrap(schreier, "P1Table", "projline.table",
                  after=lambda a, r: bump("projline.points", len(r)),
                  feeds=("projline.points",))
        self.wrap(congctx, "__init__", "schreier.build", after=built,
                  feeds=("schreier.sgens", "schreier.relator_rows"))
        self.wrap(congctx, "express", "schreier.express")
        self.wrap(schreier, "matrix_to_word", "fpres.matrix_to_word")
        self.count(fpres, "word_to_matrix", "fpres.word_to_matrix_calls")

        self.wrap(cli, "h1", "cohom.h1")
        self.wrap(cli, "parabolic", "cohom.parabolic")
        self.wrap(cli, "unit_invariants", "cohom.unit_invariants")
        self.wrap(cohom, "cusps", "cohom.cusps",
                  after=lambda a, r: bump("cohom.cusps", len(r)),
                  feeds=("cohom.cusps",))
        self.wrap(cli, "restriction_map", "degmaps.restriction")
        self.wrap(cli, "twisted_map", "degmaps.twisted")
        self.wrap(cli, "kernel", "degmaps.kernel")

        self.wrap(cli, "ray_trivial_primes", "hecke.ray_primes")
        self.wrap(cli, "hecke_matrix", "hecke.matrix_src",
                  feeds=("hecke.matrix_dst",), name_of=self._matrix_role)
        self.wrap(hecke, "hecke_matrix", "hecke.matrix_in_check")
        self.wrap(hecke, "hecke_cosets", "hecke.cosets")
        self.count(hecke, "_quotient_in_gamma0", "hecke.quotient_tests",
                   hits="hecke.quotient_hits")

        self.wrap_everywhere(
            modlinalg, "rref", "modlinalg.rref",
            after=lambda a, r: bump("modlinalg.rref_cells", a[0].nrows * a[0].ncols),
            feeds=("modlinalg.rref_cells",),
        )
        self.wrap_everywhere(modlinalg, "coordinates_in_rowspace",
                             "modlinalg.coordinates_in_rowspace")

    def summary(self) -> dict:
        return {
            "spans": [[n, p, *rec] for (n, p), rec in sorted(self.spans.items())],
            "counters": dict(self.counters),
            "missing": sorted(self.missing),
        }


def _level_of(argv):
    """The --level ideal of a call, to tell source T_l from destination."""
    try:
        from bianchicoh.ideals import parse_ideal
        from bianchicoh.qfield import field

        d = int(argv[argv.index("--field-d") + 1])
        return parse_ideal(field(d), argv[argv.index("--level") + 1])
    except (ValueError, IndexError, ImportError):
        return None


def layer_metrics(summary: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; missing names are left out."""
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    for name, _parent, *rec in summary["spans"]:
        for i, value in enumerate(rec):
            spans[name][i] += value
    counters = summary["counters"]
    missing = set(summary["missing"])
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        if span not in missing:
            out[metric] = spans[span][field]
    for metric in COUNTER_METRICS:
        if metric not in missing:
            out[metric] = counters.get(metric, 0)
    if not missing.intersection(_MATRIX_SPANS):
        out["hecke.matrix_calls"] = sum(spans[s][0] for s in _MATRIX_SPANS)
    if not missing.intersection(_HECKE_TOP):
        out["hecke.wall_share"] = sum(spans[s][1] for s in _HECKE_TOP) / wall_s
    if "hecke.quotient_tests" not in missing:
        tests = counters.get("hecke.quotient_tests", 0)
        # with no test at all (the dims workloads) the yield reads 0
        out["hecke.locate_yield"] = (
            counters.get("hecke.quotient_hits", 0) / tests if tests else 0.0
        )
    return out
