"""Projective line over O/n: enumeration, normalization, right action."""

from __future__ import annotations

import random
from math import isqrt

import pytest

from bianchicoh.errors import (
    BadDeterminant,
    LevelTooLarge,
    NotProjectivePoint,
    ZeroModulus,
)
from bianchicoh.fpres import builtin_presentation
from bianchicoh.ideals import PIdeal, ResidueSystem, enumerate_ideals, parse_ideal
from bianchicoh.projline import P1Table, check_int64_headroom, p1_table
from bianchicoh.qfield import Mat2, field
from oracles import brute_p1_count, sweep_p1

FIELDS = (1, 2, 3, 7, 11)

LEVELS = {
    1: ["(1+1*w)", "(2+1*w)", "(3)", "(2+2*w)", "(4+1*w)"],
    2: ["(0+1*w)", "(1+1*w)", "(3+1*w)", "(2)"],
    3: ["(1+1*w)", "(2)", "(3+1*w)", "(0+3*w)"],
    7: ["(0+1*w)", "(1+2*w)", "(3)", "(2)"],
    11: ["(0+1*w)", "(1-2*w)", "(2)", "(0+3*w)"],
}


def test_sizes_match_brute_force():
    for d, texts in LEVELS.items():
        ctx = field(d)
        for text in texts:
            n = parse_ideal(ctx, text)
            assert len(p1_table(n)) == brute_p1_count(n), (d, text)


def test_unit_level_has_one_point():
    for d in FIELDS:
        n = parse_ideal(field(d), "(1)")
        assert len(p1_table(n)) == 1


def test_zero_level_rejected():
    with pytest.raises(ZeroModulus):
        P1Table(PIdeal(field(1).zero))


def test_normalize_is_constant_on_unit_rays():
    rng = random.Random(4)
    for d in (1, 3, 11):
        ctx = field(d)
        n = parse_ideal(ctx, LEVELS[d][2])
        tab = p1_table(n)
        for pt in tab.points:
            for u in ctx.units:
                assert tab.normalize(pt.c * u, pt.d * u) == pt
        # shifting by level multiples does not move the point either
        for _ in range(30):
            pt = rng.choice(tab.points)
            r = ctx.element(rng.randrange(-3, 4), rng.randrange(-3, 4))
            assert tab.normalize(pt.c + n.gen * r, pt.d) == pt


def test_non_projective_pairs_rejected():
    ctx = field(1)
    n = parse_ideal(ctx, "(2+1*w)")
    tab = p1_table(n)
    with pytest.raises(NotProjectivePoint):
        tab.normalize(ctx.zero, ctx.zero)
    with pytest.raises(NotProjectivePoint):
        tab.normalize(n.gen, n.gen * ctx.element(3))


def test_action_is_a_permutation_and_respects_products():
    rng = random.Random(11)
    for d in FIELDS:
        ctx = field(d)
        n = parse_ideal(ctx, LEVELS[d][1])
        tab = p1_table(n)
        mats = []
        for _ in range(6):
            # random words in the two standard unipotents stay in SL2(O)
            g = Mat2.identity(ctx)
            for _ in range(5):
                x = ctx.element(rng.randrange(-2, 3), rng.randrange(-2, 3))
                if rng.random() < 0.5:
                    g = g * Mat2(ctx.one, x, ctx.zero, ctx.one)
                else:
                    g = g * Mat2(ctx.one, ctx.zero, x, ctx.one)
            mats.append(g)
        for g in mats:
            images = [tab.apply(g, pt) for pt in tab.points]
            assert len({p.index for p in images}) == len(tab)
        for g in mats[:3]:
            for h in mats[3:]:
                for pt in tab.points:
                    assert tab.apply(g * h, pt) == tab.apply(h, tab.apply(g, pt))


def test_action_requires_unit_determinant():
    ctx = field(2)
    n = parse_ideal(ctx, "(3+1*w)")
    tab = p1_table(n)
    bad = Mat2(ctx.element(2), ctx.zero, ctx.zero, ctx.one)
    with pytest.raises(BadDeterminant):
        tab.apply(bad, tab.base_point())


def test_base_point_stabilizer_is_gamma0():
    """(0:1) is fixed exactly by matrices with lower-left entry in n."""
    ctx = field(7)
    n = parse_ideal(ctx, "(1+2*w)")
    tab = p1_table(n)
    b = tab.base_point()
    for x in (ctx.zero, n.gen, n.gen * ctx.omega):
        g = Mat2(ctx.one, ctx.zero, x, ctx.one)
        assert tab.apply(g, b) == b
    h = Mat2(ctx.one, ctx.one, ctx.zero, ctx.one)
    assert tab.apply(h, b) == b
    s = Mat2(ctx.zero, ctx.zero - ctx.one, ctx.one, ctx.zero)
    assert tab.apply(s, b) != b


def _assert_matches_sweep(n):
    """Points, indices and normalize of every residue pair vs the sweep."""
    points, lookup = sweep_p1(n)
    tab = P1Table(n)
    assert [(pt.c, pt.d) for pt in tab.points] == points, str(n)
    assert [pt.index for pt in tab.points] == list(range(len(points)))
    reps = ResidueSystem(n).reps
    for c in reps:
        for d in reps:
            expected = lookup.get((c.a, c.b, d.a, d.b))
            if expected is None:
                with pytest.raises(NotProjectivePoint):
                    tab.normalize(c, d)
            else:
                assert tab.normalize(c, d).index == expected, (str(n), c, d)


def test_class_tables_match_the_all_pairs_sweep():
    for d in FIELDS:
        for n in enumerate_ideals(field(d), 60):
            _assert_matches_sweep(n)


def test_point_order_matches_the_sweep_at_large_levels():
    ctx = field(2)
    for text in ("(9+11*w)", "(19+7*w)", "(23)"):
        n = parse_ideal(ctx, text)
        points, _ = sweep_p1(n)
        assert [(pt.c, pt.d) for pt in P1Table(n).points] == points, text


def _random_sl2(ctx, rng, steps=6):
    """A word in the two standard unipotents, so a matrix in SL2(O)."""
    g = Mat2.identity(ctx)
    for _ in range(steps):
        x = ctx.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
        if rng.random() < 0.5:
            g = g * Mat2(ctx.one, x, ctx.zero, ctx.one)
        else:
            g = g * Mat2(ctx.one, ctx.zero, x, ctx.one)
    return g


def test_action_table_matches_apply():
    """The array rule of action equals index_of's rule (through apply)
    for the generators, their inverses and two matrices with large
    entries, at every level of norm <= 60 in the five fields and at the
    three large d=2 levels."""
    rng = random.Random(17)
    cases = [(d, n) for d in FIELDS for n in enumerate_ideals(field(d), 60)]
    cases += [(2, parse_ideal(field(2), text))
              for text in ("(9+11*w)", "(19+7*w)", "(23)")]
    for d, n in cases:
        ctx = field(d)
        tab = P1Table(n)
        pres = builtin_presentation(ctx)
        mats = [h for _, g in pres.generators for h in (g, g.inv_det_one())]
        for h in mats + [_random_sl2(ctx, rng) for _ in range(2)]:
            assert tab.action(h) == [tab.apply(h, x).index
                                     for x in tab.points], (d, str(n), h)
    for d, text in [(1, "(2+1*w)"), (2, "(3+1*w)"), (3, "(2)"), (11, "(1-2*w)")]:
        ctx = field(d)
        tab = p1_table(parse_ideal(ctx, text))
        bad = Mat2(ctx.element(2), ctx.zero, ctx.zero, ctx.one)
        with pytest.raises(BadDeterminant):
            tab.action(bad)


def test_int64_headroom_bound_is_exact():
    """check_int64_headroom accepts norm^2 * (|norm_w| + 2) < 2^62 and
    rejects the next norm, on synthetic norms beyond any level built."""
    for norm_w in (1, 2, 3):
        top = isqrt((2**62 - 1) // (norm_w + 2))
        check_int64_headroom(top, norm_w)
        with pytest.raises(LevelTooLarge, match="not below 2\\^62"):
            check_int64_headroom(top + 1, norm_w)


def test_level_beyond_the_headroom_exits_2_before_any_array(monkeypatch, capsys):
    """With the bound lowered, P1Table rejects the level, and the CLI
    turns the rejection into exit code 2 with an empty stdout."""
    from bianchicoh import cli, projline

    monkeypatch.setattr(projline, "HEADROOM", 11 * 11 * 4)
    ctx = field(2)
    with pytest.raises(LevelTooLarge):
        P1Table(parse_ideal(ctx, "(3+1*w)"))  # norm 11, norm_w 2
    P1Table(parse_ideal(ctx, "(1+1*w)"))  # norm 3 stays below
    rc = cli.main(["inspect", "dims", "--field-d", "2", "--level", "(3+1*w)"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "error: a level of norm 11 is too large" in err
