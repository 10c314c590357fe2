"""Projective line over O/n: enumeration, locate, right action."""

from __future__ import annotations

import random
from math import isqrt

import pytest

from bianchicoh.errors import BadDeterminant, LevelTooLarge, ZeroModulus
from bianchicoh.fpres import builtin_presentation
from bianchicoh.ideals import PIdeal, ResidueSystem, enumerate_ideals, parse_ideal
from bianchicoh.projline import P1Table, check_int64_headroom, p1_table
from bianchicoh.qfield import Mat2, field
from oracles import brute_p1_count, sweep_move, sweep_p1

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


def _pairs(tab):
    """The points of tab as (c, d) pairs of QuadInt."""
    ctx = tab.ctx
    return [(ctx.element(c0, c1), ctx.element(d0, d1))
            for c0, c1, d0, d1 in tab.points.tolist()]


def _rows(pairs):
    return [(c.a, c.b, d.a, d.b) for c, d in pairs]


def test_locate_is_constant_on_unit_rays():
    rng = random.Random(4)
    for d in (1, 3, 11):
        ctx = field(d)
        n = parse_ideal(ctx, LEVELS[d][2])
        tab = p1_table(n)
        pairs = _pairs(tab)
        for u in ctx.units:
            got = tab.locate(_rows([(x * u, y * u) for x, y in pairs]))
            assert got.tolist() == list(range(len(tab)))
        # shifting by level multiples does not move the point either, also
        # by multiples beyond int64 (K = 2^70 + 3): locate reduces on
        # Python ints before it builds an array
        picks = [rng.randrange(len(tab)) for _ in range(30)]
        shifted = []
        for k in picks:
            x, y = pairs[k]
            r = ctx.element(rng.randrange(-3, 4), rng.randrange(-3, 4))
            shifted.append((x + n.gen * r, y))
        assert tab.locate(_rows(shifted)).tolist() == picks
        big = n.gen * ctx.element(2**70 + 3, -2**70)
        huge = [(x + big, y - big * ctx.omega) for x, y in pairs]
        assert tab.locate(_rows(huge)).tolist() == list(range(len(tab)))


def test_non_projective_pairs_rejected():
    ctx = field(1)
    n = parse_ideal(ctx, "(2+1*w)")
    tab = p1_table(n)
    got = tab.locate(_rows([(ctx.zero, ctx.zero),
                            (n.gen, n.gen * ctx.element(3))]))
    assert got.tolist() == [-1, -1]


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
            assert sorted(tab.action(g.coords())) == list(range(len(tab)))
        for g in mats[:3]:
            for h in mats[3:]:
                gx, hx = tab.action(g.coords()), tab.action(h.coords())
                assert tab.action((g * h).coords()) == [hx[y] for y in gx]


def test_action_requires_unit_determinant():
    ctx = field(2)
    n = parse_ideal(ctx, "(3+1*w)")
    tab = p1_table(n)
    bad = Mat2(ctx.element(2), ctx.zero, ctx.zero, ctx.one)
    with pytest.raises(BadDeterminant):
        tab.action(bad.coords())


def test_base_point_stabilizer_is_gamma0():
    """(0:1) is fixed exactly by matrices with lower-left entry in n."""
    ctx = field(7)
    n = parse_ideal(ctx, "(1+2*w)")
    tab = p1_table(n)
    b = int(tab.locate([(0, 0, 1, 0)])[0])
    for x in (ctx.zero, n.gen, n.gen * ctx.omega):
        g = Mat2(ctx.one, ctx.zero, x, ctx.one)
        assert tab.action(g.coords())[b] == b
    h = Mat2(ctx.one, ctx.one, ctx.zero, ctx.one)
    assert tab.action(h.coords())[b] == b
    s = Mat2(ctx.zero, ctx.zero - ctx.one, ctx.one, ctx.zero)
    assert tab.action(s.coords())[b] != b


def _assert_matches_sweep(n):
    """Points, and locate on every residue pair in one call, vs the sweep."""
    points, lookup = sweep_p1(n)
    tab = P1Table(n)
    assert _pairs(tab) == points, str(n)
    reps = ResidueSystem(n).reps
    rows = [(c.a, c.b, d.a, d.b) for c in reps for d in reps]
    expected = [lookup.get(row, -1) for row in rows]
    assert tab.locate(rows).tolist() == expected, str(n)


def test_class_tables_match_the_all_pairs_sweep():
    for d in FIELDS:
        for n in enumerate_ideals(field(d), 60):
            _assert_matches_sweep(n)


def test_point_order_matches_the_sweep_at_large_levels():
    ctx = field(2)
    for text in ("(9+11*w)", "(19+7*w)", "(23)"):
        n = parse_ideal(ctx, text)
        points, _ = sweep_p1(n)
        assert _pairs(P1Table(n)) == points, text


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


def test_action_table_matches_the_sweep():
    """The array rule of action equals the all-pairs sweep's image of
    every point (sweep_move) for the generators, their inverses and two
    matrices with large entries, at every level of norm <= 60 in the
    five fields and at the three large d=2 levels."""
    rng = random.Random(17)
    cases = [(d, n) for d in FIELDS for n in enumerate_ideals(field(d), 60)]
    cases += [(2, parse_ideal(field(2), text))
              for text in ("(9+11*w)", "(19+7*w)", "(23)")]
    for d, n in cases:
        ctx = field(d)
        tab = P1Table(n)
        _, move = sweep_move(n)
        pres = builtin_presentation(ctx)
        mats = [h for _, g in pres.generators for h in (g, g.inv_det_one())]
        for h in mats + [_random_sl2(ctx, rng) for _ in range(2)]:
            assert tab.action(h.coords()) == [
                move(x, h) for x in range(len(tab))], (d, str(n), h)
    for d, text in [(1, "(2+1*w)"), (2, "(3+1*w)"), (3, "(2)"), (11, "(1-2*w)")]:
        ctx = field(d)
        tab = p1_table(parse_ideal(ctx, text))
        bad = Mat2(ctx.element(2), ctx.zero, ctx.zero, ctx.one)
        with pytest.raises(BadDeterminant):
            tab.action(bad.coords())


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
