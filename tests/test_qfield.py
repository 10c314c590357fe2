"""Quadratic integer arithmetic: elements, gcds, parsing, 2x2 matrices."""

from __future__ import annotations

import random

import pytest

from bianchicoh.errors import FieldMismatch, ParseError, UnsupportedField
from bianchicoh.qfield import (
    Mat2,
    det_coords,
    divides,
    divmod_coords,
    euclid_divmod,
    exact_div,
    field,
    format_element,
    gcd,
    normalize_associate,
    parse_element,
    xgcd,
)
from oracles import euclid_divmod_box

FIELDS = (1, 2, 3, 7, 11)


def _rand_elt(ctx, rng, bound=30):
    return ctx.element(rng.randrange(-bound, bound + 1),
                       rng.randrange(-bound, bound + 1))


def test_field_rejects_unsupported_d():
    for bad in (0, 4, 5, 6, 19, -1):
        with pytest.raises(UnsupportedField):
            field(bad)


def test_omega_satisfies_its_minimal_polynomial():
    """w^2 = -d for d in {1,2}; w^2 = w - (1+d)/4 for d in {3,7,11}."""
    for d in FIELDS:
        ctx = field(d)
        w = ctx.omega
        if d in (1, 2):
            assert w * w == ctx.element(-d)
        else:
            m = (1 + d) // 4
            assert w * w == w - ctx.element(m)


def test_norm_is_multiplicative():
    rng = random.Random(1)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(200):
            x, y = _rand_elt(ctx, rng), _rand_elt(ctx, rng)
            assert (x * y).norm() == x.norm() * y.norm()
            assert x.norm() == (x.conjugate() * x).a
            assert x.norm() >= 0


def test_unit_group_sizes():
    for d, count in [(1, 4), (2, 2), (3, 6), (7, 2), (11, 2)]:
        ctx = field(d)
        units = ctx.units
        assert len(units) == count
        assert all(u.is_unit() and u.norm() == 1 for u in units)
        assert len({(u.a, u.b) for u in units}) == count


def test_euclid_divmod_shrinks_the_norm():
    rng = random.Random(2)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(300):
            a, b = _rand_elt(ctx, rng), _rand_elt(ctx, rng)
            if b.is_zero():
                continue
            q, r = euclid_divmod(a, b)
            assert q * b + r == a
            assert r.norm() < b.norm()


def test_gcd_divides_both_with_bezout_certificate():
    rng = random.Random(3)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(200):
            a, b = _rand_elt(ctx, rng), _rand_elt(ctx, rng)
            g, s, t = xgcd(a, b)
            assert s * a + t * b == g
            if not g.is_zero():
                assert divides(g, a) and divides(g, b)
            assert gcd(a, b) == g


def test_gcd_is_associate_normalized():
    """gcd output lands in the canonical associate sector."""
    rng = random.Random(4)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(100):
            a, b = _rand_elt(ctx, rng, 12), _rand_elt(ctx, rng, 12)
            g = gcd(a, b)
            assert g == normalize_associate(g)
        for u in ctx.units:
            x = _rand_elt(ctx, rng, 12)
            assert normalize_associate(x * u) == normalize_associate(x)


def test_exact_div_and_divides():
    ctx = field(2)
    a = parse_element(ctx, "3+1*w")
    prod = a * parse_element(ctx, "2-5*w")
    assert exact_div(prod, a) == parse_element(ctx, "2-5*w")
    assert divides(a, prod)
    assert not divides(parse_element(ctx, "0+1*w"), parse_element(ctx, "3"))
    with pytest.raises(ArithmeticError):
        exact_div(parse_element(ctx, "3"), parse_element(ctx, "0+1*w"))


def test_parse_format_round_trip():
    rng = random.Random(5)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(100):
            x = _rand_elt(ctx, rng)
            assert parse_element(ctx, format_element(x)) == x
    ctx = field(1)
    assert parse_element(ctx, "2+1*w") == ctx.element(2, 1)
    assert parse_element(ctx, "-4-4*w") == ctx.element(-4, -4)
    assert parse_element(ctx, "7") == ctx.element(7)
    assert parse_element(ctx, " 1 - 2*w ") == ctx.element(1, -2)


def test_parse_rejects_garbage():
    ctx = field(1)
    for bad in ("", "w*w", "2+*w", "1.5", "x+1", "2+1*w+3"):
        with pytest.raises(ParseError):
            parse_element(ctx, bad)


def test_mat2_group_operations():
    rng = random.Random(6)
    for d in FIELDS:
        ctx = field(d)
        ident = Mat2.identity(ctx)
        for _ in range(100):
            entries = [_rand_elt(ctx, rng, 5) for _ in range(4)]
            m = Mat2(*entries)
            n = Mat2(*[_rand_elt(ctx, rng, 5) for _ in range(4)])
            assert (m * n).det() == m.det() * n.det()
            assert m * ident == m and ident * m == m
        t = Mat2(ctx.one, ctx.omega, ctx.zero, ctx.one)
        assert t.det().is_one()
        assert t * t.inv_det_one() == ident
        assert t.adjugate() * t == ident  # det 1: adjugate is the inverse


def test_mat2_product_and_power_match_entrywise_arithmetic():
    rng = random.Random(61)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(100):
            m = Mat2(*[_rand_elt(ctx, rng, 50) for _ in range(4)])
            n = Mat2(*[_rand_elt(ctx, rng, 50) for _ in range(4)])
            assert m * n == Mat2(
                m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d,
            )
        ref = Mat2.identity(ctx)
        for k in range(12):
            assert m ** k == ref
            ref = ref * m
        with pytest.raises(ValueError):
            m ** -1
    with pytest.raises(FieldMismatch):
        Mat2.identity(field(1)) * Mat2.identity(field(2))


def test_det_coords_equals_the_mat2_determinant():
    """Shifted (d = 3, 7, 11) and unshifted (d = 1, 2) rings alike."""
    rng = random.Random(71)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(200):
            x = tuple(rng.randint(-60, 60) for _ in range(8))
            det = Mat2.from_coords(ctx, x).det()
            assert det_coords(ctx, x) == (det.a, det.b), (d, x)


def test_mat2_inverse_requires_unit_determinant():
    ctx = field(3)
    two = ctx.element(2)
    m = Mat2(two, ctx.zero, ctx.zero, ctx.one)
    with pytest.raises(ValueError):
        m.inv_det_one()


def test_divmod_coords_is_the_box_rounding_rule():
    """Quotients equal the rounding rule on QuadInt, fallback included."""
    rng = random.Random(71)
    for d in FIELDS:
        ctx = field(d)
        fallbacks = 0
        for _ in range(2000):
            a, b = _rand_elt(ctx, rng), _rand_elt(ctx, rng, bound=8)
            if b.is_zero():
                continue
            q, r, fell_back = euclid_divmod_box(a, b)
            fallbacks += fell_back
            assert divmod_coords(ctx, a.a, a.b, b.a, b.b) == (q.a, q.b, r.a, r.b)
            assert euclid_divmod(a, b) == (q, r)
        assert (fallbacks > 0) == (d in (7, 11)), (d, fallbacks)
    with pytest.raises(ZeroDivisionError):
        divmod_coords(field(2), 1, 1, 0, 0)
