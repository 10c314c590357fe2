"""Principal ideals: factorization, residue systems, prime enumeration."""

from __future__ import annotations

import random
from math import gcd as igcd

import pytest

from bianchicoh.errors import NotCoprime, NotFound, ZeroModulus
from bianchicoh import ideals
from bianchicoh.ideals import (
    PIdeal,
    ResidueSystem,
    enumerate_ideals,
    factor,
    format_ideal,
    inverses_mod,
    parse_ideal,
    prime_residue_reps_in_ideal,
    primes_above,
    primes_by_norm,
    search_prime_coprime_normminus1,
)
from bianchicoh.qfield import divides, field, gcd, parse_element, xgcd
from oracles import (
    colon_square,
    divisors,
    invertible_reps,
    primes_by_norm_sorted,
)

FIELDS = (1, 2, 3, 7, 11)


def test_ideal_equality_ignores_associates():
    ctx = field(1)
    a = PIdeal(parse_element(ctx, "2+1*w"))
    for u in ctx.units:
        assert PIdeal(parse_element(ctx, "2+1*w") * u) == a
    assert len({PIdeal(parse_element(ctx, "2+1*w") * u) for u in ctx.units}) == 1


def test_parse_ideal_round_trip():
    for d, text in [(1, "(2+1*w)"), (2, "(3-1*w)"), (3, "(5)"),
                    (7, "(1-4*w)"), (11, "(0+3*w)")]:
        ctx = field(d)
        n = parse_ideal(ctx, text)
        assert parse_ideal(ctx, format_ideal(n)) == n


def test_norm_and_containment():
    ctx = field(2)
    n = parse_ideal(ctx, "(3+1*w)")
    assert n.norm() == 11
    assert n.contains(parse_element(ctx, "3+1*w"))
    assert n.contains(parse_element(ctx, "0"))
    assert not n.contains(ctx.one)
    assert n.smallest_rational() == 11
    with pytest.raises(ZeroModulus):
        PIdeal(ctx.zero).smallest_rational()


def test_factor_recombines_and_is_prime_power():
    rng = random.Random(9)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(40):
            x = ctx.element(rng.randrange(-20, 21), rng.randrange(-20, 21))
            if x.is_zero() or x.is_unit():
                continue
            n = PIdeal(x)
            fac = factor(n)
            prod = PIdeal(ctx.one)
            for p, e in fac:
                assert p.is_prime()
                for _ in range(e):
                    prod = prod * p
            assert prod == n


def test_divisors_count_matches_factorization():
    ctx = field(1)
    n = parse_ideal(ctx, "(-4-4*w)")  # (1+i)^5, norm 32
    assert n.norm() == 32
    divs = divisors(n)
    assert len(divs) == 6
    assert all(dv.divides(n) for dv in divs)
    assert len(set(divs)) == len(divs)


def test_splitting_behavior_of_small_rational_primes():
    """2 ramifies/splits/stays inert exactly as the field dictates."""
    # (d, p, number of primes above p)
    table = [
        (1, 2, 1), (1, 5, 2), (1, 3, 1),
        (2, 2, 1), (2, 3, 2),
        (3, 3, 1), (3, 7, 2), (3, 2, 1),
        (7, 2, 2), (7, 7, 1), (7, 3, 1),
        (11, 3, 2), (11, 11, 1), (11, 2, 1),
    ]
    for d, p, count in table:
        ups = primes_above(field(d), p)
        assert len(ups) == count, (d, p)


def test_residue_system_sizes():
    for d, text in [(1, "(2+1*w)"), (1, "(2+2*w)"), (2, "(2)"),
                    (3, "(1+1*w)"), (7, "(1+2*w)"), (11, "(1-2*w)")]:
        n = parse_ideal(field(d), text)
        rs = ResidueSystem(n)
        assert len(rs.reps) == n.norm()
        # reduce is idempotent and a retraction onto the reps
        for x in rs.reps[:20]:
            assert rs.reduce(x) == x
            assert rs.reduce(x + n.gen) == x


def test_residue_system_reduces_without_building_its_box():
    """len and reduce read only the lattice basis; the box is built on use."""
    ctx = field(2)
    n = parse_ideal(ctx, "(3+1*w)")
    rs = ResidueSystem(n)
    assert len(rs) == n.norm()
    x = ctx.element(123456, -98765)
    assert n.contains(x - rs.reduce(x))
    assert "reps" not in rs.__dict__ and "_index" not in rs.__dict__
    assert len(rs.reps) == len(rs)
    assert [rs.index(y) for y in rs.reps] == list(range(len(rs)))


def test_invertible_reps_have_euler_phi_size():
    # phi is multiplicative; at a prime power p^k it is N(p)^k - N(p)^(k-1)
    cases = [
        (1, "(2+1*w)", 4),     # prime of norm 5
        (1, "(3)", 8),         # inert prime, norm 9
        (1, "(2+2*w)", 4),     # ramified cube: 8 - 4
        (2, "(3+1*w)", 10),
    ]
    for d, text, expected in cases:
        n = parse_ideal(field(d), text)
        assert len(invertible_reps(ResidueSystem(n))) == expected
    # composite check by multiplicativity
    ctx = field(11)
    n = parse_ideal(ctx, "(0+3*w)")
    phi = len(invertible_reps(ResidueSystem(n)))
    prod = 1
    for p, e in factor(n):
        np = p.norm()
        prod *= np ** e - np ** (e - 1)
    assert phi == prod


def test_colon_square_is_the_width_ideal():
    ctx = field(1)
    n = parse_ideal(ctx, "(-4-4*w)")
    c = parse_element(ctx, "1+1*w")
    w = PIdeal(colon_square(n, c))
    # x lies in (n : c^2) exactly when x*c^2 lies in n
    for x in ResidueSystem(n).reps:
        assert w.contains(x) == n.contains(x * c * c)
    # and c = 0 gives the unit ideal
    assert PIdeal(colon_square(n, ctx.zero)).is_unit_ideal()


def test_primes_by_norm_sorted_and_prime():
    for d in FIELDS:
        primes = list(primes_by_norm(field(d), 60))
        norms = [p.norm() for p in primes]
        assert norms == sorted(norms)
        assert all(p.is_prime() for p in primes)
        assert len(set(primes)) == len(primes)


def test_lazy_prime_order_equals_the_sorted_list():
    for d in FIELDS:
        ctx = field(d)
        assert list(primes_by_norm(ctx, 600)) == primes_by_norm_sorted(ctx, 600)


def test_lazy_prime_search_stops_at_the_prime_it_needs(monkeypatch):
    lifted = []
    lift = ideals.primes_above

    def counted(ctx, p):
        lifted.append(p)
        return lift(ctx, p)

    monkeypatch.setattr(ideals, "primes_above", counted)
    ctx = field(2)
    primes = primes_by_norm(ctx, 600)
    assert next(primes) == parse_ideal(ctx, "(0+1*w)")  # norm 2
    assert lifted == [2]
    # the inert (5) of norm 25 waits until the rational primes pass 25
    taken = [next(primes) for _ in range(6)]
    assert [l.norm() for l in taken] == [3, 3, 11, 11, 17, 17]
    assert lifted == [2, 3, 5, 7, 11, 13, 17]


def test_batch_inverses_equal_xgcd():
    rng = random.Random(61)
    for d in FIELDS:
        ctx = field(d)
        for n in rng.sample(enumerate_ideals(ctx, 150), 12):
            rs = ResidueSystem(n)
            units = invertible_reps(rs)
            got = inverses_mod(n, [(x.a, x.b) for x in units])
            for x, (a, b) in zip(units, got):
                y = rs.reduce(xgcd(x, n.gen)[1])
                assert (y.a, y.b) == (a, b), (d, str(n), x)
                assert rs.reduce(x * y) == rs.reduce(ctx.one)
    n = parse_ideal(field(1), "(3)")
    assert inverses_mod(n, []) == []
    with pytest.raises(NotCoprime):
        inverses_mod(n, [(1, 0), (3, 0), (2, 1)])


def test_enumerate_ideals_counts_match_brute_force():
    """Ideal counts by norm agree with a direct element sweep."""
    for d in FIELDS:
        ctx = field(d)
        ideals = enumerate_ideals(ctx, 30)
        assert len(set(ideals)) == len(ideals)
        seen = set()
        bound = 40
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                x = ctx.element(a, b)
                if x.is_zero() or x.norm() > 30:
                    continue
                seen.add(PIdeal(x))
        assert set(ideals) == seen


def test_search_prime_coprime_normminus1():
    for d in FIELDS:
        l = search_prime_coprime_normminus1(field(d), 3, 200)
        assert l.is_prime()
        assert igcd(l.norm() - 1, 3) == 1
    with pytest.raises(NotFound):
        # primes of norm <= 3 all have norm-1 divisible by... none exist
        search_prime_coprime_normminus1(field(1), 3, 1)


def test_prime_residue_reps_in_ideal():
    """Representatives of O/p drawn from a coprime ideal: one per class."""
    ctx = field(1)
    p = parse_ideal(ctx, "(2+1*w)")
    n = parse_ideal(ctx, "(3)")
    reps = prime_residue_reps_in_ideal(p, n)
    assert len(reps) == p.norm()
    assert all(n.contains(k) for k in reps)
    rs = ResidueSystem(p)
    assert len({rs.reduce(k).key() for k in reps}) == p.norm()


def test_containment_on_the_lattice_agrees_with_division():
    rng = random.Random(83)
    for d in FIELDS:
        ctx = field(d)
        for _ in range(200):
            g = ctx.element(rng.randint(-12, 12), rng.randint(-12, 12))
            n = PIdeal(g)
            k = ctx.element(rng.randint(-9, 9), rng.randint(-9, 9))
            x = ctx.element(rng.randint(-300, 300), rng.randint(-300, 300))
            for y in (g * k, g * k + ctx.one, x, x * g, ctx.zero):
                assert n.contains(y) == divides(g, y), (d, str(g), str(y))
        zero = PIdeal(ctx.zero)
        assert zero.contains(ctx.zero) and not zero.contains(ctx.one)
