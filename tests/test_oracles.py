"""Sanity checks for the independent oracles themselves.

The oracles are trusted by the rest of the suite, so they get their own
round of validation first: the Smith-form invariants against hand-worked
presentations and (when available) sympy, the projective-line counters
against closed-form values, and the coset enumerator against groups whose
subgroup structure is known.
"""

from __future__ import annotations

import random

import pytest

from bianchicoh.ideals import parse_ideal
from bianchicoh.qfield import field

from oracles import (
    abelian_invariants,
    brute_p1_count,
    brute_p1_count_fast,
    dense_rows,
    row_dicts,
    scan_right_cosets,
    snf_diagonal,
    sparse_rows,
    sweep_p1,
    tc_subgroup_abelianization,
    todd_coxeter,
)


def test_snf_diagonal_known_small_cases():
    assert snf_diagonal([[1, 0], [0, 1]], 2) == [1, 1]
    assert snf_diagonal([], 3) == []
    assert snf_diagonal([[0, 0], [0, 0]], 2) == []
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3
    assert sorted(snf_diagonal([[2, 0], [0, 3]], 2)) == [2, 3]
    # Z^2 / <(2,1)> is free of rank 1: single diagonal entry 1
    assert snf_diagonal([[2, 1]], 2) == [1]


def test_abelian_invariants_decomposes_prime_powers():
    # Z/12 = Z/4 + Z/3
    assert abelian_invariants([[12]], 1) == (0, [3, 4])
    assert abelian_invariants([[2, 0, 0], [0, 2, 0]], 3) == (1, [2, 2])
    assert abelian_invariants([], 2) == (2, [])


def test_abelian_invariants_are_presentation_invariant():
    """Row operations on the relator matrix must not change the answer."""
    rng = random.Random(11)
    base = [[6, 0, 2], [0, 4, 2], [0, 0, 8]]
    expected = abelian_invariants(base, 3)
    for _ in range(20):
        rows = [list(r) for r in base]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                k = rng.randrange(-3, 4)
                rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        assert abelian_invariants(rows, 3) == expected


def test_snf_against_sympy_on_random_matrices():
    sympy_oracle = pytest.importorskip("sympy")
    del sympy_oracle
    from oracles import sympy_invariants

    rng = random.Random(5)
    for _ in range(25):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [
            [rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)
        ]
        assert abelian_invariants(rows, nc) == sympy_invariants(rows, nc)


def test_brute_p1_count_closed_forms():
    """|P^1| is norm+1 at primes and multiplicative across coprime levels."""
    for d, sprime, expected in [
        (1, "(1+1*w)", 3),
        (1, "(3)", 10),
        (2, "(0+1*w)", 3),
        (3, "(2)", 5),
        (7, "(0+1*w)", 3),
        (11, "(1-2*w)", 12),
    ]:
        n = parse_ideal(field(d), sprime)
        assert brute_p1_count(n) == expected
    ctx = field(1)
    a = parse_ideal(ctx, "(1+1*w)")
    b = parse_ideal(ctx, "(3)")
    assert brute_p1_count(a * b) == brute_p1_count(a) * brute_p1_count(b)


def test_brute_p1_fast_agrees_with_slow():
    for d, text in [
        (1, "(2+2*w)"), (1, "(2+1*w)"), (2, "(3+1*w)"), (3, "(3)"),
        (7, "(2+1*w)"), (11, "(0+3*w)"),
    ]:
        n = parse_ideal(field(d), text)
        assert brute_p1_count_fast(n) == brute_p1_count(n)


def test_todd_coxeter_cyclic_group():
    # <a | a^6> with trivial subgroup: six cosets
    a = 0
    rel = [(a, 1)] * 6
    assert todd_coxeter(1, [rel], []) == 6
    # subgroup <a^2> has index 2
    assert todd_coxeter(1, [rel], [[(a, 1), (a, 1)]]) == 2


def test_todd_coxeter_symmetric_group():
    # S3 = <s, t | s^2, t^2, (st)^3>; subgroup <s> has index 3
    s, t = 0, 1
    rels = [
        [(s, 1), (s, 1)],
        [(t, 1), (t, 1)],
        [(s, 1), (t, 1)] * 3,
    ]
    assert todd_coxeter(2, rels, []) == 6
    assert todd_coxeter(2, rels, [[(s, 1)]]) == 3


def test_tc_subgroup_abelianization_known_cases():
    # <a^2> inside <a | a^6> is cyclic of order 3
    a = 0
    rel6 = [(a, 1)] * 6
    assert tc_subgroup_abelianization(1, [rel6], [[(a, 1), (a, 1)]]) == (
        0, [3],
    )
    # the commutator subgroup of S3 (index 2 via <st>) is Z/3
    s, t = 0, 1
    rels = [
        [(s, 1), (s, 1)],
        [(t, 1), (t, 1)],
        [(s, 1), (t, 1)] * 3,
    ]
    assert tc_subgroup_abelianization(2, rels, [[(s, 1), (t, 1)]]) == (
        0, [3],
    )
    # <a^2, b> inside Z x Z = <a, b | [a,b]> is free abelian of rank 2
    aa, bb = 0, 1
    comm = [(aa, 1), (bb, 1), (aa, -1), (bb, -1)]
    assert tc_subgroup_abelianization(
        2, [comm], [[(aa, 1), (aa, 1)], [(bb, 1)]]
    ) == (2, [])


def test_scan_right_cosets_separates_the_hecke_representatives():
    from bianchicoh.qfield import Mat2

    ctx = field(1)
    level = parse_ideal(ctx, "(2+1*w)")
    lam = parse_ideal(ctx, "(3)").gen
    one, zero = ctx.one, ctx.zero
    reps = [Mat2(one, ctx.element(a, b), zero, lam)
            for b in range(3) for a in range(3)]
    reps.append(Mat2(lam, zero, zero, one))
    for j, rep in enumerate(reps):
        assert scan_right_cosets(reps, lam, level, rep) == [j]
    # determinant 9 is not in the double coset of diag(1, 3)
    assert scan_right_cosets(reps, lam, level, Mat2(lam, zero, zero, lam)) == []


def test_sweep_p1_counts_rays_and_maps_them_to_their_first_pair():
    for d, text in [(1, "(2+1*w)"), (2, "(2)"), (3, "(3+1*w)"), (7, "(3)"),
                    (11, "(1)")]:
        n = parse_ideal(field(d), text)
        points, lookup = sweep_p1(n)
        assert len(points) == brute_p1_count(n), (d, text)
        assert len(set(lookup.values())) == len(points)
        for k, (c, dd) in enumerate(points):
            assert lookup[(c.a, c.b, dd.a, dd.b)] == k
        # every pair of a ray maps to the ray's first pair, which is least
        firsts = [(c.a, c.b, dd.a, dd.b) for c, dd in points]
        assert firsts == sorted(firsts, key=lambda t: (t[1], t[0], t[3], t[2]))


def test_dense_rows_places_entries_and_zero_fills():
    assert dense_rows([{0: 2, 3: -1}, {}], 4) == [[2, 0, 0, -1], [0, 0, 0, 0]]
    assert dense_rows([], 3) == []


def test_sparse_rows_keep_integers_and_round_trip_through_row_dicts():
    rows = sparse_rows([{3: -1, 0: 15, 2: 0}, {}, {1: 10**10}])
    assert len(rows) == rows.nrows == 3
    assert rows.r.tolist() == [0, 0, 2]
    assert rows.c.tolist() == [0, 3, 1]
    assert rows.v.tolist() == [15, -1, 10**10]
    assert row_dicts(rows) == [{0: 15, 3: -1}, {}, {1: 10**10}]
    empty = sparse_rows([{}, {}])
    assert len(empty) == 2 and empty.r.size == 0
    assert row_dicts(empty) == [{}, {}]


def test_descent_operators_commute_and_have_finite_order():
    """The judges of T_l and of the unit operator behave like operators."""
    from bianchicoh.cohom import h1, parabolic
    from bianchicoh.modlinalg import MatQ
    from bianchicoh.schreier import CongCtx

    from oracles import hecke_matrix, unit_conjugation_operator

    ctx = field(2)
    full = h1(CongCtx(parse_ideal(ctx, "(3+1*w)"), ctx), 5)
    assert full.dim == 3
    t1 = hecke_matrix(parse_ideal(ctx, "(1+1*w)"), full)
    t2 = hecke_matrix(parse_ideal(ctx, "(1-1*w)"), full)
    assert t1 @ t2 == t2 @ t1
    assert not t1.is_zero()
    for space in (full, parabolic(full)):
        u = unit_conjugation_operator(space)
        assert u @ u == MatQ.identity(5, space.dim)  # u0 = -1 when d = 2
