"""Hecke operators: coset data, matrices, ray-trivial primes, nilpotency."""

from __future__ import annotations

import random

import numpy as np
import pytest

import bianchicoh.hecke as hecke
import bianchicoh.schreier as schreier
from bianchicoh.cohom import (
    h1,
    letter_table_operator,
    parabolic,
    unit_invariants,
)
from bianchicoh.degmaps import alpha, kernel, restriction_map, twisted_map
from bianchicoh.errors import (
    ConstructionFailure,
    ExhaustedSearch,
    NotCoprimeToLevel,
    NotInSubgroup,
    NotPrime,
    PermutationFailure,
    ProjectionFailure,
    ShapeMismatch,
)
from bianchicoh.hecke import (
    eisenstein_check,
    gamma01_cosets,
    hecke_cosets,
    hecke_matrix,
    ray_trivial_primes,
    ray_trivial_unit,
)
from bianchicoh.fpres import Word, word_to_matrix
from bianchicoh.ideals import (
    PIdeal,
    enumerate_ideals,
    parse_ideal,
    primes_by_norm,
)
from bianchicoh.modlinalg import MatQ
from bianchicoh.qfield import Mat2, field, mat_mul_coords, parse_element
from bianchicoh.schreier import CongCtx
import oracles
from oracles import quotient_full, scan_right_cosets

# the acceptance A-configuration level of each field
A_LEVELS = {1: "(2+5*w)", 2: "(3+1*w)", 3: "(1+5*w)", 7: "(1+2*w)",
            11: "(1-2*w)"}


def _random_member(cc, rng, nsteps=5):
    m = Mat2.identity(cc.ctx)
    for _ in range(nsteps):
        _, g = cc.sgens[rng.randrange(len(cc.sgens))]
        m = m * (g if rng.random() < 0.5 else g.inv_det_one())
    return m


def _reps(l):
    """The representatives of hecke_cosets(l) as Mat2 objects."""
    return [Mat2.from_coords(l.ctx, t)
            for t in hecke_cosets(l, PIdeal(l.ctx.one))]


def _locate(l, x):
    """hecke._locate on a Mat2: (j, gamma) with x = gamma * reps[j]."""
    j, quot = hecke._locate(l, x.coords())
    return j, Mat2.from_coords(l.ctx, quot)


def _unit_space(d, level_text, q):
    ctx = field(d)
    cc = CongCtx(parse_ideal(ctx, level_text), ctx)
    return cc, unit_invariants(parabolic(h1(cc, q)))


def test_hecke_coset_counts():
    ctx = field(1)
    level = parse_ideal(ctx, "(2+1*w)")
    for l_text, count in [("(1+1*w)", 3), ("(3)", 10), ("(2-1*w)", 6)]:
        hc = hecke_cosets(parse_ideal(ctx, l_text), level)
        assert len(hc) == count


def test_hecke_cosets_validation():
    ctx = field(1)
    level = parse_ideal(ctx, "(2+1*w)")
    with pytest.raises(NotPrime):
        hecke_cosets(parse_ideal(ctx, "(5)"), level)
    with pytest.raises(NotCoprimeToLevel):
        hecke_cosets(parse_ideal(ctx, "(2+1*w)"), level)


def test_kernel_line_certificate_agrees_with_the_pairwise_judge():
    """For every prime of norm <= 50 in the five fields, both accept."""
    for d in (1, 2, 3, 7, 11):
        ctx = field(d)
        unit = PIdeal(ctx.one)
        for l in primes_by_norm(ctx, 50):
            coords = hecke_cosets(l, unit)
            assert len(coords) == l.norm() + 1
            assert oracles.shared_right_cosets(_reps(l), l.gen, unit) == []
            hecke._check_kernel_lines(l, coords)


def _coset_mutants(l):
    """(name, coords) of representative lists that share a right coset."""
    coords = list(hecke_cosets(l, PIdeal(l.ctx.one)))
    l0, l1 = l.gen.a, l.gen.b
    out = []
    # [[1, k'], [0, lambda]] with k' = k + lambda, next to k itself
    a0, a1, k0, k1, c0, c1, d0, d1 = coords[-2]
    shifted = list(coords)
    shifted[0] = (a0, a1, k0 + l0, k1 + l1, c0, c1, d0, d1)
    out.append(("k = k' mod lambda", shifted))
    # diag(lambda, 1) replaced by [[1, 0], [0, lambda]]
    out.append(("diag(lambda, 1) -> [[1, 0], [0, lambda]]",
                coords[:-1] + [(1, 0, 0, 0, 0, 0, l0, l1)]))
    # the first representative replaced by -1 times the last upper one
    out.append(("-[[1, k], [0, lambda]]",
                [tuple(-v for v in coords[-2])] + coords[1:]))
    return out


def test_kernel_line_certificate_catches_shared_cosets():
    """Mutated representatives fail the kernel-line check and the judge."""
    checked = 0
    for d in (1, 2, 3, 7, 11):
        ctx = field(d)
        unit = PIdeal(ctx.one)
        for l in primes_by_norm(ctx, 30):
            for name, coords in _coset_mutants(l):
                reps = [Mat2.from_coords(ctx, t) for t in coords]
                assert oracles.shared_right_cosets(reps, l.gen, unit), name
                with pytest.raises(ConstructionFailure):
                    hecke._check_kernel_lines(l, coords)
                checked += 1
            # I and [[1, 1], [0, 1]] share a right coset of GL_2(O) but
            # their top rows give distinct lines; neither kills its line
            # mod lambda, which is what rejects them
            coords = list(hecke_cosets(l, unit))
            with pytest.raises(ConstructionFailure, match="does not kill"):
                hecke._check_kernel_lines(
                    l, [(1, 0, 0, 0, 0, 0, 1, 0), (1, 0, 1, 0, 0, 0, 1, 0)]
                    + coords[2:])
            # lambda * I is singular mod lambda but spans no line there
            l0, l1 = l.gen.a, l.gen.b
            with pytest.raises(ConstructionFailure, match="is 0 mod"):
                hecke._check_kernel_lines(
                    l, [(l0, l1, 0, 0, 0, 0, l0, l1)] + coords[1:])
    assert checked > 20


def test_double_coset_elements_land_in_one_right_coset():
    rng = random.Random(47)
    ctx = field(1)
    level = parse_ideal(ctx, "(2+1*w)")
    cc = CongCtx(level, ctx)
    l = parse_ideal(ctx, "(1+1*w)")
    reps = _reps(l)
    mid = Mat2(ctx.one, ctx.zero, ctx.zero, l.gen)
    for _ in range(50):
        x = _random_member(cc, rng) * mid * _random_member(cc, rng)
        j, quot = _locate(l, x)
        assert 0 <= j < len(reps)
        assert quot * reps[j] == x


def _random_gamma0(ctx, level, rng, nsteps=4):
    """A random element of Gamma_0(level): upper and lower unipotents."""
    m = Mat2.identity(ctx)
    for _ in range(nsteps):
        x = ctx.element(rng.randint(-3, 3), rng.randint(-3, 3))
        y = level.gen * ctx.element(rng.randint(-2, 2), rng.randint(-2, 2))
        m = m * Mat2(ctx.one, x, ctx.zero, ctx.one)
        m = m * Mat2(ctx.one, ctx.zero, y, ctx.one)
    return m


def test_locator_agrees_with_scan_in_all_fields():
    rng = random.Random(2024)
    for d, level_text in A_LEVELS.items():
        ctx = field(d)
        level = parse_ideal(ctx, level_text)
        for l in [l for l in primes_by_norm(ctx, 30)
                  if l.is_coprime(level)][:2]:
            reps = _reps(l)
            lam = l.gen
            branches = set()
            for _ in range(60):
                delta = reps[rng.randrange(len(reps))]
                x = (_random_gamma0(ctx, level, rng) * delta
                     * _random_gamma0(ctx, level, rng))
                if not l.contains(x.a):
                    branches.add("k = b/a")
                elif not l.contains(x.c):
                    branches.add("k = d/c")
                else:
                    branches.add("diag(lambda, 1)")
                j, quot = _locate(l, x)
                assert scan_right_cosets(reps, lam, level, x) == [j]
                assert quot * reps[j] == x
                assert quot.det().is_one() and level.contains(quot.c)
            assert branches == {"k = b/a", "k = d/c", "diag(lambda, 1)"}, (
                d, str(l), branches)


def test_locator_rejects_matrices_outside_the_double_coset():
    """_locate raises off the double coset of diag(1, lambda) in SL_2(O).

    It tests no level: a matrix of determinant lambda whose lower-left
    entry escapes the level lies in no level-N coset but in one
    level-one coset, and only off the level-one double coset (here
    determinant lambda^2) does _locate raise.
    """
    for d, level_text in A_LEVELS.items():
        ctx = field(d)
        one, zero = ctx.one, ctx.zero
        level = parse_ideal(ctx, level_text)
        l = next(l for l in primes_by_norm(ctx, 30) if l.is_coprime(level))
        lam = l.gen
        reps = _reps(l)
        x = Mat2(one, zero, one, lam)
        assert scan_right_cosets(reps, lam, level, x) == []
        j, quot = _locate(l, x)
        assert scan_right_cosets(reps, lam, PIdeal(one), x) == [j]
        assert quot * reps[j] == x
        for y in (Mat2(lam, zero, zero, lam),
                  Mat2(one, zero, zero, lam * lam)):
            assert scan_right_cosets(reps, lam, PIdeal(one), y) == []
            with pytest.raises(PermutationFailure):
                _locate(l, y)


def test_gamma01_cosets_count_and_level():
    for d, n_text, p_text in [
        (1, "(2+1*w)", "(1+1*w)"),
        (2, "(3+1*w)", "(0+1*w)"),
        (3, "(1+5*w)", "(1+1*w)"),
    ]:
        ctx = field(d)
        n = parse_ideal(ctx, n_text)
        p = parse_ideal(ctx, p_text)
        reps = gamma01_cosets(n, p)
        assert len(reps) == p.norm() + 1
        for g in reps:
            assert g.det().is_one()
            assert n.contains(g.c)


def test_gamma01_cosets_validation():
    ctx = field(1)
    with pytest.raises(NotPrime):
        gamma01_cosets(parse_ideal(ctx, "(3)"), parse_ideal(ctx, "(5)"))
    with pytest.raises(NotCoprimeToLevel):
        gamma01_cosets(parse_ideal(ctx, "(3)"), parse_ideal(ctx, "(3)"))


def _gamma01_pairs(d):
    """Every coprime (level, prime) with N(level) <= 30 and N(prime) <= 20."""
    ctx = field(d)
    primes = list(primes_by_norm(ctx, 20))
    return [(n, p) for n in enumerate_ideals(ctx, 30) for p in primes
            if p.is_coprime(n)]


def test_bottom_row_certificate_agrees_with_the_pairwise_judge():
    for d in (1, 2, 3, 7, 11):
        for n, p in _gamma01_pairs(d):
            reps = gamma01_cosets(n, p)
            assert oracles.gamma01_shared_cosets(reps, n, p) == [], (
                d, str(n), str(p))
            hecke._check_bottom_rows(n, p, reps)


def test_bottom_row_certificate_catches_shared_cosets():
    """Rep 0 in slot 1, as itself or as [1, 0; k + g*s, 1] with g
    generating N*p and s a unit: the same coset, so both the
    certificate and the judge reject it."""
    checked = 0
    for d in (1, 2, 3, 7, 11):
        ctx = field(d)
        for n, p in _gamma01_pairs(d):
            reps = gamma01_cosets(n, p)
            g, k = (n * p).gen, reps[0].c
            mutants = [reps[0]] + [
                Mat2(ctx.one, ctx.zero, k + g * s, ctx.one)
                for s in ctx.units]
            for mutant in mutants:
                bad = [reps[0], mutant] + reps[2:]
                assert (0, 1) in oracles.gamma01_shared_cosets(bad, n, p)
                with pytest.raises(ConstructionFailure, match="share"):
                    hecke._check_bottom_rows(n, p, bad)
                checked += 1
    assert checked > 100


def test_hecke_matrix_commutes_for_two_primes():
    cc, space = _unit_space(2, "(3+1*w)", 5)
    assert space.dim == 1
    ctx = cc.ctx
    t1 = hecke_matrix(parse_ideal(ctx, "(1+1*w)"), space)
    t2 = hecke_matrix(parse_ideal(ctx, "(1-1*w)"), space)
    assert t1.mat @ t2.mat == t2.mat @ t1.mat
    # on a 3-dimensional space as well, where commuting is not automatic
    cc3 = CongCtx(parse_ideal(ctx, "(3+1*w)"), ctx)
    full = h1(cc3, 5)
    s1 = hecke_matrix(parse_ideal(ctx, "(1+1*w)"), full)
    s2 = hecke_matrix(parse_ideal(ctx, "(1-1*w)"), full)
    assert s1.mat.nrows == 3
    assert s1.mat @ s2.mat == s2.mat @ s1.mat


def test_hecke_requires_prime_coprime_to_level():
    _, space = _unit_space(2, "(3+1*w)", 5)
    ctx = space.cc.ctx
    with pytest.raises(NotPrime):
        hecke_matrix(parse_ideal(ctx, "(2)"), space)  # (w)^2
    with pytest.raises(NotCoprimeToLevel):
        hecke_matrix(parse_ideal(ctx, "(3+1*w)"), space)


def test_ray_trivial_primes_frozen_lists():
    ctx = field(2)
    n = parse_ideal(ctx, "(3+1*w)")
    p = parse_ideal(ctx, "(0+1*w)")
    ray = ray_trivial_primes(n, 5, avoid=(p,), max_norm=600)
    assert [l.norm() for l in ray] == [19, 59, 83, 97, 113]
    for l in ray:
        u = ray_trivial_unit(l, n)
        assert u is not None
        assert n.contains(u * l.gen - ctx.one)
    ctx11 = field(11)
    n11 = parse_ideal(ctx11, "(1-2*w)")
    ray11 = ray_trivial_primes(
        n11, 5, avoid=(parse_ideal(ctx11, "(0+1*w)"),), max_norm=600
    )
    assert [l.norm() for l in ray11] == [23, 23, 67, 67, 89]


def test_every_coprime_prime_is_ray_trivial_at_small_class_level():
    """At a level whose residue ring has only unit-reachable classes."""
    ctx = field(1)
    n = parse_ideal(ctx, "(2+2*w)")
    ray = ray_trivial_primes(n, 6, max_norm=100)
    from bianchicoh.ideals import primes_by_norm

    coprime = [l for l in primes_by_norm(ctx, 100) if l.is_coprime(n)][:6]
    assert ray == coprime


def test_ray_search_exhaustion_and_conductor_override():
    ctx = field(2)
    n = parse_ideal(ctx, "(3+1*w)")
    with pytest.raises(ExhaustedSearch):
        ray_trivial_primes(n, 5, max_norm=20)
    # unit conductor makes every coprime prime trivial
    ray = ray_trivial_primes(n, 3, max_norm=100, conductor=PIdeal(ctx.one))
    assert [l.norm() for l in ray] == [2, 3, 3]
    with pytest.raises(ValueError):
        ray_trivial_primes(n, 0)


def test_eisenstein_check_on_alpha_kernel():
    d, n_text, p_text, q = 2, "(3+1*w)", "(0+1*w)", 5
    ctx = field(d)
    _, src = _unit_space(d, n_text, q)
    prod = parse_element(ctx, "3+1*w") * parse_element(ctx, "0+1*w")
    _, dst = _unit_space(d, f"({prod})", q)
    rmap = restriction_map(src, dst)
    tmap = twisted_map(src, dst)
    ker = kernel(alpha(rmap, tmap))
    assert ker.nrows == 1
    for l in ray_trivial_primes(parse_ideal(ctx, n_text), 2,
                                avoid=(parse_ideal(ctx, p_text),)):
        report = eisenstein_check(hecke_matrix(l, src), ker, l)
        assert report["stable"] is True
        assert report["passed"] is True
        assert report["nilpotency_index"] == 1
        assert report["cosets"] == l.norm() + 1


def test_eisenstein_check_trivial_and_malformed_bases():
    _, space = _unit_space(2, "(3+1*w)", 5)
    l = parse_ideal(space.cc.ctx, "(1+1*w)")
    t = hecke_matrix(l, space)
    empty = MatQ(5, np.zeros((0, space.dim), dtype=np.int64))
    report = eisenstein_check(t, empty, l)
    assert report == {
        "l": "(1+1*w)", "norm": 3, "cosets": 4,
        "stable": True, "nilpotency_index": 0, "passed": True,
    }
    with pytest.raises(ShapeMismatch):
        eisenstein_check(t, MatQ(5, [[1, 2, 3]]), l)


def test_hecke_matrix_on_zero_space_is_empty():
    _, space = _unit_space(1, "(3)", 5)
    assert space.dim == 0
    t = hecke_matrix(parse_ideal(field(1), "(1+1*w)"), space)
    assert t.mat.nrows == 0 and t.mat.ncols == 0


def test_hecke_matrix_on_zero_space_skips_the_coset_loop(monkeypatch):
    """A B-configuration: hecke_cosets only validates l, no quotient is tested.

    The representatives are certified once per prime by their kernel
    lines (hecke._check_kernel_lines), so no quotient test runs at all.
    """
    _, space = _unit_space(2, "(2)", 5)
    assert space.dim == 0
    ctx = space.cc.ctx
    calls = []
    check = hecke._quotient_in_gamma0

    def counted(*args):
        calls.append(args)
        return check(*args)

    def no_locate(*args):
        raise AssertionError("_locate ran on a zero space")

    monkeypatch.setattr(hecke, "_quotient_in_gamma0", counted)
    monkeypatch.setattr(hecke, "_locate", no_locate)
    l = parse_ideal(ctx, "(3+1*w)")
    t = hecke_matrix(l, space)
    assert t.mat.nrows == 0 and t.mat.ncols == 0
    assert len(calls) == 0
    with pytest.raises(NotPrime):
        hecke_matrix(parse_ideal(ctx, "(3)"), space)
    with pytest.raises(NotCoprimeToLevel):
        hecke_matrix(parse_ideal(ctx, "(0+1*w)"), space)


def test_narrowed_quotient_agrees_with_the_full_division():
    """At level one, the two-entry quotient equals quotient_full."""
    rng = random.Random(53)
    for d, level_text in A_LEVELS.items():
        ctx = field(d)
        level = parse_ideal(ctx, level_text)
        unit = PIdeal(ctx.one)
        for l in [l for l in primes_by_norm(ctx, 30)
                  if l.is_coprime(level)][:2]:
            reps = _reps(l)
            lam = l.gen

            def narrowed(x, dj):
                got = hecke._quotient_in_gamma0(x.coords(), dj.coords(), lam)
                return None if got is None else Mat2.from_coords(ctx, got)

            for di in reps:
                for dj in reps:
                    assert (narrowed(di, dj)
                            == quotient_full(di, dj, lam, unit))
            hits = 0
            for _ in range(40):
                delta = reps[rng.randrange(len(reps))]
                x = (_random_gamma0(ctx, level, rng) * delta
                     * _random_gamma0(ctx, level, rng))
                for dj in reps:
                    got = narrowed(x, dj)
                    assert got == quotient_full(x, dj, lam, unit)
                    hits += got is not None
            assert hits == 40  # each x lies in exactly one right coset


# (d, level, q, how many of the chosen primes): the A-configurations, a
# d=11 level coprime to the ramified prime, and a d=2 level of norm 529
TABLE_LEVELS = [
    (1, "(2+5*w)", 7, None),
    (2, "(3+1*w)", 5, None),
    (3, "(1+5*w)", 5, None),
    (7, "(1+2*w)", 5, None),
    (11, "(1-2*w)", 5, None),
    (11, "(3)", 5, None),
    (2, "(23)", 5, 2),
]


def _prime_kind(l):
    n = l.norm()
    r = int(round(n ** 0.5))
    if r * r == n:
        return "inert"
    if PIdeal(l.gen * l.gen) == PIdeal(l.ctx.element(n)):
        return "ramified"
    return "split"


def _table_primes(level):
    """The first ramified, split and inert primes and the first of norm >= 37."""
    chosen = {}
    for l in primes_by_norm(level.ctx, 50):
        if not l.is_coprime(level):
            continue
        key = "large" if l.norm() >= 37 else _prime_kind(l)
        chosen.setdefault(key, l)
    return sorted(chosen.values(), key=lambda l: l.norm())


def test_letter_table_operator_equals_the_descent_oracle():
    """T_l equals locate-plus-express on full, parabolic and unit spaces."""
    covered = {}
    for d, level_text, q, count in TABLE_LEVELS:
        ctx = field(d)
        level = parse_ideal(ctx, level_text)
        cc = CongCtx(level, ctx)
        full = h1(cc, q)
        par = parabolic(full)
        spaces = [full, par, unit_invariants(par)]
        assert full.dim > 0
        for l in _table_primes(level)[:count]:
            rows = oracles.hecke_rows(l, cc)
            for space in spaces:
                got = hecke_matrix(l, space).mat
                assert got == oracles.project_values(space, rows), (
                    d, level_text, str(l), space.kind)
            covered.setdefault(d, set()).update({_prime_kind(l), l.norm()})
    for d, seen in covered.items():
        assert {"ramified", "split", "inert"} <= seen, (d, seen)
        assert max(x for x in seen if isinstance(x, int)) >= 37, d
        assert min(x for x in seen if isinstance(x, int)) <= 3, d


def _copy_table(table):
    return [dict(entries) for entries in table]


def test_table_word_must_give_its_quotient(monkeypatch):
    ctx = field(2)
    l = parse_ideal(ctx, "(1+1*w)")
    descent = schreier.matrix_to_word

    def one_letter_too_many(m, p):
        return descent(m, p) + [(p.t_id, 1)]

    monkeypatch.setattr(schreier, "matrix_to_word", one_letter_too_many)
    with pytest.raises(ConstructionFailure):
        hecke.hecke_letter_table.__wrapped__(l)


def test_table_quotient_must_carry_its_representative():
    ctx = field(7)
    l = parse_ideal(ctx, "(1-1*w)")
    coords = hecke_cosets(l, PIdeal(ctx.one))
    p = schreier.builtin_presentation(ctx)

    def wrong_index(x):
        k, w = hecke._locate(l, x)
        return (k + 1) % len(coords), w

    with pytest.raises(ConstructionFailure):
        schreier.letter_table(coords, p, wrong_index)


def test_wrong_table_index_is_caught():
    """A wrong k in any entry that is read fails a closure or permutation.

    Schreier generators read the positive letters and tree steps read
    the letters of the tree edges; an entry read by neither cannot
    change T_l.
    """
    ctx = field(2)
    cc = CongCtx(parse_ideal(ctx, "(3+1*w)"), ctx)
    full = h1(cc, 5)
    l = parse_ideal(ctx, "(1+1*w)")
    table = hecke.hecke_letter_table(l)
    want = oracles.hecke_matrix(l, full)
    assert letter_table_operator(full, full, lambda: table,
                                 "Hecke image").mat == want
    read = {cc.tree_edge[y][1] for y in cc.tree_order[1:]}
    read |= {(gid, 1) for gid in range(cc.pres.gen_count)}
    nreps = len(table)
    caught = 0
    for j in range(nreps):
        for letter, (k, letters) in table[j].items():
            bad = _copy_table(table)
            bad[j][letter] = ((k + 1) % nreps, letters)
            if letter in read:
                with pytest.raises((ConstructionFailure, PermutationFailure,
                                    ProjectionFailure)):
                    letter_table_operator(full, full, lambda: bad,
                                          "Hecke image")
                caught += 1
            else:
                got = letter_table_operator(full, full, lambda: bad,
                                            "Hecke image")
                assert got.mat == want
    assert caught >= nreps * len(read) > 0


def test_corrupted_table_word_fails_the_closure():
    """A word that no longer gives its quotient leaves a walk open."""
    ctx = field(2)
    full = h1(CongCtx(parse_ideal(ctx, "(3+1*w)"), ctx), 5)
    table = hecke.hecke_letter_table(parse_ideal(ctx, "(1+1*w)"))
    t = (schreier.builtin_presentation(ctx).t_id, 1)
    for j in range(len(table)):
        bad = _copy_table(table)
        k, letters = bad[j][t]
        bad[j][t] = (k, letters + (t,))
        with pytest.raises(ConstructionFailure):
            letter_table_operator(full, full, lambda: bad, "Hecke image")


def test_colliding_table_index_fails_the_bijection_at_level_one():
    """With one coset every walk closes, so only sigma can catch a collision."""
    ctx = field(2)
    full = h1(CongCtx(PIdeal(ctx.one), ctx), 5)
    assert full.dim == 1
    table = hecke.hecke_letter_table(parse_ideal(ctx, "(1+1*w)"))
    bad = _copy_table(table)
    t = (schreier.builtin_presentation(ctx).t_id, 1)
    bad[0][t] = (bad[1][t][0], bad[0][t][1])
    with pytest.raises(PermutationFailure):
        letter_table_operator(full, full, lambda: bad, "Hecke image")


def test_letter_table_rejects_representatives_sharing_a_coset():
    ctx = field(3)
    p = schreier.builtin_presentation(ctx)
    delta = Mat2(ctx.omega, ctx.zero, ctx.zero, ctx.one).coords()
    delta_inv = Mat2(ctx.omega.conjugate(), ctx.zero, ctx.zero, ctx.one).coords()

    def locate(x):
        return 0, mat_mul_coords(ctx, x, delta_inv)

    assert len(schreier.letter_table([delta], p, locate)) == 1
    with pytest.raises(PermutationFailure):
        schreier.letter_table([delta, delta], p, locate)


def test_letter_table_permutes_the_representatives_and_is_memoized():
    for d in (1, 2, 3, 7, 11):
        ctx = field(d)
        p = schreier.builtin_presentation(ctx)
        for l in primes_by_norm(ctx, 10):
            table = hecke.hecke_letter_table(l)
            assert hecke.hecke_letter_table(parse_ideal(ctx, str(l))) is table
            assert len(table) == l.norm() + 1
            reps = _reps(l)
            for j, entries in enumerate(table):
                assert len(entries) == 2 * p.gen_count
                for (gid, e), (k, letters) in entries.items():
                    g = p._mats[gid] if e == 1 else p._invs[gid]
                    w = word_to_matrix(Word(letters), p)
                    assert w * reps[k] == reps[j] * g
