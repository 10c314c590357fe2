"""Coset rewriting for Gamma_0(n): transversal, Schreier generators, relmat."""

from __future__ import annotations

import random

import numpy as np
import pytest

from bianchicoh.cohom import h1
from bianchicoh.errors import ConstructionFailure, NotInSubgroup, NotUnimodular
from bianchicoh.fpres import Word, word_to_matrix
from bianchicoh.ideals import enumerate_ideals, parse_ideal
from bianchicoh.projline import P1Table
from bianchicoh.qfield import Mat2, QuadInt, _round_half_down, euclid_divmod, field
from bianchicoh.schreier import CongCtx
from oracles import (
    abelian_invariants,
    congruence_objects,
    dense_rows,
    euclid_word,
    membership,
    rewrite,
    row_dicts,
    sweep_move,
    tc_subgroup_abelianization,
    tmats,
)

# (d, level, expected abelianization of Gamma_0(level))
FROZEN_ABELIANIZATIONS = [
    (1, "(2+1*w)", (0, (2, 2, 4))),
    (2, "(0+1*w)", (2, (2, 2))),
    (3, "(2)", (0, (3, 3))),
    (7, "(0+1*w)", (2, (4,))),
    (11, "(0+1*w)", (2, (2, 3))),
]


def _random_member(cc, rng, nsteps=6):
    m = Mat2.identity(cc.ctx)
    for _ in range(nsteps):
        _, g = cc.sgens[rng.randrange(len(cc.sgens))]
        m = m * (g if rng.random() < 0.5 else g.inv_det_one())
    return m


def test_counts_and_shapes():
    for d, text, _ in FROZEN_ABELIANIZATIONS:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        ncos = len(cc.cosets)
        nsgens = len(cc.sgens)
        # Schreier: one generator per non-tree positive edge
        assert nsgens == ncos * cc.pres.gen_count - (ncos - 1)
        relmat = cc.relmat
        assert len(relmat) == relmat.nrows == len(cc.pres.relators) * ncos
        # int64 (row, sgen index, nonzero exponent) sorted by key, one
        # entry per key
        r, c, v = relmat.r, relmat.c, relmat.v
        assert r.dtype == c.dtype == v.dtype == np.int64
        assert r.shape == c.shape == v.shape
        assert (np.diff(r * nsgens + c) > 0).all()
        assert (0 <= r).all() and (r < len(relmat)).all()
        assert (0 <= c).all() and (c < nsgens).all() and v.all()


def test_recorded_tree_reproduces_the_transversal():
    """tree_order and tree_edge rebuild every transversal word in BFS order."""
    for d, text, _ in FROZEN_ABELIANIZATIONS + [(2, "(3+1*w)", None)]:
        ctx = field(d)
        for move_order in ("default", "reversed"):
            cc = CongCtx(parse_ideal(ctx, text), ctx, move_order=move_order)
            order = cc.tree_order
            assert order[0] == cc.base and cc.tree_edge[cc.base] is None
            assert sorted(order) == list(range(len(cc.cosets)))
            place = {y: i for i, y in enumerate(order)}
            for y in order[1:]:
                x, (gid, e) = cc.tree_edge[y]
                assert place[x] < place[y]
                assert cc.act[gid][0 if e == 1 else 1][x] == y
                assert cc.transversal[y] == cc.transversal[x] * Word([(gid, e)])
                assert len(cc.transversal[y]) == len(cc.transversal[x]) + 1


def test_transversal_carries_base_to_each_coset():
    ctx = field(1)
    cc = CongCtx(parse_ideal(ctx, "(2+1*w)"), ctx)
    base, move = sweep_move(cc.level)
    assert base == cc.base
    for x in range(len(cc.cosets)):
        assert move(base, tmats(cc)[x]) == x


def test_schreier_generators_lie_in_subgroup_and_match_words():
    for d, text, _ in FROZEN_ABELIANIZATIONS[:3]:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        for w, m in cc.sgens:
            assert word_to_matrix(w, cc.pres) == m
            assert membership(cc, m)


def test_relator_rows_certified_by_matrix_walk():
    """Re-trace every relator from every coset with independent logic.

    Covers all five fields, and one level with the reversed move order.
    """
    levels = [(d, text, "default") for d, text, _ in FROZEN_ABELIANIZATIONS]
    levels.append((2, "(3+1*w)", "reversed"))
    for d, text, move_order in levels:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx, move_order=move_order)
        index = {edge: k for k, edge in enumerate(cc.sgen_edges)}
        _, move = sweep_move(cc.level)
        pres = cc.pres
        ident = Mat2.identity(ctx)
        relmat = dense_rows(row_dicts(cc.relmat), len(cc.sgens))
        mats = [m for _, m in pres.generators]
        invs = [m.inv_det_one() for m in mats]
        rowi = 0
        for r in pres.relators:
            for x in range(len(cc.cosets)):
                pos = x
                prod = ident
                vec = [0] * len(cc.sgens)
                for gid, e in r:
                    if e == 1:
                        nxt = move(pos, mats[gid])
                        edge = (pos, gid)
                    else:
                        nxt = move(pos, invs[gid])
                        edge = (nxt, gid)
                    k = index.get(edge)
                    if k is not None:
                        sm = cc.sgens[k][1]
                        prod = prod * (sm if e == 1 else sm.inv_det_one())
                        vec[k] += e
                    pos = nxt
                assert pos == x
                assert prod == ident
                assert vec == relmat[rowi]
                rowi += 1


def test_abelianization_matches_frozen_and_todd_coxeter():
    for d, text, expected in FROZEN_ABELIANIZATIONS:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        relmat = dense_rows(row_dicts(cc.relmat), len(cc.sgens))
        rank, torsion = abelian_invariants(relmat, len(cc.sgens))
        assert (rank, tuple(torsion)) == expected, (d, text)
        # independent enumeration from the abstract presentation alone
        tc_rank, tc_torsion = tc_subgroup_abelianization(
            cc.pres.gen_count,
            [list(r) for r in cc.pres.relators],
            [list(w.letters) for w, _ in cc.sgens],
        )
        assert (tc_rank, tuple(tc_torsion)) == expected, (d, text)


def test_rewrite_is_additive_on_concatenation():
    rng = random.Random(23)
    ctx = field(2)
    cc = CongCtx(parse_ideal(ctx, "(3+1*w)"), ctx)
    words = [w for w, _ in cc.sgens]
    for _ in range(25):
        w1 = Word()
        w2 = Word()
        for _ in range(4):
            w1 = w1 * rng.choice(words)
            w2 = w2 * rng.choice(words).inverse()
        v1 = cc.rewrite(w1)
        v2 = cc.rewrite(w2)
        v12 = cc.rewrite(w1 * w2)
        total = {k: v1.get(k, 0) + v2.get(k, 0) for k in v1.keys() | v2.keys()}
        assert v12 == {k: v for k, v in total.items() if v}


def test_express_is_additive_modulo_relators():
    """express(m1*m2) - express(m1) - express(m2) lies in the relator lattice."""
    rng = random.Random(29)
    ctx = field(2)
    cc = CongCtx(parse_ideal(ctx, "(3+1*w)"), ctx)
    relmat = dense_rows(row_dicts(cc.relmat), len(cc.sgens))
    base_inv = abelian_invariants(relmat, len(cc.sgens))
    for _ in range(10):
        m1 = _random_member(cc, rng)
        m2 = _random_member(cc, rng)
        v1, v2, v12 = dense_rows(
            [cc.express(m1), cc.express(m2), cc.express(m1 * m2)],
            len(cc.sgens))
        diff = [a - b - c for a, b, c in zip(v12, v1, v2)]
        # adding a lattice row leaves the quotient group unchanged
        assert abelian_invariants(relmat + [diff], len(cc.sgens)) == base_inv


def test_express_round_trip_through_sgens():
    """The exponent vector of a known sgen product recovers that product."""
    ctx = field(7)
    cc = CongCtx(parse_ideal(ctx, "(1+2*w)"), ctx)
    relmat = dense_rows(row_dicts(cc.relmat), len(cc.sgens))
    for k, (_, m) in enumerate(cc.sgens[:10]):
        # in the abelianization the vector must hit coordinate k once,
        # up to relator rows
        diff = dense_rows([cc.express(m)], len(cc.sgens))[0]
        diff[k] -= 1
        rank, torsion = abelian_invariants(relmat + [diff], len(cc.sgens))
        assert (rank, torsion) == abelian_invariants(relmat, len(cc.sgens))


def test_membership_and_rejection():
    ctx = field(1)
    cc = CongCtx(parse_ideal(ctx, "(2+1*w)"), ctx)
    s = Mat2(ctx.zero, ctx.zero - ctx.one, ctx.one, ctx.zero)
    assert not membership(cc, s)
    with pytest.raises(NotInSubgroup):
        cc.express(s)
    with pytest.raises(NotInSubgroup):
        cc.rewrite(cc.pres.word_from_str("s"))
    t = Mat2(ctx.one, ctx.one, ctx.zero, ctx.one)
    assert membership(cc, t)
    assert isinstance(cc.express(t), dict)


def test_move_order_permutation_changes_nothing_essential():
    for d, text, expected in FROZEN_ABELIANIZATIONS[:3]:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx, move_order="reversed")
        assert len(cc.sgens) == len(cc.cosets) * cc.pres.gen_count - (len(cc.cosets) - 1)
        relmat = dense_rows(row_dicts(cc.relmat), len(cc.sgens))
        rank, torsion = abelian_invariants(relmat, len(cc.sgens))
        assert (rank, tuple(torsion)) == expected
    with pytest.raises(ValueError):
        CongCtx(parse_ideal(field(1), "(3)"), field(1), move_order="sideways")


# levels of the fused-express check: several per field
EXPRESS_LEVELS = [
    (1, "(2+1*w)"), (1, "(3)"), (2, "(3+1*w)"), (2, "(0+1*w)"),
    (3, "(2)"), (3, "(1+5*w)"), (7, "(1+2*w)"), (7, "(0+1*w)"),
    (11, "(1-2*w)"), (11, "(2)"), (11, "(0+1*w)"),
]


def _takes_fallback(m):
    """True when some step of the descent of m needs the 3x3 search."""
    ctx = m.ctx
    cur = m
    while not cur.c.is_zero():
        num = cur.a * cur.c.conjugate()
        nc = cur.c.norm()
        q = QuadInt(ctx, _round_half_down(num.a, nc),
                    _round_half_down(num.b, nc))
        if (cur.a - q * cur.c).norm() >= nc:
            return True
        q, _ = euclid_divmod(cur.a, cur.c)
        cur = Mat2(-cur.c, -cur.d, cur.a - q * cur.c, cur.b - q * cur.d)
    return False


def test_express_equals_rewrite_of_the_descent_word():
    """The fused express agrees with rewrite(euclid_word(m)) as dicts."""
    rng = random.Random(41)
    fallbacks = {7: 0, 11: 0}
    for d, text in EXPRESS_LEVELS:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        members = [_random_member(cc, rng, nsteps=1 + k % 8)
                   for k in range(40)]
        if d in fallbacks:
            # about 1 in 50 of these descends through the 3x3 search
            extra = [_random_member(cc, rng, nsteps=1 + k % 12)
                     for k in range(400)]
            extra = [m for m in extra if _takes_fallback(m)]
            fallbacks[d] += len(extra)
            members += extra
        for m in members:
            got = cc.express(m)
            end, want = rewrite(cc, euclid_word(m, cc.pres).letters)
            assert end == cc.base
            assert got == want, (d, text, m)
            assert all(got.values())
    assert fallbacks[7] > 0 and fallbacks[11] > 0, fallbacks


A_LEVELS = [(1, "(2+5*w)"), (2, "(3+1*w)"), (3, "(1+5*w)"), (7, "(1+2*w)"),
            (11, "(1-2*w)")]


def test_walk_tables_agree_with_the_apply_walk_on_the_a_levels():
    """_walk, rewrite and express equal the walk of oracles.rewrite, which
    moves through the all-pairs sweep of P^1 (sweep_move)."""
    rng = random.Random(43)
    for d, text in A_LEVELS:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        letters = [(gid, e) for gid in range(cc.pres.gen_count) for e in (1, -1)]
        for _ in range(30):
            word = [rng.choice(letters) for _ in range(rng.randrange(1, 20))]
            end, vec = cc._walk(word, cc.base)
            assert (end, {k: v for k, v in vec.items() if v}) == rewrite(cc, word)
        for k in range(30):
            m = _random_member(cc, rng, nsteps=1 + k % 6)
            word = euclid_word(m, cc.pres).letters
            end, want = rewrite(cc, word)
            assert end == cc.base
            assert cc.rewrite(word) == want
            assert cc.express(m) == want, (d, text, m)


def test_express_rejects_non_members_and_bad_determinants():
    for d, text in [(2, "(3+1*w)"), (7, "(1+2*w)")]:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        one, zero = ctx.one, ctx.zero
        with pytest.raises(NotInSubgroup):
            cc.express(Mat2(one, zero, one, one))  # lower-left 1 escapes
        with pytest.raises(NotUnimodular):
            cc.express(Mat2(ctx.element(2), zero, zero, one))
        with pytest.raises(NotUnimodular):
            cc.express(Mat2(-one, zero, zero, one))  # determinant -1


ORACLE_KEYS = ("act", "base", "tree_order", "tree_edge", "transversal",
               "sgen_edges", "sgens", "relmat")


def _assert_matches_objects(level, move_order="default"):
    cc = CongCtx(level, level.ctx, move_order=move_order)
    want = congruence_objects(level, move_order)
    for key in ORACLE_KEYS:
        got = getattr(cc, key)
        if key == "relmat":
            got = row_dicts(got)
        assert got == want[key], (str(level), move_order, key)
    assert tmats(cc) == want["tmats"], (str(level), move_order)


def test_coordinate_build_matches_the_object_construction():
    """Every level of norm <= 60 in the five fields, in both move orders
    at norm <= 20."""
    for d in (1, 2, 3, 7, 11):
        for level in enumerate_ideals(field(d), 60):
            _assert_matches_objects(level)
            if level.norm() <= 20:
                _assert_matches_objects(level, "reversed")


def test_coordinate_build_matches_at_the_large_d2_levels():
    ctx = field(2)
    for text in ("(9+11*w)", "(19+7*w)", "(23)"):
        _assert_matches_objects(parse_ideal(ctx, text))


def test_objects_are_built_on_first_use_only():
    ctx = field(2)
    cc = CongCtx(parse_ideal(ctx, "(3+1*w)"), ctx)
    h1(cc, 5)
    lazy = ("transversal", "sgens")
    assert not any(name in vars(cc) for name in lazy)
    assert len(cc.sgens) == len(cc.sgen_edges)
    assert "sgens" in vars(cc) and "transversal" in vars(cc)


def test_corrupted_action_entry_fails_the_generator_certificate(monkeypatch):
    ctx = field(2)
    level = parse_ideal(ctx, "(3+1*w)")
    action = P1Table.action

    def swapped(self, g):
        out = action(self, g)
        out[1], out[2] = out[2], out[1]
        return out

    monkeypatch.setattr(P1Table, "action", swapped)
    with pytest.raises(ConstructionFailure):
        CongCtx(level, ctx)


def test_action_table_that_is_not_a_permutation_is_rejected(monkeypatch):
    """The inverse tables are read off the forward ones, which must
    therefore be permutations: one repeated entry is rejected."""
    ctx = field(2)
    level = parse_ideal(ctx, "(3+1*w)")
    action = P1Table.action

    def repeated(self, g):
        out = action(self, g)
        out[1] = out[2]
        return out

    monkeypatch.setattr(P1Table, "action", repeated)
    with pytest.raises(ConstructionFailure, match="not a permutation"):
        CongCtx(level, ctx)


def test_corrupted_walk_table_fails_the_relator_closure():
    """Two swapped entries of one letter's walk table leave a relator open."""
    for d, text, _ in FROZEN_ABELIANIZATIONS:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        nxt = cc._next[2 * cc.pres.t_id + 1]
        nxt[[0, 1]] = nxt[[1, 0]]
        with pytest.raises(ConstructionFailure):
            cc._build_relmat()


def test_corrupted_tree_row_fails_the_generator_certificate():
    """Another coset's carried bottom row in coset y fails the certificate.

    A determinant-2 transversal has no representation left to corrupt:
    every T_x is a product of generators of determinant 1.
    """
    for d, text, _ in FROZEN_ABELIANIZATIONS:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        y, z = cc.tree_order[-1], cc.tree_order[-2]
        good = cc._rows[y].copy()
        cc._rows[y] = cc._rows[z]
        with pytest.raises(ConstructionFailure):
            cc._build_sgens()
        cc._rows[y] = good
        cc._build_sgens()
