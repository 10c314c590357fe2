"""Coset rewriting for Gamma_0(n): transversal, Schreier generators, relmat."""

from __future__ import annotations

import random

import pytest

from bianchicoh.errors import NotInSubgroup
from bianchicoh.fpres import Word, word_to_matrix
from bianchicoh.ideals import parse_ideal
from bianchicoh.qfield import Mat2, field
from bianchicoh.schreier import build, express, membership, relator_matrix, rewrite
from oracles import abelian_invariants, dense_rows, tc_subgroup_abelianization

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
        cc = build(parse_ideal(ctx, text), ctx)
        ncos = len(cc.cosets)
        nsgens = len(cc.sgens)
        # Schreier: one generator per non-tree positive edge
        assert nsgens == ncos * cc.pres.gen_count - (ncos - 1)
        relmat = relator_matrix(cc)
        assert len(relmat) == len(cc.pres.relators) * ncos
        # sparse rows: sgen index -> nonzero exponent
        assert all(0 <= j < nsgens and v for row in relmat for j, v in row.items())
        assert all(len(row) == nsgens for row in dense_rows(relmat, nsgens))


def test_transversal_carries_base_to_each_coset():
    ctx = field(1)
    cc = build(parse_ideal(ctx, "(2+1*w)"), ctx)
    base = cc.cosets.base_point()
    for x in range(len(cc.cosets)):
        assert cc.cosets.apply(cc.tmats[x], base).index == x


def test_schreier_generators_lie_in_subgroup_and_match_words():
    for d, text, _ in FROZEN_ABELIANIZATIONS[:3]:
        ctx = field(d)
        cc = build(parse_ideal(ctx, text), ctx)
        for w, m in cc.sgens:
            assert word_to_matrix(w, cc.pres) == m
            assert membership(m, cc)


def test_relator_rows_certified_by_matrix_walk():
    """Re-trace every relator from every coset with independent logic."""
    for d, text in [(1, "(2+1*w)"), (3, "(2)"), (11, "(0+1*w)")]:
        ctx = field(d)
        cc = build(parse_ideal(ctx, text), ctx)
        p1 = cc.cosets
        pres = cc.pres
        ident = Mat2.identity(ctx)
        relmat = dense_rows(cc.relmat, len(cc.sgens))
        mats = [m for _, m in pres.generators]
        invs = [m.inv_det_one() for m in mats]
        rowi = 0
        for r in pres.relators:
            for x in range(len(p1)):
                pos = p1.points[x]
                prod = ident
                vec = [0] * len(cc.sgens)
                for gid, e in r:
                    if e == 1:
                        nxt = p1.apply(mats[gid], pos)
                        edge = (pos.index, gid)
                    else:
                        nxt = p1.apply(invs[gid], pos)
                        edge = (nxt.index, gid)
                    k = cc._sgen_index.get(edge)
                    if k is not None:
                        sm = cc.sgens[k][1]
                        prod = prod * (sm if e == 1 else sm.inv_det_one())
                        vec[k] += e
                    pos = nxt
                assert pos.index == x
                assert prod == ident
                assert vec == relmat[rowi]
                rowi += 1


def test_abelianization_matches_frozen_and_todd_coxeter():
    for d, text, expected in FROZEN_ABELIANIZATIONS:
        ctx = field(d)
        cc = build(parse_ideal(ctx, text), ctx)
        relmat = dense_rows(cc.relmat, len(cc.sgens))
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
    cc = build(parse_ideal(ctx, "(3+1*w)"), ctx)
    words = [w for w, _ in cc.sgens]
    for _ in range(25):
        w1 = Word()
        w2 = Word()
        for _ in range(4):
            w1 = w1 * rng.choice(words)
            w2 = w2 * rng.choice(words).inverse()
        v1 = rewrite(w1, cc)
        v2 = rewrite(w2, cc)
        v12 = rewrite(w1 * w2, cc)
        assert v12 == [a + b for a, b in zip(v1, v2)]


def test_express_is_additive_modulo_relators():
    """express(m1*m2) - express(m1) - express(m2) lies in the relator lattice."""
    rng = random.Random(29)
    ctx = field(2)
    cc = build(parse_ideal(ctx, "(3+1*w)"), ctx)
    relmat = dense_rows(cc.relmat, len(cc.sgens))
    base_inv = abelian_invariants(relmat, len(cc.sgens))
    for _ in range(10):
        m1 = _random_member(cc, rng)
        m2 = _random_member(cc, rng)
        v1 = express(m1, cc)
        v2 = express(m2, cc)
        v12 = express(m1 * m2, cc)
        diff = [a - b - c for a, b, c in zip(v12, v1, v2)]
        # adding a lattice row leaves the quotient group unchanged
        assert abelian_invariants(relmat + [diff], len(cc.sgens)) == base_inv


def test_express_round_trip_through_sgens():
    """The exponent vector of a known sgen product recovers that product."""
    ctx = field(7)
    cc = build(parse_ideal(ctx, "(1+2*w)"), ctx)
    relmat = dense_rows(cc.relmat, len(cc.sgens))
    for k, (_, m) in enumerate(cc.sgens[:10]):
        v = express(m, cc)
        # in the abelianization the vector must hit coordinate k once,
        # up to relator rows
        diff = list(v)
        diff[k] -= 1
        rank, torsion = abelian_invariants(relmat + [diff], len(cc.sgens))
        assert (rank, torsion) == abelian_invariants(relmat, len(cc.sgens))


def test_membership_and_rejection():
    ctx = field(1)
    cc = build(parse_ideal(ctx, "(2+1*w)"), ctx)
    s = Mat2(ctx.zero, ctx.zero - ctx.one, ctx.one, ctx.zero)
    assert not membership(s, cc)
    with pytest.raises(NotInSubgroup):
        express(s, cc)
    with pytest.raises(NotInSubgroup):
        rewrite(cc.pres.word_from_str("s"), cc)
    t = Mat2(ctx.one, ctx.one, ctx.zero, ctx.one)
    assert membership(t, cc)
    assert isinstance(express(t, cc), list)


def test_move_order_permutation_changes_nothing_essential():
    for d, text, expected in FROZEN_ABELIANIZATIONS[:3]:
        ctx = field(d)
        cc = build(parse_ideal(ctx, text), ctx, move_order="reversed")
        assert len(cc.sgens) == len(cc.cosets) * cc.pres.gen_count - (len(cc.cosets) - 1)
        relmat = dense_rows(cc.relmat, len(cc.sgens))
        rank, torsion = abelian_invariants(relmat, len(cc.sgens))
        assert (rank, tuple(torsion)) == expected
    with pytest.raises(ValueError):
        build(parse_ideal(field(1), "(3)"), field(1), move_order="sideways")
