"""Degeneracy maps between level n and level n*p, and their stacked sum."""

from __future__ import annotations

import random

import numpy as np
import pytest

from bianchicoh import degmaps
from bianchicoh.cohom import (
    FULL,
    CohomSubspace,
    LinMap,
    h1,
    parabolic,
    unit_invariants,
)
from bianchicoh.degmaps import (
    alpha,
    kernel,
    restriction_map,
    twisted_map,
)
from bianchicoh.errors import (
    BadModulus,
    ConstructionFailure,
    FieldMismatch,
    LevelMismatch,
    PermutationFailure,
    ProjectionFailure,
    ShapeMismatch,
)
from bianchicoh.hecke import hecke_cosets, hecke_letter_table
from bianchicoh.ideals import PIdeal, enumerate_ideals, parse_ideal, primes_by_norm
from bianchicoh.modlinalg import MatQ
from bianchicoh.qfield import Mat2, field, parse_element
from bianchicoh.schreier import CongCtx

from oracles import conjugate_by_pgen, degeneracy_maps, evaluate

# the acceptance A-configurations: level, auxiliary prime, modulus
A_CONFIGS = {
    1: ("(2+5*w)", "(1+1*w)", 7),
    2: ("(3+1*w)", "(0+1*w)", 5),
    3: ("(1+5*w)", "(1+1*w)", 5),
    7: ("(1+2*w)", "(0+1*w)", 5),
    11: ("(1-2*w)", "(0+1*w)", 5),
}


def _layers(d, level_text, q):
    ctx = field(d)
    cc = CongCtx(parse_ideal(ctx, level_text), ctx)
    full = h1(cc, q)
    par = parabolic(full)
    return cc, full, par, unit_invariants(par)


def _product_level(d, n_text, p_text):
    ctx = field(d)
    n = parse_element(ctx, n_text.strip("()"))
    p = parse_element(ctx, p_text.strip("()"))
    return f"({n * p})"


def _random_member(cc, rng, nsteps=5):
    m = Mat2.identity(cc.ctx)
    for _ in range(nsteps):
        _, g = cc.sgens[rng.randrange(len(cc.sgens))]
        m = m * (g if rng.random() < 0.5 else g.inv_det_one())
    return m


def test_pair_validation():
    _, _, _, src = _layers(2, "(3+1*w)", 5)
    _, _, _, dst_other_field = _layers(7, "(1+2*w)", 5)
    with pytest.raises(FieldMismatch):
        restriction_map(src, dst_other_field)
    _, _, _, dst_wrong_q = _layers(2, _product_level(2, "(3+1*w)", "(0+1*w)"), 7)
    with pytest.raises(BadModulus):
        restriction_map(src, dst_wrong_q)
    with pytest.raises(LevelMismatch):
        # same level: quotient is a unit, not a prime
        restriction_map(src, src)
    _, _, _, dst_two_primes = _layers(2, "(3+1*w)", 5)
    ctx = field(2)
    big = _layers(2, f"({parse_element(ctx, '3+1*w') * ctx.element(2)})", 5)[3]
    with pytest.raises(LevelMismatch):
        # quotient (2) = (w)^2 is not prime
        restriction_map(src, big)
    del dst_two_primes


def test_twisted_map_checks_the_prime_generator():
    """The followed representative is diag(pi, 1) for the canonical pi."""
    for d, (n_text, p_text, q) in A_CONFIGS.items():
        ctx = field(d)
        p = parse_ideal(ctx, p_text)
        _, _, _, src = _layers(d, n_text, q)
        _, _, _, dst = _layers(d, _product_level(d, n_text, p_text), q)
        pi = p.gen
        delta = hecke_cosets(p, PIdeal(ctx.one))[-1]
        assert delta == (pi.a, pi.b, 0, 0, 0, 0, 1, 0)
        assert len(hecke_letter_table(p)) == p.norm() + 1
        tm = twisted_map(src, dst)
        assert tm.mat.nrows == src.dim


def test_conjugate_by_pgen():
    """The oracle's conjugation by diag(pi, 1)."""
    ctx = field(1)
    pi = parse_element(ctx, "1+1*w")
    m = Mat2(ctx.element(1), ctx.element(2), pi * ctx.element(3), ctx.element(7))
    out = conjugate_by_pgen(m, pi)
    assert out.a == m.a and out.d == m.d
    assert out.b == m.b * pi
    assert out.c * pi == m.c
    with pytest.raises(ArithmeticError):
        conjugate_by_pgen(Mat2(ctx.one, ctx.zero, ctx.one, ctx.one), pi)


def test_restriction_is_pointwise_restriction():
    """The image class takes the same values; it is literally the same map."""
    rng = random.Random(31)
    d, q = 2, 5
    src_cc, src_full, _, _ = _layers(d, "(0+1*w)", q)
    dst_cc, dst_full, _, _ = _layers(d, _product_level(d, "(0+1*w)", "(1+1*w)"), q)
    rmap = restriction_map(src_full, dst_full)
    for i in range(src_full.dim):
        coords = [1 if j == i else 0 for j in range(src_full.dim)]
        image = rmap.apply(coords)
        for _ in range(20):
            m = _random_member(dst_cc, rng)
            assert evaluate(dst_full, image, m) == evaluate(src_full, coords, m)


def test_twisted_map_is_pointwise_conjugated_restriction():
    rng = random.Random(37)
    d, q = 11, 5
    pi = parse_ideal(field(d), "(0+1*w)").gen
    src_cc, src_full, _, _ = _layers(d, "(1-2*w)", q)
    dst_cc, dst_full, _, _ = _layers(d, _product_level(d, "(1-2*w)", "(0+1*w)"), q)
    tmap = twisted_map(src_full, dst_full)
    for i in range(src_full.dim):
        coords = [1 if j == i else 0 for j in range(src_full.dim)]
        image = tmap.apply(coords)
        for _ in range(20):
            m = _random_member(dst_cc, rng)
            conj = conjugate_by_pgen(m, pi)
            assert evaluate(dst_full, image, m) == evaluate(src_full, coords, conj)


def test_restriction_on_unit_spaces_is_injective_here():
    for d, n_text, p_text, q in [
        (2, "(3+1*w)", "(0+1*w)", 5),
        (11, "(1-2*w)", "(0+1*w)", 5),
    ]:
        _, _, _, src = _layers(d, n_text, q)
        _, _, _, dst = _layers(d, _product_level(d, n_text, p_text), q)
        assert src.dim == 1
        rmap = restriction_map(src, dst)
        assert rmap.rank() == 1
        assert kernel(rmap).nrows == 0


def test_alpha_stacks_and_its_kernel_annihilates():
    d, n_text, p_text, q = 2, "(3+1*w)", "(0+1*w)", 5
    _, _, _, src = _layers(d, n_text, q)
    _, _, _, dst = _layers(d, _product_level(d, n_text, p_text), q)
    rmap = restriction_map(src, dst)
    tmap = twisted_map(src, dst)
    amap = alpha(rmap, tmap)
    assert amap.copies == 2
    assert amap.mat.nrows == 2 * src.dim
    rng = random.Random(41)
    x = [rng.randrange(q) for _ in range(src.dim)]
    y = [rng.randrange(q) for _ in range(src.dim)]
    stacked = amap.apply(x + y)
    expected = (rmap.apply(x) + tmap.apply(y)) % q
    assert np.array_equal(stacked, expected)
    ker = kernel(amap)
    assert ker.nrows == 1  # one Eisenstein line at this pair
    assert (ker @ amap.mat).is_zero()
    assert amap.rank() == 1


def test_zero_dimensional_source_gives_empty_maps():
    d, q = 1, 5
    _, _, _, src = _layers(d, "(2+2*w)", q)  # no parabolic classes here
    assert src.dim == 0
    _, _, _, dst = _layers(d, _product_level(d, "(2+2*w)", "(3)"), q)
    rmap = restriction_map(src, dst)
    tmap = twisted_map(src, dst)
    assert rmap.mat.nrows == 0 and tmap.mat.nrows == 0
    amap = alpha(rmap, tmap)
    assert amap.mat.nrows == 0
    assert kernel(amap).nrows == 0


def test_zero_dimensional_destination_fails_the_projection():
    """A fabricated zero-dimensional destination: both images escape it."""
    d, q = 2, 5
    src_cc, src, _, _ = _layers(d, "(3+1*w)", q)
    dst_cc = CongCtx(parse_ideal(field(d), _product_level(d, "(3+1*w)", "(0+1*w)")),
                     field(d))
    dst = CohomSubspace(dst_cc, src.q,
                        MatQ(q, np.zeros((0, len(dst_cc.sgen_edges)), dtype=np.int64)),
                        FULL)
    assert src.dim > 0 and dst.dim == 0
    with pytest.raises(ProjectionFailure):
        restriction_map(src, dst)
    with pytest.raises(ProjectionFailure):
        twisted_map(src, dst)


def test_degeneracy_maps_equal_the_per_generator_oracle():
    """Both maps equal rewriting and expressing every destination generator.

    On the A-configurations and on every level of norm <= 15 in the five
    fields with its smallest coprime prime, on the full, parabolic and
    unit-invariant spaces.
    """
    cases = [(d, n, p, q) for d, (n, p, q) in A_CONFIGS.items()]
    for d in (1, 2, 3, 7, 11):
        ctx = field(d)
        for n in enumerate_ideals(ctx, 15):
            p = next(l for l in primes_by_norm(ctx, 50) if l.is_coprime(n))
            cases.append((d, f"({n.gen})", f"({p.gen})", 5))
    for d, n_text, p_text, q in cases:
        src = _layers(d, n_text, q)[1:]
        dst = _layers(d, _product_level(d, n_text, p_text), q)[1:]
        for s, t in zip(src, dst):
            want_r, want_t = degeneracy_maps(s, t)
            where = (d, n_text, p_text, s.kind)
            assert restriction_map(s, t).mat == want_r, where
            assert twisted_map(s, t).mat == want_t, where


def _copy_table(table):
    return [dict(entries) for entries in table]


class _ReadLog(dict):
    """One row of a letter table that records the entries read from it."""

    def __init__(self, j, entries, read):
        super().__init__(entries)
        self.j = j
        self.read = read

    def __getitem__(self, letter):
        self.read.add((self.j, letter))
        return super().__getitem__(letter)


def test_wrong_twist_table_entry_is_caught(monkeypatch):
    """A wrong k or an extra letter in any T_p entry the chain reads raises.

    A wrong k breaks k = pi_y of the twist-chain lemma and an extra
    letter leaves a walk open; an entry the chain never reads cannot
    change the map.
    """
    for d, (n_text, p_text, q) in A_CONFIGS.items():
        p = parse_ideal(field(d), p_text)
        src = _layers(d, n_text, q)[1]
        dst = _layers(d, _product_level(d, n_text, p_text), q)[1]
        table = hecke_letter_table(p)
        nreps = len(table)
        want = twisted_map(src, dst).mat
        read = set()
        logged = [_ReadLog(j, entries, read) for j, entries in enumerate(table)]
        monkeypatch.setattr(degmaps, "hecke_letter_table", lambda _: logged)
        assert twisted_map(src, dst).mat == want
        t = (src.cc.pres.t_id, 1)
        caught = 0
        for j in range(nreps):
            for letter, (k, letters) in table[j].items():
                for entry in (((k + 1) % nreps, letters), (k, letters + (t,))):
                    bad = _copy_table(table)
                    bad[j][letter] = entry
                    monkeypatch.setattr(degmaps, "hecke_letter_table",
                                        lambda _: bad)
                    if (j, letter) in read:
                        with pytest.raises((ConstructionFailure,
                                            PermutationFailure)):
                            twisted_map(src, dst)
                        caught += 1
                    else:
                        assert twisted_map(src, dst).mat == want
        assert caught == 2 * len(read) > 0, d
        monkeypatch.undo()


def test_corrupted_level_n_walk_table_fails_the_restriction():
    """Two swapped entries of one level-n walk table leave a walk open."""
    for d, (n_text, p_text, q) in A_CONFIGS.items():
        src = _layers(d, n_text, q)[1]
        dst = _layers(d, _product_level(d, n_text, p_text), q)[1]
        restriction_map(src, dst)
        nxt, _ = src.cc._moves[src.cc.pres.t_id][1]
        nxt[0], nxt[1] = nxt[1], nxt[0]
        with pytest.raises(ConstructionFailure):
            restriction_map(src, dst)


def test_linmap_shape_guards_and_serialization():
    d, n_text, p_text, q = 2, "(3+1*w)", "(0+1*w)", 5
    _, _, _, src = _layers(d, n_text, q)
    _, _, _, dst = _layers(d, _product_level(d, n_text, p_text), q)
    rmap = restriction_map(src, dst)
    with pytest.raises(ShapeMismatch):
        rmap.apply([0] * (rmap.mat.nrows + 1))
    with pytest.raises(ShapeMismatch):
        LinMap(src, dst, MatQ(q, np.zeros((3, dst.dim), dtype=np.int64)))
    blob = rmap.to_json_dict()
    assert blob["q"] == q
    assert blob["domain"]["dim"] == src.dim
    assert blob["codomain"]["dim"] == dst.dim
    assert blob["mat"] == rmap.mat.to_lists()


def test_alpha_requires_matching_endpoints():
    d, n_text, p_text, q = 2, "(3+1*w)", "(0+1*w)", 5
    _, _, _, src = _layers(d, n_text, q)
    _, _, _, dst = _layers(d, _product_level(d, n_text, p_text), q)
    rmap = restriction_map(src, dst)
    _, _, _, src2 = _layers(d, n_text, q)
    rmap2 = restriction_map(src2, dst)
    with pytest.raises(ShapeMismatch):
        alpha(rmap, rmap2)
