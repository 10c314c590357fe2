"""First cohomology of Gamma_0(n): full, parabolic, unit-invariant layers."""

from __future__ import annotations

import random

import pytest

from bianchicoh import cohom
from bianchicoh.cohom import (
    CoefficientModulus,
    cusps,
    h1,
    parabolic,
    unit_conjugation_operator,
    unit_invariants,
    unit_letter_table,
)
from bianchicoh.errors import BadModulus, ConstructionFailure
from bianchicoh.ideals import enumerate_ideals, parse_ideal
from bianchicoh.modlinalg import coordinates_in_rowspace
from bianchicoh.qfield import Mat2, field
import bianchicoh.schreier as schreier
from bianchicoh.schreier import CongCtx
import oracles
from oracles import (
    Cusp,
    abelian_invariants,
    colon_square,
    cusp_equivalent,
    cusps_by_divisors,
    dense_rows,
    evaluate,
    membership,
    parabolic_by_cusps,
    row_dicts,
)

# (d, level, q) -> (dim H^1, dim parabolic, dim parabolic-unit)
FROZEN_DIMS = [
    (1, "(2+5*w)", 7, (1, 1, 1)),
    (1, "(3)", 5, (0, 0, 0)),
    (2, "(0+1*w)", 5, (2, 0, 0)),
    (2, "(3+1*w)", 5, (3, 1, 1)),
    (2, "(3+1*w)", 7, (2, 0, 0)),
    (3, "(1+5*w)", 5, (1, 1, 1)),
    (7, "(1+2*w)", 5, (3, 1, 1)),
    (11, "(1-2*w)", 5, (3, 1, 1)),
]


def _build(d, text):
    ctx = field(d)
    return CongCtx(parse_ideal(ctx, text), ctx)


def _random_member(cc, rng, nsteps=5):
    m = Mat2.identity(cc.ctx)
    for _ in range(nsteps):
        _, g = cc.sgens[rng.randrange(len(cc.sgens))]
        m = m * (g if rng.random() < 0.5 else g.inv_det_one())
    return m


def test_modulus_validation():
    assert CoefficientModulus(5).q == 5
    with pytest.raises(BadModulus, match="prime >= 5"):
        CoefficientModulus(3)
    with pytest.raises(BadModulus, match="is not prime"):
        CoefficientModulus(6)


def test_h1_dimension_matches_abelianization_oracle():
    """dim H^1 = free rank + number of torsion orders divisible by q."""
    for d, text in [(1, "(2+1*w)"), (2, "(3+1*w)"), (3, "(2)"),
                    (7, "(0+1*w)"), (11, "(1-2*w)")]:
        cc = _build(d, text)
        relmat = dense_rows(row_dicts(cc.relmat), len(cc.sgens))
        rank, torsion = abelian_invariants(relmat, len(cc.sgens))
        for q in (5, 7, 13):
            expected = rank + sum(1 for t in torsion if t % q == 0)
            assert h1(cc, q).dim == expected, (d, text, q)


def test_frozen_dimension_table():
    for d, text, q, (df, dp, du) in FROZEN_DIMS:
        cc = _build(d, text)
        full = h1(cc, q)
        par = parabolic(full)
        uni = unit_invariants(par)
        assert (full.dim, par.dim, uni.dim) == (df, dp, du), (d, text, q)


def test_level_one_gives_ambient_homomorphisms():
    expected = {1: 0, 2: 1, 3: 0, 7: 1, 11: 1}
    for d, dim in expected.items():
        cc = _build(d, "(1)")
        assert h1(cc, 5).dim == dim
        assert len(cusps(cc)) == 1


def test_prime_levels_have_two_cusps():
    for d, text in [(1, "(2+1*w)"), (1, "(3)"), (2, "(3+1*w)"),
                    (3, "(2)"), (7, "(1+2*w)"), (11, "(0+1*w)")]:
        cc = _build(d, text)
        assert len(cusps(cc)) == 2
        cl = cusps_by_divisors(cc)
        assert len(cl) == 2
        (a1, c1), (a2, c2) = (cl[0].a, cl[0].c), (cl[1].a, cl[1].c)
        ok, gamma = cusp_equivalent(cc, a1, c1, a2, c2)
        assert not ok and gamma is None


def test_cusp_equivalence_certificate():
    """Moving a cusp by a group element keeps it equivalent, with witness."""
    rng = random.Random(3)
    cc = _build(2, "(3+1*w)")
    for cusp in cusps_by_divisors(cc):
        for _ in range(5):
            g = _random_member(cc, rng)
            a2 = g.a * cusp.a + g.b * cusp.c
            c2 = g.c * cusp.a + g.d * cusp.c
            ok, gamma = cusp_equivalent(cc, cusp.a, cusp.c, a2, c2)
            assert ok
            assert membership(cc, gamma)


def test_cusp_gmat_carries_infinity_to_the_cusp():
    cc = _build(1, "(2+2*w)")
    for cusp in cusps_by_divisors(cc):
        g = cusp.gmat
        assert g.det().is_one()
        assert g.a == cusp.a and g.c == cusp.c


def test_parabolic_subspace_is_contained_and_vanishes_on_widths():
    for d, text, q, _ in FROZEN_DIMS[3:6]:
        cc = _build(d, text)
        full = h1(cc, q)
        par = parabolic(full)
        assert par.dim <= full.dim
        for row in par.basis.arr:
            assert coordinates_in_rowspace(full.basis, row) is not None
        ctx = cc.ctx
        for cusp in cusps_by_divisors(cc):
            gi = cusp.gmat.inv_det_one()
            for mult in (ctx.one, ctx.omega):
                xi = cusp.width_gen * mult
                m = cusp.gmat * Mat2(ctx.one, xi, ctx.zero, ctx.one) * gi
                for i in range(par.dim):
                    coeffs = [1 if j == i else 0 for j in range(par.dim)]
                    assert evaluate(par, coeffs, m) == 0


def test_unit_invariant_classes_are_conjugation_invariant():
    rng = random.Random(7)
    for d, text, q in [(2, "(3+1*w)", 5), (3, "(1+5*w)", 5), (1, "(2+5*w)", 7)]:
        cc = _build(d, text)
        ctx = cc.ctx
        uni = unit_invariants(parabolic(h1(cc, q)))
        if ctx.d in (1, 3):
            u0 = ctx.omega
        else:
            u0 = ctx.zero - ctx.one
        u0i = next(u for u in ctx.units if (u0 * u).is_one())
        for i in range(uni.dim):
            coeffs = [1 if j == i else 0 for j in range(uni.dim)]
            for _ in range(10):
                m = _random_member(cc, rng)
                conj = Mat2(m.a, u0 * m.b, u0i * m.c, m.d)
                assert membership(cc, conj)
                assert evaluate(uni, coeffs, conj) == evaluate(uni, coeffs, m)


def test_unit_invariants_idempotent():
    for d, text, q, _ in FROZEN_DIMS[:4]:
        cc = _build(d, text)
        par = parabolic(h1(cc, q))
        uni = unit_invariants(par)
        again = unit_invariants(uni)
        assert again.basis == uni.basis
        assert again.kind == uni.kind


def test_kind_guards():
    cc = _build(1, "(2+1*w)")
    full = h1(cc, 5)
    with pytest.raises(ValueError):
        parabolic(parabolic(full))
    with pytest.raises(ValueError):
        unit_invariants(full)


def test_unit_operator_is_an_involution_power():
    """Conjugation by diag(u0, 1) has finite order on the parabolic space."""
    from bianchicoh.modlinalg import MatQ
    from oracles import matpow

    for d, text, q in [(2, "(3+1*w)", 5), (11, "(1-2*w)", 5)]:
        cc = _build(d, text)
        par = parabolic(h1(cc, q))
        op = unit_conjugation_operator(par)
        order = len(cc.ctx.units) // 2 if cc.ctx.d in (1, 3) else 2
        assert matpow(op, order) == MatQ.identity(q, par.dim)


# parabolic levels of the unit-operator check, beyond FROZEN_DIMS
UNIT_LEVELS = [
    (1, "(5+2*w)", 7),
    (2, "(9+11*w)", 5),
    (2, "(23)", 5),
    (3, "(23)", 5),
    (11, "(3)", 5),
]


def test_unit_operator_equals_the_descent_oracle():
    """The one-representative letter table gives the expressed conjugates."""
    checked = 0
    for d, text, q in [(d, t, q) for d, t, q, _ in FROZEN_DIMS] + UNIT_LEVELS:
        cc = _build(d, text)
        full = h1(cc, q)
        for space in (full, parabolic(full)):
            if space.dim:
                got = unit_conjugation_operator(space)
                assert got == oracles.unit_conjugation_operator(space), (
                    d, text, q, space.kind)
                checked += 1
    assert checked >= 15


def test_unit_letter_table_is_built_once_per_field_and_certified(monkeypatch):
    for d in (1, 2, 3, 7, 11):
        ctx = field(d)
        table = unit_letter_table(ctx)
        assert unit_letter_table(field(d)) is table
        assert len(table) == 1
        assert {k for k, _ in table[0].values()} == {0}
    descent = schreier.matrix_to_word

    def one_letter_too_many(m, p):
        return descent(m, p) + [(p.s_id, 1)]

    monkeypatch.setattr(schreier, "matrix_to_word", one_letter_too_many)
    with pytest.raises(ConstructionFailure):
        unit_letter_table.__wrapped__(field(2))


def test_evaluate_is_a_homomorphism():
    rng = random.Random(11)
    cc = _build(7, "(1+2*w)")
    full = h1(cc, 5)
    coeffs = [rng.randrange(5) for _ in range(full.dim)]
    for _ in range(15):
        m1 = _random_member(cc, rng)
        m2 = _random_member(cc, rng)
        v = (evaluate(full, coeffs, m1) + evaluate(full, coeffs, m2)) % 5
        assert evaluate(full, coeffs, m1 * m2) == v


def test_dimensions_stable_under_tree_permutation_and_cusp_substitution():
    rng = random.Random(13)
    for d, text, q, dims in FROZEN_DIMS[2:5]:
        ctx = field(d)
        n = parse_ideal(ctx, text)
        cc2 = CongCtx(n, ctx, move_order="reversed")
        full2 = h1(cc2, q)
        par2 = parabolic(full2)
        uni2 = unit_invariants(par2)
        assert (full2.dim, par2.dim, uni2.dim) == dims, (d, text, "reversed")
        # the cusp oracle on translated representatives: same subspace
        cc = CongCtx(n, ctx)
        full = h1(cc, q)
        moved = []
        for cusp in cusps_by_divisors(cc):
            g = _random_member(cc, rng)
            a2 = g.a * cusp.a + g.b * cusp.c
            c2 = g.c * cusp.a + g.d * cusp.c
            moved.append(Cusp(a2, c2, g * cusp.gmat, colon_square(n, c2)))
        assert parabolic_by_cusps(full, moved).basis == parabolic(full).basis


def test_unit_conjugation_on_a_zero_space_evaluates_nothing(monkeypatch):
    cc = _build(1, "(3)")
    par = parabolic(h1(cc, 5))
    assert par.dim == 0

    def no_express(self, m):
        raise AssertionError("express ran on a zero-dimensional space")

    monkeypatch.setattr(schreier.CongCtx, "express", no_express)
    op = unit_conjugation_operator(par)
    assert op.nrows == 0 and op.ncols == 0


def test_parabolic_equals_the_cusp_oracle():
    """Translation orbits match the subspace and count of cusps_by_divisors."""
    cases = [(d, n, 5) for d in (1, 2, 3, 7, 11)
             for n in enumerate_ideals(field(d), 60)]
    cases += [(d, parse_ideal(field(d), text), q)
              for d, text, q, _ in FROZEN_DIMS if q != 5]
    for d, n, q in cases:
        cc = CongCtx(n, field(d))
        full = h1(cc, q)
        assert parabolic(full).basis == parabolic_by_cusps(full).basis, (
            d, str(n), q)
        assert len(cusps(cc)) == len(cusps_by_divisors(cc)), (d, str(n))
    assert len(cases) > 250


def _level_5_orbits():
    cc = _build(2, "(5)")
    orbits = cusps(cc)
    # the second orbit's loops are t^5 and u^5; the first's have length 1
    assert [(len(a), len(b)) for _, a, b in orbits] == [(1, 1), (5, 5)]
    return cc, orbits


def test_mutated_cusp_loops_do_not_close(monkeypatch):
    """A loop one letter short or one t too long is caught by its walk."""
    cc, orbits = _level_5_orbits()
    full = h1(cc, 5)
    t = (cc.pres.t_id, 1)
    x, loop_t, loop_u = orbits[1]
    mutants = [(loop_t[1:], loop_u), (loop_t, loop_u[:-1]),
               (loop_t + [t], loop_u), (loop_t, loop_u + [t])]
    for a, b in mutants:
        monkeypatch.setattr(cohom, "cusps", lambda cc: [orbits[0], (x, a, b)])
        with pytest.raises(ConstructionFailure):
            parabolic(full)


def test_skipping_an_orbit_changes_the_basis(monkeypatch):
    cc, orbits = _level_5_orbits()
    full = h1(cc, 5)
    basis = parabolic(full).basis
    for skip in range(len(orbits)):
        kept = [o for i, o in enumerate(orbits) if i != skip]
        monkeypatch.setattr(cohom, "cusps", lambda cc: kept)
        assert parabolic(full).basis != basis, skip
