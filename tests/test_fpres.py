"""Finite presentations of SL_2(O_d) and the word/matrix dictionary."""

from __future__ import annotations

import random

import pytest

import bianchicoh.fpres as fpres
from bianchicoh.errors import (
    BadGeneratorId,
    ConstructionFailure,
    NotUnimodular,
    UnsupportedField,
)
from bianchicoh.fpres import (
    Word,
    builtin_presentation,
    matrix_to_word,
    word_to_matrix,
)
from bianchicoh.qfield import Mat2, field
from oracles import abelian_invariants, abelianized_relators, euclid_word

FIELDS = (1, 2, 3, 7, 11)

# abelianizations of SL_2(O_d), written (free rank, tuple of torsion orders)
ABELIANIZATIONS = {
    1: (0, (2, 2)),
    2: (1, (2, 3)),
    3: (0, (3,)),
    7: (1, (4,)),
    11: (1, (3,)),
}


def test_words_reduce_freely():
    w = Word([(0, 1), (1, 1), (1, -1), (0, -1), (2, 1)])
    assert w.letters == ((2, 1),)
    assert len(Word([(0, 1), (0, -1)])) == 0
    assert (w * w.inverse()).letters == ()
    with pytest.raises(ValueError):
        Word([(0, 2)])


def test_relators_evaluate_to_identity():
    for d in FIELDS:
        p = builtin_presentation(field(d))
        ident = Mat2.identity(p.ctx)
        assert p.relators
        for r in p.relators:
            assert word_to_matrix(Word(r), p) == ident


def test_generators_have_determinant_one():
    for d in FIELDS:
        p = builtin_presentation(field(d))
        for _, m in p.generators:
            assert m.det().is_one()


def test_abelianization_matches_known_values():
    for d, expected in ABELIANIZATIONS.items():
        p = builtin_presentation(field(d))
        rows = abelianized_relators(p)
        rank, torsion = abelian_invariants(rows, p.gen_count)
        assert (rank, tuple(torsion)) == expected, d


def test_word_from_str_case_encodes_inverses():
    p = builtin_presentation(field(3))
    w = p.word_from_str("sT")
    assert w.letters == ((p.s_id, 1), (p.t_id, -1))
    assert word_to_matrix(p.word_from_str("ss"), p) == \
        word_to_matrix(p.word_from_str("s"), p) * word_to_matrix(p.word_from_str("s"), p)
    with pytest.raises(BadGeneratorId):
        p.word_from_str("sxq")


def test_matrix_word_round_trip_random():
    rng = random.Random(17)
    for d in FIELDS:
        p = builtin_presentation(field(d))
        for _ in range(150):
            letters = [
                (rng.randrange(p.gen_count), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 12))
            ]
            m = word_to_matrix(Word(letters), p)
            back = Word(matrix_to_word(m, p))
            assert word_to_matrix(back, p) == m
            # the same word as the descent on QuadInt objects
            assert back == euclid_word(m, p)


def _letter_by_letter(w, p):
    out = Mat2.identity(p.ctx)
    for g, e in w:
        _, m = p.generators[g]
        out = out * (m if e == 1 else m.inv_det_one())
    return out


def test_run_length_evaluation_matches_letter_by_letter_product():
    rng = random.Random(31)
    for d in FIELDS:
        p = builtin_presentation(field(d))
        for _ in range(40):
            letters = []
            for _ in range(rng.randrange(1, 6)):
                letter = (rng.randrange(p.gen_count), rng.choice((1, -1)))
                letters += [letter] * rng.randint(1, 50)
            w = Word(letters)
            assert word_to_matrix(w, p) == _letter_by_letter(w, p)


def test_bad_generator_id_inside_a_run_rejected():
    p = builtin_presentation(field(2))
    bad = p.gen_count
    with pytest.raises(BadGeneratorId):
        word_to_matrix(Word([(p.t_id, 1)] * 3 + [(bad, 1)] * 7), p)
    with pytest.raises(BadGeneratorId):
        word_to_matrix(Word([(-1, -1)] * 4), p)


def test_matrix_to_word_requires_determinant_one():
    ctx = field(1)
    p = builtin_presentation(ctx)
    bad = Mat2(ctx.element(2), ctx.zero, ctx.zero, ctx.one)
    with pytest.raises(NotUnimodular):
        matrix_to_word(bad, p)
    bad = Mat2(ctx.element(2), ctx.one, ctx.element(3), ctx.one)
    with pytest.raises(NotUnimodular):  # determinant -1, with a descent
        matrix_to_word(bad, p)


def test_unit_word_table_is_checked_once_per_field(monkeypatch):
    for d in FIELDS:
        ctx = field(d)
        p = builtin_presentation(ctx)
        assert sorted(p.unit_words) == sorted((u.a, u.b) for u in ctx.units)
        for u in ctx.units:
            diag = Mat2(u, ctx.zero, ctx.zero, u.conjugate())
            assert word_to_matrix(Word(p.unit_words[(u.a, u.b)]), p) == diag
    real = fpres._unit_diag_letters

    def corrupted(p, u):
        letters = real(p, u)
        return letters[:-1] if len(letters) > 1 else letters

    monkeypatch.setattr(fpres, "_unit_diag_letters", corrupted)
    for d in FIELDS:
        with pytest.raises(ConstructionFailure):
            fpres.builtin_presentation.__wrapped__(field(d))


def test_step_product_catches_a_wrong_step(monkeypatch):
    """A quotient that disagrees with its remainder fails the product check."""
    rng = random.Random(19)
    real = fpres.divmod_coords

    def skewed(ctx, a0, a1, b0, b1):
        q0, q1, r0, r1 = real(ctx, a0, a1, b0, b1)
        return q0, q1 + 1, r0, r1

    monkeypatch.setattr(fpres, "divmod_coords", skewed)
    for d in FIELDS:
        p = builtin_presentation(field(d))
        checked = 0
        while checked < 20:
            letters = [
                (rng.randrange(p.gen_count), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 12))
            ]
            m = word_to_matrix(Word(letters), p)
            if m.c.is_zero():
                continue
            with pytest.raises(ConstructionFailure):
                matrix_to_word(m, p)
            checked += 1


def test_unsupported_field_rejected():
    class Fake:
        d = 5

    with pytest.raises(UnsupportedField):
        builtin_presentation(Fake())

