"""Acceptance battery: eight exact, zero-tolerance checks.

Each test prints exactly one summary line, ACCEPTANCE <k> (<what>): PASS
or FAIL, so a log scrape shows the verdict per criterion.  Run with
pytest -s to see the lines as they happen.  Every comparison below is
exact integer equality; there are no tolerances anywhere.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys

import numpy as np

from bianchicoh.cohom import h1, parabolic, unit_invariants
from bianchicoh.degmaps import alpha, kernel, restriction_map, twisted_map
from bianchicoh.hecke import (
    _locate,
    eisenstein_check,
    gamma01_cosets,
    hecke_cosets,
    hecke_matrix,
    ray_trivial_primes,
)
from bianchicoh.ideals import PIdeal, enumerate_ideals, parse_ideal
from bianchicoh.modlinalg import MatQ, coordinates_in_rowspace
from bianchicoh.fpres import Word, builtin_presentation, matrix_to_word, word_to_matrix
from bianchicoh.projline import P1Table
from bianchicoh.qfield import Mat2, field, parse_element
from bianchicoh.schreier import CongCtx
from oracles import (
    Cusp,
    abelian_invariants,
    brute_p1_count,
    brute_p1_count_fast,
    colon_square,
    cusps_by_divisors,
    dense_rows,
    locate_right_coset,
    parabolic_by_cusps,
)

FIELDS = (1, 2, 3, 7, 11)

# the per-field workhorse configurations: level, auxiliary prime, modulus
A_CONFIGS = {
    1: ("(2+5*w)", "(1+1*w)", 7),
    2: ("(3+1*w)", "(0+1*w)", 5),
    3: ("(1+5*w)", "(1+1*w)", 5),
    7: ("(1+2*w)", "(0+1*w)", 5),
    11: ("(1-2*w)", "(0+1*w)", 5),
}

# expected norms of the five smallest ray-trivial test primes per field
RAY_NORMS = {
    1: [53, 73, 97, 109, 137],
    2: [19, 59, 83, 97, 113],
    3: [25, 43, 79, 97, 103],
    7: [37, 53, 71, 79, 107],
    11: [23, 23, 67, 67, 89],
}

# vacuous-kernel companions: source space is zero, destination is not
B_CONFIGS = {
    1: ("(2+2*w)", "(3)", 5),
    2: ("(2)", "(3+1*w)", 5),
    3: ("(5)", "(1+1*w)", 5),
    7: ("(2)", "(1-2*w)", 5),
    11: ("(2)", "(1-2*w)", 5),
}

# three injectivity configurations per field with a nonzero source
INJECTIVITY_CONFIGS = {
    1: [("(2+5*w)", "(1+1*w)", 7), ("(5+2*w)", "(1+1*w)", 7),
        ("(4+5*w)", "(1+1*w)", 5)],
    2: [("(3+1*w)", "(0+1*w)", 5), ("(3-1*w)", "(0+1*w)", 5),
        ("(2+3*w)", "(0+1*w)", 5)],
    3: [("(1+5*w)", "(1+1*w)", 5), ("(5+1*w)", "(1+1*w)", 5),
        ("(1+6*w)", "(1+1*w)", 7)],
    7: [("(1+2*w)", "(0+1*w)", 5), ("(3-2*w)", "(0+1*w)", 5),
        ("(1-4*w)", "(0+1*w)", 7)],
    11: [("(1-2*w)", "(0+1*w)", 5), ("(5+1*w)", "(0+1*w)", 5),
         ("(1+3*w)", "(0+1*w)", 5)],
}

# commuting prime pairs, both coprime to the A-configuration levels
PRIME_PAIRS = {
    1: ("(3)", "(1+2*w)"),
    2: ("(1+1*w)", "(1-1*w)"),
    3: ("(2)", "(2+1*w)"),
    7: ("(3)", "(1-2*w)"),
    11: ("(2)", "(1+1*w)"),
}


def criterion(num, what):
    """Print one PASS/FAIL line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num} ({what}): FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {num} ({what}): PASS", flush=True)

        return wrapper

    return deco


def _random_member(cc, rng, nsteps=5):
    m = Mat2.identity(cc.ctx)
    for _ in range(nsteps):
        _, g = cc.sgens[rng.randrange(len(cc.sgens))]
        m = m * (g if rng.random() < 0.5 else g.inv_det_one())
    return m


def _layers(ctx, level, q):
    cc = CongCtx(level, ctx)
    full = h1(cc, q)
    par = parabolic(full)
    return cc, full, par, unit_invariants(par)


def _double_block(mat: MatQ) -> MatQ:
    d = mat.nrows
    arr = np.zeros((2 * d, 2 * d), dtype=np.int64)
    arr[:d, :d] = mat.arr
    arr[d:, d:] = mat.arr
    return MatQ(mat.q, arr)


@criterion(1, "Hecke coset partition")
def test_acceptance_1_hecke_partition():
    rng = random.Random(101)
    configs = [(1, "(2+1*w)", "(1+1*w)"), (1, "(2+1*w)", "(3)"),
               (1, "(2+1*w)", "(2-1*w)"), (2, "(3+1*w)", "(0+1*w)"),
               (3, "(1+5*w)", "(2)"), (7, "(1+2*w)", "(0+1*w)"),
               (11, "(1-2*w)", "(0+1*w)")]
    for d, n_text, l_text in configs:
        ctx = field(d)
        n = parse_ideal(ctx, n_text)
        l = parse_ideal(ctx, l_text)
        reps = [Mat2.from_coords(ctx, t) for t in hecke_cosets(l, n)]
        assert len(reps) == l.norm() + 1, (d, l_text)
        # each representative locates itself, so the cosets are disjoint
        for j, rep in enumerate(reps):
            assert locate_right_coset(reps, l.gen, n, rep)[0] == j
        cc = CongCtx(n, ctx)
        mid = Mat2(ctx.one, ctx.zero, ctx.zero, l.gen)
        for _ in range(500):
            x = _random_member(cc, rng, 4) * mid * _random_member(cc, rng, 4)
            # the scan raises unless x lies in exactly one coset
            j, quot = locate_right_coset(reps, l.gen, n, x)
            assert quot * reps[j] == x
            assert _locate(l, x.coords())[0] == j


@criterion(2, "injectivity of the level-raising restriction")
def test_acceptance_2_restriction_injective():
    for d, configs in INJECTIVITY_CONFIGS.items():
        ctx = field(d)
        for n_text, p_text, q in configs:
            n = parse_ideal(ctx, n_text)
            p = parse_ideal(ctx, p_text)
            _, _, _, src = _layers(ctx, n, q)
            assert src.dim >= 1, (d, n_text, q)
            _, _, _, dst = _layers(ctx, n * p, q)
            rmap = restriction_map(src, dst)
            assert kernel(rmap).nrows == 0, (d, n_text, q)
            assert rmap.rank() == src.dim
    # the norm-32 level whose intersection with Z is 8Z: nothing to restrict,
    # so injectivity holds vacuously
    ctx = field(1)
    n = parse_ideal(ctx, "(-4-4*w)")
    assert n.norm() == 32 and n.smallest_rational() == 8
    p = parse_ideal(ctx, "(2+1*w)")
    _, _, _, src = _layers(ctx, n, 7)
    assert src.dim == 0
    _, _, _, dst = _layers(ctx, n * p, 7)
    rmap = restriction_map(src, dst)
    assert rmap.mat.nrows == 0 and kernel(rmap).nrows == 0


@criterion(3, "unipotent conjugation identity and index count")
def test_acceptance_3_conjugation_identity():
    for d in FIELDS:
        ctx = field(d)
        n_text, p_text, _ = A_CONFIGS[d]
        n = parse_ideal(ctx, n_text)
        p = parse_ideal(ctx, p_text)
        cc = CongCtx(n, ctx)
        rng = random.Random(300 + d)
        one, zero = ctx.one, ctx.zero
        done = 0
        while done < 1000:
            gamma = _random_member(cc, rng, 4)
            if not p.contains(gamma.d):
                continue
            k = n.gen * ctx.element(rng.randrange(-3, 4), rng.randrange(-3, 4))
            u = Mat2(one, zero, k, one)
            m = gamma * u * gamma.inv_det_one()
            a, b, c, dd = gamma.a, gamma.b, gamma.c, gamma.d
            # closed form of the conjugated unipotent
            assert m.a == one + b * dd * k
            assert m.b == zero - b * b * k
            assert m.c == dd * dd * k
            assert m.d == one - b * dd * k
            # the displayed identity: conjugating back recovers [1,0;k,1]
            assert gamma.inv_det_one() * m * gamma == u
            # and the conjugate lies one level deeper
            assert m.det().is_one()
            assert (n * p).contains(m.c)
            done += 1
        reps = gamma01_cosets(n, p)
        assert len(reps) == p.norm() + 1, d


@criterion(4, "Eisenstein degeneracy kernel")
def test_acceptance_4_kernel_is_eisenstein():
    for d in FIELDS:
        ctx = field(d)
        n_text, p_text, q = A_CONFIGS[d]
        n = parse_ideal(ctx, n_text)
        p = parse_ideal(ctx, p_text)
        _, _, _, src = _layers(ctx, n, q)
        _, _, dst_par, dst = _layers(ctx, n * p, q)
        assert dst_par.dim >= 1  # parabolic classes exist at the deep level
        rmap = restriction_map(src, dst)
        tmap = twisted_map(src, dst)
        ker = kernel(alpha(rmap, tmap))
        assert ker.nrows == 1, d
        primes = ray_trivial_primes(n, 5, avoid=(p,), max_norm=600)
        assert [l.norm() for l in primes] == RAY_NORMS[d], d
        for l in primes:
            report = eisenstein_check(hecke_matrix(l, src), ker, l)
            assert report["stable"] is True, (d, str(l))
            assert report["passed"] is True, (d, str(l))
            assert report["nilpotency_index"] <= ker.nrows
    # companion configurations where the kernel is empty
    for d in FIELDS:
        ctx = field(d)
        n_text, p_text, q = B_CONFIGS[d]
        n = parse_ideal(ctx, n_text)
        p = parse_ideal(ctx, p_text)
        _, _, _, src = _layers(ctx, n, q)
        assert src.dim == 0, (d, n_text)
        _, dst_full, _, dst = _layers(ctx, n * p, q)
        assert dst_full.dim >= 1, (d, n_text)
        ker = kernel(alpha(restriction_map(src, dst),
                           twisted_map(src, dst)))
        assert ker.nrows == 0
        for l in ray_trivial_primes(n, 5, avoid=(p,), max_norm=600):
            report = eisenstein_check(hecke_matrix(l, src), ker, l)
            assert report["passed"] is True


@criterion(5, "Hecke commutativity and degeneracy equivariance")
def test_acceptance_5_commutativity_equivariance():
    for d in FIELDS:
        ctx = field(d)
        n_text, p_text, q = A_CONFIGS[d]
        n = parse_ideal(ctx, n_text)
        p = parse_ideal(ctx, p_text)
        l1 = parse_ideal(ctx, PRIME_PAIRS[d][0])
        l2 = parse_ideal(ctx, PRIME_PAIRS[d][1])
        assert l1.is_coprime(n * p) and l2.is_coprime(n * p)
        _, _, _, src = _layers(ctx, n, q)
        _, _, _, dst = _layers(ctx, n * p, q)
        t1s = hecke_matrix(l1, src)
        t2s = hecke_matrix(l2, src)
        assert t1s.mat @ t2s.mat == t2s.mat @ t1s.mat, d
        t1d = hecke_matrix(l1, dst)
        t2d = hecke_matrix(l2, dst)
        assert t1d.mat @ t2d.mat == t2d.mat @ t1d.mat, d
        amap = alpha(restriction_map(src, dst), twisted_map(src, dst))
        for ts, td in ((t1s, t1d), (t2s, t2d)):
            lhs = _double_block(ts.mat) @ amap.mat
            rhs = amap.mat @ td.mat
            assert lhs == rhs, d


@criterion(6, "presentation independence of the dimensions")
def test_acceptance_6_invariance():
    rng = random.Random(606)
    for d in FIELDS:
        ctx = field(d)
        n_text, _, q = A_CONFIGS[d]
        n = parse_ideal(ctx, n_text)
        cc, full, par, uni = _layers(ctx, n, q)
        # a permuted spanning-tree construction must not move any dimension
        cc2 = CongCtx(n, ctx, move_order="reversed")
        full2 = h1(cc2, q)
        par2 = parabolic(full2)
        uni2 = unit_invariants(par2)
        assert (full2.dim, par2.dim, uni2.dim) == (full.dim, par.dim, uni.dim)
        # the cusp oracle on substituted representatives gives the same
        # parabolic subspace
        moved = []
        for cusp in cusps_by_divisors(cc):
            g = _random_member(cc, rng, 4)
            a2 = g.a * cusp.a + g.b * cusp.c
            c2 = g.c * cusp.a + g.d * cusp.c
            moved.append(Cusp(a2, c2, g * cusp.gmat, colon_square(n, c2)))
        assert parabolic_by_cusps(full, moved).basis == par.basis
        # containment and idempotence
        for row in par.basis.arr:
            assert coordinates_in_rowspace(full.basis, row) is not None
        for row in uni.basis.arr:
            assert coordinates_in_rowspace(par.basis, row) is not None
        assert unit_invariants(uni).basis == uni.basis


@criterion(7, "projective line counts, word round-trips, homology ranks")
def test_acceptance_7_cross_validation():
    # |P^1(O/n)| against the two element-level oracles
    for d in FIELDS:
        ctx = field(d)
        for n in enumerate_ideals(ctx, 40):
            assert brute_p1_count(n) == brute_p1_count_fast(n), (d, str(n))
        for n in enumerate_ideals(ctx, 200):
            assert len(P1Table(n)) == brute_p1_count_fast(n), (d, str(n))
    # matrix <-> word round-trips
    for d in FIELDS:
        pres = builtin_presentation(field(d))
        rng = random.Random(700 + d)
        for _ in range(1000):
            letters = [
                (rng.randrange(pres.gen_count), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 10))
            ]
            m = word_to_matrix(Word(letters), pres)
            assert word_to_matrix(matrix_to_word(m, pres), pres) == m
    # cohomology dimensions against an integer Smith-form oracle
    levels = {
        1: ["(2+1*w)", "(3)", "(2+2*w)"],
        2: ["(0+1*w)", "(1+1*w)", "(2)"],
        3: ["(2)", "(1+1*w)", "(3+1*w)"],
        7: ["(0+1*w)", "(3)", "(1+2*w)"],
        11: ["(0+1*w)", "(2)", "(1-2*w)"],
    }
    for d, texts in levels.items():
        ctx = field(d)
        for text in texts:
            cc = CongCtx(parse_ideal(ctx, text), ctx)
            relmat = dense_rows(cc.relmat, len(cc.sgens))
            rank, torsion = abelian_invariants(relmat, len(cc.sgens))
            for q in (5, 7):
                expected = rank + sum(1 for t in torsion if t % q == 0)
                assert h1(cc, q).dim == expected, (d, text, q)


@criterion(8, "hypothesis violations are rejected by the interface")
def test_acceptance_8_cli_rejections():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "bianchicoh.cli", *args],
            capture_output=True, text=True, timeout=120,
        )

    r = run("verify", "--field-d", "1", "--level", "(3)",
            "--prime", "(1+2*w)", "--modulus", "5")
    assert r.returncode == 2
    assert 'violates the hypothesis "has a generator greater than 3"' in r.stderr
    r = run("verify", "--field-d", "3", "--level", "(1+1*w)",
            "--prime", "(2)", "--modulus", "5")
    assert r.returncode == 2
    assert 'violates the hypothesis "has a generator greater than 3"' in r.stderr
    r = run("verify", "--field-d", "1", "--level", "(2+1*w)",
            "--prime", "(2+1*w)", "--modulus", "5")
    assert r.returncode == 2
    assert 'violates the hypothesis "p does not divide N"' in r.stderr
    r = run("verify", "--field-d", "1", "--level", "(2+1*w)",
            "--prime", "(1+1*w)", "--modulus", "6")
    assert r.returncode == 2
    assert "modulus 6 is not prime" in r.stderr
    r = run("verify", "--field-d", "1", "--level", "(2+1*w)",
            "--prime", "(1+1*w)", "--modulus", "4")
    assert r.returncode == 2
    assert "must be a prime >= 5" in r.stderr
