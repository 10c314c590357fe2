"""Hecke operators, coset decompositions, and the Eisenstein check.

T_l acts through the N(l)+1 explicit right-coset representatives of the
double coset of diag(1, lambda): the upper-triangular [[1, k], [0,
lambda]] over a residue system mod l, plus diag(lambda, 1).  Applying a
class to delta_i * gamma * delta_{sigma(i)}^{-1} and summing realizes
the operator on functionals.

Every coset certificate and lookup here runs through one rule, the
normalization of P^1(O/l) (projline.p1_table(l).locate), called once
per column of matrices: _coset_points locates one pair (c : d) per
representative, rejects a pair 0 mod l, a repeated point and a wrong
count (N(l)+1 for a prime l), and returns by_point, point index ->
representative index.  It has two callers, the two certificates below;
_locate reads by_point.

The T_l representatives, [[1, k], [0, lambda]] for k over the box of
l.hnf() and diag(lambda, 1), are built as coordinate tuples
(Mat2.coords) and certified once per prime (_prime_cosets) by the
kernel-line lemma (_check_kernel_lines): if delta_i = gamma * delta_j
with gamma in GL_2(O), both kill one line of (O/lambda)^2, which is
(-b : a), or (-d : c) for a top row 0 mod lambda, once delta is nonzero
and singular mod lambda.  So distinct lines give distinct right cosets
at every level, in O(N(l)) steps; hecke_cosets(l, level) only validates
l.  _locate takes a column of matrices, locates all their lines at
once, reads the one candidate j = by_point[line of x] for each by the
same lemma and certifies it by an exact division with a unit
determinant (_quotient_in_gamma0); a matrix 0 mod lambda raises
PermutationFailure.

gamma01_cosets uses the bottom-row lemma (_check_bottom_rows): for
determinant-1 elements of the level N group, gamma_i * gamma_j^{-1}
lies at level N*p iff their bottom rows are one point of P^1(O/p).

T_l is driven by a level-one letter table, built lazily and kept once
per prime: for each representative delta_j and each ambient letter
g^{+-1}, delta_j g^{+-1} = W delta_k (schreier.letter_table).  Only
the forward half is located: delta_j g for every j, one _locate call
per generator, with W kept as the letters of fpres.matrix_to_word.
Each such entry is certified once: the exact-division locator, the
step-product check of the descent, the value of the letters on
coordinates (fpres.word_coords) equals W, W delta_k equals delta_j g,
and each generator permutes the indices j.  The g^{-1} entry of delta_k
is then (j, the inverse letters of W), since delta_k g^{-1} = W^{-1}
delta_j; so (N(l)+1) * gen_count quotients are descended per prime,
half of the entries.

cohom.letter_table_operator evaluates T_l on the generating set S of
the space (CohomSubspace.gens) only, with no matrix arithmetic per
generator: it follows every representative down the tree paths to the
two ends x and y = x * g of each s in S, each node shared by several
paths once, and walks the table entry of g from x; on a
zero-dimensional space it returns the empty map without building the
table.  Each call certifies that every g-walk ends where the path to y
does, which puts the quotient in Gamma_0(n) (the closure lemma in its
docstring); that sigma is a bijection; and that every image projects
back onto the basis on S, which proves it lies in the space
(ProjectionFailure otherwise).  The twisted degeneracy map
(degmaps.twisted_map) reads the same table for l = p, following only
its last representative diag(lambda, 1).

The Eisenstein check asks whether T_l - (N(l)+1) is nilpotent on a
subspace for ray-trivial l, which is the finite-level meaning of
"supported on Eisenstein maximal ideals only".  A subspace that T_l
does not preserve fails the check in its report (stable false); it is
not an error.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cohom import CohomSubspace, LinMap, letter_table_operator
from .errors import (
    ConstructionFailure,
    ExhaustedSearch,
    NotCoprimeToLevel,
    NotPrime,
    PermutationFailure,
    ShapeMismatch,
)
from .fpres import builtin_presentation
from .ideals import (
    PIdeal,
    format_ideal,
    prime_residue_reps_in_ideal,
    primes_by_norm,
)
from .modlinalg import MatQ, block_diag2, project_rows, rref
from .projline import p1_table
from .qfield import Mat2, QuadInt, det_coords, divmod_coords, xgcd
from .schreier import letter_table


def _quotient_in_gamma0(x: tuple, delta: tuple, lam: QuadInt):
    """x * delta^{-1} when it lies in GL_2(O), else None.

    x and delta are coordinate tuples (Mat2.coords), and so is the
    result; delta is a representative of hecke_cosets.  For
    [[1, k], [0, lambda]] the quotient is [[a, (b - a*k)/lambda],
    [c, (d - c*k)/lambda]], and for diag(lambda, 1) it is
    [[a/lambda, b], [c/lambda, d]], so only two entries are divided
    (divmod_coords); both divisions must be exact and the determinant
    must be a unit.  Only the level-one letter tables locate cosets, so
    no level lattice is tested; the name is kept because
    bench/tracing.py counts the calls under it.
    """
    ctx = lam.ctx
    nw = ctx.norm_w
    sh = 1 if ctx.shifted else 0
    l0, l1 = lam.a, lam.b
    a0, a1, b0, b1, c0, c1, d0, d1 = x
    if delta[0] == 1 and delta[1] == 0:
        k0, k1 = delta[2], delta[3]
        be = a1 * k1
        b0, b1, r0, r1 = divmod_coords(
            ctx, b0 - a0 * k0 + nw * be, b1 - a0 * k1 - a1 * k0 - sh * be,
            l0, l1)
        if r0 or r1:
            return None
        be = c1 * k1
        d0, d1, r0, r1 = divmod_coords(
            ctx, d0 - c0 * k0 + nw * be, d1 - c0 * k1 - c1 * k0 - sh * be,
            l0, l1)
    else:
        a0, a1, r0, r1 = divmod_coords(ctx, a0, a1, l0, l1)
        if r0 or r1:
            return None
        c0, c1, r0, r1 = divmod_coords(ctx, c0, c1, l0, l1)
    if r0 or r1:
        return None
    x = (a0, a1, b0, b1, c0, c1, d0, d1)
    e0, e1 = det_coords(ctx, x)
    return x if e0 * e0 + sh * e0 * e1 + nw * e1 * e1 == 1 else None


def _coset_points(l: PIdeal, rows) -> list[int]:
    """by_point[i] = the index of the representative at point i of P^1(O/l).

    rows holds the coordinates (c0, c1, d0, d1) of one pair (c : d) per
    representative, all located at once.  A pair 0 mod l is no point,
    the points must be pairwise distinct, and as many as P^1(O/l) has;
    ConstructionFailure otherwise, in that order, each naming the first
    representative that fails.
    """
    table = p1_table(l)
    pts = table.locate(rows)
    if (pts < 0).any():
        raise ConstructionFailure(
            f"representative {int(np.argmax(pts < 0))} is 0 mod {l}")
    by_point = [None] * len(table)
    for j, i in enumerate(pts.tolist()):
        if by_point[i] is not None:
            raise ConstructionFailure(
                f"representatives {by_point[i]} and {j} share a point of "
                f"P^1(O/{l}), and so a right coset"
            )
        by_point[i] = j
    if pts.size != len(table):
        raise ConstructionFailure(
            f"expected {len(table)} representatives, built {pts.size}"
        )
    return by_point


def _kernel_line(l: PIdeal, xs) -> list[tuple]:
    """(-b : a) for each x = [[a, b], [c, d]] of xs, or (-d : c) when l
    divides a and b.

    It spans the kernel of x mod lambda when x is nonzero and singular.
    """
    ctx = l.ctx
    return [(-d0, -d1, c0, c1) if l.contains(QuadInt(ctx, a0, a1))
            and l.contains(QuadInt(ctx, b0, b1)) else (-b0, -b1, a0, a1)
            for a0, a1, b0, b1, c0, c1, d0, d1 in xs]


def _check_kernel_lines(l: PIdeal, coords) -> list[int]:
    """Certify that the representatives lie in distinct right cosets.

    Kernel-line lemma: take delta_i = gamma * delta_j with gamma in
    GL_2(O).  Then gamma is invertible mod lambda, so delta_i and
    delta_j kill the same line of (O/lambda)^2.  So representatives
    whose kernel lines mod lambda are pairwise distinct lie in distinct
    right cosets of GL_2(O), and hence of every level group contained
    in it, at every level at once.

    The lemma needs each representative nonzero and singular mod lambda,
    so that its kernel is a line.  det in (lambda) says that delta kills
    (-b : a), and a zero top row leaves (-d : c) killed; a P^1 index
    alone would accept I and [[1, 1], [0, 1]].  _coset_points rejects a
    representative 0 mod lambda, a repeated line and a wrong count.
    """
    ctx = l.ctx
    for j, x in enumerate(coords):
        if not l.contains(QuadInt(ctx, *det_coords(ctx, x))):
            raise ConstructionFailure(
                f"representative {j} does not kill its line mod {l}"
            )
    return _coset_points(l, _kernel_line(l, coords))


@lru_cache(maxsize=None)
def _prime_cosets(l: PIdeal) -> tuple[tuple, list[int]]:
    """Certified representatives of T_l and their by_point, once per prime.

    With l.hnf() = (p, q, r), coords[i] = [[1, k], [0, lambda]] for the
    residue k = (i % p) + (i // p)*w of the box, i < N(l) = p*r, and
    coords[-1] = diag(lambda, 1); by_point[i] is the representative
    whose kernel line is point i of P^1(O/l).  Every caller shares both.
    """
    p, _, r = l.hnf()
    l0, l1 = l.gen.a, l.gen.b
    coords = tuple((1, 0, i % p, i // p, 0, 0, l0, l1) for i in range(p * r))
    coords += ((l0, l1, 0, 0, 0, 0, 1, 0),)
    return coords, _check_kernel_lines(l, coords)


def hecke_cosets(l: PIdeal, level: PIdeal) -> tuple:
    """The N(l)+1 certified representatives of T_l, as coordinate tuples.

    Rejects l when it is not prime or not coprime to the level; the
    tuple itself is shared by every level (_prime_cosets).
    """
    if not l.is_prime():
        raise NotPrime(f"{l} is not a prime ideal")
    if not l.is_coprime(level):
        raise NotCoprimeToLevel(f"{l} shares a factor with the level {level}")
    return _prime_cosets(l)[0]


def _locate(l: PIdeal, xs) -> list[tuple[int, tuple]]:
    """(j, gamma) with x = gamma * hecke_cosets(l)[j] and gamma in GL_2(O),
    for each x of xs.

    x and gamma are coordinate tuples.  The one candidate j is by_point
    at the kernel line of x (kernel-line lemma), the lines of all xs
    located at once; each is certified by exact division
    (_quotient_in_gamma0), in order.  PermutationFailure names the first
    x that is not in the double coset, as when x is 0 mod lambda.
    """
    coords, by_point = _prime_cosets(l)
    out = []
    for x, i in zip(xs, p1_table(l).locate(_kernel_line(l, xs)).tolist()):
        quot = (None if i < 0 else
                _quotient_in_gamma0(x, coords[by_point[i]], l.gen))
        if quot is None:
            raise PermutationFailure(
                f"{Mat2.from_coords(l.ctx, x)} lies in no right coset of T_{l}"
            )
        out.append((by_point[i], quot))
    return out


def _check_bottom_rows(levelN: PIdeal, p: PIdeal, reps: list[Mat2]) -> None:
    """Certify reps as the right cosets of the level N*p group in level N.

    Bottom-row lemma: for gamma_i, gamma_j of determinant 1 in the level
    N group, the lower-left entry of gamma_i * gamma_j^{-1} is
    c_i*d_j - d_i*c_j.  It lies in N already, so it lies in N*p iff it
    lies in p (N and p are coprime), iff (c_i : d_i) = (c_j : d_j) in
    P^1(O/p).  So with det = 1 and c in N checked, N(p)+1 distinct
    bottom-row points give all N(p)+1 right cosets.
    """
    for i, g in enumerate(reps):
        if not (g.det().is_one() and levelN.contains(g.c)):
            raise ConstructionFailure(f"representative {i} escapes level {levelN}")
    _coset_points(p, [(g.c.a, g.c.b, g.d.a, g.d.b) for g in reps])


def gamma01_cosets(levelN: PIdeal, p: PIdeal) -> list[Mat2]:
    """Right-coset representatives of the level-N*p group inside level N.

    The N(p) unipotents [1,0;k,1] with k running over a residue system
    of O/p lying inside N, plus one matrix [s,-t;C,D] with C generating
    N, D generating p, and s*D + t*C = 1; certified by their bottom rows
    (_check_bottom_rows), in O(N(p)) steps.
    """
    if not p.is_prime():
        raise NotPrime(f"{p} is not a prime ideal")
    if not p.is_coprime(levelN):
        raise NotCoprimeToLevel(f"{p} divides the level {levelN}")
    ctx = levelN.ctx
    one = ctx.one
    reps = [
        Mat2(one, ctx.zero, k, one)
        for k in prime_residue_reps_in_ideal(p, levelN)
    ]
    big_c, big_d = levelN.gen, p.gen
    g, s, t = xgcd(big_d, big_c)
    if not g.is_one():
        raise ConstructionFailure(
            f"generators of {levelN} and {p} are not coprime"
        )
    reps.append(Mat2(s, -t, big_c, big_d))
    _check_bottom_rows(levelN, p, reps)
    return reps


@lru_cache(maxsize=None)
def hecke_letter_table(l: PIdeal):
    """Level-one letter table of T_l, built once per prime and field.

    reps[j] * g = W * reps[k] is located by _locate (the g^{-1} entries
    are derived by letter_table): the representatives and the index
    read off x mod lambda do not depend on the level.
    """
    return letter_table(_prime_cosets(l)[0], builtin_presentation(l.ctx),
                        lambda xs: _locate(l, xs))


def hecke_matrix(l: PIdeal, space: CohomSubspace) -> LinMap:
    """Matrix of T_l on the given subspace, rows = images of basis.

    l is checked against the level of space first; on a
    zero-dimensional space no letter table is built.
    """
    hecke_cosets(l, space.cc.level)
    return letter_table_operator(space, space, lambda: hecke_letter_table(l),
                                 "Hecke image")


def ray_trivial_unit(l: PIdeal, conductor: PIdeal) -> QuadInt | None:
    """A unit u with u * gen(l) = 1 mod conductor, or None.

    FieldCtx.units lists the powers of a generator, so its second half
    negates its first; units are tried as u, -u for u in the first half,
    which fixes the certificate that findprimes prints.
    """
    lam = l.gen
    units = l.ctx.units
    one = l.ctx.one
    for u in units[: len(units) // 2]:
        for v in (u, -u):
            if conductor.contains(v * lam - one):
                return v
    return None


def ray_trivial_primes(
    levelN: PIdeal,
    count: int,
    avoid=(),
    max_norm: int = 1000,
    conductor: PIdeal | None = None,
) -> list[PIdeal]:
    """The `count` smallest primes trivial in the ray class group.

    A prime (lambda) qualifies when some unit multiple of lambda is
    congruent to 1 modulo the conductor (default: the level itself),
    it does not divide the level, and it is not in `avoid`.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    cond = conductor if conductor is not None else levelN
    shun = set(avoid)
    out = []
    for l in primes_by_norm(levelN.ctx, max_norm):
        if l in shun or not l.is_coprime(levelN):
            continue
        if ray_trivial_unit(l, cond) is None:
            continue
        out.append(l)
        if len(out) == count:
            return out
    raise ExhaustedSearch(
        f"only {len(out)} of {count} ray-trivial primes below norm {max_norm}"
    )


def eisenstein_check(t: LinMap, basis: MatQ, l: PIdeal) -> dict:
    """Nilpotency report for T_l - (N(l)+1) on the span of basis.

    t is hecke_matrix(l, space).  basis rows live either in space
    coordinates or, for the kernel of the stacked degeneracy map, in
    doubled coordinates on which T_l acts blockwise.  A span that T_l
    does not preserve gives stable false and no nilpotency index, and
    so does not pass.
    """
    q = t.mat.q
    d = t.domain.dim
    if basis.ncols == d:
        opmat = t.mat
    elif basis.ncols == 2 * d:
        opmat = block_diag2(t.mat)
    else:
        raise ShapeMismatch(
            f"basis has {basis.ncols} columns, expected {d} or {2 * d}"
        )
    nlp1 = (l.norm() + 1) % q
    red = rref(basis)[0]
    dim_b = red.nrows
    report = {
        "l": format_ideal(l),
        "norm": l.norm(),
        "cosets": l.norm() + 1,
        "stable": True,
        "nilpotency_index": 0,
        "passed": True,
    }
    if dim_b == 0:
        return report
    coords, bad = project_rows(red, (red @ opmat).arr)
    if bad is not None:
        report.update(stable=False, nilpotency_index=None, passed=False)
        return report
    rmat = MatQ(q, coords) - MatQ(q, nlp1 * np.eye(dim_b, dtype=np.int64))
    power = MatQ.identity(q, dim_b)
    for e in range(dim_b + 1):
        if power.is_zero():
            report["nilpotency_index"] = e
            return report
        power = power @ rmat
    report["passed"] = False
    report["nilpotency_index"] = None
    return report
