"""Hecke operators, coset decompositions, and the Eisenstein check.

T_l acts through the N(l)+1 explicit right-coset representatives of the
double coset of diag(1, lambda): the upper-triangular [[1, k], [0,
lambda]] over a residue system mod l, plus diag(lambda, 1).  Applying a
class to delta_i * gamma * delta_{sigma(i)}^{-1} and summing realizes
the operator on functionals.

The representatives are built and certified once per prime
(_prime_cosets), and hecke_cosets(l, level) only checks that l is prime
and coprime to the level.  The certificate is the kernel-line lemma
(_check_kernel_lines): if delta_i = gamma * delta_j with gamma in
GL_2(O), then gamma is invertible mod lambda, so delta_i and delta_j
kill the same line of (O/lambda)^2.  The lines are (-k : 1) for
[[1, k], [0, lambda]] and (1 : 0) for diag(lambda, 1); each is checked
to be killed by its representative, and the N(l)+1 lines to be
pairwise distinct.  So no two representatives share a right coset of
GL_2(O), nor of any level group inside it, in O(N(l)) steps.

_locate reads the coset of x off x mod lambda (k = b/a, or d/c, or
diag(lambda, 1)), with inverses mod lambda from a table built on first
use by one batch inversion (ideals.inverses_mod), and certifies the one
candidate by an exact division that lands in the level group
(_quotient_in_gamma0).  Both run on 8-int coordinate tuples
(Mat2.coords).

The representatives and the coset read off x mod lambda do not depend
on the level, so T_l is driven by a level-one letter table, built
lazily and kept once per prime: for each representative delta_j and
each ambient letter g^{+-1}, delta_j g^{+-1} = W delta_k, with k and W
located on coordinates and W kept as the letters of
fpres.matrix_to_word (schreier.letter_table).  Each entry is certified
once: the exact-division locator, the step-product check of the
descent, word_to_matrix of the letters equals W, W delta_k equals
delta_j g^{+-1}, and each letter permutes the indices j.

cohom.letter_table_operator pushes the table along the Schreier tree
(CongCtx.push_letter_table) and evaluates T_l with no matrix arithmetic
per Schreier generator.  Each call certifies that every quotient walk
closes, which puts the quotient in Gamma_0(n); that sigma is a
bijection; and that every image projects back onto the basis
(ProjectionFailure otherwise).  The twisted degeneracy map
(degmaps.twisted_map) reads the same table for l = p, following only
its last representative diag(lambda, 1).

The Eisenstein check asks whether T_l - (N(l)+1) is nilpotent on a
stable subspace for ray-trivial l, which is the finite-level meaning of
"supported on Eisenstein maximal ideals only".
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
    NotStable,
    PermutationFailure,
    ShapeMismatch,
)
from .fpres import builtin_presentation
from .ideals import (
    PIdeal,
    ResidueSystem,
    format_ideal,
    inverses_mod,
    prime_residue_reps_in_ideal,
    primes_by_norm,
)
from .modlinalg import MatQ, block_diag2, project_rows, rref
from .qfield import Mat2, QuadInt, divmod_coords, xgcd
from .schreier import letter_table


class HeckeCosets:
    """Right-coset representatives for the double coset of diag(1, l).

    reps[k] = [1, k-th residue; 0, lambda] in the order of `residues`,
    and reps[-1] = diag(lambda, 1); coords holds their coordinate tuples
    (Mat2.coords), which the locator reads.  inverse[i] is the index of
    the inverse mod lambda of the i-th residue (None for 0); it is built
    on first use, by one batch inversion (ideals.inverses_mod).
    """

    __slots__ = ("l", "level", "reps", "coords", "lam", "residues",
                 "_inverse")

    def __init__(self, l: PIdeal, level: PIdeal, reps: list[Mat2],
                 residues: ResidueSystem):
        self.l = l
        self.level = level
        self.reps = reps
        self.coords = [m.coords() for m in reps]
        self.lam = l.gen
        self.residues = residues
        self._inverse = None

    @property
    def inverse(self) -> list:
        if self._inverse is None:
            res = self.residues
            units = [x for x in res.reps if not x.is_zero()]
            pairs = inverses_mod(self.l, [(x.a, x.b) for x in units])
            inverse = [None] * len(res)
            for x, (a, b) in zip(units, pairs):
                inverse[res.index(x)] = res.index(QuadInt(self.l.ctx, a, b))
            self._inverse = inverse
        return self._inverse

    def __len__(self):
        return len(self.reps)

    def __repr__(self):
        return f"HeckeCosets(l={self.l}, {len(self.reps)} reps)"


def _quotient_in_gamma0(x: tuple, delta: tuple, lam: QuadInt, level: PIdeal):
    """x * delta^{-1} when it lands in the unit-det level group, else None.

    x and delta are coordinate tuples (Mat2.coords), and so is the
    result; delta is a representative of hecke_cosets.  For
    [[1, k], [0, lambda]] the quotient is [[a, (b - a*k)/lambda],
    [c, (d - c*k)/lambda]], and for diag(lambda, 1) it is
    [[a/lambda, b], [c/lambda, d]], so only two entries are divided
    (divmod_coords); both divisions must be exact.
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
    ad, bc = a1 * d1, b1 * c1
    e0 = a0 * d0 - b0 * c0 - nw * (ad - bc)
    e1 = a0 * d1 + a1 * d0 - b0 * c1 - b1 * c0 + sh * (ad - bc)
    if e0 * e0 + sh * e0 * e1 + nw * e1 * e1 != 1:
        return None
    lp, lq, lr = level.hnf()
    k, rem = divmod(c1, lr)
    if rem or (c0 - k * lq) % lp:
        return None
    return (a0, a1, b0, b1, c0, c1, d0, d1)


def _check_kernel_lines(l: PIdeal, coords: list[tuple]) -> None:
    """Certify that the representatives lie in distinct right cosets.

    Kernel-line lemma: take delta_i = gamma * delta_j with gamma in
    GL_2(O).  Then gamma is invertible mod lambda, so delta_i and
    delta_j kill the same line of (O/lambda)^2.  So representatives
    whose kernel lines mod lambda are pairwise distinct lie in distinct
    right cosets of GL_2(O), and hence of every level group contained
    in it, at every level at once.

    The line of each representative comes from its first row that is
    nonzero mod lambda, (x, y) -> (-y : x), normalized to (-y/x : 1) or
    (1 : 0).  It is certified by delta != 0 and delta * v = 0 (mod
    lambda): over the field O/lambda that makes v span the kernel.  The
    lines must be pairwise distinct (a set) and N(l) + 1 in number.
    ConstructionFailure otherwise.
    """
    ctx = l.ctx
    nw = ctx.norm_w
    sh = 1 if ctx.shifted else 0
    p, q, r = l.hnf()
    zero = (0, 0)

    def red(x0, x1):
        """x0 + x1*w reduced into the box of ResidueSystem(l)."""
        k = x1 // r
        return (x0 - k * q) % p, x1 - k * r

    def mul(x, y):
        be = x[1] * y[1]
        return red(x[0] * y[0] - nw * be, x[0] * y[1] + x[1] * y[0] + sh * be)

    if len(coords) != l.norm() + 1:
        raise ConstructionFailure(
            f"expected {l.norm() + 1} representatives, built {len(coords)}"
        )
    lines = set()
    for j, (a0, a1, b0, b1, c0, c1, d0, d1) in enumerate(coords):
        a, b, c, d = red(a0, a1), red(b0, b1), red(c0, c1), red(d0, d1)
        x, y = (a, b) if a != zero or b != zero else (c, d)
        if x != zero:
            xi = (1, 0) if x == (1, 0) else inverses_mod(l, [x])[0]
            v = (mul((-y[0], -y[1]), xi), (1, 0))
        elif y != zero:
            v = ((1, 0), zero)
        else:
            raise ConstructionFailure(f"representative {j} is 0 mod {l}")
        for e, f in ((a, b), (c, d)):
            s, t = mul(e, v[0]), mul(f, v[1])
            if red(s[0] + t[0], s[1] + t[1]) != zero:
                raise ConstructionFailure(
                    f"representative {j} does not kill its line mod {l}"
                )
        if v in lines:
            raise ConstructionFailure(
                f"representative {j} shares its kernel line mod {l}, "
                f"and so its right coset, with an earlier one"
            )
        lines.add(v)


@lru_cache(maxsize=None)
def _prime_cosets(l: PIdeal) -> tuple[ResidueSystem, list[Mat2]]:
    """Residues and certified representatives of T_l, once per prime.

    The representatives are certified by _check_kernel_lines, which
    proves at every level what a pairwise coset check would.
    """
    residues = ResidueSystem(l)
    l0, l1 = l.gen.a, l.gen.b
    coords = [(1, 0, k.a, k.b, 0, 0, l0, l1) for k in residues.reps]
    coords.append((l0, l1, 0, 0, 0, 0, 1, 0))
    _check_kernel_lines(l, coords)
    return residues, [Mat2.from_coords(l.ctx, t) for t in coords]


def hecke_cosets(l: PIdeal, level: PIdeal) -> HeckeCosets:
    """The N(l)+1 certified coset representatives for T_l at this level.

    Rejects l when it is not prime or not coprime to the level; the
    representatives themselves are shared by every level (_prime_cosets).
    """
    if not l.is_prime():
        raise NotPrime(f"{l} is not a prime ideal")
    if not l.is_coprime(level):
        raise NotCoprimeToLevel(f"{l} shares a factor with the level {level}")
    residues, reps = _prime_cosets(l)
    return HeckeCosets(l, level, reps, residues)


def _locate(hc: HeckeCosets, x: tuple) -> tuple[int, tuple]:
    """(j, gamma) with x = gamma * reps[j] and gamma in the level group.

    x and gamma are coordinate tuples.  x = [[a, b], [c, d]] lies in the
    coset of [1, k; 0, lambda] exactly when (b, d) = k * (a, c) mod
    lambda, and in that of diag(lambda, 1) exactly when lambda divides a
    and c.  So k = b / a when lambda does not divide a, and k = d / c
    when it divides a but not c; the inverse mod the prime lambda comes
    from the table hc.inverse.  The single candidate is certified by
    exact division; PermutationFailure means x is not in the double
    coset.
    """
    ctx = hc.l.ctx
    nw = ctx.norm_w
    sh = 1 if ctx.shifted else 0
    p, q, r = hc.l.hnf()
    a0, a1, b0, b1, c0, c1, d0, d1 = x

    def index(y0, y1):
        """Residue index of y0 + y1*w in the order of ResidueSystem."""
        k = y1 // r
        return (y1 - k * r) * p + (y0 - k * q) % p

    def ratio(y0, y1, i):
        """Residue index of y / z, with z the residue of index i != 0."""
        zi = hc.inverse[i]
        z0, z1 = zi % p, zi // p
        be = y1 * z1
        return index(y0 * z0 - nw * be, y0 * z1 + y1 * z0 + sh * be)

    i = index(a0, a1)
    if i:
        j = ratio(b0, b1, i)
    else:
        i = index(c0, c1)
        j = ratio(d0, d1, i) if i else len(hc.coords) - 1
    quot = _quotient_in_gamma0(x, hc.coords[j], hc.lam, hc.level)
    if quot is None:
        raise PermutationFailure(
            f"{Mat2.from_coords(ctx, x)} lies in no right coset of T_{hc.l}"
        )
    return j, quot


def gamma01_cosets(levelN: PIdeal, p: PIdeal) -> list[Mat2]:
    """Right-coset representatives of the level-N*p group inside level N.

    The N(p) unipotents [1,0;k,1] with k running over a residue system
    of O/p lying inside N, plus one matrix [s,-t;C,D] with C generating
    N, D generating p, and s*D + t*C = 1.
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
    levelNp = levelN * p
    for i, gi in enumerate(reps):
        if not (gi.det().is_one() and levelN.contains(gi.c)):
            raise ConstructionFailure(f"representative {i} escapes level {levelN}")
        for j, gj in enumerate(reps):
            if i != j and levelNp.contains((gi * gj.inv_det_one()).c):
                raise ConstructionFailure(
                    f"representatives {i} and {j} share a coset at level {levelNp}"
                )
    if len(reps) != p.norm() + 1:
        raise ConstructionFailure(
            f"expected {p.norm() + 1} representatives, built {len(reps)}"
        )
    return reps


@lru_cache(maxsize=None)
def hecke_letter_table(l: PIdeal):
    """Level-one letter table of T_l, built once per prime and field.

    reps[j] * g^{+-1} = W * reps[k] is located by _locate on
    hecke_cosets(l, (1)): the representatives and the index read off x
    mod lambda do not depend on the level.
    """
    hc = hecke_cosets(l, PIdeal(l.ctx.one))
    return letter_table(hc.coords, builtin_presentation(l.ctx),
                        lambda x: _locate(hc, x))


def hecke_matrix(l: PIdeal, space: CohomSubspace) -> LinMap:
    """Matrix of T_l on the given subspace, rows = images of basis.

    The cosets are built and checked at the level of space first, so a
    bad l is rejected; on a zero-dimensional space nothing else runs and
    no letter table is built.
    """
    hecke_cosets(l, space.cc.level)
    q = space.q.q
    if space.dim == 0:
        return LinMap(space, space, MatQ(q, np.zeros((0, 0), dtype=np.int64)))
    coords = letter_table_operator(space, space, hecke_letter_table(l),
                                   "Hecke image")
    return LinMap(space, space, MatQ(q, coords))


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


def _restrict_operator(red: MatQ, opmat: MatQ) -> MatQ:
    """Matrix of an operator restricted to the span of an RREF basis."""
    coords, bad = project_rows(red, (red @ opmat).arr)
    if bad is not None:
        raise NotStable("subspace is not stable under the operator")
    return MatQ(red.q, coords)


def eisenstein_check(t: LinMap, basis: MatQ, l: PIdeal) -> dict:
    """Nilpotency report for T_l - (N(l)+1) on the given stable subspace.

    t is hecke_matrix(l, space).  basis rows live either in space
    coordinates or, for the kernel of the stacked degeneracy map, in
    doubled coordinates on which T_l acts blockwise.  Raises NotStable
    when the subspace escapes.
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
    rmat = _restrict_operator(red, opmat)
    rmat = rmat - MatQ(q, nlp1 * np.eye(dim_b, dtype=np.int64))
    power = MatQ.identity(q, dim_b)
    for e in range(dim_b + 1):
        if power.is_zero():
            report["nilpotency_index"] = e
            return report
        power = power @ rmat
    report["passed"] = False
    report["nilpotency_index"] = None
    return report
