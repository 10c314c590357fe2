"""Hecke operators, coset decompositions, and the Eisenstein check.

T_l acts through the N(l)+1 explicit right-coset representatives of the
double coset of diag(1, lambda): the upper-triangular [[1, k], [0,
lambda]] over a residue system mod l, plus diag(lambda, 1).  Applying a
class to delta_i * gamma * delta_{sigma(i)}^{-1} and summing realizes
the operator on functionals.  locate_right_coset reads the coset of x
off x mod lambda (k = b/a, or d/c, or diag(lambda, 1)), with inverses
mod lambda from a table built on first use by one batch inversion
(ideals.inverses_mod), and certifies the one candidate by an exact
division that lands in the level group.
hecke_cosets checks at every level that no two representatives share a
right coset, so no element can lie in two.

The representatives and the coset read off x mod lambda do not depend
on the level, so T_l is driven by a level-one letter table, built
lazily and kept once per prime: for each representative delta_j and
each ambient letter g^{+-1}, delta_j g^{+-1} = W delta_k, with k and W
located on hecke_cosets(l, (1)) and W kept as the letters of
fpres.matrix_to_word (schreier.letter_table).  Each entry is certified
once: the exact-division locator, the step-product check of the
descent, word_to_matrix of the letters equals W, W delta_k equals
delta_j g^{+-1}, and each letter permutes the indices j.

cohom.letter_table_operator pushes the table along the Schreier tree
(CongCtx.push_letter_table) and evaluates T_l with no matrix arithmetic
per Schreier generator.  Each call certifies that every quotient walk
closes, which puts the quotient in Gamma_0(n); that sigma is a
bijection; and that every image projects back onto the basis
(ProjectionFailure otherwise).

The Eisenstein check asks whether T_l - (N(l)+1) is nilpotent on a
stable subspace for ray-trivial l, which is the finite-level meaning of
"supported on Eisenstein maximal ideals only".
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cohom import CohomSubspace, letter_table_operator
from .errors import (
    ConstructionFailure,
    ExhaustedSearch,
    NotCoprimeToLevel,
    NotPrime,
    NotStable,
    PermutationFailure,
    ShapeMismatch,
)
from .degmaps import LinMap
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
from .qfield import Mat2, QuadInt, euclid_divmod, xgcd
from .schreier import letter_table


class HeckeCosets:
    """Right-coset representatives for the double coset of diag(1, l).

    reps[k] = [1, k-th residue; 0, lambda] in the order of `residues`,
    and reps[-1] = diag(lambda, 1).  inverse[i] is the index of the
    inverse mod lambda of the i-th residue (None for 0); it is built on
    first use, by one batch inversion (ideals.inverses_mod).
    """

    __slots__ = ("l", "level", "reps", "lam", "residues", "_inverse")

    def __init__(self, l: PIdeal, level: PIdeal, reps: list[Mat2],
                 residues: ResidueSystem):
        self.l = l
        self.level = level
        self.reps = reps
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


def _gamma0_tilde_member(m: Mat2, level: PIdeal) -> bool:
    """Membership in matrices with unit determinant and lower-left in level."""
    return m.det().is_unit() and level.contains(m.c)


def _divide(e: QuadInt, lam: QuadInt) -> QuadInt | None:
    """e / lambda when the division is exact, else None."""
    q, r = euclid_divmod(e, lam)
    return q if r.is_zero() else None


def _quotient_in_gamma0(x: Mat2, delta: Mat2, lam: QuadInt, level: PIdeal):
    """x * delta^{-1} when it lands in the unit-det level group, else None.

    delta is a representative of hecke_cosets.  For [[1, k], [0, lambda]]
    the quotient is [[a, (b - a*k)/lambda], [c, (d - c*k)/lambda]], and
    for diag(lambda, 1) it is [[a/lambda, b], [c/lambda, d]], so only two
    entries are divided; both divisions must be exact.
    """
    a, b, c, d = x.a, x.b, x.c, x.d
    if delta.a.is_one():
        k = delta.b
        top = _divide(b - a * k, lam)
        if top is None:
            return None
        bottom = _divide(d - c * k, lam)
        if bottom is None:
            return None
        quot = Mat2(a, top, c, bottom)
    else:
        left = _divide(a, lam)
        if left is None:
            return None
        low = _divide(c, lam)
        if low is None:
            return None
        quot = Mat2(left, b, low, d)
    if not _gamma0_tilde_member(quot, level):
        return None
    return quot


def hecke_cosets(l: PIdeal, level: PIdeal) -> HeckeCosets:
    """The N(l)+1 validated coset representatives for T_l at this level."""
    if not l.is_prime():
        raise NotPrime(f"{l} is not a prime ideal")
    if not l.is_coprime(level):
        raise NotCoprimeToLevel(f"{l} shares a factor with the level {level}")
    ctx = l.ctx
    lam = l.gen
    one, zero = ctx.one, ctx.zero
    residues = ResidueSystem(l)
    reps = [Mat2(one, k, zero, lam) for k in residues.reps]
    reps.append(Mat2(lam, zero, zero, one))
    hc = HeckeCosets(l, level, reps, residues)
    if len(reps) != l.norm() + 1:
        raise ConstructionFailure(
            f"expected {l.norm() + 1} representatives, built {len(reps)}"
        )
    for i, di in enumerate(reps):
        for j, dj in enumerate(reps):
            if i == j:
                continue
            if _quotient_in_gamma0(di, dj, lam, level) is not None:
                raise ConstructionFailure(
                    f"representatives {i} and {j} share a right coset"
                )
    return hc


def locate_right_coset(hc: HeckeCosets, x: Mat2) -> tuple[int, Mat2]:
    """Index j and gamma in the level group with x = gamma * reps[j].

    x = [[a, b], [c, d]] lies in the coset of [1, k; 0, lambda] exactly
    when (b, d) = k * (a, c) mod lambda, and in that of diag(lambda, 1)
    exactly when lambda divides a and c.  So k = b / a when lambda does
    not divide a, and k = d / c when it divides a but not c; the inverse
    mod the prime lambda comes from the table hc.inverse.  The single
    candidate is certified by exact division; PermutationFailure means x
    is not in the double coset.
    """
    res = hc.residues
    lam = hc.lam
    a = res.reduce(x.a)
    if not a.is_zero():
        ai = res.reps[hc.inverse[res.index(a)]]
        j = res.index(res.reduce(x.b * ai))
    else:
        c = res.reduce(x.c)
        if c.is_zero():
            j = len(hc.reps) - 1
        else:
            ci = res.reps[hc.inverse[res.index(c)]]
            j = res.index(res.reduce(x.d * ci))
    quot = _quotient_in_gamma0(x, hc.reps[j], lam, hc.level)
    if quot is None:
        raise PermutationFailure(f"{x} lies in no right coset of T_{hc.l}")
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

    reps[j] * g^{+-1} = W * reps[k] is located by locate_right_coset on
    hecke_cosets(l, (1)): the representatives and the index read off x
    mod lambda do not depend on the level.
    """
    hc = hecke_cosets(l, PIdeal(l.ctx.one))
    return letter_table(hc.reps, builtin_presentation(l.ctx),
                        lambda x: locate_right_coset(hc, x))


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
    coords = letter_table_operator(space, hecke_letter_table(l), "Hecke image")
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
