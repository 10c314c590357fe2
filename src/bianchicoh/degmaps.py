"""Degeneracy maps between cohomology at level n and level n*p.

Both maps take the path of T_l: each is one validation of the level
pair plus one call of cohom.letter_table_operator, which pushes a
level-one letter table along the level-n*p tree, walks its quotients
in the level-n coset table (every walk must close), projects the
images onto the destination basis and returns the LinMap (the empty
one on a zero-dimensional source, without building the table).  The
plain restriction is the one-representative identity table; the
twisted map follows the last representative diag(pi, 1) of the T_p
table (the twist-chain lemma in twisted_map).  The combined map alpha
stacks the two; its kernel is the object the Hecke checks constrain.
All maps act on coordinate row vectors: a class with coordinates x in
the domain basis maps to x @ mat in the codomain basis."""

from __future__ import annotations

import numpy as np

from .cohom import CohomSubspace, LinMap, letter_table_operator
from .errors import (
    BadModulus,
    FieldMismatch,
    LevelMismatch,
    ShapeMismatch,
)
from .hecke import hecke_letter_table
from .ideals import PIdeal
from .modlinalg import MatQ, left_kernel
from .qfield import QuadInt, exact_div


def _check_pair(src: CohomSubspace, dst: CohomSubspace) -> QuadInt:
    """Validate a (level n, level n*p) pair; return the prime quotient pi."""
    if src.cc.ctx is not dst.cc.ctx:
        raise FieldMismatch("source and destination live over different fields")
    if src.q.q != dst.q.q:
        raise BadModulus("source and destination moduli differ")
    try:
        pi = exact_div(dst.cc.level.gen, src.cc.level.gen)
    except ArithmeticError as exc:
        raise LevelMismatch(
            f"{src.cc.level} does not divide {dst.cc.level}"
        ) from exc
    if pi.is_unit() or not PIdeal(pi).is_prime():
        raise LevelMismatch(
            f"levels {src.cc.level} and {dst.cc.level} do not differ "
            "by one prime"
        )
    return pi


def restriction_map(src: CohomSubspace, dst: CohomSubspace) -> LinMap:
    """Plain restriction from level n to level n*p.

    Gamma_0(n*p) lies in Gamma_0(n), so the identity table walks each
    dst generator as its own word through the src coset table; the walk
    must close (ConstructionFailure) and the image must lie in dst
    (ProjectionFailure).
    """
    _check_pair(src, dst)
    gens = range(src.cc.pres.gen_count)
    identity = [{(g, e): (0, ((g, e),)) for g in gens for e in (1, -1)}]
    return letter_table_operator(src, dst, lambda: identity,
                                 "restriction image")


def twisted_map(src: CohomSubspace, dst: CohomSubspace) -> LinMap:
    """Restriction twisted by conjugation with delta = diag(pi, 1).

    pi is the canonical generator of the prime quotient of the levels;
    delta is the last representative of the level-one T_p table and the
    only one followed.  Twist-chain lemma: write
    delta T_x = A_x delta_{pi_x} along the dst tree, A_x in SL_2(O).
    For the Schreier generator T_x g T_y^{-1}, with
    delta_{pi_x} g = W delta_k from the table,

        delta T_x g T_y^{-1} delta^{-1}
            = A_x W delta_k delta_{pi_y}^{-1} A_y^{-1}.

    When k = pi_y this is A_x W A_y^{-1}, and its walk from the level-n
    base (A_x ends at e_x, W goes on from there and must end at e_y)
    closes exactly when it lies in Gamma_0(n).  Every generator of
    Gamma_0(n*p) passes both checks: its conjugate is integral, so
    delta_k and delta_{pi_y} share a right coset of SL_2(O), which the
    certified representatives allow only for k = pi_y; and the
    conjugate lies in Gamma_0(n).  So a wrong index (PermutationFailure)
    or an open walk (ConstructionFailure) is a bug, and passing both proves,
    for every generator at once, what dividing its lower-left entry by
    pi and expressing the conjugate at level n proved one at a time.
    """
    p = PIdeal(_check_pair(src, dst))
    return letter_table_operator(src, dst, lambda: hecke_letter_table(p),
                                 "twisted image", [p.norm()])


def alpha(r: LinMap, t: LinMap) -> LinMap:
    """The stacked map (f, g) -> r(f) + t(g) on concatenated coordinates."""
    if r.domain is not t.domain or r.codomain is not t.codomain:
        raise ShapeMismatch("alpha needs maps sharing domain and codomain")
    if r.copies != 1 or t.copies != 1:
        raise ShapeMismatch("alpha combines two single-copy maps")
    mat = MatQ(r.mat.q, np.vstack([r.mat.arr, t.mat.arr]))
    return LinMap(r.domain, r.codomain, mat, copies=2)


def kernel(m: LinMap) -> MatQ:
    """Canonical echelon basis of {x : x @ mat = 0} as rows."""
    return left_kernel(m.mat)
