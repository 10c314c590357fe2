"""Degeneracy maps between cohomology at level n and level n*p.

Both maps evaluate a level-n class on the Schreier generators of the
level-n*p group: the plain restriction walks each generator's word in
the ambient letters through the level-n coset table (the walk must
close), the twisted variant conjugates the generators by diag(pi, 1)
first, which divides the lower-left entry by pi and so lands back at
level n, and expresses them there.  The combined
map alpha stacks the two; its kernel is the object the Hecke checks
constrain.  All maps act on coordinate row vectors: a class with
coordinates x in the domain basis maps to x @ mat in the codomain basis.
"""

from __future__ import annotations

import numpy as np

from .cohom import CohomSubspace
from .errors import (
    BadModulus,
    FieldMismatch,
    LevelMismatch,
    NonIntegralConjugate,
    ProjectionFailure,
    ShapeMismatch,
)
from .ideals import PIdeal
from .modlinalg import (
    MatQ,
    left_kernel,
    mulmod,
    project_rows,
    rank,
    sparse_values,
)
from .qfield import Mat2, QuadInt, exact_div


class LinMap:
    """Linear map between subspace coordinates, rows = images of basis.

    mat has copies * domain.dim rows and codomain.dim columns; copies
    is 1 for the plain maps and 2 for the stacked map alpha, whose
    domain is a pair of classes with concatenated coordinates.
    """

    __slots__ = ("domain", "codomain", "mat", "copies")

    def __init__(
        self,
        domain: CohomSubspace,
        codomain: CohomSubspace,
        mat: MatQ,
        copies: int = 1,
    ):
        if copies not in (1, 2):
            raise ShapeMismatch(f"unsupported domain multiplicity {copies}")
        if mat.nrows != copies * domain.dim:
            raise ShapeMismatch(
                f"{mat.nrows} rows vs {copies} copies of the "
                f"{domain.dim}-dim domain"
            )
        if mat.ncols != codomain.dim:
            raise ShapeMismatch(
                f"{mat.ncols} columns vs {codomain.dim}-dim codomain"
            )
        if domain.q.q != codomain.q.q or mat.q != domain.q.q:
            raise BadModulus("domain, codomain and matrix moduli must agree")
        self.domain = domain
        self.codomain = codomain
        self.mat = mat
        self.copies = copies

    def apply(self, coords) -> np.ndarray:
        """Image coordinates of a domain coordinate row vector."""
        q = self.mat.q
        vec = np.mod(np.asarray(coords, dtype=np.int64), q)
        if vec.shape != (self.mat.nrows,):
            raise ShapeMismatch(f"expected {self.mat.nrows} coordinates")
        return mulmod(vec, self.mat.arr, q)

    def compose(self, then: LinMap) -> LinMap:
        """This map followed by `then`."""
        if then.copies != 1 or then.domain.dim != self.codomain.dim:
            raise ShapeMismatch("composition domains do not line up")
        return LinMap(
            self.domain, then.codomain, self.mat @ then.mat, self.copies
        )

    def rank(self) -> int:
        return rank(self.mat)

    def to_json_dict(self) -> dict:
        return {
            "q": self.mat.q,
            "domain": {
                "level": str(self.domain.cc.level),
                "kind": self.domain.kind,
                "dim": self.domain.dim,
                "copies": self.copies,
            },
            "codomain": {
                "level": str(self.codomain.cc.level),
                "kind": self.codomain.kind,
                "dim": self.codomain.dim,
            },
            "mat": self.mat.to_lists(),
        }

    def __repr__(self):
        return (
            f"LinMap({self.copies}x{self.domain.dim} -> {self.codomain.dim}, "
            f"q={self.mat.q})"
        )


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


def _map_from_values(src: CohomSubspace, dst: CohomSubspace, ev_rows) -> LinMap:
    """LinMap whose rows are src-basis images given by evaluation rows.

    ev_rows[k] holds the sparse exponents, over src Schreier generators,
    of the k-th dst Schreier generator (possibly conjugated); the image
    of a functional is its pairing with those rows, projected to dst
    coordinates.
    """
    q = src.q.q
    if src.dim == 0:
        return LinMap(src, dst, MatQ(q, np.zeros((0, dst.dim), dtype=np.int64)))
    images = sparse_values(src.basis, ev_rows)  # row j = values on dst sgens
    coords, bad = project_rows(dst.basis, images.arr)
    if bad is not None:
        raise ProjectionFailure(
            "degeneracy image escapes the destination subspace; "
            "this indicates a bug"
        )
    return LinMap(src, dst, MatQ(q, coords))


def restriction_map(src: CohomSubspace, dst: CohomSubspace) -> LinMap:
    """Plain restriction from level n to level n*p.

    Every generator of the smaller group already lies in the level-n
    group, so its stored word is rewritten by the src coset table (the
    walk must close); words for one element differ by relators, which
    every class kills.  Each src basis class is evaluated on the dst
    generators and re-expressed in dst coordinates.  The image is
    required to lie in dst's subspace; escaping it is fatal.
    """
    _check_pair(src, dst)
    ev_rows = [src.cc.rewrite(word.letters) for word, _ in dst.cc.sgens]
    return _map_from_values(src, dst, ev_rows)


def conjugate_by_pgen(m: Mat2, pi: QuadInt) -> Mat2:
    """diag(pi,1) * m * diag(pi,1)^{-1}, requiring pi | lower-left."""
    try:
        c_over = exact_div(m.c, pi)
    except ArithmeticError as exc:
        raise NonIntegralConjugate(
            f"{pi} does not divide the lower-left entry of {m}"
        ) from exc
    return Mat2(m.a, m.b * pi, c_over, m.d)


def twisted_map(src: CohomSubspace, dst: CohomSubspace, pgen: QuadInt) -> LinMap:
    """Restriction twisted by conjugation with diag(pi, 1).

    Each dst generator [a,b;c,d] becomes [a, b*pi; c/pi, d], which has
    lower-left in level n and is evaluated there.  The division is
    exact because c lies in n*p = n*(pi).
    """
    pi = _check_pair(src, dst)
    if not (PIdeal(pgen) == PIdeal(pi)):
        raise LevelMismatch(
            f"({pgen}) is not the prime quotient of the two levels"
        )
    ev_rows = []
    for _, m in dst.cc.sgens:
        ev_rows.append(src.cc.express(conjugate_by_pgen(m, pgen)))
    return _map_from_values(src, dst, ev_rows)


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
