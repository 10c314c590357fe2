"""H^1(Gamma_0(n), Z/q), its parabolic and unit-invariant subspaces.

A cohomology class with trivial coefficients is a homomorphism to Z/q,
i.e. a functional on the Schreier generators killing every rewritten
relator; the full space is therefore the right kernel of the relator
matrix mod q.  That matrix is sparse, so the kernel comes from
structured Gaussian elimination (modlinalg.sparse_kernel_basis), with
dense RREF only on what the sparse pass leaves, and every relator row is
checked to vanish on the basis.  The parabolic subspace imposes
vanishing on the unipotent stabilizer of every cusp (see below);
torsion parts of the stabilizers contribute nothing since q is coprime
to their order.  The unit-invariant subspace is the fixed space of
conjugation by delta = diag(u0, 1) for a generator u0 of the unit
group, which descends the computation from SL_2 to GL_2 level.

letter_table_operator(src, dst, ...) is the one path from a level-one
letter table (see schreier) to a LinMap: the table is pushed along the
dst tree with its quotients walked in the src coset table, the walks
are paired with the src basis and the steps summed along the tree in
one batch, and the images are projected onto the dst basis in one batch
(modlinalg.project_rows).  The table comes from a callable that is
called only when src is nonzero, so a zero-dimensional source gives the
empty map without building a table.  T_l (hecke) and the unit operator
map a space to itself; the unit table holds the letters of
delta g^{+-1} delta^{-1} for every ambient letter, built once per field
and checked with word_to_matrix, so no Schreier generator is expressed.
The degeneracy maps (degmaps) go from level n to level n*p; LinMap
lives here so that degmaps can import the T_p table from hecke.

The parabolic and unit-invariant subspaces are both cut by one helper
(_cut): the classes a @ basis with a @ M = 0, where M holds the values
of the basis on the cusp conditions, or is U - I for the unit operator
U.

The cusps are read off the coset table (cusps): one per orbit of the
Borel letters t, u (and e) on the cosets.  At the first coset x of an
orbit, the translations T_v with x * T_v = x form a lattice whose
Hermite basis comes from the t-cycle through x and the first return of
u to it; the two basis loops, walked from x, must close and are the two
conditions of that cusp.  The stabilizer lemma in the docstring of
cusps shows that these conditions are all of them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    BadModulus,
    ConstructionFailure,
    ProjectionFailure,
    ShapeMismatch,
)
from .modlinalg import (
    MatQ,
    left_kernel,
    mulmod,
    project_rows,
    rank,
    rref,
    sparse_kernel_basis,
    sparse_values,
)
from .qfield import QuadInt, mat_mul_coords
from .fpres import builtin_presentation
from .schreier import CongCtx, letter_table

FULL = "full"
PARABOLIC = "parabolic"
PARABOLIC_UNIT = "parabolic-unit-invariant"
MODULUS_BOUND = 2**31


class CoefficientModulus:
    """A prime coefficient modulus 5 <= q < 2^31.

    q >= 5 makes q coprime to 6 and to the unit orders; q < 2^31 keeps
    every product of two residues below 2^62, so the int64 linear
    algebra in modlinalg is exact.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 5:
            raise BadModulus(f"modulus must be a prime >= 5, got {q}")
        if q >= MODULUS_BOUND:
            raise BadModulus(
                f"modulus {q} is not below 2^31 = {MODULUS_BOUND}; "
                f"int64 arithmetic mod q is exact only below that bound"
            )
        if any(q % p == 0 for p in range(2, int(q**0.5) + 1)):
            raise BadModulus(f"modulus {q} is not prime")
        self.q = q

    def __repr__(self):
        return f"CoefficientModulus({self.q})"


def _as_modulus(q) -> CoefficientModulus:
    return q if isinstance(q, CoefficientModulus) else CoefficientModulus(q)


class CohomSubspace:
    """A subspace of H^1 as an RREF row basis of functionals on sgens."""

    __slots__ = ("cc", "q", "basis", "kind")

    def __init__(self, cc: CongCtx, q: CoefficientModulus, basis: MatQ, kind):
        self.cc = cc
        self.q = q
        self.basis = basis
        self.kind = kind

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def __repr__(self):
        return (
            f"CohomSubspace({self.kind}, level={self.cc.level}, "
            f"q={self.q.q}, dim={self.dim})"
        )


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


def h1(cc: CongCtx, q) -> CohomSubspace:
    """Full H^1(Gamma_0(level), Z/q) as kernel of the relator matrix."""
    qm = _as_modulus(q)
    basis = sparse_kernel_basis(cc.relmat, len(cc.sgen_edges), qm.q)
    return CohomSubspace(cc, qm, basis, FULL)


# ---------------------------------------------------------------------------
# cusps


def cusps(cc: CongCtx) -> list[tuple[int, list, list]]:
    """One (x, loop_t, loop_u) per cusp of Gamma_0(level).

    The cusps are the orbits of the Borel letters t, u (and e for
    d = 1, 3; S^2 = -I acts trivially) on the cosets, and x is the first
    coset of its orbit.  The v with x * T_v = x form a lattice; in the
    coordinates of v = m + k*w its Hermite basis is (p, 0), (-a, r): p is
    the length of the t-cycle through x, r the least r > 0 with x * u^r
    on that cycle, and that point is x * t^a.  The two loops are the letters of t^p and of
    u^r t^-a; parabolic walks them from x.

    Stabilizer lemma.  T_x T_v T_x^-1 lies in Gamma_0(n) iff x * T_v = x.
    SL_2(O) moves infinity to every cusp (class number one), so every
    cusp of Gamma_0(n) is T_x infinity for some coset x, and T_x infinity,
    T_y infinity are equivalent iff x and y share a Borel orbit.  For
    y = x * b in the orbit of x, b = diag(eps, eps^-1) T_w with eps a unit,
    T_y = gamma T_x b with gamma in Gamma_0(n), so the loop at y on v is
    Gamma_0(n)-conjugate to the loop at x on eps^2 v, and eps^2 v lies in
    the lattice of x.  So a class in H^1, which is a homomorphism,
    vanishes on every unipotent cusp stabilizer iff it vanishes on the
    two loops at one coset per orbit.
    """
    pres = cc.pres
    act = cc.act
    t, u = act[pres.t_id][0], act[pres.u_id][0]
    borel = [t, u]
    if pres.e_id is not None:
        borel.append(act[pres.e_id][0])
    seen = bytearray(len(t))
    out = []
    for x in range(len(t)):
        if seen[x]:
            continue
        seen[x] = 1
        stack = [x]
        while stack:
            y = stack.pop()
            for table in borel:
                z = table[y]
                if not seen[z]:
                    seen[z] = 1
                    stack.append(z)
        # exponent k of every point x * t^k of the t-cycle through x
        cycle = {x: 0}
        y = t[x]
        while y != x:
            cycle[y] = len(cycle)
            y = t[y]
        r, y = 1, u[x]
        while y not in cycle:
            r, y = r + 1, u[y]
        out.append((x, [(pres.t_id, 1)] * len(cycle),
                    [(pres.u_id, 1)] * r + [(pres.t_id, -1)] * cycle[y]))
    return out


# ---------------------------------------------------------------------------
# subspaces


def _cut(space: CohomSubspace, m: MatQ, kind) -> CohomSubspace:
    """The classes a @ space.basis with a @ m = 0, as a subspace."""
    newbasis = rref(left_kernel(m) @ space.basis)[0]
    return CohomSubspace(space.cc, space.q, newbasis, kind)


def parabolic(space: CohomSubspace) -> CohomSubspace:
    """Classes vanishing on the unipotent stabilizer of every cusp.

    Each loop of cusps(cc) is walked from its coset x and must close
    (ConstructionFailure otherwise), which certifies that T_x loop
    T_x^-1 lies in Gamma_0(n).  The word of T_x runs along the tree,
    which crosses no Schreier generator, so the walk's exponents are
    those of T_x loop T_x^-1: one condition row, and the subspace is cut
    by the values of the basis on the rows.
    """
    if space.kind != FULL:
        raise ValueError(f"parabolic expects a full space, got {space.kind}")
    cc = space.cc
    conds = []
    for x, *loops in cusps(cc):
        for letters in loops:
            end, vec = cc._walk(letters, x)
            if end != x:
                raise ConstructionFailure(
                    f"cusp loop at coset {x} did not close")
            conds.append(vec)
    return _cut(space, sparse_values(space.basis, conds), PARABOLIC)


def _unit_conj_generator(ctx) -> QuadInt:
    """Generator u0 of the unit group defining the descent operator."""
    if ctx.d in (1, 3):
        return ctx.omega
    return -ctx.one


def letter_table_operator(src: CohomSubspace, dst: CohomSubspace, table,
                          what: str, track=None) -> LinMap:
    """The map f -> (g -> sum_i f(reps[i] g reps[sigma(i)]^{-1})).

    f runs over the src basis, g over the Schreier generators of dst
    and i over track (default: every representative of the table).  Row
    i holds the dst coordinates of the image of src basis class i.  The
    image on T_x g T_y^{-1} is its quotient walks plus S_x - S_y, with
    S_x summed along the dst tree from the step walks
    (dst.cc.push_letter_table).  table is called for the letter table
    only when src is nonzero; a zero-dimensional src gives the empty map
    at once.  ProjectionFailure names `what` when an image escapes dst.
    """
    q = src.q.q
    if src.dim == 0:
        empty = np.zeros((0, dst.dim), dtype=np.int64)
        return LinMap(src, dst, MatQ(q, empty))
    cc = dst.cc
    rows, steps = cc.push_letter_table(table(), src.cc, track)
    vals = sparse_values(src.basis, rows + steps).arr
    nsg = len(rows)
    # tree[y] = values of S_y, summed from the base in BFS order
    tree = vals[:, nsg:].T.copy()
    for y in cc.tree_order[1:]:
        tree[y] = (tree[y] + tree[cc.tree_edge[y][0]]) % q
    xs = [x for x, _ in cc.sgen_edges]
    ys = [cc.act[gid][0][x] for x, gid in cc.sgen_edges]
    images = (vals[:, :nsg] + tree[xs].T - tree[ys].T) % q
    coords, bad = project_rows(dst.basis, images)
    if bad is not None:
        raise ProjectionFailure(
            f"{what} escapes the subspace; this indicates a bug"
        )
    return LinMap(src, dst, MatQ(q, coords))


@lru_cache(maxsize=None)
def unit_letter_table(ctx):
    """Letter table of conjugation by delta = diag(u0, 1), once per field.

    The one representative is delta, and the entry of g^{+-1} holds the
    letters of delta g^{+-1} delta^{-1}.
    """
    u0 = _unit_conj_generator(ctx)
    ui = u0.conjugate()  # = u0^{-1}, units have norm 1
    delta = (u0.a, u0.b, 0, 0, 0, 0, 1, 0)
    delta_inv = (ui.a, ui.b, 0, 0, 0, 0, 1, 0)
    return letter_table([delta], builtin_presentation(ctx),
                        lambda x: (0, mat_mul_coords(ctx, x, delta_inv)))


def unit_conjugation_operator(space: CohomSubspace) -> MatQ:
    """Matrix of f -> (g -> f(diag(u0,1) g diag(u0,1)^{-1})) on space."""
    ctx = space.cc.ctx
    return letter_table_operator(space, space, lambda: unit_letter_table(ctx),
                                 "unit conjugation").mat


def unit_invariants(space: CohomSubspace) -> CohomSubspace:
    """Fixed space of the unit conjugation operator (GL_2 descent).

    op[i] holds the coordinates of U(f_i), so a class a @ basis is fixed
    exactly when a @ (op - I) = 0.
    """
    if space.kind not in (PARABOLIC, PARABOLIC_UNIT):
        raise ValueError(
            f"unit_invariants expects a parabolic space, got {space.kind}"
        )
    op = unit_conjugation_operator(space)
    return _cut(space, op - MatQ.identity(op.q, op.nrows), PARABOLIC_UNIT)
