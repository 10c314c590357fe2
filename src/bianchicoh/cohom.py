"""H^1(Gamma_0(n), Z/q), its parabolic and unit-invariant subspaces.

A cohomology class with trivial coefficients is a homomorphism to Z/q,
i.e. a functional on the Schreier generators killing every rewritten
relator; the full space is therefore the right kernel of the relator
matrix mod q.  That matrix is sparse, so the kernel comes from
structured Gaussian elimination (modlinalg.sparse_kernel_basis), with
dense RREF only on what the sparse pass leaves, and every relator row is
checked to vanish on the basis.  A class is evaluated on a matrix by
pairing the sparse exponents that CongCtx.express returns with the
basis (modlinalg.sparse_values); no dense exponent vector is formed.
The parabolic subspace imposes vanishing on the unipotent stabilizer of
every cusp (two conditions per cusp, one for each Z-basis vector of the
width ideal); torsion parts of the stabilizers contribute nothing since
q is coprime to their order.  The unit-invariant subspace is the fixed
space of conjugation by delta = diag(u0, 1) for a generator u0 of the
unit group, which descends the computation from SL_2 to GL_2 level.

letter_table_operator(src, dst, ...) evaluates every operator given by
a level-one letter table (see schreier): the table is pushed along the
dst tree with its quotients walked in the src coset table, the walks
are paired with the src basis and the steps summed along the tree in
one batch, and the images are projected onto the dst basis in one batch
(modlinalg.project_rows).  T_l (hecke) and the unit operator map a
space to itself; the unit table holds the letters of
delta g^{+-1} delta^{-1} for every ambient letter, built once per field
and checked with word_to_matrix, so no Schreier generator is expressed.
The degeneracy maps (degmaps) go from level n to level n*p; LinMap
lives here so that degmaps can import the T_p table from hecke.

Cusps are enumerated exactly: candidates a/c with c running over the
divisors of the level generator and a over lifted invertible residues,
deduplicated with a certificate-producing equivalence test that solves
the stabilizer congruence over units.
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
from .ideals import PIdeal, ResidueSystem, divisors
from .modlinalg import (
    MatQ,
    fixed_space,
    kernel_basis,
    mulmod,
    project_rows,
    rank,
    rref,
    sparse_kernel_basis,
    sparse_values,
)
from .qfield import (
    Mat2,
    QuadInt,
    divides,
    exact_div,
    gcd,
    mat_mul_coords,
    xgcd,
)
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


class Cusp:
    """A cusp a/c with an SL_2 matrix sending infinity to it."""

    __slots__ = ("a", "c", "gmat", "width_gen")

    def __init__(self, a: QuadInt, c: QuadInt, gmat: Mat2, width_gen: QuadInt):
        self.a = a
        self.c = c
        self.gmat = gmat
        self.width_gen = width_gen

    def __repr__(self):
        return f"Cusp({self.a}/{self.c})"


def h1(cc: CongCtx, q) -> CohomSubspace:
    """Full H^1(Gamma_0(level), Z/q) as kernel of the relator matrix."""
    qm = _as_modulus(q)
    basis = sparse_kernel_basis(cc.relmat, len(cc.sgen_edges), qm.q)
    return CohomSubspace(cc, qm, basis, FULL)


# ---------------------------------------------------------------------------
# cusps


def _cusp_gmat(ctx, a: QuadInt, c: QuadInt) -> Mat2:
    g, s, t = xgcd(a, c)
    if not g.is_unit():
        raise ConstructionFailure(f"cusp {a}/{c} is not in lowest terms")
    # rescale so that s*a + t*c = 1 exactly
    gi = g.conjugate()  # g is a unit of norm 1
    s, t = s * gi, t * gi
    return Mat2(a, -t, c, s)


def _lift_coprime(abar: QuadInt, h: PIdeal, c: QuadInt) -> QuadInt:
    """Element congruent to abar mod h and coprime to c."""
    if gcd(abar, c).is_unit():
        return abar
    for k in ResidueSystem(PIdeal(c)).reps:
        cand = abar + k * h.gen
        if gcd(cand, c).is_unit():
            return cand
    raise ConstructionFailure(f"no coprime lift of {abar} mod {h} for {c}")


def cusp_equivalent(cc: CongCtx, a1, c1, a2, c2):
    """Exact equivalence test for two cusps under Gamma_0(level).

    Returns (True, gamma) with a membership-checked certificate mapping
    a1/c1 to a2/c2, or (False, None).  Solves the congruence
    c2*d1*t - c1*d2*t^{-1} = c1*c2*x (mod level) over units t, with x
    recovered by an extended-gcd division.
    """
    ctx = cc.ctx
    gen = cc.level.gen
    zero = ctx.zero
    g1 = _cusp_gmat(ctx, a1, c1)
    g2 = _cusp_gmat(ctx, a2, c2)
    c1c2 = c1 * c2
    for t in ctx.units:
        ti = t.conjugate()  # = t^{-1}, units have norm 1
        lhs = c2 * g1.d * t - c1 * g2.d * ti
        g = gcd(c1c2, gen) if not c1c2.is_zero() else gcd(zero, gen)
        if not divides(g, lhs):
            continue
        big_g = exact_div(gen, g)
        if big_g.is_unit():
            x = zero
        else:
            cq = exact_div(c1c2, g)
            _, s, _ = xgcd(cq, big_g)
            x = s * exact_div(lhs, g)
        b = Mat2(t, x, zero, ti)
        gamma = g2 * b * g1.inv_det_one()
        if not cc.membership(gamma):
            raise ConstructionFailure("cusp certificate escaped the level")
        va = gamma.a * a1 + gamma.b * c1
        vc = gamma.c * a1 + gamma.d * c1
        if va != a2 * t or vc != c2 * t:
            raise ConstructionFailure("cusp certificate moves the wrong cusp")
        return True, gamma
    return False, None


def cusps(cc: CongCtx) -> list[Cusp]:
    """Pairwise inequivalent, exhaustive cusp representatives."""
    ctx = cc.ctx
    n = cc.level
    candidates = [(ctx.one, ctx.zero)]  # infinity
    for div in divisors(n):
        c = div.gen
        h = div.add(PIdeal(exact_div(n.gen, c)))
        for abar in ResidueSystem(h).invertible_reps():
            a = _lift_coprime(abar, h, c)
            candidates.append((a, c))
    out: list[Cusp] = []
    for a, c in candidates:
        if any(cusp_equivalent(cc, a, c, x.a, x.c)[0] for x in out):
            continue
        out.append(Cusp(a, c, _cusp_gmat(ctx, a, c), n.colon_square(c)))
    return out


# ---------------------------------------------------------------------------
# subspaces


def _restrict_rows(space: CohomSubspace, cond_rows, kind) -> CohomSubspace:
    """Subspace of space killing the given sparse condition rows."""
    if not cond_rows:
        return CohomSubspace(space.cc, space.q, space.basis, kind)
    prod = sparse_values(space.basis, cond_rows)
    coords = kernel_basis(prod.transpose())
    newbasis = rref(coords @ space.basis)[0]
    return CohomSubspace(space.cc, space.q, newbasis, kind)


def parabolic(space: CohomSubspace, cusp_list=None) -> CohomSubspace:
    """Classes vanishing on the unipotent stabilizer of every cusp."""
    if space.kind != FULL:
        raise ValueError(f"parabolic expects a full space, got {space.kind}")
    cc = space.cc
    ctx = cc.ctx
    conds = []
    for cusp in cusp_list if cusp_list is not None else cusps(cc):
        gi = cusp.gmat.inv_det_one()
        for mult in (ctx.one, ctx.omega):
            xi = cusp.width_gen * mult
            m = cusp.gmat * Mat2(ctx.one, xi, ctx.zero, ctx.one) * gi
            conds.append(cc.express(m))
    return _restrict_rows(space, conds, PARABOLIC)


def _unit_conj_generator(ctx) -> QuadInt:
    """Generator u0 of the unit group defining the descent operator."""
    if ctx.d in (1, 3):
        return ctx.omega
    return -ctx.one


def letter_table_operator(src: CohomSubspace, dst: CohomSubspace, table,
                          what: str, track=None) -> np.ndarray:
    """Coordinates of f -> (g -> sum_i f(reps[i] g reps[sigma(i)]^{-1})).

    f runs over the src basis, g over the Schreier generators of dst
    and i over track (default: every representative of the table).  Row
    i holds the dst coordinates of the image of src basis class i.  The
    image on T_x g T_y^{-1} is its quotient walks plus S_x - S_y, with
    S_x summed along the dst tree from the step walks
    (dst.cc.push_letter_table).  ProjectionFailure names `what` when an
    image escapes dst.
    """
    cc = dst.cc
    q = src.q.q
    rows, steps = cc.push_letter_table(table, src.cc, track)
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
    return coords


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
    q = space.q.q
    if space.dim == 0:
        return MatQ(q, np.zeros((0, 0), dtype=np.int64))
    coords = letter_table_operator(
        space, space, unit_letter_table(space.cc.ctx), "unit conjugation"
    )
    return MatQ(q, coords)


def unit_invariants(space: CohomSubspace) -> CohomSubspace:
    """Fixed space of the unit conjugation operator (GL_2 descent)."""
    if space.kind not in (PARABOLIC, PARABOLIC_UNIT):
        raise ValueError(
            f"unit_invariants expects a parabolic space, got {space.kind}"
        )
    if space.dim == 0:
        return CohomSubspace(space.cc, space.q, space.basis, PARABOLIC_UNIT)
    op = unit_conjugation_operator(space)
    # op[i] holds the coordinates of U(f_i), so a class a @ basis is fixed
    # exactly when a @ op = a: the left fixed space, i.e. the right fixed
    # space of the transpose.
    fixed = fixed_space(op.transpose())
    newbasis = rref(fixed @ space.basis)[0]
    return CohomSubspace(space.cc, space.q, newbasis, PARABOLIC_UNIT)


def evaluate(space: CohomSubspace, coeffs, m: Mat2) -> int:
    """Value of the class with given basis coordinates on a matrix."""
    q = space.q.q
    vec = np.mod(np.asarray(coeffs, dtype=np.int64), q)
    if vec.shape != (space.dim,):
        raise ValueError(f"expected {space.dim} coordinates")
    values = sparse_values(space.basis, [space.cc.express(m)])
    return int(mulmod(vec, values.arr[:, 0], q))
