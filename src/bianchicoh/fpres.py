"""Finite presentations of SL_2(O_d) and the word/matrix dictionary.

The generator set is T_1, T_w, S, plus a diagonal unit generator for the
two fields with extra units.  Relator lists for PSL_2 are hard-coded per
field and lifted to SL_2 through the central extension by S^2 = -I: each
PSL relator is evaluated, its sign recorded, and S^{-2} appended when the
product is -I, with S^4 and centrality relators [S^2, g] added once.
Every stored relator is machine-checked to evaluate to the identity, so
a transcription slip fails loudly at construction time.

Words go to coordinate tuples by word_coords, which multiplies the
letters, each run of one repeated letter taken as a single power;
word_to_matrix wraps it into a Mat2.  Matrices go to letters by
matrix_to_word, the Euclidean algorithm on the bottom row run on
integer coordinates: while the lower-left entry is nonzero, split off
T_q S^{-1}, whose product is [[-q, 1], [-1, 0]]; the terminal matrix
is diag(u, u^{-1}) T_x = [[u, u*x], [0, u^{-1}]].  The letters of T_q
are t^a u^b for q = a + b*w, and those of diag(u, u^{-1}) come from a
table that builtin_presentation checks once per field with
word_to_matrix.  So
the product of the closed forms is the value of the letters, and
matrix_to_word checks that product against the input on every call, two
ring products per step, in place of evaluating the word.  The descent,
its determinant check and the product check all run on coordinates;
only the input is a Mat2.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

from .errors import (
    BadGeneratorId,
    ConstructionFailure,
    NotUnimodular,
    UnsupportedField,
)
from .qfield import (
    FieldCtx,
    Mat2,
    QuadInt,
    det_coords,
    divmod_coords,
    mat_mul_coords,
    mat_pow_coords,
)


class Word:
    """Freely reduced word: tuple of (generator-id, exponent +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        out = []
        for g, e in letters:
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {e}")
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
        self.letters = tuple(out)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({list(self.letters)})"


# PSL_2 relator words per field, in the letters t = T_1, u = T_w,
# s = S, e = diagonal unit; uppercase marks an inverse letter.
_PSL_RELATORS = {
    1: [
        "ss",
        "ee",
        "sese",
        "tete",
        "ueue",
        "tststs",
        "useuseuse",
        "tuTU",
        "etEt",
        "euEu",
    ],
    2: ["ss", "tststs", "sUsusUsu", "tuTU"],
    3: [
        "ss",
        "eee",
        "sese",
        "tststs",
        "useuseuse",
        "tuTU",
        "etEu",
        "euEuT",
    ],
    7: ["ss", "tststs", "stUsustUsu", "tuTU"],
    11: ["ss", "tststs", "stUsustUsustUsu", "tuTU"],
}


class AmbientPresentation:
    """Presentation of SL_2(O_d): named generator matrices and relators."""

    def __init__(self, ctx: FieldCtx, generators, relators):
        self.ctx = ctx
        self.generators = list(generators)  # (name, Mat2) pairs
        self.relators = list(relators)
        self.names = [n for n, _ in self.generators]
        self.name_to_id = {n: i for i, n in enumerate(self.names)}
        self._mats = [m for _, m in self.generators]
        self._invs = [m.inv_det_one() for m in self._mats]
        # coordinate tuples (Mat2.coords) of each letter: [e][gid], e = +-1
        self._letter_coords = (None, [m.coords() for m in self._mats],
                               [m.coords() for m in self._invs])
        self.s_id = self.name_to_id["s"]
        self.t_id = self.name_to_id["t"]
        self.u_id = self.name_to_id["u"]
        self.e_id = self.name_to_id.get("e")
        # unit (a, b) -> letters of diag(u, u^-1), filled and checked by
        # builtin_presentation
        self.unit_words: dict[tuple[int, int], tuple] = {}

    @property
    def gen_count(self) -> int:
        return len(self.generators)

    def word_from_str(self, text: str) -> Word:
        letters = []
        for ch in text:
            low = ch.lower()
            if low not in self.name_to_id:
                raise BadGeneratorId(f"unknown generator letter {ch!r}")
            letters.append((self.name_to_id[low], 1 if ch == low else -1))
        return Word(letters)


def _gen_matrices(ctx: FieldCtx) -> list[tuple[str, Mat2]]:
    one, zero, w = ctx.one, ctx.zero, ctx.omega
    t = Mat2(one, one, zero, one)
    u = Mat2(one, w, zero, one)
    s = Mat2(zero, -one, one, zero)
    gens = [("t", t), ("u", u), ("s", s)]
    if ctx.d == 1:
        gens.append(("e", Mat2(w, zero, zero, -w)))
    elif ctx.d == 3:
        wi = w.conjugate()  # = w^-1 since norm(w) = 1
        gens.append(("e", Mat2(wi, zero, zero, w)))
    return gens


@lru_cache(maxsize=None)
def builtin_presentation(ctx: FieldCtx) -> AmbientPresentation:
    """Validated presentation of SL_2(O_d)."""
    if ctx.d not in _PSL_RELATORS:
        raise UnsupportedField(f"no presentation table for d={ctx.d}")
    gens = _gen_matrices(ctx)
    p = AmbientPresentation(ctx, gens, [])
    s_sq_inv = Word([(p.s_id, -1), (p.s_id, -1)])
    ident = Mat2.identity(ctx)
    relators = [Word([(p.s_id, 1)] * 4)]
    for gid in range(p.gen_count):
        if gid == p.s_id:
            continue
        relators.append(
            Word(
                [(p.s_id, 1), (p.s_id, 1), (gid, 1)]
                + [(p.s_id, -1), (p.s_id, -1), (gid, -1)]
            )
        )
    for text in _PSL_RELATORS[ctx.d]:
        w = p.word_from_str(text)
        m = word_to_matrix(w, p)
        if m == ident:
            lifted = w
        elif m == -ident:
            lifted = w * s_sq_inv
        else:
            raise ConstructionFailure(
                f"relator {text!r} for d={ctx.d} evaluates off-center"
            )
        if len(lifted):
            relators.append(lifted)
    p.relators.extend(relators)
    for r in p.relators:
        if word_to_matrix(r, p) != ident:
            raise ConstructionFailure(f"relator {r!r} does not hold in SL_2")
    for _, m in p.generators:
        if not m.det().is_one():
            raise ConstructionFailure("generator with determinant != 1")
    # matrix_to_word reads t^a u^b as T_{a+b*w}, s^-1 as S^-1 and the
    # unit words as diag(u, u^-1)
    one, zero = ctx.one, ctx.zero
    shapes = ((p.t_id, Mat2(one, one, zero, one)),
              (p.u_id, Mat2(one, ctx.omega, zero, one)),
              (p.s_id, Mat2(zero, -one, one, zero)))
    for gid, m in shapes:
        if p._mats[gid] != m:
            raise ConstructionFailure(f"generator {p.names[gid]} is not {m}")
    for u in ctx.units:
        letters = tuple(_unit_diag_letters(p, u))
        if word_to_matrix(Word(letters), p) != Mat2(u, zero, zero, u.conjugate()):
            raise ConstructionFailure(f"unit word for {u} is not diag(u, u^-1)")
        p.unit_words[(u.a, u.b)] = letters
    return p


def word_coords(letters, p: AmbientPresentation) -> tuple:
    """Exact product of the letters as a coordinate tuple (Mat2.coords).

    Each run of one letter is one power (qfield.mat_pow_coords); the
    empty word gives the identity.
    """
    ctx = p.ctx
    out = None
    for (g, e), run in groupby(letters):
        if not 0 <= g < p.gen_count:
            raise BadGeneratorId(f"generator id {g} out of range")
        step = mat_pow_coords(ctx, p._letter_coords[e][g], len(list(run)))
        out = step if out is None else mat_mul_coords(ctx, out, step)
    return out or (1, 0, 0, 0, 0, 0, 1, 0)


def word_to_matrix(w: Word, p: AmbientPresentation) -> Mat2:
    """Exact product of the letters of w as a Mat2 (word_coords)."""
    return Mat2.from_coords(p.ctx, word_coords(w, p))


def _unit_diag_letters(p: AmbientPresentation, u: QuadInt) -> list:
    """Letters of a word evaluating to the diagonal matrix (u, u^-1)."""
    ctx = p.ctx
    if u.is_one():
        return []
    if ctx.d == 1:
        # e = diag(w, -w) with w = i; e^k = diag(i^k, i^-k)
        x = ctx.one
        for k in range(1, 4):
            x = x * ctx.omega
            if x == u:
                return [(p.e_id, 1)] * k
    elif ctx.d == 3:
        # e = diag(w^-1, w); e^-j = diag(w^j, w^-j)
        x = ctx.one
        for j in range(1, 6):
            x = x * ctx.omega
            if x == u:
                k = (-j) % 6
                if k <= 3:
                    return [(p.e_id, 1)] * k
                return [(p.e_id, -1)] * (6 - k)
    elif u == -ctx.one:
        return [(p.s_id, 1), (p.s_id, 1)]
    raise ConstructionFailure(f"no diagonal word for unit {u}")


def matrix_to_word(m: Mat2, p: AmbientPresentation) -> list:
    """Letters (generator id, +-1) of a word whose value is m.

    The list is not freely reduced; Word(list) reduces it.

    Runs the Euclidean descent on coordinates: each step divides a by c
    with divmod_coords, emits the letters of T_q S^{-1} and replaces
    [[a, b], [c, d]] by [[-c, -d], [a - q*c, b - q*d]], which must lower
    the norm of c.  The product of the step matrices [[-q, 1], [-1, 0]]
    and of the tail [[u, u*x], [0, u^{-1}]] is kept alongside and must
    equal m (ConstructionFailure otherwise).

    Raises:
        NotUnimodular: if det m != 1.
    """
    ctx = p.ctx
    nw = ctx.norm_w
    sh = 1 if ctx.shifted else 0
    m_coords = m.coords()
    a0, a1, b0, b1, c0, c1, d0, d1 = m_coords
    if det_coords(ctx, m_coords) != (1, 0):
        raise NotUnimodular(f"determinant {m.det()} != 1")
    t_pos, t_neg = (p.t_id, 1), (p.t_id, -1)
    u_pos, u_neg = (p.u_id, 1), (p.u_id, -1)
    s_inv = (p.s_id, -1)
    # running product [[pa, pb], [pc, pd]] of the step matrices
    pa0, pa1, pb0, pb1, pc0, pc1, pd0, pd1 = 1, 0, 0, 0, 0, 0, 1, 0
    letters: list = []
    nc = c0 * c0 + sh * c0 * c1 + nw * c1 * c1
    while nc:
        q0, q1, r0, r1 = divmod_coords(ctx, a0, a1, c0, c1)
        nr = r0 * r0 + sh * r0 * r1 + nw * r1 * r1
        if nr >= nc:
            raise ConstructionFailure("Euclidean step failed to descend")
        if q0:
            letters += [t_pos if q0 > 0 else t_neg] * abs(q0)
        if q1:
            letters += [u_pos if q1 > 0 else u_neg] * abs(q1)
        letters.append(s_inv)
        # b - q*d is the new lower-right entry
        e0 = b0 - q0 * d0 + nw * q1 * d1
        e1 = b1 - q0 * d1 - q1 * d0 - sh * q1 * d1
        a0, a1, b0, b1, c0, c1, d0, d1 = -c0, -c1, -d0, -d1, r0, r1, e0, e1
        nc = nr
        # [[pa, pb], [pc, pd]] * [[-q, 1], [-1, 0]]
        #     = [[-pa*q - pb, pa], [-pc*q - pd, pc]]
        pa0, pa1, pb0, pb1 = (
            -(pa0 * q0 - nw * pa1 * q1) - pb0,
            -(pa0 * q1 + pa1 * q0 + sh * pa1 * q1) - pb1,
            pa0,
            pa1,
        )
        pc0, pc1, pd0, pd1 = (
            -(pc0 * q0 - nw * pc1 * q1) - pd0,
            -(pc0 * q1 + pc1 * q0 + sh * pc1 * q1) - pd1,
            pc0,
            pc1,
        )
    # the terminal matrix is [[u, b], [0, u^-1]] with u = a
    if a0 * a0 + sh * a0 * a1 + nw * a1 * a1 != 1:
        raise NotUnimodular("upper-triangular part is not unimodular")
    unit_word = p.unit_words.get((a0, a1))
    if unit_word is None:
        raise ConstructionFailure(
            f"no diagonal word for unit {QuadInt(ctx, a0, a1)}")
    letters += unit_word
    # u^-1 = conj(u), units have norm 1; x = u^-1 * b
    i0, i1 = a0 + sh * a1, -a1
    be = i1 * b1
    x0, x1 = i0 * b0 - nw * be, i0 * b1 + i1 * b0 + sh * be
    if x0:
        letters += [t_pos if x0 > 0 else t_neg] * abs(x0)
    if x1:
        letters += [u_pos if x1 > 0 else u_neg] * abs(x1)
    # the tail diag(u, u^-1) T_x = [[u, u*x], [0, u^-1]]
    be = a1 * x1
    tail = (a0, a1, a0 * x0 - nw * be, a0 * x1 + a1 * x0 + sh * be,
            0, 0, i0, i1)
    steps = (pa0, pa1, pb0, pb1, pc0, pc1, pd0, pd1)
    if mat_mul_coords(ctx, steps, tail) != m_coords:
        raise ConstructionFailure(f"step product differs from {m}")
    return letters

