"""Finite presentations of SL_2(O_d) and the word/matrix dictionary.

The generator set is T_1, T_w, S, plus a diagonal unit generator for the
two fields with extra units.  Relator lists for PSL_2 are hard-coded per
field and lifted to SL_2 through the central extension by S^2 = -I: each
PSL relator is evaluated, its sign recorded, and S^{-2} appended when the
product is -I, with S^4 and centrality relators [S^2, g] added once.
Every stored relator is machine-checked to evaluate to the identity, so
a transcription slip fails loudly at construction time.

Words are converted to matrices by multiplication, each run of one
repeated letter taken as a single power, and back by the
Euclidean algorithm on the bottom row: while the lower-left entry is
nonzero, split off a translation power and S^{-1}; the terminal matrix
is upper triangular and decomposes into a diagonal unit and a
translation.
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
from .qfield import FieldCtx, Mat2, QuadInt, euclid_divmod, format_element


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
        self.s_id = self.name_to_id["s"]
        self.t_id = self.name_to_id["t"]
        self.u_id = self.name_to_id["u"]
        self.e_id = self.name_to_id.get("e")

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

    def abelianized_relators(self) -> list[list[int]]:
        """Exponent-sum rows of the relators (columns = generators)."""
        rows = []
        for r in self.relators:
            row = [0] * self.gen_count
            for g, e in r:
                row[g] += e
            rows.append(row)
        return rows


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
    return p


def word_to_matrix(w: Word, p: AmbientPresentation) -> Mat2:
    """Exact product of the letters; each run of one letter is one power."""
    out = Mat2.identity(p.ctx)
    for (g, e), run in groupby(w):
        if not 0 <= g < p.gen_count:
            raise BadGeneratorId(f"generator id {g} out of range")
        out = out * (p._mats[g] if e == 1 else p._invs[g]) ** len(list(run))
    return out


def _translation_letters(p: AmbientPresentation, x: QuadInt) -> list:
    """Letters of T_x = t^a u^b for x = a + b*w."""
    out = []
    if x.a:
        out.extend([(p.t_id, 1 if x.a > 0 else -1)] * abs(x.a))
    if x.b:
        out.extend([(p.u_id, 1 if x.b > 0 else -1)] * abs(x.b))
    return out


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


def matrix_to_word(m: Mat2, p: AmbientPresentation) -> Word:
    """Word in the generators with word_to_matrix(word) = m exactly."""
    if not m.det().is_one():
        raise NotUnimodular(f"determinant {m.det()} != 1")
    letters = []
    cur = m
    while not cur.c.is_zero():
        q, _ = euclid_divmod(cur.a, cur.c)
        letters.extend(_translation_letters(p, q))
        letters.append((p.s_id, -1))
        # cur = T_q S^-1 next, i.e. next = S T_{-q} cur
        nxt = Mat2(-cur.c, -cur.d, cur.a - q * cur.c, cur.b - q * cur.d)
        if nxt.c.norm() >= cur.c.norm():
            raise ConstructionFailure("Euclidean step failed to descend")
        cur = nxt
    u = cur.a
    if not u.is_unit():
        raise NotUnimodular("upper-triangular part is not unimodular")
    letters.extend(_unit_diag_letters(p, u))
    letters.extend(_translation_letters(p, u.conjugate() * cur.b))
    w = Word(letters)
    if word_to_matrix(w, p) != m:
        raise ConstructionFailure(f"round-trip failed for {m}")
    return w


def serialize_presentation(p: AmbientPresentation) -> str:
    """Plain-text audit table: generator matrices and relator words."""
    lines = [f"field d={p.ctx.d}"]
    for name, m in p.generators:
        a, b, c, d = (format_element(x) for x in m.entries())
        lines.append(f"gen {name} = [{a}, {b}; {c}, {d}]")
    for r in p.relators:
        toks = [
            p.names[g] if e == 1 else f"{p.names[g]}^-1" for g, e in r
        ]
        lines.append("rel " + " ".join(toks))
    return "\n".join(lines) + "\n"
