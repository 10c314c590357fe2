"""Reidemeister-Schreier data for Gamma_0(n) inside SL_2(O).

Cosets are identified with P^1(O/n) through the bottom row, the base
coset being (0:1).  A breadth-first spanning tree (moves ordered by
generator id, then inverse moves) fixes a transversal; Schreier
generators sit on the non-tree positive edges.  Rewriting walks letters
through the coset action and collects signed visits to non-tree edges,
which is all that survives abelianization.  Every ambient relator is
walked from every coset, and the walk must close; the rewritten rows
form the relator matrix, kept sparse as one dict {Schreier generator
index: nonzero exponent} per relator and coset, relator-major.  A relator
walk touches a handful of edges, so the rows are short; their mod-q
kernel is the cohomology downstream.

express(m) checks that m lies in Gamma_0(n), takes the certified
letters of fpres.matrix_to_word and walks them from the base coset; the
walk must close.  The letters are not freely reduced, but a letter next
to its inverse visits one edge with opposite signs, so nothing changes.
rewrite and express return the same sparse {index: exponent} dicts as
the relator rows, and consumers pair them with a basis directly.
"""

from __future__ import annotations

from .errors import NotInSubgroup, ZeroModulus
from .fpres import Word, builtin_presentation, matrix_to_word
from .ideals import PIdeal
from .projline import P1Table
from .qfield import FieldCtx, Mat2


class CongCtx:
    """Coset table, transversal, Schreier generators, relator matrix."""

    def __init__(self, level: PIdeal, ctx: FieldCtx, move_order="default"):
        if level.is_zero():
            raise ZeroModulus("congruence level must be nonzero")
        self.level = level
        self.ctx = ctx
        self.pres = builtin_presentation(ctx)
        self.cosets = P1Table(level)
        self._build_tree(move_order)
        self._build_sgens()
        self.relmat = self._build_relmat()

    # -- construction -------------------------------------------------

    def _build_tree(self, move_order):
        p = self.pres
        p1 = self.cosets
        ncos = len(p1)
        gens = list(range(p.gen_count))
        if move_order == "reversed":
            gens.reverse()
        elif move_order != "default":
            raise ValueError(f"unknown move_order {move_order!r}")
        # integer action tables: act[g][0] = right mult by g, [1] by g^-1
        self.act = [(p1.action(p._mats[gid]), p1.action(p._invs[gid]))
                    for gid in range(p.gen_count)]
        base = p1.base_point().index
        self.base = base
        transversal: list = [None] * ncos
        tmats: list = [None] * ncos
        transversal[base] = Word()
        tmats[base] = Mat2.identity(self.ctx)
        tree_pos = set()
        queue = [base]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for gid in gens:
                for e, table in ((1, self.act[gid][0]), (-1, self.act[gid][1])):
                    y = table[x]
                    if transversal[y] is None:
                        transversal[y] = transversal[x] * Word([(gid, e)])
                        m = p._mats[gid] if e == 1 else p._invs[gid]
                        tmats[y] = tmats[x] * m
                        tree_pos.add((x, gid) if e == 1 else (y, gid))
                        queue.append(y)
        if any(t is None for t in transversal):
            raise ZeroModulus("coset graph is disconnected")  # unreachable
        self.transversal = transversal
        self.tmats = tmats
        self._tree_pos = tree_pos

    def _build_sgens(self):
        p = self.pres
        ncos = len(self.cosets)
        sgens = []
        index = {}
        for x in range(ncos):
            for gid in range(p.gen_count):
                if (x, gid) in self._tree_pos:
                    continue
                y = self.act[gid][0][x]
                word = (
                    self.transversal[x]
                    * Word([(gid, 1)])
                    * self.transversal[y].inverse()
                )
                mat = self.tmats[x] * p._mats[gid] * self.tmats[y].inv_det_one()
                index[(x, gid)] = len(sgens)
                sgens.append((word, mat))
        self.sgens = sgens
        self._sgen_index = index
        for _, m in sgens:
            if not self.membership(m):
                raise NotInSubgroup(f"Schreier generator {m} escapes the level")

    def _walk(self, letters, start):
        """Walk letters from a coset; return (end coset, sgen exponents).

        The exponents come as a dict {sgen index: exponent}, which may
        hold zeros where visits cancel.
        """
        vec: dict[int, int] = {}
        pos = start
        for gid, e in letters:
            if e == 1:
                idx = self._sgen_index.get((pos, gid))
                if idx is not None:
                    vec[idx] = vec.get(idx, 0) + 1
                pos = self.act[gid][0][pos]
            else:
                prev = self.act[gid][1][pos]
                idx = self._sgen_index.get((prev, gid))
                if idx is not None:
                    vec[idx] = vec.get(idx, 0) - 1
                pos = prev
        return pos, vec

    def _build_relmat(self):
        rows = []
        ncos = len(self.cosets)
        for r in self.pres.relators:
            for x in range(ncos):
                end, vec = self._walk(r.letters, x)
                if end != x:
                    raise NotInSubgroup("relator walk did not close")
                rows.append({k: v for k, v in vec.items() if v})
        return rows

    # -- queries ------------------------------------------------------

    def membership(self, m: Mat2) -> bool:
        return m.det().is_one() and self.level.contains(m.c)

    def rewrite(self, letters) -> dict[int, int]:
        """Sparse exponents {sgen index: exponent} of a word in Gamma_0(n)."""
        end, vec = self._walk(letters, self.base)
        if end != self.base:
            raise NotInSubgroup("word does not lie in the congruence subgroup")
        return {k: v for k, v in vec.items() if v}

    def express(self, m: Mat2) -> dict[int, int]:
        """Sparse exponents of m in the Schreier generators.

        Raises NotInSubgroup when the lower-left entry escapes the level
        and NotUnimodular when det m != 1.
        """
        if not self.level.contains(m.c):
            raise NotInSubgroup(f"{m} is not in Gamma_0({self.level})")
        return self.rewrite(matrix_to_word(m, self.pres))
