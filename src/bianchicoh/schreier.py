"""Reidemeister-Schreier data for Gamma_0(n) inside SL_2(O).

Cosets are identified with P^1(O/n) through the bottom row, the base
coset being (0:1); act[g] holds the integer action tables of each
generator (P1Table.action, one determinant check per table) and of its
inverse, read off as the inverse permutation.  A breadth-first spanning
tree (moves ordered by generator id, then inverse moves) fixes a
transversal T_x; the tree is kept as its BFS order (tree_order, base
first) and the edge into each coset (tree_edge[y] = (parent, letter)),
so T_y = T_parent * letter.
Schreier generators T_x g T_y^{-1} sit on the non-tree positive edges
(sgen_edges).

The construction runs on integer coordinates: each T_x is an 8-int
tuple (Mat2.coords), multiplied along the tree by qfield.mat_mul_coords,
and every Schreier generator is formed on tuples at construction and
certified there: determinant 1 and lower-left entry in the level
lattice, ConstructionFailure otherwise.  The objects are built on first use
only, from tree_edge and the tuples: transversal (Words), the word of
one Schreier generator (sgen_word) and sgens ((Word, Mat2) pairs).
cohom.letter_table_operator reads sgen_word for the generators it
evaluates on; sgens serves only the tests and bench/tracing.py.
Counting generators needs none of them: len(sgen_edges).

Rewriting walks letters through the coset action and
collects signed visits to non-tree edges, which is all that survives
abelianization.  Every walk reads one table per letter, built once with
the generators: moves[gid][e] lists, for every coset, the next coset
and the Schreier generator crossed (-1 on tree edges); the sign is e.
_walk follows the lists for one start coset.  _build_relmat walks every
ambient relator from all cosets at once on the same tables as numpy
arrays; every walk must close (an array equality).  The rewritten rows
form the relator matrix, one per relator and coset, relator-major, kept
as a modlinalg.SparseRows sorted by (row, Schreier generator) key: the
visits are summed per key and zero sums dropped.  A relator walk
touches a handful of edges, so the rows are short; their mod-q kernel
is the cohomology downstream.

express(m) checks that m lies in Gamma_0(n), takes the certified
letters of fpres.matrix_to_word and walks them from the base coset; the
walk must close.  The letters are not freely reduced, but a letter next
to its inverse visits one edge with opposite signs, so nothing changes.
rewrite and express return sparse {index: exponent} dicts, in the
columns of the relator matrix.  No package code calls them; like sgens
they serve the tests and bench/tracing.py.

An operator f -> sum_i f(delta_i gamma delta_{sigma(i)}^{-1}) whose
representatives are permuted by SL_2(O) comes as a level-one letter
table (letter_table): delta_j g^{+-1} = W delta_k, with W given by its
letters, built and certified on coordinate tuples.  Reading the letters
of a word gamma through the table from delta_i gives
delta_i gamma = W_1 ... W_m delta_{sigma(i)}; cohom.letter_table_operator
walks W_1 ... W_m in a coset table with _walk, and the closure of that
walk certifies that the quotient lies in Gamma_0(n).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import fpres
from .errors import (
    ConstructionFailure,
    NotInSubgroup,
    PermutationFailure,
    ZeroModulus,
)
from .fpres import AmbientPresentation, Word, builtin_presentation, matrix_to_word
from .ideals import PIdeal
from .modlinalg import SparseRows
from .projline import P1Table
from .qfield import FieldCtx, Mat2, det_coords, mat_mul_coords


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
        ctx = self.ctx
        ncos = len(p1)
        gens = list(range(p.gen_count))
        if move_order == "reversed":
            gens.reverse()
        elif move_order != "default":
            raise ValueError(f"unknown move_order {move_order!r}")
        # integer action tables: act[g][0] = right mult by g, [1] by g^-1
        self.act = [_with_inverse(p1.action(m)) for m in p._mats]
        moves = [[(gid, 1, self.act[gid][0], p._mats[gid].coords()),
                  (gid, -1, self.act[gid][1], p._invs[gid].coords())]
                 for gid in gens]
        base = p1.index_of(0, 0, 1, 0)
        self.base = base
        # T_x as an 8-int coordinate tuple (Mat2.coords)
        tcoords: list = [None] * ncos
        tcoords[base] = (1, 0, 0, 0, 0, 0, 1, 0)
        tree_pos = set()
        tree_edge: list = [None] * ncos
        queue = [base]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            tx = tcoords[x]
            for pair in moves:
                for gid, e, table, m in pair:
                    y = table[x]
                    if tcoords[y] is None:
                        tcoords[y] = mat_mul_coords(ctx, tx, m)
                        tree_pos.add((x, gid) if e == 1 else (y, gid))
                        tree_edge[y] = (x, (gid, e))
                        queue.append(y)
        if any(t is None for t in tcoords):
            raise ZeroModulus("coset graph is disconnected")  # unreachable
        self._tcoords = tcoords
        self._tree_pos = tree_pos
        # BFS order, base first; tree_edge[y] = (parent, letter into y)
        self.tree_order = queue
        self.tree_edge = tree_edge

    def _build_sgens(self):
        """Number the non-tree positive edges and certify their generators.

        Each T_x g T_y^{-1} is formed on coordinate tuples and must have
        determinant 1 and lower-left entry in the level lattice
        (ConstructionFailure otherwise).
        """
        p = self.pres
        ctx = self.ctx
        ncos = len(self.cosets)
        lp, lq, lr = self.level.hnf()
        tcoords = self._tcoords
        tree_pos = self._tree_pos
        gmats = [m.coords() for m in p._mats]
        coords = []
        edges = []
        # crossed[gid][x]: the Schreier generator on the edge (x, gid), or -1
        crossed = [[-1] * ncos for _ in range(p.gen_count)]
        for x in range(ncos):
            tx = tcoords[x]
            for gid in range(p.gen_count):
                if (x, gid) in tree_pos:
                    continue
                y = self.act[gid][0][x]
                a0, a1, b0, b1, c0, c1, d0, d1 = tcoords[y]
                m = mat_mul_coords(ctx, mat_mul_coords(ctx, tx, gmats[gid]),
                                   (d0, d1, -b0, -b1, -c0, -c1, a0, a1))
                k, rem = divmod(m[5], lr)
                if det_coords(ctx, m) != (1, 0) or rem or (m[4] - k * lq) % lp:
                    raise ConstructionFailure(
                        f"Schreier generator {Mat2.from_coords(ctx, m)} "
                        f"escapes the level"
                    )
                crossed[gid][x] = len(coords)
                edges.append((x, gid))
                coords.append(m)
        self._sgen_coords = coords
        self.sgen_edges = edges  # (x, gid) of each Schreier generator
        # walk tables, one per letter: moves[gid][e] = (next coset, Schreier
        # generator crossed or -1) for every coset; e = -1 indexes the last
        # entry.  Walking g^-1 from y crosses the edge (y * g^-1, gid).
        self._moves = []
        for gid in range(p.gen_count):
            fwd, back = self.act[gid]
            here = crossed[gid]
            self._moves.append(
                (None, (fwd, here), (back, [here[y] for y in back])))

    # -- objects, built on first use ------------------------------------

    @cached_property
    def transversal(self) -> list[Word]:
        """The word of T_x for every coset x, read off the tree."""
        words: list = [None] * len(self.tree_edge)
        words[self.base] = Word()
        for y in self.tree_order[1:]:
            x, letter = self.tree_edge[y]
            words[y] = words[x] * Word([letter])
        return words

    def sgen_word(self, s: int) -> Word:
        """The word T_x g T_y^{-1} of Schreier generator s."""
        x, gid = self.sgen_edges[s]
        words = self.transversal
        return (words[x] * Word([(gid, 1)])
                * words[self.act[gid][0][x]].inverse())

    @cached_property
    def sgens(self) -> list[tuple[Word, Mat2]]:
        """(word, matrix) of every Schreier generator T_x g T_y^{-1}."""
        return [(self.sgen_word(s), Mat2.from_coords(self.ctx, m))
                for s, m in enumerate(self._sgen_coords)]

    def _walk(self, letters, start, vec=None):
        """Walk letters from a coset; return (end coset, sgen exponents).

        Each letter reads its walk table (moves).  The exponents come as
        a dict {sgen index: exponent}, which may hold zeros where visits
        cancel; they are added into vec when one is given.
        """
        if vec is None:
            vec = {}
        moves = self._moves
        pos = start
        for gid, e in letters:
            nxt, crossed = moves[gid][e]
            idx = crossed[pos]
            if idx >= 0:
                vec[idx] = vec.get(idx, 0) + e
            pos = nxt[pos]
        return pos, vec

    def _build_relmat(self) -> SparseRows:
        """Walk every relator from all cosets at once on the walk tables.

        Row r * |P^1| + x is the walk of relator r from coset x, which
        must close, with its visits summed per Schreier generator and the
        zero sums dropped, as rewrite would give them.
        """
        ncos = len(self.cosets)
        nsg = len(self.sgen_edges)
        relators = [r.letters for r in self.pres.relators]
        # the walk tables stacked, one row per letter, and a last row
        # that stays put, which pads the shorter relators
        letters = [(gid, e) for gid in range(self.pres.gen_count)
                   for e in (1, -1)]
        nxt = np.array([self._moves[g][e][0] for g, e in letters]
                       + [list(range(ncos))])
        crossed = np.array([self._moves[g][e][1] for g, e in letters]
                           + [[-1] * ncos])
        sign = np.array([e for _, e in letters] + [0])
        code = {letter: i for i, letter in enumerate(letters)}
        length = max(map(len, relators))
        # codes[t, r * ncos + x]: the letter of step t of relator r
        codes = np.repeat(np.array(
            [[code[x] for x in r] + [len(letters)] * (length - len(r))
             for r in relators]).T, ncos, axis=1)
        start = np.tile(np.arange(ncos), len(relators))
        pos = start
        visits = np.empty(codes.shape, dtype=np.int64)
        for t in range(length):
            visits[t] = crossed[codes[t], pos]
            pos = nxt[codes[t], pos]
        if not np.array_equal(pos, start):
            raise ConstructionFailure("relator walk did not close")
        # the visits summed per key row * nsg + generator, keys sorted
        step, row = np.nonzero(visits >= 0)
        signs = sign[codes[step, row]]
        keys, inv = np.unique(row * nsg + visits[step, row],
                              return_inverse=True)
        total = (np.bincount(inv[signs > 0], minlength=keys.size)
                 - np.bincount(inv[signs < 0], minlength=keys.size))
        keep = total != 0
        return SparseRows(*divmod(keys[keep], nsg), total[keep], start.size)

    # -- queries ------------------------------------------------------

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


def _with_inverse(fwd: list[int]) -> tuple[list[int], list[int]]:
    """(fwd, back) for the action table fwd of g: x * g^-1 = y exactly
    when y * g = x, so back[fwd[y]] = y.  fwd must be a permutation
    (ConstructionFailure otherwise)."""
    back = np.full(len(fwd), -1)
    back[fwd] = np.arange(len(fwd))
    if (back < 0).any():
        raise ConstructionFailure("an action table is not a permutation")
    return fwd, back.tolist()


def letter_table(reps, pres: AmbientPresentation, locate):
    """Certified table[j][(gid, e)] = (k, letters) for reps[j] * g^e.

    reps are coordinate tuples (Mat2.coords); locate(x) takes the
    coordinates of x and returns (k, W) with x = W * reps[k] and W in
    SL_2(O), also as coordinates.  Each entry keeps the freely reduced
    letters of matrix_to_word(W), checked once on coordinates: their
    value is W and W * reps[k] == reps[j] * g^e (ConstructionFailure
    otherwise).  Each letter must permute the indices
    (PermutationFailure otherwise).
    """
    ctx = pres.ctx
    nreps = len(reps)
    table: list[dict] = [{} for _ in range(nreps)]
    for gid in range(pres.gen_count):
        for e in (1, -1):
            g = pres._letter_coords[e][gid]
            targets = set()
            for j, dj in enumerate(reps):
                x = mat_mul_coords(ctx, dj, g)
                k, w = locate(x)
                word = Word(matrix_to_word(Mat2.from_coords(ctx, w), pres))
                # through the module, so that wrappers of fpres see the call
                if (fpres.word_to_matrix(word, pres).coords() != w
                        or mat_mul_coords(ctx, w, reps[k]) != x):
                    raise ConstructionFailure(
                        f"table word of representative {j} and letter "
                        f"{pres.names[gid]}^{e} does not give its quotient"
                    )
                table[j][(gid, e)] = (k, word.letters)
                targets.add(k)
            if len(targets) != nreps:
                raise PermutationFailure(
                    f"letter {pres.names[gid]}^{e} does not permute the "
                    f"representatives"
                )
    return table
