"""Reidemeister-Schreier data for Gamma_0(n) inside SL_2(O).

Cosets are identified with P^1(O/n) through the bottom row, the base
coset being the point of (0:1) (P1Table.locate, the one normalization
rule); act[g] holds the integer action tables of each generator
(P1Table.action, one determinant check per table) and of its inverse,
read off as the inverse permutation.  A breadth-first spanning tree
(moves ordered by generator id, then inverse moves) fixes a transversal
T_x; the tree is kept as its BFS order (tree_order, base first) and the
edge into each coset (tree_edge[y] = (parent, letter)), so T_y =
T_parent * letter.  Schreier generators T_x g T_y^{-1} sit on the
non-tree positive edges (sgen_edges).

The construction runs on int64 arrays.  The tree is grown one BFS
level at a time: the targets of the frontier are taken in (frontier
position, move) order and the first meeting of each unseen coset is
its tree edge, which is the order a queue would give.  Along the tree
the bottom row (c_x, d_x) of T_x is carried mod n, one integer 4x4
product per level (projline.right_mult).  That is all the generator
certificate needs: T_x is a product of generators, whose determinants
builtin_presentation certifies to be 1, so M = T_x g T_y^{-1} has
determinant 1 and lies in Gamma_0(n) exactly when its lower-left entry
c'*d_y - d'*c_y lies in n, with (c', d') the bottom row of T_x g.  Every
edge is checked so at once, ConstructionFailure otherwise.  The objects
are built on first use only, from tree_edge: transversal (Words) and
sgens ((Word, Mat2) pairs, the matrices evaluated from the words).  No
package code reads them: sgens serves only the tests and
bench/tracing.py, and the operators walk tree_edge itself.  Counting
generators needs none of them: len(sgen_edges).

Rewriting walks letters through the coset action and
collects signed visits to non-tree edges, which is all that survives
abelianization.  Every walk reads one table per letter, built once with
the generators as the arrays _next and _crossed (row 2*gid for g,
2*gid + 1 for g^-1): for every coset, the next coset and the Schreier
generator crossed (-1 on tree edges); the sign is that of the letter.
_walk follows their list copies moves[gid][e] for one start coset.
_build_relmat walks every ambient relator from all cosets at once on
the arrays; every walk must close (an array equality).  The rewritten
rows form the relator matrix, one per relator and coset, relator-major,
kept as a modlinalg.SparseRows sorted by (row, Schreier generator) key:
the visits are summed per key and zero sums dropped.  A relator walk
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
letters.  Only the forward half is located and certified, on
coordinate tuples: the locator takes the column delta_j g of all j at
once, one call per generator, and the g^{-1} entry of delta_k is
(j, W^{-1}) with the inverse letters.  Reading the letters of a word
gamma through the table from delta_i gives delta_i gamma = W_1 ... W_m
delta_{sigma(i)}.  cohom.letter_table_operator reads the tree path to
each end of a Schreier generator once per representative, walking the
W of every step in a coset table with _walk; the walk of the
generator's own letter must end where the path to its other end does,
which certifies that the quotient lies in Gamma_0(n).
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
from .fpres import (
    AmbientPresentation,
    Word,
    builtin_presentation,
    matrix_to_word,
    word_coords,
)
from .ideals import PIdeal
from .modlinalg import SparseRows
from .projline import P1Table, reduce_rows, right_mult, ring_mul, ring_reduce
from .qfield import FieldCtx, Mat2, mat_mul_coords


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
        ring = p1.ring
        ncos = len(p1)
        ngen = p.gen_count
        gens = list(range(ngen))
        if move_order == "reversed":
            gens.reverse()
        elif move_order != "default":
            raise ValueError(f"unknown move_order {move_order!r}")
        # walk tables: row 2*gid is right mult by g, 2*gid + 1 by g^-1,
        # and a last row that stays put
        nxt = np.empty((2 * ngen + 1, ncos), dtype=np.int64)
        for gid, g in enumerate(p._letter_coords[1]):
            nxt[2 * gid] = p1.action(g)
        nxt[1:-1:2] = _inverse_permutations(nxt[:-1:2])
        nxt[-1] = np.arange(ncos)
        self._next = nxt
        self.act = list(zip(nxt[:-1:2].tolist(), nxt[1:-1:2].tolist()))
        # (c : d) -> (c : d) * letter on bottom rows, in the same rows; the
        # letters' coordinates are 0 or +-1, so the products stay small
        self._mult = np.array([right_mult(ring[3], ring[4],
                                          p._letter_coords[e][gid])
                               for gid in range(ngen) for e in (1, -1)])
        # BFS moves: generators in move order, each letter then its inverse
        moves = np.array([2 * gid + k for gid in gens for k in (0, 1)])
        nmov = moves.size
        step = nxt[moves]
        mult = np.concatenate(self._mult[moves], axis=1)
        base = int(p1.locate([(0, 0, 1, 0)])[0])
        self.base = base
        # the bottom row of T_x mod n, carried along the tree
        rows = np.zeros((ncos, 4), dtype=np.int64)
        rows[base, 2:] = ring_reduce(ring, 1, 0)
        parent = np.full(ncos, -1)
        move = np.full(ncos, -1)
        seen = np.zeros(ncos, dtype=bool)
        seen[base] = True
        frontier = np.array([base])
        levels = [frontier]
        while frontier.size:
            # targets in (frontier position, move) order, as a queue would
            # meet them: the first meeting of each unseen one is its edge
            targets = step[:, frontier].T.ravel()
            fresh = np.flatnonzero(~seen[targets])
            _, first = np.unique(targets[fresh], return_index=True)
            pick = fresh[np.sort(first)]
            # the bottom rows of T_x * letter in the same order
            carried = (rows[frontier] @ mult).reshape(-1, 4)[pick]
            parent[targets[pick]] = frontier[pick // nmov]
            frontier = targets[pick]
            seen[frontier] = True
            move[frontier] = pick % nmov
            rows[frontier] = reduce_rows(ring, carried)
            levels.append(frontier)
        if not seen.all():
            raise ZeroModulus("coset graph is disconnected")  # unreachable
        self._rows = rows
        # BFS order, base first; tree_edge[y] = (parent, letter into y)
        self.tree_order = np.concatenate(levels).tolist()
        letters = [(gid, e) for gid in gens for e in (1, -1)]
        self.tree_edge = list(zip(parent.tolist(),
                                  map(letters.__getitem__, move.tolist())))
        self.tree_edge[base] = None
        # on_tree[gid, x]: the positive edge (x, gid) is a tree edge
        child = np.flatnonzero(parent >= 0)
        row = moves[move[child]]
        self._on_tree = np.zeros((ngen, ncos), dtype=bool)
        self._on_tree[row // 2, np.where(row % 2, child, parent[child])] = True

    def _build_sgens(self):
        """Certify every positive edge and number the non-tree ones.

        By the bottom-row lemma (module docstring) T_x g T_y^{-1} lies in
        Gamma_0(n) exactly when c'*d_y - d'*c_y lies in n, read off the
        carried rows (ConstructionFailure otherwise); on a tree edge it
        is 1.
        """
        ring = self.cosets.ring
        ngen = self.pres.gen_count
        ncos = len(self.cosets)
        rows = self._rows
        img = reduce_rows(ring, (rows @ self._mult[::2]).reshape(-1, 4))
        to = rows[self._next[:-1:2].ravel()]
        a0, a1 = ring_mul(ring, img[:, 0], img[:, 1], to[:, 2], to[:, 3])
        b0, b1 = ring_mul(ring, img[:, 2], img[:, 3], to[:, 0], to[:, 1])
        z0, z1 = ring_reduce(ring, a0 - b0, a1 - b1)
        bad = np.flatnonzero(z0 | z1)
        if bad.size:
            gid, x = divmod(int(bad[0]), ncos)
            raise ConstructionFailure(
                f"T_x g T_y^-1 at coset {x} and generator "
                f"{self.pres.names[gid]} escapes the level"
            )
        x, gid = np.nonzero(~self._on_tree.T)
        self.sgen_edges = list(zip(x.tolist(), gid.tolist()))
        # crossed[2*gid + (e < 0), x]: the Schreier generator that the
        # letter crosses from x, or -1; walking g^-1 from y crosses the
        # edge (y * g^-1, gid)
        crossed = np.full(self._next.shape, -1)
        crossed[2 * gid, x] = np.arange(x.size)
        crossed[1:-1:2] = crossed[:-1:2][np.arange(ngen)[:, None],
                                         self._next[1:-1:2]]
        self._crossed = crossed
        # walk tables as lists, one per letter: moves[gid][e] = (next
        # coset, Schreier generator crossed or -1) for every coset; e = -1
        # indexes the last entry
        here = crossed.tolist()
        self._moves = [(None, (fwd, here[2 * g]), (back, here[2 * g + 1]))
                       for g, (fwd, back) in enumerate(self.act)]

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

    @cached_property
    def sgens(self) -> list[tuple[Word, Mat2]]:
        """(word, matrix) of every Schreier generator T_x g T_y^{-1}."""
        tw = self.transversal
        words = [tw[x] * Word([(gid, 1)]) * tw[self.act[gid][0][x]].inverse()
                 for x, gid in self.sgen_edges]
        # through the module, so that wrappers of fpres see the calls
        return [(w, fpres.word_to_matrix(w, self.pres)) for w in words]

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
        # the walk tables; the last row stays put and pads the shorter
        # relators
        nxt, crossed = self._next, self._crossed
        pad = len(nxt) - 1
        sign = np.array([1, -1] * self.pres.gen_count + [0])
        length = max(map(len, relators))
        # codes[t, r * ncos + x]: the letter of step t of relator r
        codes = np.repeat(np.array(
            [[2 * gid + (e < 0) for gid, e in r] + [pad] * (length - len(r))
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


def _inverse_permutations(fwd: np.ndarray) -> np.ndarray:
    """back with back[g, fwd[g, y]] = y for the action tables fwd[g]:
    x * g^-1 = y exactly when y * g = x.  Every row of fwd must be a
    permutation (ConstructionFailure otherwise)."""
    back = np.full(fwd.shape, -1)
    back[np.arange(len(fwd))[:, None], fwd] = np.arange(fwd.shape[1])
    if (back < 0).any():
        raise ConstructionFailure("an action table is not a permutation")
    return back


def letter_table(reps, pres: AmbientPresentation, locate):
    """Certified table[j][(gid, e)] = (k, letters) for reps[j] * g^e.

    reps are coordinate tuples (Mat2.coords); locate(xs) takes the
    coordinates of the column xs[j] = reps[j] * g of one generator and
    returns (k, W) for each, with xs[j] = W * reps[k] and W in SL_2(O),
    also as coordinates.  Only the g^{+1} column is located: each entry
    keeps the freely reduced letters of matrix_to_word(W), checked once
    on coordinates, in j order: their value (word_coords) is W and
    W * reps[k] == reps[j] * g (ConstructionFailure otherwise).  Each
    generator must permute the indices (PermutationFailure otherwise).

    The g^{-1} column is derived: reps[j] g = W reps[k] exactly when
    reps[k] g^{-1} = W^{-1} reps[j], so table[k][(gid, -1)] = (j, the
    inverse letters of W), whose value is W^{-1} because every inverse
    letter is the exact inverse of its letter; the inverse of a
    permutation is one.
    """
    ctx = pres.ctx
    nreps = len(reps)
    table: list[dict] = [{} for _ in range(nreps)]
    for gid in range(pres.gen_count):
        g = pres._letter_coords[1][gid]
        xs = [mat_mul_coords(ctx, dj, g) for dj in reps]
        targets = set()
        for j, (x, (k, w)) in enumerate(zip(xs, locate(xs))):
            m = Mat2.from_coords(ctx, w)
            letters = Word(matrix_to_word(m, pres)).letters
            if (word_coords(letters, pres) != w
                    or mat_mul_coords(ctx, w, reps[k]) != x):
                raise ConstructionFailure(
                    f"table word of representative {j} and letter "
                    f"{pres.names[gid]} does not give its quotient"
                )
            table[j][(gid, 1)] = (k, letters)
            table[k][(gid, -1)] = (j, tuple((h, -e)
                                            for h, e in reversed(letters)))
            targets.add(k)
        if len(targets) != nreps:
            raise PermutationFailure(
                f"letter {pres.names[gid]} does not permute the "
                f"representatives"
            )
    return table
