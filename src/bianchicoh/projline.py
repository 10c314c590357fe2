"""The projective line P^1(O/n) and the right SL_2 action on it.

Points are unit-ray classes of coprime bottom-row pairs (c : d).  The
canonical representative of a ray is its least pair under the residue
enumeration order (first by c, then by d), and points are listed in
that order; this fixes the coset numbering that the Schreier machinery
walks.

Everything per point runs on integer coordinates.  A residue x0 + x1*w
of the box of ResidueSystem is numbered x1*p + x0, with (p, q, r) the
lattice basis of the level (PIdeal.hnf), and the points are kept as one
int64 array of the coordinates (c0, c1, d0, d1) of their pairs
(points).  ring_mul and ring_reduce multiply and reduce residues, on
ints and on int64 arrays alike; check_int64_headroom bounds the norm so
that the array products of box residues are exact.

The table is built with array operations.  The class of a residue c is
the divisor g = gcd(c, n), read off the valuations of c at the prime
divisors; units act transitively on each class, so every ray through c
meets c_min(g), the first residue of the class.  One product of all
units with all the c_min gives for each c a unit u with u*c_min = c, and
w = u^-1 (ideals.inverses_mod) has w*c = c_min.  The units fixing c_min
are those = 1 mod m, m = n/g, so any two such w differ by one of them
and give the same ray below; the second coordinates paired with
c_min in the ray of (c : d) are the residues y = w*d (mod m) that lie in
no prime dividing g; the canonical one is the first such y (np.unique).
A dense class table over the residues mod m' (m times the primes of g
that do not divide m, so that the key also decides membership in those
primes) holds the point of each admissible w*d and -1 elsewhere; the
class tables lie end to end in one array, and each residue c keeps its
rule (w, the lattice of m', the offset of its table).

locate is the one normalization rule: reduce each coordinate of the
pairs into the box (on Python ints, so entries of any size are exact),
read the rule of c, reduce w*d mod m' and read the table; -1 marks a
pair that is not projective.  It runs on the arrays for a whole column
of pairs at once.  action(g) applies it to every point, after one
integer 4x4 product for (c : d) * g (right_mult), with one determinant
check for the whole table.  The point count is checked against the
local formula at construction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    BadDeterminant,
    ConstructionFailure,
    LevelTooLarge,
    NotProjectivePoint,
    ZeroModulus,
)
from .ideals import PIdeal, factor, inverses_mod
from .qfield import QuadInt, det_coords, format_element

HEADROOM = 2**62


def check_int64_headroom(norm: int, norm_w: int) -> None:
    """LevelTooLarge unless norm^2 * (|norm_w| + 2) < 2^62.

    Box residues lie in [0, p) x [0, r) with p*r = norm, so a product of
    two of them has coordinates below norm^2 * (|norm_w| + 1) in absolute
    value, and a sum of two products (an entry of (c : d) * g with g
    reduced into the box, or c'*d_y - d'*c_y) twice that.  ring_reduce
    adds one term below norm^2, so every int64 intermediate stays below
    2 * norm^2 * (|norm_w| + 2) < 2^63.
    """
    bound = norm * norm * (abs(norm_w) + 2)
    if bound >= HEADROOM:
        raise LevelTooLarge(
            f"a level of norm {norm} is too large for exact int64 residue "
            f"arithmetic: norm^2 * (|norm_w| + 2) = {bound} is not below 2^62"
        )


def ring_mul(ring, x0, x1, y0, y1):
    """(x0 + x1*w)(y0 + y1*w) on ints or int64 arrays; ring = P1Table.ring."""
    nw, sh = ring[3], ring[4]
    be = x1 * y1
    return x0 * y0 - nw * be, x0 * y1 + x1 * y0 + sh * be


def ring_reduce(ring, z0, z1):
    """Box coordinates of z0 + z1*w mod the level, on ints or int64 arrays.

    The quotient k is reduced mod p before it meets q, so the one new
    term stays below p^2.
    """
    p, q, r = ring[0], ring[1], ring[2]
    k = z1 // r
    return (z0 - k % p * q) % p, z1 - k * r


def reduce_rows(ring, z):
    """ring_reduce, in place, on both halves of an (k, 4) array (c, d)."""
    p, q, r = ring[0], ring[1], ring[2]
    k = z[:, 1::2] // r
    z[:, 1::2] -= k * r
    z[:, ::2] -= k % p * q
    z[:, ::2] %= p
    return z


@lru_cache(maxsize=256)
def right_mult(nw: int, sh: int, coords: tuple) -> np.ndarray:
    """The 4x4 integer matrix of (c0, c1, d0, d1) -> (c : d) * g.

    coords are those of g = [[a, b], [e, f]] (Mat2.coords), with
    (c : d) * g = (c*a + d*e : c*b + d*f); x0 + x1*w multiplies the row
    (y0, y1) by [[x0, x1], [-nw*x1, x0 + sh*x1]].  Shared, not to be
    written to.
    """
    a0, a1, b0, b1, e0, e1, f0, f1 = coords
    out = np.array([[a0, a1, b0, b1],
                    [-nw * a1, a0 + sh * a1, -nw * b1, b0 + sh * b1],
                    [e0, e1, f0, f1],
                    [-nw * e1, e0 + sh * e1, -nw * f1, f0 + sh * f1]],
                   dtype=np.int64)
    out.flags.writeable = False
    return out


def _key(x0, x1, lattice):
    """Number of the residue x0 + x1*w mod the lattice (p, q, r)."""
    p, q, r = lattice
    return x1 % r * p + (x0 - x1 // r * q) % p


class P1Table:
    """Enumerated P^1(O/level) with normalization and right action."""

    def __init__(self, level: PIdeal):
        if level.is_zero():
            raise ZeroModulus("P^1 over O/(0) is not finite")
        self.level = level
        self.ctx = level.ctx
        self._build()

    def _build(self):
        ctx = self.ctx
        p, q, r = self.level.hnf()
        size = p * r
        check_int64_headroom(size, ctx.norm_w)
        # level lattice and ring constants of ring_mul and ring_reduce
        ring = self.ring = (p, q, r, ctx.norm_w, 1 if ctx.shifted else 0)
        fac = [] if self.level.is_unit_ideal() else factor(self.level)
        x0, x1 = np.arange(size) % p, np.arange(size) // p
        # val[t, c]: the valuation of residue c at the t-th prime divisor,
        # capped at its exponent; the class of c is the divisor gcd(c, n),
        # numbered sig in mixed radix
        val = np.zeros((len(fac), size), dtype=np.int64)
        radix = []
        nclass = 1
        for t, (P, e) in enumerate(fac):
            radix.append(nclass)
            nclass *= e + 1
            for j in range(1, e + 1):
                val[t] += _key(x0, x1, PIdeal(P.gen ** j).hnf()) == 0
        # bit t of primes[c]: residue c lies in the t-th prime divisor
        primes = (1 << np.arange(len(fac))) @ (val > 0)
        sig = np.array(radix, dtype=np.int64) @ val
        # classes renumbered in the order of their first residues c_min
        first = np.full(nclass, size)
        np.minimum.at(first, sig, np.arange(size))
        cmins = np.sort(first)
        relabel = np.empty_like(first)
        relabel[np.argsort(first)] = np.arange(nclass)
        cls = relabel[sig]
        units = np.flatnonzero(sig == 0)
        u0, u1 = x0[units], x1[units]
        v0, v1 = np.array(inverses_mod(self.level, list(zip(
            u0.tolist(), u1.tolist())))).reshape(-1, 2).T
        # pick[c]: a unit u with u*c_min = c (any one serves), so that
        # w = u^-1 has w*c = c_min; u*c_min for every unit and class in one
        # product, with
        # c_min*x = x @ [[c0, c1], [-nw*c1, c0 + sh*c1]] on rows (x0, x1)
        c0, c1 = x0[cmins], x1[cmins]
        mult = np.empty((2, 2 * nclass), dtype=np.int64)
        mult[0, ::2], mult[0, 1::2] = c0, c1
        mult[1, ::2], mult[1, 1::2] = -ring[3] * c1, c0 + ring[4] * c1
        orbit = np.stack([u0, u1], axis=1) @ mult
        o0, o1 = ring_reduce(ring, orbit[:, ::2], orbit[:, 1::2])
        pick = np.full(size, -1)
        pick[o1 * p + o0] = np.arange(units.size)[:, None]
        if (pick < 0).any():
            raise ConstructionFailure("the units miss a residue of its class")
        params, ys_of, tables = [], [], []
        npts = offset = 0
        for ci in cmins.tolist():
            vc = val[:, ci].tolist()
            # m = n/g, and m' = m * (primes of g that do not divide m)
            m = extra = ctx.one
            for (P, e), v in zip(fac, vc):
                m = m * P.gen ** (e - v)
                if v == e:
                    extra = extra * P.gen
            pk, qk, rk = PIdeal(m * extra).hnf()
            ys = np.flatnonzero((primes & primes[ci]) == 0)
            y0, y1 = x0[ys], x1[ys]
            # the rays: residues mod m of the admissible y, by first y
            _, firsts, ray = np.unique(_key(y0, y1, PIdeal(m).hnf()),
                                       return_index=True, return_inverse=True)
            order = np.argsort(firsts)
            rank = np.empty_like(order)
            rank[order] = np.arange(npts, npts + order.size)
            table = np.full(pk * rk, -1)
            table[_key(y0, y1, (pk, qk, rk))] = rank[ray]
            params.append((pk, qk, rk, offset))
            ys_of.append(ys[firsts[order]])
            tables.append(table)
            npts += order.size
            offset += table.size
        # the rule of each residue c: (w0, w1, pk, qk, rk, table offset)
        # with w*c = c_min and (pk, qk, rk) the lattice of m'
        self._rule = np.vstack((v0[pick], v1[pick], np.array(params)[cls].T))
        self._table = np.concatenate(tables)
        cs = np.repeat(cmins, [ys.size for ys in ys_of])
        ys = np.concatenate(ys_of)
        self.points = np.stack([x0[cs], x1[cs], x0[ys], x1[ys]], axis=1)
        expected = 1
        for P, e in fac:
            np_ = P.norm()
            expected *= np_ ** (e - 1) * (np_ + 1)
        if npts != expected:
            raise ConstructionFailure(
                f"|P^1| = {npts} but the local formula gives {expected}"
            )

    def __len__(self):
        return len(self.points)

    def locate(self, rows) -> np.ndarray:
        """The point of each pair (c0, c1, d0, d1) of rows; -1 marks a
        pair that is not projective.

        rows is a sequence of integer rows of any size, reduced into the
        box on Python ints first, or an int64 array of box residues.
        """
        ring = self.ring
        if not isinstance(rows, np.ndarray):
            rows = np.array([ring_reduce(ring, c0, c1)
                             + ring_reduce(ring, d0, d1)
                             for c0, c1, d0, d1 in rows],
                            dtype=np.int64).reshape(-1, 4)
        w0, w1, pk, qk, rk, off = self._rule[:, rows[:, 1] * ring[0]
                                             + rows[:, 0]]
        y0, y1 = ring_mul(ring, w0, w1, rows[:, 2], rows[:, 3])
        k = y1 // rk
        return self._table[off + (y1 - k * rk) * pk
                           + (y0 - k % pk * qk) % pk]

    def action(self, g: tuple) -> list[int]:
        """Index of x*g for every point x in order, for g given by its
        coordinates (Mat2.coords); one determinant check for all."""
        ctx = self.ctx
        det = QuadInt(ctx, *det_coords(ctx, g))
        if not det.is_unit():
            raise BadDeterminant(f"determinant {det} is not a unit")
        ring = self.ring
        coords = [v for i in range(0, 8, 2)
                  for v in ring_reduce(ring, *g[i:i + 2])]
        rows = reduce_rows(ring, self.points @ right_mult(
            ring[3], ring[4], tuple(coords)))
        out = self.locate(rows)
        if (out < 0).any():
            c0, c1, d0, d1 = rows[np.argmax(out < 0)].tolist()
            raise NotProjectivePoint(
                f"({format_element(QuadInt(ctx, c0, c1))}:"
                f"{format_element(QuadInt(ctx, d0, d1))}) is not projective "
                f"mod {self.level}"
            )
        return out.tolist()


@lru_cache(maxsize=None)
def p1_table(n: PIdeal) -> P1Table:
    return P1Table(n)
