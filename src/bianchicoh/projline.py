"""The projective line P^1(O/n) and the right SL_2 action on it.

Points are unit-ray classes of coprime bottom-row pairs (c : d).  The
canonical representative of a ray is its least pair under the residue
enumeration order (first by c, then by d), and points are listed in
that order; this fixes the coset numbering that the Schreier machinery
walks.

Everything per point runs on integer coordinates.  A residue x0 + x1*w
of the box of ResidueSystem is numbered x1*p + x0, with (p, q, r) the
lattice basis of the level (PIdeal.hnf), and a point is kept as the
coordinates (c0, c1, d0, d1) of its pair.  The P1Point objects are
built on first use only (points), for the API edge: normalize, apply,
base_point and inspect p1.

The table is built one divisor class at a time.  Units act transitively
on the residues c with a given g = gcd(c, n), so every ray through such
a c meets c_min(g), the first residue of the class, and a unit w with
w*c = c_min is recorded for each c by walking the unit orbit of c_min.
The unit inverses come from one batch inversion (ideals.inverses_mod).
The units fixing c_min are those = 1 mod m, m = n/g, so the second
coordinates paired with c_min in the ray of (c : d) are the residues
y = w*d (mod m) that lie in no prime dividing g; the canonical one is
the first such y.  A class table keyed by residues mod m' (m times the
primes of g that do not divide m, so that the key also decides
membership in those primes) maps each admissible w*d to its point.

index_of is the one normalization rule: reduce c mod n, read (w, key
lattice, class table) off c, reduce w*d mod m' and look the key up;
NotProjectivePoint when it is missing.  action(g) runs it over every
point after one ring product per entry, with one determinant check for
the whole table; normalize and apply wrap it.  The point count is
checked against the local formula at construction.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import (
    BadDeterminant,
    ConstructionFailure,
    NotProjectivePoint,
    ZeroModulus,
)
from .ideals import PIdeal, factor, inverses_mod
from .qfield import Mat2, QuadInt, exact_div, format_element, gcd


class P1Point:
    """A point (c : d) of P^1(O/n) in canonical form, with its index."""

    __slots__ = ("c", "d", "index")

    def __init__(self, c: QuadInt, d: QuadInt, index: int):
        self.c = c
        self.d = d
        self.index = index

    def __eq__(self, other):
        return (
            isinstance(other, P1Point)
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.c, self.d))

    def __repr__(self):
        return f"({self.c}:{self.d})"


def _residue_mask(prime: PIdeal, p: int, r: int) -> bytearray:
    """mask[k] = 1 when residue number k of the box p x r lies in prime."""
    pp, qq, rr = prime.hnf()
    mask = bytearray(p * r)
    for j in range(0, r, rr):
        for i in range((j // rr) * qq % pp, p, pp):
            mask[j * p + i] = 1
    return mask


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
        nw = ctx.norm_w
        sh = 1 if ctx.shifted else 0
        gen = self.level.gen
        p, q, r = self.level.hnf()
        size = p * r
        fac = [] if self.level.is_unit_ideal() else factor(self.level)
        # membership of every residue in every prime divisor of the level
        masks = [_residue_mask(P, p, r) for P, _ in fac]
        units = [(k % p, k // p) for k in range(size)
                 if not any(m[k] for m in masks)]
        inverses = inverses_mod(self.level, units)
        # residue number of c -> (w0, w1, key lattice, class table), w*c = c_min
        orbit: list = [None] * size
        classes = []  # (c_min, first admissible y of each ray, class table)
        for ci in range(size):
            if orbit[ci] is not None:
                continue
            c0, c1 = ci % p, ci // p
            c = QuadInt(ctx, c0, c1)
            m = exact_div(gen, gcd(c, gen))
            in_g = [t for t, mask in enumerate(masks) if mask[ci]]
            mkey = m
            for t in in_g:
                if not fac[t][0].contains(m):
                    mkey = mkey * fac[t][0].gen
            pm, qm, rm = PIdeal(m).hnf()
            pk, qk, rk = PIdeal(mkey).hnf()
            skip = [masks[t] for t in in_g]
            table: dict[int, int] = {}  # key of y mod m' -> first y of its ray
            first: dict[int, int] = {}  # key of y mod m -> first y
            for yi in range(size):
                if skip and any(mask[yi] for mask in skip):
                    continue
                y0, y1 = yi % p, yi // p
                k = y1 // rm
                y0m = first.setdefault((y1 - k * rm) * pm + (y0 - k * qm) % pm,
                                       yi)
                k = y1 // rk
                table[(y1 - k * rk) * pk + (y0 - k * qk) % pk] = y0m
            classes.append((ci, first.values(), table))
            entry = (pk, qk, rk, table)
            for (u0, u1), (v0, v1) in zip(units, inverses):
                be = u1 * c1
                x0 = u0 * c0 - nw * be
                x1 = u0 * c1 + u1 * c0 + sh * be
                k = x1 // r
                xi = (x1 - k * r) * p + (x0 - k * q) % p
                if orbit[xi] is None:
                    orbit[xi] = (v0, v1, *entry)
        pairs = sorted((ci, yi) for ci, ys, _ in classes for yi in ys)
        # class tables map keys to point indices
        by_pair = {pair: k for k, pair in enumerate(pairs)}
        for ci, _, table in classes:
            for key, yi in table.items():
                table[key] = by_pair[(ci, yi)]
        self._orbit = orbit
        # level lattice and ring constants of index_of
        self._ring = (p, q, r, nw, sh)
        self._coords = [(ci % p, ci // p, yi % p, yi // p) for ci, yi in pairs]
        expected = 1
        for P, e in fac:
            np = P.norm()
            expected *= np ** (e - 1) * (np + 1)
        if len(pairs) != expected:
            raise ConstructionFailure(
                f"|P^1| = {len(pairs)} but the local formula gives {expected}"
            )

    def __len__(self):
        return len(self._coords)

    @cached_property
    def points(self) -> list[P1Point]:
        """The canonical points in order, as objects (built on first use)."""
        ctx = self.ctx
        return [P1Point(QuadInt(ctx, c0, c1), QuadInt(ctx, d0, d1), k)
                for k, (c0, c1, d0, d1) in enumerate(self._coords)]

    def index_of(self, c0: int, c1: int, d0: int, d1: int) -> int:
        """Index of the point of (c0 + c1*w : d0 + d1*w), the one rule.

        Raises NotProjectivePoint when the pair is not projective.
        """
        p, q, r, nw, sh = self._ring
        k = c1 // r
        ci = (c1 - k * r) * p + (c0 - k * q) % p
        w0, w1, pk, qk, rk, table = self._orbit[ci]
        be = w1 * d1
        y1 = w0 * d1 + w1 * d0 + sh * be
        k = y1 // rk
        pt = table.get((y1 - k * rk) * pk + (w0 * d0 - nw * be - k * qk) % pk)
        if pt is None:
            ctx = self.ctx
            k = d1 // r
            c = QuadInt(ctx, ci % p, ci // p)
            d = QuadInt(ctx, (d0 - k * q) % p, d1 - k * r)
            raise NotProjectivePoint(
                f"({format_element(c)}:{format_element(d)}) is not projective "
                f"mod {self.level}"
            )
        return pt

    def normalize(self, c: QuadInt, d: QuadInt) -> P1Point:
        return self.points[self.index_of(c.a, c.b, d.a, d.b)]

    def apply(self, g: Mat2, x: P1Point) -> P1Point:
        if not g.det().is_unit():
            raise BadDeterminant(f"determinant {g.det()} is not a unit")
        return self.normalize(x.c * g.a + x.d * g.c, x.c * g.b + x.d * g.d)

    def action(self, g: Mat2) -> list[int]:
        """Index of x*g for every point x in order, one det check for all."""
        if not g.det().is_unit():
            raise BadDeterminant(f"determinant {g.det()} is not a unit")
        a0, a1, b0, b1, e0, e1, f0, f1 = g.coords()
        nw = self.ctx.norm_w
        sh = 1 if self.ctx.shifted else 0
        index_of = self.index_of
        out = []
        # (c : d) * g = (c*a + d*e : c*b + d*f) with g = [[a, b], [e, f]]
        for c0, c1, d0, d1 in self._coords:
            x = c1 * a1 + d1 * e1
            y = c1 * b1 + d1 * f1
            out.append(index_of(
                c0 * a0 + d0 * e0 - nw * x,
                c0 * a1 + c1 * a0 + d0 * e1 + d1 * e0 + sh * x,
                c0 * b0 + d0 * f0 - nw * y,
                c0 * b1 + c1 * b0 + d0 * f1 + d1 * f0 + sh * y,
            ))
        return out

    def base_point(self) -> P1Point:
        """The class of (0 : 1), the coset of Gamma_0(n) itself."""
        return self.points[self.index_of(0, 0, 1, 0)]


@lru_cache(maxsize=None)
def p1_table(n: PIdeal) -> P1Table:
    return P1Table(n)
