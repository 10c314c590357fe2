"""The projective line P^1(O/n) and the right SL_2 action on it.

Points are unit-ray classes of coprime bottom-row pairs (c : d).  The
canonical representative of a ray is its least pair under the residue
enumeration order (first by c, then by d), and points are listed in
that order; this fixes the coset numbering that the Schreier machinery
walks.

The table is built one divisor class at a time.  Units act transitively
on the residues c with a given g = gcd(c, n), so every ray through such
a c meets c_min(g), the first residue of the class, and a unit w with
w*c = c_min is recorded for each c by walking the unit orbit of c_min.
The units fixing c_min are those = 1 mod m, m = n/g, so the second
coordinates paired with c_min in the ray of (c : d) are the residues
y = w*d (mod m) that lie in no prime dividing g; the canonical one is
the first such y.  A table keyed by residues mod m' (m times the primes
of g that do not divide m, so that the key also decides membership in
those primes) maps each admissible w*d to its point.  Normalization is
then one product, two reductions and two dictionary lookups, and the
point count is checked against the local formula.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    BadDeterminant,
    ConstructionFailure,
    NotProjectivePoint,
    ZeroModulus,
)
from .ideals import PIdeal, ResidueSystem, factor
from .qfield import Mat2, QuadInt, exact_div, gcd, xgcd


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


class P1Table:
    """Enumerated P^1(O/level) with normalization and right action."""

    def __init__(self, level: PIdeal):
        if level.is_zero():
            raise ZeroModulus("P^1 over O/(0) is not finite")
        self.level = level
        self.ctx = level.ctx
        self.rs = ResidueSystem(level)
        self._build()

    def _build(self):
        rs = self.rs
        reps = rs.reps
        gen = self.level.gen
        fac = [] if self.level.is_unit_ideal() else factor(self.level)
        # membership of every residue in every prime divisor of the level
        masks = [[p.contains(x) for x in reps] for p, _ in fac]
        units = [x for i, x in enumerate(reps) if not any(m[i] for m in masks)]
        inverses = [rs.reduce(xgcd(u, gen)[1]) for u in units]
        # residue key -> (w, key system, class table) with w*c = c_min
        orbit: dict[tuple[int, int], tuple] = {}
        classes = []  # (c_min, first admissible y of each ray, class table)
        for c in reps:
            if (c.a, c.b) in orbit:
                continue
            g = gcd(c, gen)
            m = exact_div(gen, g)
            in_g = [i for i, (p, _) in enumerate(fac) if p.contains(c)]
            mkey = m
            for i in in_g:
                if not fac[i][0].contains(m):
                    mkey = mkey * fac[i][0].gen
            rs_m = ResidueSystem(PIdeal(m))
            rs_key = rs_m if mkey is m else ResidueSystem(PIdeal(mkey))
            table: dict[tuple[int, int], QuadInt] = {}
            first: dict[tuple[int, int], QuadInt] = {}
            for i, y in enumerate(reps):
                if any(masks[j][i] for j in in_g):
                    continue
                ym = rs_m.reduce(y)
                y0 = first.setdefault((ym.a, ym.b), y)
                yk = ym if rs_key is rs_m else rs_key.reduce(y)
                table[(yk.a, yk.b)] = y0
            classes.append((c, list(first.values()), table))
            for u, ui in zip(units, inverses):
                x = rs.reduce(u * c)
                orbit.setdefault((x.a, x.b), (ui, rs_key, table))
        index = rs.index
        pairs = sorted(
            ((index(c), index(y), c, y) for c, ys, _ in classes for y in ys)
        )
        points = [P1Point(c, y, k) for k, (_, _, c, y) in enumerate(pairs)]
        # class tables map keys to the canonical points themselves
        by_pair = {(pt.c.a, pt.c.b, pt.d.a, pt.d.b): pt for pt in points}
        for c, _, table in classes:
            for k, y in table.items():
                table[k] = by_pair[(c.a, c.b, y.a, y.b)]
        self.points = points
        self._orbit = orbit
        expected = 1
        for p, e in fac:
            np = p.norm()
            expected *= np ** (e - 1) * (np + 1)
        if len(points) != expected:
            raise ConstructionFailure(
                f"|P^1| = {len(points)} but the local formula gives {expected}"
            )

    def __len__(self):
        return len(self.points)

    def normalize(self, c: QuadInt, d: QuadInt) -> P1Point:
        rc = self.rs.reduce(c)
        w, rs_key, table = self._orbit[(rc.a, rc.b)]
        y = rs_key.reduce(w * d)
        pt = table.get((y.a, y.b))
        if pt is None:
            raise NotProjectivePoint(
                f"({rc}:{self.rs.reduce(d)}) is not projective mod {self.level}"
            )
        return pt

    def apply(self, g: Mat2, x: P1Point) -> P1Point:
        if not g.det().is_unit():
            raise BadDeterminant(f"determinant {g.det()} is not a unit")
        return self.normalize(x.c * g.a + x.d * g.c, x.c * g.b + x.d * g.d)

    def action(self, g: Mat2) -> list[int]:
        """Index of x*g for every point x in order, one det check for all."""
        if not g.det().is_unit():
            raise BadDeterminant(f"determinant {g.det()} is not a unit")
        ga, gb, gc, gd = g.entries()
        normalize = self.normalize
        return [normalize(x.c * ga + x.d * gc, x.c * gb + x.d * gd).index
                for x in self.points]

    def base_point(self) -> P1Point:
        """The class of (0 : 1), the coset of Gamma_0(n) itself."""
        return self.normalize(self.ctx.zero, self.ctx.one)


@lru_cache(maxsize=None)
def p1_table(n: PIdeal) -> P1Table:
    return P1Table(n)
