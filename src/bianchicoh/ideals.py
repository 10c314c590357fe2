"""Principal ideals of Z[w]: canonical generators, residues, factorization.

All five rings have class number one, so every ideal is (g) and ideal
arithmetic reduces to element arithmetic on canonical associates.  A
residue system for O/(g) is the integer box attached to the row Hermite
form of the sublattice spanned by g and g*w in coordinates, which makes
reduction exact and enumeration trivial.  Rational primes are lifted to
prime elements through gcd(p, w - r) where r is a root of the minimal
polynomial of w mod p.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .errors import (
    ExhaustedSearch,
    NotCoprime,
    NotPrime,
    ParseError,
    ZeroModulus,
)
from .qfield import (
    FieldCtx,
    QuadInt,
    divides,
    exact_div,
    format_element,
    gcd,
    normalize_associate,
    parse_element,
    xgcd,
)


class PIdeal:
    """A principal ideal (gen) with gen stored as the canonical associate."""

    __slots__ = ("ctx", "gen", "_hnf")

    def __init__(self, gen: QuadInt):
        self.ctx = gen.ctx
        self.gen = normalize_associate(gen)
        self._hnf = None

    def norm(self) -> int:
        return self.gen.norm()

    def is_zero(self) -> bool:
        return self.gen.is_zero()

    def is_unit_ideal(self) -> bool:
        return self.gen.is_one()

    def hnf(self) -> tuple[int, int, int]:
        """The lattice basis (p, q, r) of _lattice_hnf, computed once."""
        if self._hnf is None:
            self._hnf = _lattice_hnf(self.gen)
        return self._hnf

    def contains(self, x: QuadInt) -> bool:
        """Membership in the lattice [[p, 0], [q, r]] of _lattice_hnf."""
        if self.gen.is_zero():
            return x.is_zero()
        p, q, r = self.hnf()
        k, rem = divmod(x.b, r)
        return rem == 0 and (x.a - k * q) % p == 0

    def divides(self, other: "PIdeal") -> bool:
        return divides(self.gen, other.gen)

    def __mul__(self, other: "PIdeal") -> "PIdeal":
        return PIdeal(self.gen * other.gen)

    def __eq__(self, other):
        return (
            isinstance(other, PIdeal)
            and self.ctx.d == other.ctx.d
            and self.gen == other.gen
        )

    def __hash__(self):
        return hash(("PIdeal", self.ctx.d, self.gen))

    def __repr__(self):
        return f"PIdeal(d={self.ctx.d}, ({format_element(self.gen)}))"

    def __str__(self):
        return f"({format_element(self.gen)})"

    def add(self, other: "PIdeal") -> "PIdeal":
        """Ideal sum (a) + (b) = (gcd(a, b))."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return PIdeal(gcd(self.gen, other.gen))

    def is_coprime(self, other: "PIdeal") -> bool:
        return self.add(other).is_unit_ideal()

    def smallest_rational(self) -> int:
        """Positive generator of the ideal (self intersect Z) of Z.

        Raises ZeroModulus for the zero ideal.
        """
        if self.is_zero():
            raise ZeroModulus("zero ideal meets Z in 0 only")
        return self.hnf()[0]

    def is_prime(self) -> bool:
        if self.is_zero() or self.norm() == 1:
            return False
        fac = factor(self)
        return len(fac) == 1 and fac[0][1] == 1


def parse_ideal(ctx: FieldCtx, text: str) -> PIdeal:
    """Parse an ideal literal "(a+b*w)"."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"ideal literal must be parenthesized: {text!r}")
    return PIdeal(parse_element(ctx, s[1:-1]))


def format_ideal(n: PIdeal) -> str:
    return f"({format_element(n.gen)})"


# ---------------------------------------------------------------------------
# residue systems


def _lattice_hnf(g: QuadInt) -> tuple[int, int, int]:
    """Triangular basis [[p, 0], [q, r]] of the lattice of (g) in coords.

    The lattice is spanned by the coordinate rows of g and g*w.  Returns
    (p, q, r) with p, r > 0 and 0 <= q < p; p generates (g) intersect Z.
    """
    gw = g * g.ctx.omega
    r1 = [g.a, g.b]
    r2 = [gw.a, gw.b]
    # clear the w-column by a Euclidean loop on rows
    while r2[1] != 0:
        if r1[1] == 0:
            r1, r2 = r2, r1
            continue
        k = r1[1] // r2[1]
        r1 = [r1[0] - k * r2[0], r1[1] - k * r2[1]]
        r1, r2 = r2, r1
    if r1[1] < 0:
        r1 = [-r1[0], -r1[1]]
    if r2[0] < 0:
        r2 = [-r2[0], 0]
    p, q, r = r2[0], r1[0], r1[1]
    if p <= 0 or r <= 0:
        raise ZeroModulus(f"ideal ({g}) has degenerate lattice")
    q %= p
    return p, q, r


class ResidueSystem:
    """Complete residue system for O/(modulus) with exact reduction.

    Representatives form the box [0, p) x [0, r) in (a, b) coordinates,
    listed with the w-coordinate outermost, so the enumeration is
    ascending in the canonical element key (b, a) and purely rational
    representatives come first.
    """

    def __init__(self, modulus: PIdeal):
        if modulus.is_zero():
            raise ZeroModulus("residues mod (0) are not finite")
        self.modulus = modulus
        self.ctx = modulus.ctx
        self._p, self._q, self._r = modulus.hnf()
        self.reps = [
            QuadInt(self.ctx, i, j)
            for j in range(self._r)
            for i in range(self._p)
        ]
        self._index = {(x.a, x.b): k for k, x in enumerate(self.reps)}

    def __len__(self):
        return len(self.reps)

    def reduce(self, x: QuadInt) -> QuadInt:
        """Canonical representative of x mod the ideal lattice.

        Subtracts a multiple of the (q, r) row to put the w coordinate
        in [0, r), then a multiple of (p, 0) to put the rational
        coordinate in [0, p); the second step leaves the first fixed.
        """
        a, b = x.a, x.b
        k2 = b // self._r
        a -= k2 * self._q
        b -= k2 * self._r
        a -= (a // self._p) * self._p
        return QuadInt(self.ctx, a, b)

    def index(self, x: QuadInt) -> int:
        return self._index[(x.a, x.b)]


def inverses_mod(modulus: PIdeal, xs) -> list[tuple[int, int]]:
    """Inverses modulo the ideal of residues given as (a, b) coordinates.

    One extended gcd serves the whole list (Montgomery's trick): the
    prefix products x_1 * ... * x_i are formed mod the ideal, the last
    one is inverted by xgcd, and walking back, the inverse of x_i is the
    inverse of its prefix times the prefix before it, and the inverse of
    that prefix is the inverse of x_i's prefix times x_i.  That is three
    products per residue.  Every result is reduced into the box of
    ResidueSystem.  Raises NotCoprime when some x is not a unit mod the
    ideal (the gcd of the full product with the generator is then not 1).
    """
    ctx = modulus.ctx
    p, q, r = modulus.hnf()
    nw = ctx.norm_w
    sh = 1 if ctx.shifted else 0

    def mul(x0, x1, y0, y1):
        be = x1 * y1
        z0 = x0 * y0 - nw * be
        z1 = x0 * y1 + x1 * y0 + sh * be
        k = z1 // r
        return (z0 - k * q) % p, z1 - k * r

    if not xs:
        return []
    prefix = []
    acc = (1, 0)
    for x0, x1 in xs:
        acc = mul(*acc, x0, x1)
        prefix.append(acc)
    g, s, _ = xgcd(QuadInt(ctx, *acc), modulus.gen)
    if not g.is_one():
        raise NotCoprime(f"a residue is not a unit mod {modulus}")
    inv = mul(s.a, s.b, 1, 0)
    out = [None] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        out[i] = mul(*inv, *prefix[i - 1])
        inv = mul(*inv, *xs[i])
    out[0] = inv
    return out


# ---------------------------------------------------------------------------
# factorization


def _factor_int(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of a positive integer."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _minpoly_roots_mod_p(ctx: FieldCtx, p: int) -> list[int]:
    """Roots of the minimal polynomial of w modulo the rational prime p."""
    if ctx.shifted:
        return [r for r in range(p) if (r * r - r + ctx.norm_w) % p == 0]
    return [r for r in range(p) if (r * r + ctx.norm_w) % p == 0]


def primes_above(ctx: FieldCtx, p: int) -> list[QuadInt]:
    """Canonical prime elements of Z[w] dividing the rational prime p.

    Split and ramified primes have norm p and arise as gcd(p, w - r) for
    a root r of the minimal polynomial of w mod p; an inert p stays prime
    with norm p^2.
    """
    roots = _minpoly_roots_mod_p(ctx, p)
    if not roots:
        return [QuadInt(ctx, p, 0)]
    found = []
    for r in roots:
        g = gcd(QuadInt(ctx, p, 0), QuadInt(ctx, -r, 1))
        if g.norm() != p:
            raise ArithmeticError(f"prime lift above {p} failed for d={ctx.d}")
        if g not in found:
            found.append(g)
    return sorted(found, key=lambda x: x.key())


def factor(n: PIdeal) -> list[tuple[PIdeal, int]]:
    """Prime factorization of a nonzero ideal, sorted by (norm, generator).

    The witness identity prod p_i^(e_i) = n holds exactly; the unit ideal
    factors as the empty product.
    """
    if n.is_zero():
        raise ZeroModulus("cannot factor the zero ideal")
    m = n.gen
    out = []
    for p, _ in _factor_int(n.norm()):
        for pi in primes_above(n.ctx, p):
            e = 0
            while divides(pi, m):
                m = exact_div(m, pi)
                e += 1
            if e:
                out.append((PIdeal(pi), e))
    if not m.is_unit():
        raise ArithmeticError(f"factorization of {n} left non-unit cofactor {m}")
    return sorted(out, key=lambda t: (t[0].norm(), t[0].gen.key()))


def primes_by_norm(ctx: FieldCtx, max_norm: int) -> Iterator[PIdeal]:
    """The prime ideals of norm <= max_norm, lazily, by (norm, generator).

    Split and ramified primes above a rational prime p have norm p and
    come in the order of primes_above.  An inert p has norm p^2 and
    waits in a queue until the rational primes pass p^2.  So a caller
    that stops early factors no rational prime beyond the last one it
    needed; callers that want the whole list take list(...).
    """
    inert: deque[int] = deque()
    for p in range(2, max_norm + 1):
        if any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
            continue
        while inert and inert[0] ** 2 < p:
            yield PIdeal(QuadInt(ctx, inert.popleft(), 0))
        above = primes_above(ctx, p)
        if above[0].norm() == p:
            yield from (PIdeal(g) for g in above)
        elif p * p <= max_norm:
            inert.append(p)
    for p in inert:
        yield PIdeal(QuadInt(ctx, p, 0))


def enumerate_ideals(ctx: FieldCtx, max_norm: int) -> list[PIdeal]:
    """All nonzero ideals of norm <= max_norm, sorted by (norm, generator)."""
    seen = set()
    out = []
    if ctx.shifted:
        bmax = int((4 * max_norm / ctx.d) ** 0.5) + 1
    else:
        bmax = int((max_norm / ctx.d) ** 0.5) + 1
    amax = int(max_norm**0.5) + bmax + 1
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            x = QuadInt(ctx, a, b)
            if x.is_zero() or x.norm() > max_norm:
                continue
            n = PIdeal(x)
            if n.gen not in seen:
                seen.add(n.gen)
                out.append(n)
    return sorted(out, key=lambda n: (n.norm(), n.gen.key()))


# ---------------------------------------------------------------------------
# prime searches


def search_prime_coprime_normminus1(
    ctx: FieldCtx, exponent: int, norm_bound: int
) -> PIdeal:
    """Smallest prime q with gcd(norm(q) - 1, exponent) = 1.

    These exist in abundance by Chebotarev; the search is a plain sweep
    over primes by increasing norm, raising NotFound past norm_bound.
    Requires an odd exponent >= 3.
    """
    from math import gcd as igcd

    if exponent < 3 or exponent % 2 == 0:
        raise ValueError(f"exponent must be odd and >= 3, got {exponent}")
    for l in primes_by_norm(ctx, norm_bound):
        if igcd(l.norm() - 1, exponent) == 1:
            return l
    raise ExhaustedSearch(
        f"no prime of norm <= {norm_bound} with norm-1 coprime to {exponent}"
    )


def prime_residue_reps_in_ideal(l: PIdeal, constraint: PIdeal) -> list[QuadInt]:
    """Residue system of O/l whose representatives all lie in constraint.

    Shifts each box representative r to r*s*c where s*c + t*l = 1, then
    reduces modulo l*constraint; the result is congruent to r mod l and
    divisible by the constraint generator.  Requires l prime and coprime
    to the constraint.
    """
    if not l.is_prime():
        raise NotPrime(f"{l} is not prime")
    if not l.is_coprime(constraint):
        raise NotCoprime(f"{l} and {constraint} share a factor")
    rs = ResidueSystem(l)
    if constraint.is_unit_ideal():
        return list(rs.reps)
    c = constraint.gen
    _, s, _ = xgcd(c, l.gen)
    shift = s * c  # = 1 mod l, = 0 mod constraint
    big = ResidueSystem(l * constraint)
    out = []
    for r in rs.reps:
        x = big.reduce(r * shift)
        if not divides(c, x) or not l.contains(x - r):
            raise ArithmeticError("CRT shift failed")
        out.append(x)
    return out
