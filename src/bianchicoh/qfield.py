"""Exact arithmetic in the five norm-Euclidean imaginary quadratic rings.

The ring of integers of Q(sqrt(-d)) for d in {1, 2, 3, 7, 11} is Z[w] with

    w = sqrt(-d)        for d = 1, 2     (w^2 = -d)
    w = (1+sqrt(-d))/2  for d = 3, 7, 11 (w^2 = w - m, m = (1+d)/4)

Elements are stored as coordinate pairs (a, b) meaning a + b*w with plain
Python integers, so nothing ever overflows.  Division with remainder rounds
the exact quotient coordinatewise (ties toward minus infinity) and, when
that candidate does not already decrease the norm, falls back to the best
remainder over the 3x3 block of neighbouring quotients.  The resulting
norm descent is asserted on every call.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import (
    BadDeterminant,
    FieldMismatch,
    ParseError,
    UnsupportedField,
)

EUCLIDEAN_DS = (1, 2, 3, 7, 11)


class FieldCtx:
    """Immutable description of one of the five rings Z[w].

    Attributes:
        d: the positive squarefree integer, field is Q(sqrt(-d)).
        shifted: True when d = 3 mod 4 and w = (1+sqrt(-d))/2.
        trace_w: trace of w (1 if shifted else 0).
        norm_w: norm of w (m = (1+d)/4 if shifted else d).
    """

    __slots__ = ("d", "shifted", "trace_w", "norm_w", "zero", "one", "omega", "units")

    def __init__(self, d: int):
        if d not in EUCLIDEAN_DS:
            raise UnsupportedField(f"d must be one of {EUCLIDEAN_DS}, got {d!r}")
        self.d = d
        self.shifted = d % 4 == 3
        self.trace_w = 1 if self.shifted else 0
        self.norm_w = (1 + d) // 4 if self.shifted else d
        self.zero = QuadInt(self, 0, 0)
        self.one = QuadInt(self, 1, 0)
        self.omega = QuadInt(self, 0, 1)
        self.units = self._unit_list()

    def _unit_list(self):
        one, omega = self.one, self.omega
        if self.d == 1:
            return [one, omega, -one, -omega]  # 1, i, -1, -i
        if self.d == 3:
            # w is a primitive sixth root of unity; list all its powers.
            units = [one]
            u = omega
            while u != one:
                units.append(u)
                u = u * omega
            return units
        return [one, -one]

    def __repr__(self):
        return f"FieldCtx(d={self.d})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.d == self.d

    def __hash__(self):
        return hash(("FieldCtx", self.d))

    def element(self, a: int, b: int = 0) -> "QuadInt":
        return QuadInt(self, a, b)


@lru_cache(maxsize=None)
def field(d: int) -> FieldCtx:
    """Return the shared context for Q(sqrt(-d))."""
    return FieldCtx(d)


class QuadInt:
    """An algebraic integer a + b*w of one fixed field."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: FieldCtx, a: int, b: int = 0):
        self.ctx = ctx
        self.a = a
        self.b = b

    # -- ring structure -------------------------------------------------

    def _check(self, other: "QuadInt") -> "QuadInt":
        if not isinstance(other, QuadInt):
            if isinstance(other, int):
                return QuadInt(self.ctx, other, 0)
            raise TypeError(f"cannot combine QuadInt with {type(other).__name__}")
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise FieldMismatch(f"mixing d={self.ctx.d} with d={other.ctx.d}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return QuadInt(self.ctx, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return QuadInt(self.ctx, self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return QuadInt(self.ctx, -self.a, -self.b)

    def __mul__(self, other):
        other = self._check(other)
        a, b = self.a, self.b
        c, e = other.a, other.b
        be = b * e
        if self.ctx.shifted:
            # w^2 = w - m
            return QuadInt(
                self.ctx, a * c - self.ctx.norm_w * be, a * e + b * c + be
            )
        return QuadInt(self.ctx, a * c - self.ctx.norm_w * be, a * e + b * c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the ring")
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "QuadInt":
        if self.ctx.shifted:
            return QuadInt(self.ctx, self.a + self.b, -self.b)
        return QuadInt(self.ctx, self.a, -self.b)

    def norm(self) -> int:
        a, b = self.a, self.b
        n = a * a + self.ctx.norm_w * b * b
        if self.ctx.shifted:
            n += a * b
        return n

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return (
            isinstance(other, QuadInt)
            and self.ctx.d == other.ctx.d
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.ctx.d, self.a, self.b))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"QuadInt(d={self.ctx.d}, {format_element(self)!r})"

    def __str__(self):
        return format_element(self)

    def key(self):
        """Deterministic sort key; prefers small w-coordinate, then small a."""
        return (self.b, self.a)


# ---------------------------------------------------------------------------
# division with remainder


def _round_half_down(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties toward minus infinity."""
    # ceil(num/den - 1/2) = ceil((2*num - den) / (2*den))
    return -((den - 2 * num) // (2 * den))


def divmod_coords(ctx: FieldCtx, a0: int, a1: int, b0: int,
                  b1: int) -> tuple[int, int, int, int]:
    """The division rule on coordinates: a = q*b + r, norm(r) < norm(b).

    a = a0 + a1*w and b = b0 + b1*w; returns (q0, q1, r0, r1).  The
    primary candidate rounds each coordinate of the exact quotient
    a*conj(b)/norm(b) to the nearest integer, ties toward minus
    infinity.  For d = 7, 11 that candidate can fail the norm inequality
    (the covering radius of the lattice exceeds the coordinate box), so
    a 3x3 neighbourhood search then picks the minimum-norm remainder,
    breaking ties by quotient coordinates.  The descent is asserted.

    Raises:
        ZeroDivisionError: if b == 0.
    """
    m = ctx.norm_w
    if ctx.shifted:
        nb = b0 * b0 + b0 * b1 + m * b1 * b1
        # a * conj(b) with conj(b) = (b0 + b1) - b1*w and w^2 = w - m
        c0 = b0 + b1
        n0 = a0 * c0 + m * a1 * b1
        n1 = a1 * c0 - a0 * b1 - a1 * b1
    else:
        nb = b0 * b0 + m * b1 * b1
        n0 = a0 * b0 + m * a1 * b1
        n1 = a1 * b0 - a0 * b1
    if nb == 0:
        raise ZeroDivisionError("division by zero in Z[w]")
    sh = 1 if ctx.shifted else 0
    q0 = _round_half_down(n0, nb)
    q1 = _round_half_down(n1, nb)
    best = None
    # the primary candidate first, then the rest of its 3x3 block
    for d0, d1 in ((0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1),
                   (1, -1), (1, 0), (1, 1)):
        c0, c1 = q0 + d0, q1 + d1
        r0 = a0 - c0 * b0 + m * c1 * b1
        r1 = a1 - c0 * b1 - c1 * b0 - sh * c1 * b1
        nr = r0 * r0 + sh * r0 * r1 + m * r1 * r1
        if d0 == d1 == 0:
            if nr < nb:
                return c0, c1, r0, r1
            continue
        key = (nr, c0, c1)
        if best is None or key < best[0]:
            best = (key, c0, c1, r0, r1)
    (nr, _, _), c0, c1, r0, r1 = best
    if nr >= nb:  # impossible in a norm-Euclidean field
        raise ArithmeticError(
            f"no norm-decreasing remainder for ({a0}, {a1}) / ({b0}, {b1}) "
            f"(d={ctx.d})"
        )
    return c0, c1, r0, r1


def euclid_divmod(a: QuadInt, b: QuadInt) -> tuple[QuadInt, QuadInt]:
    """Return (q, r) with a = q*b + r and norm(r) < norm(b).

    The rule is divmod_coords on the coordinates of a and b.

    Raises:
        ZeroDivisionError: if b == 0.
    """
    ctx = a.ctx
    q0, q1, r0, r1 = divmod_coords(ctx, a.a, a.b, b.a, b.b)
    return QuadInt(ctx, q0, q1), QuadInt(ctx, r0, r1)


def exact_div(a: QuadInt, b: QuadInt) -> QuadInt:
    """Return a/b, requiring b | a exactly."""
    q, r = euclid_divmod(a, b)
    if not r.is_zero():
        raise ArithmeticError(f"{b} does not divide {a} in Z[w] (d={a.ctx.d})")
    return q


def divides(b: QuadInt, a: QuadInt) -> bool:
    """True when b | a (b nonzero), or when both are zero."""
    if b.is_zero():
        return a.is_zero()
    return euclid_divmod(a, b)[1].is_zero()


def normalize_associate(x: QuadInt) -> QuadInt:
    """Canonical representative of the unit orbit of x.

    For unit group {1, -1} this is the associate with a > 0 (or a = 0 and
    b > 0).  For d = 1 and d = 3 the units rotate by 90 and 60 degrees,
    and the canonical associate is the unique one in the half-open sector
    a > 0, b >= 0 (so rational integers normalize to themselves and units
    normalize to 1).  Zero maps to zero.
    """
    if x.is_zero():
        return x
    picked = None
    for u in x.ctx.units:
        y = u * x
        if x.ctx.d in (1, 3):
            ok = y.a > 0 and y.b >= 0
        else:
            ok = y.a > 0 or (y.a == 0 and y.b > 0)
        if ok:
            if picked is not None:
                raise ArithmeticError(f"associate normalization not unique for {x}")
            picked = y
    if picked is None:
        raise ArithmeticError(f"no canonical associate found for {x}")
    return picked


def xgcd(a: QuadInt, b: QuadInt) -> tuple[QuadInt, QuadInt, QuadInt]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b.

    g is the canonical associate (normalize_associate) of any gcd; for
    coprime inputs g = 1.  Raises ValueError when both inputs are zero.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is not defined")
    ctx = a.ctx
    r0, r1 = a, b
    s0, s1 = ctx.one, ctx.zero
    t0, t1 = ctx.zero, ctx.one
    while not r1.is_zero():
        q, r = euclid_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    g = normalize_associate(r0)
    # scale the Bezout pair by the unit carrying r0 to its canonical form
    for u in ctx.units:
        if u * r0 == g:
            return g, u * s0, u * t0
    raise ArithmeticError(f"unit matching failed for gcd of {a}, {b}")


def gcd(a: QuadInt, b: QuadInt) -> QuadInt:
    return xgcd(a, b)[0]


# ---------------------------------------------------------------------------
# element literals ("a+b*w")

_INT_RE = re.compile(r"^([+-]?\d+)$")
_W_RE = re.compile(r"^([+-]?)(?:(\d+)\*?)?w$")
_FULL_RE = re.compile(r"^([+-]?\d+)([+-])(?:(\d+)\*?)?w$")


def parse_element(ctx: FieldCtx, text: str) -> QuadInt:
    """Parse an element literal such as "5", "-3+2*w", "w" or "0-1*w"."""
    s = text.replace(" ", "")
    m = _INT_RE.match(s)
    if m:
        return QuadInt(ctx, int(m.group(1)), 0)
    m = _W_RE.match(s)
    if m:
        b = int(m.group(2)) if m.group(2) else 1
        if m.group(1) == "-":
            b = -b
        return QuadInt(ctx, 0, b)
    m = _FULL_RE.match(s)
    if m:
        a = int(m.group(1))
        b = int(m.group(3)) if m.group(3) else 1
        if m.group(2) == "-":
            b = -b
        return QuadInt(ctx, a, b)
    raise ParseError(f"cannot parse element literal {text!r}")


def format_element(x: QuadInt) -> str:
    """Canonical literal: "a" when b = 0, else "a+b*w" / "a-b*w"."""
    if x.b == 0:
        return str(x.a)
    sign = "+" if x.b >= 0 else "-"
    return f"{x.a}{sign}{abs(x.b)}*w"


# ---------------------------------------------------------------------------
# 2x2 matrices over Z[w]


def mat_mul_coords(ctx: FieldCtx, x: tuple, y: tuple) -> tuple:
    """The product of two matrices given as 8-int coordinate tuples.

    A tuple (a0, a1, b0, b1, c0, c1, d0, d1) stands for [[a, b], [c, d]]
    with a = a0 + a1*w and so on (Mat2.coords).  Each entry is a sum
    x*y + x'*y' formed without intermediate elements: (a + b w)(c + e w)
    = ac - m be + (ae + bc) w, plus be w when w is shifted (w^2 = w - m
    rather than -m).
    """
    a0, a1, b0, b1, c0, c1, d0, d1 = x
    e0, e1, f0, f1, g0, g1, h0, h1 = y
    m = ctx.norm_w
    sh = 1 if ctx.shifted else 0
    ae = a1 * e1 + b1 * g1
    af = a1 * f1 + b1 * h1
    ce = c1 * e1 + d1 * g1
    cf = c1 * f1 + d1 * h1
    return (
        a0 * e0 + b0 * g0 - m * ae,
        a0 * e1 + a1 * e0 + b0 * g1 + b1 * g0 + sh * ae,
        a0 * f0 + b0 * h0 - m * af,
        a0 * f1 + a1 * f0 + b0 * h1 + b1 * h0 + sh * af,
        c0 * e0 + d0 * g0 - m * ce,
        c0 * e1 + c1 * e0 + d0 * g1 + d1 * g0 + sh * ce,
        c0 * f0 + d0 * h0 - m * cf,
        c0 * f1 + c1 * f0 + d0 * h1 + d1 * h0 + sh * cf,
    )


def det_coords(ctx: FieldCtx, x: tuple) -> tuple[int, int]:
    """(d0, d1) with d0 + d1*w the determinant of a coordinate tuple."""
    a0, a1, b0, b1, c0, c1, d0, d1 = x
    e = a1 * d1 - b1 * c1  # the coefficient of w^2
    return (a0 * d0 - b0 * c0 - ctx.norm_w * e,
            a0 * d1 + a1 * d0 - b0 * c1 - b1 * c0 + ctx.trace_w * e)


def mat_pow_coords(ctx: FieldCtx, x: tuple, k: int) -> tuple:
    """x**k for k >= 0 on 8-int coordinate tuples, by binary powering."""
    if k < 0:
        raise ValueError(f"matrix power needs k >= 0, got {k}")
    out = None
    while k:
        if k & 1:
            out = x if out is None else mat_mul_coords(ctx, out, x)
        k >>= 1
        if k:
            x = mat_mul_coords(ctx, x, x)
    return out if out is not None else (1, 0, 0, 0, 0, 0, 1, 0)


class Mat2:
    """A 2x2 matrix [[a, b], [c, d]] over one of the rings."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: QuadInt, b: QuadInt, c: QuadInt, d: QuadInt):
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def identity(ctx: FieldCtx) -> "Mat2":
        return Mat2(ctx.one, ctx.zero, ctx.zero, ctx.one)

    @staticmethod
    def from_coords(ctx: FieldCtx, t: tuple) -> "Mat2":
        """The matrix of an 8-int coordinate tuple (see mat_mul_coords)."""
        a0, a1, b0, b1, c0, c1, d0, d1 = t
        return Mat2(QuadInt(ctx, a0, a1), QuadInt(ctx, b0, b1),
                    QuadInt(ctx, c0, c1), QuadInt(ctx, d0, d1))

    def coords(self) -> tuple:
        """(a0, a1, b0, b1, c0, c1, d0, d1) with a = a0 + a1*w, and so on."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (a.a, a.b, b.a, b.b, c.a, c.b, d.a, d.b)

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    def __mul__(self, other: "Mat2") -> "Mat2":
        ctx = self.a.ctx
        if other.a.ctx is not ctx and other.a.ctx != ctx:
            raise FieldMismatch(f"mixing d={ctx.d} with d={other.a.ctx.d}")
        return Mat2.from_coords(
            ctx, mat_mul_coords(ctx, self.coords(), other.coords()))

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, k: int) -> "Mat2":
        """self**k for k >= 0, by binary powering (mat_pow_coords)."""
        ctx = self.a.ctx
        return Mat2.from_coords(ctx, mat_pow_coords(ctx, self.coords(), k))

    def det(self) -> QuadInt:
        return self.a * self.d - self.b * self.c

    def adjugate(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inv_det_one(self) -> "Mat2":
        """Inverse of a determinant-1 matrix (the adjugate)."""
        det = self.det()
        if not det.is_one():
            raise BadDeterminant(f"matrix has det {det}, expected 1")
        return self.adjugate()

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"
