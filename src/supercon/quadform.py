"""Representations p = x^2 + d*y^2 and sign conventions.

Only d in {1, 2, 3, 7} are supported: each has class number one, so an odd
prime p with (-d/p) = 1 and p not dividing d has an essentially unique
representation.  Congruence statements fix signs through parity conventions
and through alignment with a chosen square root of -d mod p^e.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .arith import OddPrime, Record, ResidueMod, legendre_symbol, sqrt_mod
from .errors import ConventionUnachievable, NotRepresentable, RamifiedPrime

SUPPORTED_D = (1, 2, 3, 7)

RAW = "raw"
X1MOD4 = "x1mod4"
Y1MOD4 = "y1mod4"
XPLUSY1MOD4 = "xplusy1mod4"
D1_ODDX1MOD4 = "d1_oddx1mod4"

CONVENTIONS = (RAW, X1MOD4, Y1MOD4, XPLUSY1MOD4, D1_ODDX1MOD4)


class QuadRep(Record, namedtuple("QuadRep", "p d x y convention")):
    """One signed representation p = x^2 + d*y^2 under a named convention.

    The convention field records which sign rule produced the pair; the
    parity constraints it implies are validated, signs are whatever the rule
    left (alignment may later flip y where the convention leaves it free).
    """

    __slots__ = ()

    def __new__(cls, p: int, d: int, x: int, y: int, convention: str):
        p = OddPrime(p)
        if d not in SUPPORTED_D:
            raise ValueError(f"unsupported d={d}; expected one of {SUPPORTED_D}")
        if x**2 + d * y**2 != p:
            raise ValueError(f"{x}^2 + {d}*{y}^2 != {p}")
        c = convention
        if c not in CONVENTIONS:
            raise ValueError(f"unknown convention {c!r}")
        if c == X1MOD4 and x % 4 != 1:
            raise ValueError(f"x = {x} violates x = 1 (mod 4)")
        if c == Y1MOD4 and y % 4 != 1:
            raise ValueError(f"y = {y} violates y = 1 (mod 4)")
        if c == XPLUSY1MOD4 and (x + y) % 4 != 1:
            raise ValueError(f"x+y = {x + y} violates x+y = 1 (mod 4)")
        if c == D1_ODDX1MOD4 and (d != 1 or x % 2 == 0 or y % 2 != 0 or x % 4 != 1):
            raise ValueError("d=1 convention needs x odd, y even, x = 1 (mod 4)")
        return super().__new__(cls, p, d, x, y, convention)


class AlignedRep(Record, namedtuple("AlignedRep", "rep sqrt_md")):
    """A representation whose y-sign is tied to a square root of -d.

    Alignment means x + y*s = 0 (mod p) for s = sqrt_md: the factor
    x + y*sqrt(-d) lies over the prime ideal that s singles out, so the
    conjugate x - y*sqrt(-d) is a p-adic unit.
    """

    __slots__ = ()

    def __new__(cls, rep: QuadRep, sqrt_md: ResidueMod):
        p = rep.p
        s = sqrt_md.value
        if (s * s + rep.d) % p != 0:
            raise ValueError("sqrt_md is not a square root of -d")
        if (rep.x + rep.y * s) % p != 0:
            raise ValueError("representation is not aligned with sqrt_md")
        return super().__new__(cls, rep, sqrt_md)


def represent(p: int, d: int) -> QuadRep:
    """Find the representation p = x^2 + d*y^2 with x, y > 0 (Cornacchia).

    For d = 1 the pair is ordered so that x is odd.  Raises RamifiedPrime
    when p | d and NotRepresentable when (-d/p) = -1.
    """
    p = OddPrime(p)
    if d not in SUPPORTED_D:
        raise ValueError(f"unsupported d={d}")
    if d % p == 0:
        raise RamifiedPrime(f"p={p} divides d={d}")
    if legendre_symbol(-d, p) != 1:
        raise NotRepresentable(f"-{d} is not a quadratic residue mod {p}")
    limit = isqrt(p)
    r0 = sqrt_mod(-d, p, 1)[0].value
    for r in (r0, p - r0):
        a, b = p, r
        while b > limit:
            a, b = b, a % b
        rem = p - b * b
        if rem % d == 0:
            y2 = rem // d
            y = isqrt(y2)
            if y * y == y2 and y > 0:
                x = b
                if d == 1 and x % 2 == 0:
                    x, y = y, x
                assert x * x + d * y * y == p
                return QuadRep(p, d, x, y, RAW)
    raise NotRepresentable(f"no x^2 + {d}y^2 = {p} found")  # pragma: no cover


def normalize(rep: QuadRep, convention: str):
    """Apply a sign convention to a representation.

    Returns a single QuadRep, except for XPLUSY1MOD4 where exactly two of
    the four sign choices qualify and both are returned as a tuple; the
    caller disambiguates via select_aligned.  A QuadRep is a tuple too, so
    tell the two apart with isinstance(out, QuadRep).
    """
    x, y = abs(rep.x), abs(rep.y)
    p, d = rep.p, rep.d
    if convention == RAW:
        return QuadRep(p, d, x, y, RAW)
    if convention == X1MOD4:
        if x % 2 == 0:
            raise ConventionUnachievable(f"x = {x} is even; x = 1 (mod 4) impossible")
        return QuadRep(p, d, x if x % 4 == 1 else -x, y, X1MOD4)
    if convention == Y1MOD4:
        if y % 2 == 0:
            raise ConventionUnachievable(f"y = {y} is even; y = 1 (mod 4) impossible")
        return QuadRep(p, d, x, y if y % 4 == 1 else -y, Y1MOD4)
    if convention == D1_ODDX1MOD4:
        if d != 1:
            raise ConventionUnachievable("convention only applies to d = 1")
        if x % 2 == 0:
            x, y = y, x
        if x % 2 == 0 or y % 2 != 0:
            raise ConventionUnachievable(f"no odd/even split for ({x}, {y})")
        return QuadRep(p, d, x if x % 4 == 1 else -x, y, D1_ODDX1MOD4)
    if convention == XPLUSY1MOD4:
        picks = [
            (sx * x, sy * y)
            for sx in (1, -1)
            for sy in (1, -1)
            if (sx * x + sy * y) % 4 == 1
        ]
        if len(picks) != 2:
            raise ConventionUnachievable(
                f"{len(picks)} sign choices qualify for ({x}, {y}); x+y must be odd"
            )
        return tuple(QuadRep(p, d, a, b, XPLUSY1MOD4) for a, b in picks)
    raise ValueError(f"unknown convention {convention!r}")


def align_pi(rep: QuadRep, sqrt_md: ResidueMod) -> AlignedRep:
    """Flip the sign of y, if needed, so that x + y*sqrt_md = 0 (mod p).

    Only used with conventions that leave the sign of y free; a flip that
    would break the recorded convention degrades the label to raw.
    """
    s = sqrt_md.value
    if (rep.x + rep.y * s) % rep.p == 0:
        return AlignedRep(rep, sqrt_md)
    label = rep.convention
    if label in (Y1MOD4, XPLUSY1MOD4):
        label = RAW
    flipped = QuadRep(rep.p, rep.d, rep.x, -rep.y, label)
    return AlignedRep(flipped, sqrt_md)


def select_aligned(pair, sqrt_md: ResidueMod) -> AlignedRep:
    """Pick the member of a normalize() pair that is aligned with sqrt_md."""
    s = sqrt_md.value
    for rep in pair:
        if (rep.x + rep.y * s) % rep.p == 0:
            return AlignedRep(rep, sqrt_md)
    raise ConventionUnachievable("no member of the pair aligns; wrong sqrt?")


def pi_bar(aligned: AlignedRep) -> ResidueMod:
    """The conjugate factor x - y*sqrt(-d), a unit, mod the power sqrt_md is known to.

    (x - y s)(x + y s) = p up to the error in s^2 + d, and alignment puts
    all the p-divisibility in the second factor.
    """
    s, rep = aligned.sqrt_md, aligned.rep
    out = ResidueMod(rep.p, s.e, rep.x - rep.y * s.value)
    assert out.value % rep.p != 0
    return out
