"""Representations p = x^2 + d*y^2 and sign conventions.

Only d in {1, 2, 3, 7} are supported: each has class number one, so an odd
prime p with (-d/p) = 1 and p not dividing d has an essentially unique
representation.  Congruence statements fix signs through parity conventions
and through alignment with a chosen square root of -d mod p^e.  Each
convention is one rule in SIGN_RULES, which QuadRep, normalize and align_pi
all read.
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

# convention -> (the rule's text, the rule as a predicate on (d, x, y))
SIGN_RULES = {
    RAW: ("any signs", lambda d, x, y: True),
    X1MOD4: ("x = 1 (mod 4)", lambda d, x, y: x % 4 == 1),
    Y1MOD4: ("y = 1 (mod 4)", lambda d, x, y: y % 4 == 1),
    XPLUSY1MOD4: ("x+y = 1 (mod 4)", lambda d, x, y: (x + y) % 4 == 1),
    D1_ODDX1MOD4: ("d = 1 and x = 1 (mod 4)", lambda d, x, y: d == 1 and x % 4 == 1),
}

CONVENTIONS = tuple(SIGN_RULES)


def _rule(convention: str) -> tuple:
    try:
        return SIGN_RULES[convention]
    except KeyError:
        raise ValueError(f"unknown convention {convention!r}") from None


class QuadRep(Record, namedtuple("QuadRep", "p d x y convention")):
    """One signed representation p = x^2 + d*y^2 that meets a named convention.

    The convention's rule is validated; the signs it leaves free are whatever
    normalize or align_pi chose.
    """

    __slots__ = ()

    def __new__(cls, p: int, d: int, x: int, y: int, convention: str):
        p = OddPrime(p)
        if d not in SUPPORTED_D:
            raise ValueError(f"unsupported d={d}; expected one of {SUPPORTED_D}")
        if x**2 + d * y**2 != p:
            raise ValueError(f"{x}^2 + {d}*{y}^2 != {p}")
        text, meets = _rule(convention)
        if not meets(d, x, y):
            raise ValueError(f"(x, y) = ({x}, {y}) violates {text}")
        return super().__new__(cls, p, d, x, y, convention)


class AlignedRep(Record, namedtuple("AlignedRep", "rep sqrt_md")):
    """A representation whose signs are tied to a square root of -d.

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
                return QuadRep(p, d, x, y, RAW)
    raise NotRepresentable(f"no x^2 + {d}y^2 = {p} found")  # pragma: no cover


def normalize(rep: QuadRep, convention: str) -> tuple:
    """The representations of rep's p under a sign convention, as a tuple.

    The sign choices of (|x|, |y|) are tried in the order (+,+), (+,-),
    (-,+), (-,-); the first that meets the convention's rule is kept, or
    under XPLUSY1MOD4 both that meet it.  D1_ODDX1MOD4 first moves the odd
    part into x.  ConventionUnachievable when no choice meets the rule.
    """
    text, meets = _rule(convention)
    p, d, x, y = rep.p, rep.d, abs(rep.x), abs(rep.y)
    if convention == D1_ODDX1MOD4 and x % 2 == 0:
        x, y = y, x
    picks = [(sx * x, sy * y) for sx in (1, -1) for sy in (1, -1) if meets(d, sx * x, sy * y)]
    if not picks:
        raise ConventionUnachievable(f"no sign choice of ({x}, {y}) with d = {d} meets {text}")
    kept = picks if convention == XPLUSY1MOD4 else picks[:1]
    return tuple(QuadRep(p, d, a, b, convention) for a, b in kept)


def align_pi(rep: QuadRep, sqrt_md: ResidueMod) -> AlignedRep:
    """rep with a sign flipped, if needed, so that x + y*sqrt_md = 0 (mod p).

    y is flipped where the convention leaves it free, else x: since
    -x + y*s = -(x - y*s), either flip aligns an unaligned representation,
    and every rule leaves one of them free.
    """
    p, d, x, y, convention = rep
    if (x + y * sqrt_md.value) % p != 0:
        _, meets = SIGN_RULES[convention]
        x, y = (x, -y) if meets(d, x, -y) else (-x, y)
    return AlignedRep(QuadRep(p, d, x, y, convention), sqrt_md)


def pi_bar(aligned: AlignedRep) -> ResidueMod:
    """The conjugate factor x - y*sqrt(-d), a unit, mod the power sqrt_md is known to.

    (x - y s)(x + y s) = p up to the error in s^2 + d, and alignment puts
    all the p-divisibility in the second factor.
    """
    s, rep = aligned.sqrt_md, aligned.rep
    out = ResidueMod(rep.p, s.e, rep.x - rep.y * s.value)
    assert out.value % rep.p != 0
    return out
