"""Exact rational cross-checks for the modular fast paths.

Everything here is deliberately naive: math.comb for binomials, Fraction
accumulation for sums, full scans for representations and square roots.
No table, context, or recurrence trick from the engine is reused, so an
agreement between the two paths is meaningful evidence.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

from .arith import OddPrime, ResidueMod
from .errors import IndexOutOfRange, NegativeValuation
from .seq import (
    COMPANION_PELL,
    CONST1,
    CUBIC_CHAR,
    HARMONIC,
    HARMONIC_GAP,
    LUCAS_U,
    LUCAS_V,
    PELL,
    THREE_INDICATOR,
)

BRUTE_SQRT_BOUND = 10**7
EXHAUSTIVE_REPRESENT_BOUND = 10**6
EXACT_SUM_PRIME_BOUND = 1000


def reduce_fraction(value: Fraction, p: int, e: int) -> int:
    """Least non-negative residue of a p-integral rational mod p^e."""
    p = OddPrime(p)
    den = value.denominator
    if den % p == 0:
        raise NegativeValuation(f"{value} has a pole at {p}")
    mod = p**e
    return value.numerator * pow(den, -1, mod) % mod


def exact_harmonic(k: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))


def exact_harmonic_gap(k: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(k + 1, 2 * k + 1)), Fraction(0))


def exact_lucas_u(a: int, b: int, n: int) -> int:
    u0, u1 = 0, 1
    for _ in range(n):
        u0, u1 = u1, a * u1 - b * u0
    return u0


def exact_lucas_v(a: int, b: int, n: int) -> int:
    v0, v1 = 2, a
    for _ in range(n):
        v0, v1 = v1, a * v1 - b * v0
    return v0


def exact_apery(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def exact_legendre_poly(n: int, x: Fraction) -> Fraction:
    x = Fraction(x)
    z = (x - 1) / 2
    return sum(comb(n, k) * comb(n + k, k) * z**k for k in range(n + 1))


def clausen_square_check(n: int, x) -> bool:
    """Exact rational identity P_n(x)^2 = sum C(n,k)C(n+k,k)C(2k,k)((x^2-1)/4)^k."""
    if n > 30:
        raise IndexOutOfRange(f"n = {n} above the exact-check bound 30")
    x = Fraction(x)
    z = (x * x - 1) / 4
    rhs = sum(comb(n, k) * comb(n + k, k) * comb(2 * k, k) * z**k for k in range(n + 1))
    return exact_legendre_poly(n, x) ** 2 == rhs


def exact_weights(kind: str, a: int, b: int, count: int) -> list:
    """First `count` terms of a weight sequence, as ints or Fractions."""
    if kind == CONST1:
        return [1] * count
    if kind in (PELL, COMPANION_PELL):
        a, b, kind = 2, -1, LUCAS_U if kind == PELL else LUCAS_V
    if kind == LUCAS_U:
        return [exact_lucas_u(a, b, k) for k in range(count)]
    if kind == LUCAS_V:
        return [exact_lucas_v(a, b, k) for k in range(count)]
    if kind == CUBIC_CHAR:
        return [(0, 1, -1)[k % 3] for k in range(count)]
    if kind == THREE_INDICATOR:
        return [2 if k % 3 == 0 else -1 for k in range(count)]
    if kind == HARMONIC:
        return [exact_harmonic(k) for k in range(count)]
    if kind == HARMONIC_GAP:
        return [exact_harmonic_gap(k) for k in range(count)]
    raise ValueError(f"unknown weight kind {kind!r}")


def exact_sum(spec, p: int) -> ResidueMod:
    """Evaluate a SumSpec exactly over Q, then reduce mod p^spec.e.

    spec.m must be an int or Fraction; the quadratic-time weight
    evaluation bounds practical use to p <= 1000.
    """
    p = OddPrime(p)
    if p > EXACT_SUM_PRIME_BOUND:
        raise IndexOutOfRange(f"exact_sum bound is p <= {EXACT_SUM_PRIME_BOUND}")
    m = spec.m
    if not isinstance(m, (int, Fraction)):
        raise TypeError(f"exact_sum needs an exact m, got {type(m).__name__}")
    kmax = (p - 1) // 2 if spec.range == "half" else p - 1
    weights = exact_weights(spec.weight.kind, spec.weight.a, spec.weight.b, kmax + 1)
    minv = Fraction(1, 1) / Fraction(m)
    total = Fraction(0)
    mk = Fraction(1)
    for k in range(kmax + 1):
        c = 0
        for ci in spec.poly:
            c = c * k + ci
        total += c * Fraction(comb(2 * k, k)) ** spec.h * weights[k] * mk
        mk *= minv
    return ResidueMod(p, spec.e, reduce_fraction(total, p, spec.e))


def exhaustive_represent(p: int, d: int) -> list:
    """All (x, y) with x, y >= 1 and x^2 + d y^2 = p, by full scan."""
    p = OddPrime(p)
    if p >= EXHAUSTIVE_REPRESENT_BOUND:
        raise IndexOutOfRange(f"exhaustive scan bound is p < {EXHAUSTIVE_REPRESENT_BOUND}")
    out = []
    x = 1
    while x * x < p:
        rem = p - x * x
        if rem % d == 0:
            y = isqrt(rem // d)
            if y >= 1 and d * y * y == rem:
                out.append((x, y))
        x += 1
    return sorted(out)


def brute_sqrt(a: int, p: int, e: int) -> list:
    """All square roots of a mod p^e by full scan; bound p^e <= 10^7."""
    mod = OddPrime(p) ** e
    if mod > BRUTE_SQRT_BOUND:
        raise IndexOutOfRange(f"brute force bound is p^e <= {BRUTE_SQRT_BOUND}")
    a %= mod
    return [r for r in range(mod) if r * r % mod == a]
