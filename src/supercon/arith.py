"""Modular arithmetic over odd primes.

ResidueMod is a residue mod p^e: binomial_sum returns one, and reduce() cuts
a residue down to fewer digits, never more.  Reports do not hold ResidueMods:
run_check reduces both sides of each pair, ints or Fractions, mod p^e itself,
and a CheckReport holds ints.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from .errors import NonResidue, NotCoprime, PrecisionExhausted, ZeroInput

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_EXPONENT = 12


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 2^64."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Record:
    """Base of the records that validate in __new__: a namedtuple subclass
    lists Record first, so that _make, and through it _replace, validate too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def require_int(name: str, value) -> None:
    """TypeError unless value is an int; a bool or a float is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_exponent(e) -> None:
    require_int("exponent", e)
    if not 1 <= e <= MAX_EXPONENT:
        raise ValueError(f"exponent {e} outside 1..{MAX_EXPONENT}")


class OddPrime(int):
    """An odd prime below 2^63, validated at construction, and an int in every other way.

    OddPrime(p) returns an OddPrime p unchanged, so every function that takes
    a prime starts with p = OddPrime(p) and a prime is checked once.  It reads
    anything else through __index__: a float or a str is a TypeError.  str()
    prints the bare number, so reports, CSV and JSON show 13; repr() shows
    OddPrime(13).
    """

    __slots__ = ()
    __str__ = int.__repr__

    def __new__(cls, p):
        if type(p) is cls:
            return p
        p = index(p)
        if p < 3 or p % 2 == 0 or p >= 2**63:
            raise ValueError(f"{p} is not an odd prime below 2^63")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)

    def __repr__(self) -> str:
        return f"OddPrime({self})"


class ResidueMod(Record, namedtuple("ResidueMod", "p e value")):
    """Integer residue in [0, p^e), with its prime and exponent."""

    __slots__ = ()

    def __new__(cls, p: int, e: int, value: int):
        p = OddPrime(p)
        _check_exponent(e)
        return super().__new__(cls, p, e, value % p**e)

    @property
    def modulus(self) -> int:
        return self.p**self.e

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.p}^{self.e})"


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} by Euler's criterion."""
    p = OddPrime(p)
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def fermat_quotient(m: int, p: int) -> ResidueMod:
    """q_p(m) = (m^(p-1) - 1)/p mod p, for m coprime to p."""
    p = OddPrime(p)
    if m % p == 0:
        raise NotCoprime(f"{m} is divisible by {p}")
    t = pow(m, p - 1, p * p)
    return ResidueMod(p, 1, (t - 1) // p)


def _tonelli_shanks(a: int, p: int) -> int:
    """One square root of a mod p; caller guarantees a is a nonzero residue."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    assert x * x % p == a % p
    return x


def sqrt_mod(a: int, p: int, e: int) -> tuple[ResidueMod, ResidueMod]:
    """Both square roots of a mod p^e, smaller representative first.

    Raises ZeroInput when p | a and NonResidue when (a/p) = -1.  Root choice
    beyond the (smaller, larger) ordering carries no meaning; callers that
    need a specific root must select it by an explicit convention.
    """
    p = OddPrime(p)
    _check_exponent(e)
    if a % p == 0:
        raise ZeroInput(f"sqrt_mod needs a unit; {a} = 0 (mod {p})")
    if legendre_symbol(a, p) == -1:
        raise NonResidue(f"{a} is not a square mod {p}")
    r = _tonelli_shanks(a % p, p)
    mod = p
    while mod < p**e:
        # quadratic Newton step for z^2 - a, doubling the known digits
        mod = min(mod * mod, p**e)
        r = (r + a * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    mod = p**e
    r %= mod
    assert r * r % mod == a % mod
    lo, hi = sorted((r, mod - r))
    return ResidueMod(p, e, lo), ResidueMod(p, e, hi)


def reduce(x: ResidueMod, e: int) -> ResidueMod:
    """x mod p^e for e <= x.e; PrecisionExhausted for digits x does not carry."""
    if e > x.e:
        raise PrecisionExhausted(f"value known mod {x.p}^{x.e}, requested mod {x.p}^{e}")
    return ResidueMod(x.p, e, x.value)
