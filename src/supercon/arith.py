"""Modular arithmetic over odd primes.

ResidueMod is a residue mod p^e: binomial_sum returns one, and reduce() cuts
a residue down to fewer digits, never more.  Reports do not hold ResidueMods:
run_check reduces both sides of each pair, ints or Fractions, mod p^e itself,
and a CheckReport holds ints.
"""

from __future__ import annotations

from collections import namedtuple

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


class OddPrime(Record, namedtuple("OddPrime", "p")):
    """An odd prime below 2^63, validated at construction; ordered by p."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not isinstance(p, int):
            raise TypeError(f"prime must be int, got {type(p).__name__}")
        if p < 3 or p % 2 == 0 or p >= 2**63:
            raise ValueError(f"{p} is not an odd prime below 2^63")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)

    def power(self, e: int) -> int:
        return self.p**e

    def __int__(self) -> int:
        return self.p

    def __repr__(self) -> str:
        return f"OddPrime({self.p})"


def _as_int_prime(p: "OddPrime | int") -> int:
    if isinstance(p, OddPrime):
        return p.p
    OddPrime(p)  # validate
    return p


class ResidueMod(Record, namedtuple("ResidueMod", "p e value")):
    """Integer residue in [0, p^e), with its prime and exponent."""

    __slots__ = ()

    def __new__(cls, p: OddPrime, e: int, value: int):
        if not 1 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent {e} outside 1..{MAX_EXPONENT}")
        return super().__new__(cls, p, e, value % p.power(e))

    @property
    def modulus(self) -> int:
        return self.p.power(self.e)

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.p.p}^{self.e})"


def legendre_symbol(a: int, p: "OddPrime | int") -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} by Euler's criterion."""
    q = _as_int_prime(p)
    a %= q
    if a == 0:
        return 0
    t = pow(a, (q - 1) // 2, q)
    return 1 if t == 1 else -1


def fermat_quotient(m: int, p: "OddPrime | int") -> ResidueMod:
    """q_p(m) = (m^(p-1) - 1)/p mod p, for m coprime to p."""
    q = _as_int_prime(p)
    if m % q == 0:
        raise NotCoprime(f"{m} is divisible by {q}")
    t = pow(m, q - 1, q * q)
    prime = p if isinstance(p, OddPrime) else OddPrime(q)
    return ResidueMod(prime, 1, (t - 1) // q)


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


def sqrt_mod(a: int, p: "OddPrime | int", e: int) -> tuple[ResidueMod, ResidueMod]:
    """Both square roots of a mod p^e, smaller representative first.

    Raises ZeroInput when p | a and NonResidue when (a/p) = -1.  Root choice
    beyond the (smaller, larger) ordering carries no meaning; callers that
    need a specific root must select it by an explicit convention.
    """
    q = _as_int_prime(p)
    if a % q == 0:
        raise ZeroInput(f"sqrt_mod needs a unit; {a} = 0 (mod {q})")
    if legendre_symbol(a, q) == -1:
        raise NonResidue(f"{a} is not a square mod {q}")
    r = _tonelli_shanks(a % q, q)
    mod = q
    while mod < q**e:
        # quadratic Newton step for z^2 - a, doubling the known digits
        mod = min(mod * mod, q**e)
        r = (r + a * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    mod = q**e
    r %= mod
    assert r * r % mod == a % mod
    prime = p if isinstance(p, OddPrime) else OddPrime(q)
    lo, hi = sorted((r, mod - r))
    return ResidueMod(prime, e, lo), ResidueMod(prime, e, hi)


def reduce(x: ResidueMod, e: int) -> ResidueMod:
    """x mod p^e for e <= x.e; PrecisionExhausted for digits x does not carry."""
    if e > x.e:
        raise PrecisionExhausted(f"value known mod {x.p.p}^{x.e}, requested mod {x.p.p}^{e}")
    return ResidueMod(x.p, e, x.value)
