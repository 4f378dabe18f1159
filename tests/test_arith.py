"""Residue arithmetic primitives."""

import random

import pytest

from supercon.arith import (
    OddPrime,
    ResidueMod,
    fermat_quotient,
    is_prime,
    legendre_symbol,
    reduce,
    sqrt_mod,
)
from supercon.errors import (
    NonResidue,
    NotCoprime,
    PrecisionExhausted,
    ZeroInput,
)

PRIMES_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_odd_prime_rejects_bad_input():
    for bad in (1, 2, 4, 9, 15, -7):
        with pytest.raises(ValueError):
            OddPrime(bad)
    with pytest.raises(TypeError):
        OddPrime(7.0)


def test_residue_auto_reduces_and_signed():
    r = ResidueMod(OddPrime(5), 2, 27)
    assert r.value == 2 and r.modulus == 25
    assert ResidueMod(OddPrime(5), 2, -6).value == 19


def test_legendre_symbol_examples():
    assert legendre_symbol(4, 7) == 1
    assert legendre_symbol(2, 3) == -1
    assert legendre_symbol(7, 7) == 0


def test_legendre_symbol_multiplicative():
    for q in PRIMES_50:
        for a in range(1, q):
            for b in range(1, q):
                assert legendre_symbol(a * b, q) == legendre_symbol(
                    a, q
                ) * legendre_symbol(b, q)


def test_fermat_quotient_examples():
    assert fermat_quotient(1, OddPrime(11)).value == 0
    assert fermat_quotient(2, OddPrime(3)).value == 1
    assert fermat_quotient(2, OddPrime(5)).value == 3
    with pytest.raises(NotCoprime):
        fermat_quotient(10, OddPrime(5))


def test_fermat_quotient_logarithm_property():
    for q in PRIMES_50:
        p = OddPrime(q)
        for m1 in range(1, 30):
            for m2 in range(1, 30):
                if m1 % q == 0 or m2 % q == 0:
                    continue
                lhs = fermat_quotient(m1 * m2, p).value
                rhs = (fermat_quotient(m1, p).value + fermat_quotient(m2, p).value) % q
                assert lhs == rhs


def test_sqrt_mod_examples():
    for q, e in ((7, 1), (11, 2), (13, 3)):
        lo, hi = sqrt_mod(4, OddPrime(q), e)
        assert lo.value == 2 and hi.value == q**e - 2
    lo, hi = sqrt_mod(-7, OddPrime(11), 2)
    assert (lo.value, hi.value) == (31, 90)
    assert (90 * 90 + 7) % 121 == 0
    with pytest.raises(NonResidue):
        sqrt_mod(2, OddPrime(3), 1)
    with pytest.raises(ZeroInput):
        sqrt_mod(22, OddPrime(11), 2)


def test_an_exponent_must_be_an_int_in_range():
    # sqrt_mod(2, 7, -1) used to fail a bare assert, and e = 2.0 gave float residues
    for e in (-1, 0, 13):
        with pytest.raises(ValueError, match="outside 1..12"):
            sqrt_mod(2, 7, e)
        with pytest.raises(ValueError, match="outside 1..12"):
            ResidueMod(7, e, 5)
    for e in (2.0, True, 1.5, None):
        with pytest.raises(TypeError, match="exponent must be an int"):
            sqrt_mod(2, 7, e)
        with pytest.raises(TypeError, match="exponent must be an int"):
            ResidueMod(7, e, 5)
    assert [r.value for r in sqrt_mod(2, 7, 2)] == [10, 39]


def test_sqrt_mod_random_instances():
    rng = random.Random(2026)
    done = 0
    while done < 100:
        q = rng.choice(PRIMES_50)
        e = rng.randint(1, 4)
        a = rng.randrange(1, q)
        if legendre_symbol(a, q) != 1:
            continue
        lo, hi = sqrt_mod(a, OddPrime(q), e)
        mod = q**e
        assert lo.value < hi.value
        assert (lo.value * lo.value - a) % mod == 0
        assert (hi.value * hi.value - a) % mod == 0
        assert (lo.value + hi.value) % mod == 0
        done += 1


def test_reduce_examples():
    p = OddPrime(5)
    x = ResidueMod(p, 3, 117)
    assert reduce(x, 3) == x
    assert reduce(x, 2) == ResidueMod(p, 2, 17)
    assert reduce(x, 1).value == 2
    # digits x does not carry are refused, not made up
    with pytest.raises(PrecisionExhausted, match="known mod 5\\^3"):
        reduce(x, 4)
