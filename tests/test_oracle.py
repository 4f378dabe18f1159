"""Exact reference implementations and their agreement with the fast paths."""

from fractions import Fraction

import pytest

from supercon.arith import OddPrime, legendre_symbol, reduce, sqrt_mod
from supercon.engine import CONST_WEIGHT, FULL, HALF, SumSpec, binomial_sum
from supercon.errors import NegativeValuation
from supercon.oracle import (
    brute_sqrt,
    exact_apery,
    exact_harmonic,
    exact_harmonic_gap,
    exact_legendre_poly,
    exact_lucas_u,
    exact_lucas_v,
    exact_sum,
    exhaustive_represent,
    reduce_fraction,
)


def test_reduce_fraction():
    assert reduce_fraction(Fraction(8, 3), 5, 2) == 8 * pow(3, -1, 25) % 25
    assert reduce_fraction(Fraction(50, 3), 5, 2) == 0
    with pytest.raises(NegativeValuation):
        reduce_fraction(Fraction(1, 5), 5, 2)


def test_exact_sum_values():
    # (21k+8) binom^3 weighted sum at p=5: equals 8p = 40, reduced mod 25
    spec = SumSpec(3, 1, (21, 8), CONST_WEIGHT, FULL, 2)
    got = exact_sum(spec, OddPrime(5))
    assert got.value == 15 and got.modulus == 25
    spec = SumSpec(3, 64, (1,), CONST_WEIGHT, FULL, 2)
    assert exact_sum(spec, OddPrime(13)).value == 10


def test_exact_harmonic_values():
    assert exact_harmonic(0) == 0
    assert exact_harmonic(3) == Fraction(11, 6)
    assert exact_harmonic_gap(2) == Fraction(1, 3) + Fraction(1, 4)
    assert exact_harmonic_gap(2) == exact_harmonic(4) - exact_harmonic(2)


def test_exact_sequences():
    assert exact_apery(2) == 73
    assert exact_lucas_u(1, 16, 3) == -15
    assert exact_lucas_v(1, 16, 3) == -47
    assert exact_legendre_poly(1, Fraction(3)) == 3
    assert exact_legendre_poly(2, Fraction(1)) == 1


def test_exhaustive_represent_examples():
    assert exhaustive_represent(23, 7) == [(4, 1)]
    assert exhaustive_represent(5, 3) == []
    assert sorted(exhaustive_represent(13, 1)) == [(2, 3), (3, 2)]


def test_brute_sqrt_examples():
    assert brute_sqrt(4, 11, 1) == [2, 9]
    assert brute_sqrt(-7, 11, 2) == [31, 90]
    assert brute_sqrt(2, 3, 1) == []


def test_sqrt_mod_matches_brute_force():
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        p = OddPrime(q)
        for e in (1, 2, 3, 4):
            if q**e > 10**5:
                continue
            for a in range(1, q):
                brute = brute_sqrt(a, q, e)
                if legendre_symbol(a, q) != 1:
                    assert brute == []
                    continue
                lo, hi = sqrt_mod(a, p, e)
                assert [lo.value, hi.value] == brute


def test_engine_matches_exact_sum_on_sample_specs():
    specs = [
        SumSpec(3, 64, (1,), CONST_WEIGHT, FULL, 2),
        SumSpec(3, -8, (1,), CONST_WEIGHT, FULL, 2),
        SumSpec(2, 32, (1, 0), CONST_WEIGHT, FULL, 2),
        SumSpec(3, 1, (21, 8), CONST_WEIGHT, FULL, 3),
        SumSpec(3, 256, (6, 1), CONST_WEIGHT, HALF, 4),
    ]
    for q in (5, 7, 11, 13, 17, 19, 23, 29):
        p = OddPrime(q)
        for spec in specs:
            fast = reduce(binomial_sum(spec, p), spec.e)
            slow = exact_sum(spec, p)
            assert fast.value == slow.value and fast.modulus == slow.modulus


def test_exact_sum_refuses_a_prime_it_was_not_given():
    # int(p) used to turn 13.5 and "13" into 13 and answer 10 mod 13^2
    spec = SumSpec(3, 64)
    assert exact_sum(spec, 13) == exact_sum(spec, OddPrime(13)) == binomial_sum(spec, 13)
    for bad in (13.5, 13.0, "13", None):
        with pytest.raises(TypeError):
            exact_sum(spec, bad)
        with pytest.raises(TypeError):
            binomial_sum(spec, bad)
