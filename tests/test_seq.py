"""Sequences on PrimeContext: Lucas pairs by walks, binomial and harmonic tables, Apery stream."""

import random
from math import comb

import pytest

from supercon import engine
from supercon.arith import OddPrime
from supercon.engine import PrimeContext, WeightSpec
from supercon.oracle import (
    exact_apery,
    exact_harmonic,
    exact_harmonic_gap,
    exact_lucas_u,
    exact_lucas_v,
    reduce_fraction,
)
from supercon.seq import (
    COMPANION_PELL,
    CONST1,
    CUBIC_CHAR,
    HARMONIC,
    HARMONIC_GAP,
    LUCAS_FAMILY,
    LUCAS_U,
    LUCAS_V,
    PELL,
    THREE_INDICATOR,
    WEIGHT_KINDS,
)

PRIMES_100 = [q for q in range(3, 100) if all(q % d for d in range(2, q))]


def _lucas(q: int, kind: str, a: int, b: int, k: int, digits: int = 2) -> int:
    """w_k mod q^digits of a Lucas-family kind, read off one walk.

    Walking the unit vector e_k at z = alpha = (a + w)/2 gives alpha^k =
    (v_k + u_k w)/2, so the walk's A + B w holds v_k = 2A and u_k = 2B.
    """
    mod = q**digits
    point, side = engine._point(WeightSpec(kind, a, b), 1, mod)
    return 2 * engine._walk([0] * k + [1], k + 1, *point, mod, False)[side] % mod


def _table(q: int, kind: str, a: int = 0, b: int = 0, digits: int = 2) -> list:
    """w_k mod q^digits for k < q: a harmonic table, or Lucas values read off walks."""
    if kind not in LUCAS_FAMILY:
        return PrimeContext(OddPrime(q), digits).weight_table(WeightSpec(kind, a, b))
    return [_lucas(q, kind, a, b, k, digits) for k in range(q)]


def _signed(values: list, mod: int) -> list:
    return [v - mod if v > mod // 2 else v for v in values]


def test_lucas_examples():
    assert exact_lucas_u(1, 16, 3) == -15
    assert exact_lucas_v(1, 16, 3) == -47
    assert exact_lucas_u(4, 1, 4) == 56
    mod = 13**2
    assert _signed(_table(13, LUCAS_U, 1, 16)[:4], mod) == [0, 1, 1, -15]
    assert _signed(_table(13, LUCAS_V, 1, 16)[:4], mod) == [2, 1, -31, -47]
    assert _table(13, LUCAS_U, 4, 1)[4] == 56
    # the characters mod 3 are the Lucas sequences at (a, b) = (-1, 1)
    assert _signed(_table(13, LUCAS_U, -1, 1)[:9], mod) == [0, 1, -1, 0, 1, -1, 0, 1, -1]
    assert _signed(_table(13, CUBIC_CHAR)[:9], mod) == [0, 1, -1, 0, 1, -1, 0, 1, -1]
    assert _signed(_table(13, LUCAS_V, -1, 1)[:6], mod) == [2, -1, -1, 2, -1, -1]
    assert _signed(_table(13, THREE_INDICATOR)[:6], mod) == [2, -1, -1, 2, -1, -1]
    assert _table(13, LUCAS_U, -1, 1) == _table(13, CUBIC_CHAR)
    assert _table(13, LUCAS_V, -1, 1) == _table(13, THREE_INDICATOR)


def test_pell_values():
    assert _table(13, PELL)[:6] == [0, 1, 2, 5, 12, 29]
    assert _table(13, COMPANION_PELL)[:5] == [2, 2, 6, 14, 34]
    assert _table(13, PELL) == _table(13, LUCAS_U, 2, -1)
    assert _table(13, COMPANION_PELL) == _table(13, LUCAS_V, 2, -1)


def test_companion_pell_is_root_power_sum():
    # Q_n = (1+sqrt2)^n + (1-sqrt2)^n forces the B = -1 recurrence
    table = _table(101, COMPANION_PELL)
    for n in range(12):
        alpha_pow = sum(
            comb(n, k) * 2 ** (k // 2) for k in range(0, n + 1, 2)
        ) * 2  # integer part doubles; sqrt2 parts cancel
        assert exact_lucas_v(2, -1, n) == alpha_pow
        assert table[n] == alpha_pow % 101**2


def test_lucas_pair_matches_int_recurrences():
    rng = random.Random(7)
    for _ in range(25):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        if (a, b) == (0, 0):
            continue
        q = rng.choice(PRIMES_100)
        n = rng.randint(0, q - 1)
        assert _table(q, LUCAS_U, a, b)[n] == exact_lucas_u(a, b, n) % q**2
        assert _table(q, LUCAS_V, a, b)[n] == exact_lucas_v(a, b, n) % q**2
    with pytest.raises(ValueError):
        WeightSpec(LUCAS_U, 0, 0)


def test_weight_spec_refuses_lucas_parameters_for_other_kinds():
    # only the Lucas kinds read (a, b); every other kind would ignore them
    for kind in WEIGHT_KINDS:
        if kind in (LUCAS_U, LUCAS_V):
            continue
        assert WeightSpec(kind) == WeightSpec(kind, 0, 0)
        for a, b in ((5, 7), (1, 0), (0, -1)):
            with pytest.raises(ValueError, match="takes no Lucas parameters"):
                WeightSpec(kind, a, b)


def test_lucas_double_index_identity():
    # u_2n = u_n * v_n
    rng = random.Random(11)
    q = 401
    mod = q * q
    for _ in range(40):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        n = rng.randint(0, 200)
        assert exact_lucas_u(a, b, 2 * n) == exact_lucas_u(a, b, n) * exact_lucas_v(a, b, n)
        if (a, b) != (0, 0):
            u2n, un, vn = (_lucas(q, kind, a, b, k) for kind, k in
                           ((LUCAS_U, 2 * n), (LUCAS_U, n), (LUCAS_V, n)))
            assert u2n == un * vn % mod


def test_lucas_pair_versus_roots_mod_p2():
    # (alpha - beta) u_n = alpha^n - beta^n and v_n = alpha^n + beta^n
    from supercon.arith import legendre_symbol, sqrt_mod

    rng = random.Random(13)
    for q in PRIMES_100:
        if q < 5:
            continue
        p = OddPrime(q)
        mod = q * q
        for _ in range(3):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            disc = a * a - 4 * b
            if disc % q == 0 or legendre_symbol(disc, q) != 1:
                continue
            root = sqrt_mod(disc, p, 2)[0].value
            alpha = (a + root) * pow(2, -1, mod) % mod
            beta = (a - root) * pow(2, -1, mod) % mod
            u_table, v_table = _table(q, LUCAS_U, a, b), _table(q, LUCAS_V, a, b)
            for n in (0, 1, 2, 5, q - 1, q):
                u = u_table[n] if n < q else exact_lucas_u(a, b, n) % mod
                v = v_table[n] if n < q else exact_lucas_v(a, b, n) % mod
                assert root * u % mod == (pow(alpha, n, mod) - pow(beta, n, mod)) % mod
                assert v == (pow(alpha, n, mod) + pow(beta, n, mod)) % mod


def test_lucas_quadratic_relation():
    # v_n^2 - (a^2 - 4b) u_n^2 = 4 b^n
    rng = random.Random(17)
    q = 29
    mod = q * q
    for _ in range(60):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        if b == 0:
            continue
        n = rng.randint(0, 25)
        u, v = exact_lucas_u(a, b, n), exact_lucas_v(a, b, n)
        assert v * v - (a * a - 4 * b) * u * u == 4 * b**n
        u, v = _table(q, LUCAS_U, a, b)[n], _table(q, LUCAS_V, a, b)[n]
        assert (v * v - (a * a - 4 * b) * u * u - 4 * b**n) % mod == 0


def test_central_binomial_residues_and_valuation():
    ctx = PrimeContext(OddPrime(7), 2)
    binoms = ctx.bh(1)
    assert len(binoms) == 7
    assert binoms[3] == 20 % 49
    assert binoms[4] == 70 % 49 == 7 * 10 % 49
    for q in PRIMES_100:
        for digits in (2, 5):
            ctx = PrimeContext(OddPrime(q), digits)
            binoms = ctx.bh(1)
            for k in range(q):
                # p divides binomial(2k,k) exactly once for n < k < p, and the
                # residue carries that p: its quotient by p is still a unit
                want = 0 if k <= (q - 1) // 2 else 1
                exact = comb(2 * k, k)
                count = 0
                while exact % q == 0:
                    exact //= q
                    count += 1
                assert count == want
                assert binoms[k] == comb(2 * k, k) % ctx.mod
                assert (binoms[k] // q**want) % q


def test_harmonic_examples():
    mod = 11**2
    gap = _table(11, HARMONIC_GAP)
    # the table holds p * (H_2k - H_k)
    assert gap[0] == 0
    # H_2 - H_1 = 1/2
    assert gap[1] == 11 * pow(2, -1, mod) % mod
    # k >= (p+1)/2 picks up the j = p term: p * gap is then a unit
    assert gap[6] % 11


def test_harmonic_gap_plus_harmonic_is_harmonic_2k():
    for q in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        gap, harm = _table(q, HARMONIC_GAP, digits=4), _table(q, HARMONIC, digits=4)
        mod = q**4
        for k in range(q):
            # H_2k has a pole once 2k >= q; compare q times each side
            want = reduce_fraction(q * exact_harmonic(2 * k), q, 4)
            assert (gap[k] + q * harm[k]) % mod == want


def test_harmonic_matches_exact():
    for q in (5, 13, 29):
        harm, gap = _table(q, HARMONIC), _table(q, HARMONIC_GAP)
        for k in range(q - 1):
            h = exact_harmonic(k)
            if h.denominator % q == 0:
                continue
            assert harm[k] == reduce_fraction(h, q, 2)
            assert gap[k] == reduce_fraction(q * exact_harmonic_gap(k), q, 2)


def test_apery_values():
    assert exact_apery(0) == 1
    assert exact_apery(1) == 5
    assert exact_apery(2) == 73
    table = list(PrimeContext(OddPrime(13), 2).apery())
    assert table[2] == 73
    assert len(table) == 13
    for n, term in enumerate(table):
        assert term == exact_apery(n) % 169


def test_apery_recurrence_matches_defining_sum():
    for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        count = 0
        for n, term in enumerate(PrimeContext(OddPrime(q), 2).apery()):
            want = sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))
            assert term == want % q**2
            count += 1
        assert count == q


def test_weight_table_kinds():
    # every table covers k < p; const-1 and Lucas-family weights have none
    ctx = PrimeContext(OddPrime(13), 2)
    for kind in (CONST1, PELL, COMPANION_PELL, CUBIC_CHAR, THREE_INDICATOR):
        assert ctx.weight_table(WeightSpec(kind)) is None
    assert ctx.weight_table(WeightSpec(LUCAS_U, 1, 16)) is None
    gap = ctx.weight_table(WeightSpec(HARMONIC_GAP))
    assert len(gap) == 13 and gap[0] == 0 and WeightSpec(HARMONIC_GAP).valuation == -1
    cubic = _table(13, CUBIC_CHAR)
    assert _signed(cubic[:6], ctx.mod) == [0, 1, -1, 0, 1, -1]
    assert WeightSpec(CUBIC_CHAR).valuation == 0
    assert _table(13, COMPANION_PELL)[4] == 34
