"""Prime representations p = x^2 + d*y^2, conventions, and pi-bar."""

import pytest

from supercon.arith import OddPrime, ResidueMod, is_prime, legendre_symbol, sqrt_mod
from supercon.errors import ConventionUnachievable, NotRepresentable, RamifiedPrime
from supercon.oracle import exhaustive_represent
from supercon.quadform import (
    CONVENTIONS,
    D1_ODDX1MOD4,
    RAW,
    SIGN_RULES,
    X1MOD4,
    XPLUSY1MOD4,
    Y1MOD4,
    AlignedRep,
    QuadRep,
    align_pi,
    normalize,
    pi_bar,
    represent,
)

PRIMES_200 = [q for q in range(3, 200) if all(q % d for d in range(2, q))]


def test_represent_examples():
    assert (represent(OddPrime(23), 7).x, represent(OddPrime(23), 7).y) == (4, 1)
    assert (represent(OddPrime(13), 3).x, represent(OddPrime(13), 3).y) == (1, 2)
    assert (represent(OddPrime(11), 2).x, represent(OddPrime(11), 2).y) == (3, 1)
    rep = represent(OddPrime(13), 1)
    assert (rep.x, rep.y) == (3, 2) and rep.x % 2 == 1


def test_represent_takes_an_int_prime_as_sqrt_mod_does():
    # an int p used to raise AttributeError: 'int' object has no attribute 'p'
    assert represent(13, 1) == represent(OddPrime(13), 1)
    with pytest.raises(ValueError):
        represent(15, 1)
    with pytest.raises(TypeError):
        represent(13.0, 1)


def test_represent_errors():
    with pytest.raises(NotRepresentable):
        represent(OddPrime(5), 7)
    with pytest.raises(RamifiedPrime):
        represent(OddPrime(7), 7)
    with pytest.raises(ValueError):
        represent(OddPrime(11), 5)


def test_quadrep_validates_form_and_convention():
    with pytest.raises(ValueError):
        QuadRep(OddPrime(13), 1, 2, 2, RAW)
    with pytest.raises(ValueError):
        QuadRep(OddPrime(13), 1, 3, 2, X1MOD4)  # 3 != 1 (mod 4)


def test_normalize_examples():
    p11 = QuadRep(OddPrime(11), 2, 3, 1, RAW)
    (out,) = normalize(p11, X1MOD4)
    assert out.x == -3 and abs(out.y) == 1
    p13 = QuadRep(OddPrime(13), 3, 1, 2, RAW)
    pair = normalize(p13, XPLUSY1MOD4)
    assert {(r.x, r.y) for r in pair} == {(-1, 2), (-1, -2)}
    p23 = QuadRep(OddPrime(23), 7, 4, 1, RAW)
    assert normalize(p23, Y1MOD4)[0].y == 1
    (rep13,) = normalize(represent(OddPrime(13), 1), D1_ODDX1MOD4)
    assert rep13.x % 4 == 1 and rep13.x % 2 == 1 and rep13.y % 2 == 0


def test_normalize_unachievable():
    # 17 = 3^2 + 2*2^2: y even, so y = 1 (mod 4) impossible
    with pytest.raises(ConventionUnachievable):
        normalize(represent(OddPrime(17), 2), Y1MOD4)
    with pytest.raises(ConventionUnachievable):
        normalize(represent(OddPrime(13), 3), D1_ODDX1MOD4)


def test_normalize_is_projection():
    for q in PRIMES_200:
        for d, conv in ((1, X1MOD4), (2, X1MOD4), (3, Y1MOD4), (7, Y1MOD4),
                        (1, D1_ODDX1MOD4)):
            if d % q == 0 or legendre_symbol(-d, q) != 1:
                continue
            try:
                (once,) = normalize(represent(OddPrime(q), d), conv)
            except ConventionUnachievable:
                continue
            (twice,) = normalize(once, conv)
            assert (twice.x, twice.y) == (once.x, once.y)


def test_align_pi_example_p23_d7():
    p = OddPrime(23)
    rep = represent(p, 7)
    root = ResidueMod(p, 2, 19)
    assert (19 * 19 + 7) % 23 == 0
    aligned = align_pi(rep, root)
    assert aligned.rep.y == 1
    other = align_pi(rep, ResidueMod(p, 2, 23 - 19))
    assert other.rep.y == -1


def test_aligned_rep_validates():
    p = OddPrime(23)
    root = ResidueMod(p, 2, 19)
    with pytest.raises(ValueError):
        AlignedRep(QuadRep(p, 7, 4, -1, RAW), root)


def test_select_aligned_picks_the_aligned_branch():
    for q in PRIMES_200:
        for d in (3, 7):
            if d % q == 0 or legendre_symbol(-d, q) != 1:
                continue
            p = OddPrime(q)
            root = sqrt_mod(-d, p, 2)[0]
            pair = normalize(represent(p, d), XPLUSY1MOD4)
            chosen = align_pi(pair[0], root)
            s = root.value
            assert (chosen.rep.x + chosen.rep.y * s) % q == 0


def test_convention_laws():
    # every member of normalize's tuple meets its rule and normalizes to the
    # same tuple; align_pi keeps the convention and |x|, |y|, and under
    # xplusy1mod4 lands on a member of the pair
    achieved = 0
    for q in range(3, 2000, 2):
        if not is_prime(q):
            continue
        p = OddPrime(q)
        for d in (1, 2, 3, 7):
            if d % q == 0 or legendre_symbol(-d, q) != 1:
                continue
            raw = represent(p, d)
            for c in CONVENTIONS:
                try:
                    reps = normalize(raw, c)
                except ConventionUnachievable:
                    continue
                achieved += 1
                assert len(reps) == (2 if c == XPLUSY1MOD4 else 1), (q, d, c)
                for rep in reps:
                    assert rep.convention == c and SIGN_RULES[c][1](d, rep.x, rep.y)
                    assert normalize(rep, c) == reps, (q, d, c, rep)
                for root in sqrt_mod(-d, p, 2):
                    aligned = align_pi(reps[0], root).rep
                    assert (aligned.x + aligned.y * root.value) % q == 0
                    assert aligned.convention == c
                    assert (abs(aligned.x), abs(aligned.y)) == (abs(reps[0].x), abs(reps[0].y))
                    if c == XPLUSY1MOD4:
                        assert aligned in reps, (q, d, root, aligned)
    assert achieved > 1500, achieved


def test_pi_bar_congruences():
    # pi-bar = x - y*sqrt(-d) must equal both closed forms mod p^2
    for q in PRIMES_200:
        if q < 5:
            continue
        p = OddPrime(q)
        mod = q * q
        for d in (1, 2, 3, 7):
            if d % q == 0 or legendre_symbol(-d, q) != 1:
                continue
            root = sqrt_mod(-d, p, 2)[0]
            aligned = align_pi(represent(p, d), root)
            bar = pi_bar(aligned)
            assert bar.modulus == mod
            value = bar.value
            x, y = aligned.rep.x, aligned.rep.y
            assert value % q == (2 * x) % q
            form1 = (2 * x - q * pow(2 * x, -1, mod)) % mod
            s = root.value
            form2 = (-s * pow(2, -1, mod) * (4 * y - q * pow(d * y, -1, mod))) % mod
            assert value == form1 == form2
            # norm identity: pi * pi-bar = p exactly
            assert x * x + d * y * y == q


def test_pi_bar_hand_value_p23_d7():
    # the lift of 19 (mod 23) to a root of z^2+7 mod 529 is 65: 65^2+7 = 8*529
    p = OddPrime(23)
    root = ResidueMod(p, 2, 65)
    aligned = align_pi(represent(p, 7), root)
    assert aligned.rep.y == 1
    want = (8 - 23 * pow(8, -1, 529)) % 529
    assert pi_bar(aligned).value == want


def test_align_pi_root_sign_flips_y():
    for q in PRIMES_200:
        for d in (1, 2, 3, 7):
            if d % q == 0 or legendre_symbol(-d, q) != 1:
                continue
            p = OddPrime(q)
            lo, hi = sqrt_mod(-d, p, 2)
            a = align_pi(represent(p, d), lo)
            b = align_pi(represent(p, d), hi)
            assert a.rep.y == -b.rep.y


def test_represent_matches_exhaustive_oracle():
    for q in PRIMES_200:
        for d in (1, 2, 3, 7):
            if d % q == 0:
                continue
            found = exhaustive_represent(q, d)
            if legendre_symbol(-d, q) != 1:
                assert found == []
                continue
            rep = represent(OddPrime(q), d)
            assert (rep.x, rep.y) in found or (rep.y, rep.x) in found
