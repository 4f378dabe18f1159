"""Summation engine, Legendre polynomial evaluation, structural identities."""

import random
from fractions import Fraction
from itertools import islice
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercon import engine, registry
from supercon.arith import (
    OddPrime,
    ResidueMod,
    legendre_symbol,
    reduce,
    sqrt_mod,
)
from supercon.engine import (
    CONST_WEIGHT,
    ENGINE_PRIME_BOUND,
    FULL,
    HALF,
    MAX_DIGITS,
    MAX_POWER,
    PrimeContext,
    SumSpec,
    WeightSpec,
    binomial_sum,
    legendre_poly_eval,
    m_inverse_residue,
)
from supercon.errors import (
    DenominatorDivisible,
    IndexOutOfRange,
    PrimeTooLarge,
)
from supercon.oracle import (
    clausen_square_check,
    exact_apery,
    exact_legendre_poly,
    exact_sum,
    exact_weights,
    reduce_fraction,
)
from supercon.registry import (
    ERROR,
    FAIL,
    PASS,
    THM41_GRID,
    Workspace,
    _res,
    get_check,
    run_check,
)
from supercon.seq import (
    COMPANION_PELL,
    HARMONIC,
    HARMONIC_GAP,
    LUCAS_U,
    LUCAS_V,
    PELL,
    WEIGHT_KINDS,
)

PRIMES_50 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _sum_value(h, m, poly, p, e, rng=FULL, weight=CONST_WEIGHT):
    spec = SumSpec(h, m, poly, weight, rng, e)
    return reduce(binomial_sum(spec, OddPrime(p)), e).value


def test_border_case_values():
    # sum binom^3/64^k: 4x^2-2p for p = x^2+y^2 (x odd), 0 for p = 3 (mod 4)
    assert _sum_value(3, 64, (1,), 13, 2) == 10
    assert _sum_value(3, 64, (1,), 7, 2) == 0
    assert _sum_value(3, 64, (1,), 3, 2) == 0


def test_van_hamme_mortenson_form():
    for q in PRIMES_50:
        want = (q * legendre_symbol(-1, q)) % q**2
        assert _sum_value(3, -64, (4, 1), q, 2) == want


def test_denominator_divisible():
    with pytest.raises(DenominatorDivisible):
        _sum_value(3, 26, (1,), 13, 2)


def test_sum_accepts_a_fraction_m():
    frac = _sum_value(3, Fraction(64, 1), (1,), 13, 2)
    assert frac == 10


def test_sum_spec_refuses_an_m_of_another_type():
    # a float is a binary fraction: SumSpec(3, 0.3) used to give 134 mod 13^2, not 127
    assert _sum_value(3, Fraction(3, 10), (1,), 13, 2) == 127
    for m in (0.3, 64.0, True, "64", None, ResidueMod(OddPrime(13), 4, 64)):
        with pytest.raises(TypeError, match="int or a Fraction"):
            SumSpec(3, m)


def test_specs_refuse_a_float_or_bool_parameter():
    # e = 2.0 used to give a residue "mod 13^2.0", e = 2.5 a TypeError from pow,
    # and a float Lucas parameter failed only when summed
    for h, e in ((3.0, 2), (True, 2), (3, 2.0), (3, 2.5), (3, True)):
        with pytest.raises(TypeError, match="must be an int"):
            SumSpec(h, 64, e=e)
    for kind, a, b in ((LUCAS_U, 1.5, 2), (LUCAS_V, 1, 2.0), (LUCAS_U, True, 2),
                       (HARMONIC, 0.0, 0)):
        with pytest.raises(TypeError, match="must be an int"):
            WeightSpec(kind, a, b)
    assert SumSpec(3, 64, e=2) == SumSpec(3, 64)
    for digits in (3.0, True):
        with pytest.raises(TypeError, match="digits must be an int"):
            PrimeContext(13, digits)


def test_sum_spec_keeps_a_poly_given_as_an_iterator():
    # the check used to read the iterator before the tuple was taken, leaving
    # poly = () and a sum of 0
    spec = SumSpec(3, 64, iter((1, 0)))
    assert spec.poly == (1, 0)
    assert binomial_sum(spec, 13) == binomial_sum(SumSpec(3, 64, (1, 0)), 13)
    with pytest.raises(ValueError, match="nonempty tuple"):
        SumSpec(3, 64, iter(()))


def test_legendre_poly_eval_basics():
    for q in (11, 13, 29):
        p = OddPrime(q)
        n = (q - 1) // 2
        ctx = PrimeContext(p, 2)
        assert legendre_poly_eval(ctx, n, 1) == (1, 0)
        assert legendre_poly_eval(ctx, 1, 9) == (9, 0)
        # P_1(x0 + x1 w) = x0 + x1 w
        assert legendre_poly_eval(ctx, 1, 9, 4, 7) == (9, 4)


def test_legendre_evals_refuse_a_degree_outside_0_to_p_minus_1():
    # C(n,k) C(n+k,k) needs (k+1)^{-2} for k < n; n >= p would read inv[p] = 0
    ctx = PrimeContext(OddPrime(5), 2)
    for n in (-1, 5, 7):
        with pytest.raises(IndexOutOfRange, match="outside 0..4"):
            legendre_poly_eval(ctx, n, 3)
        with pytest.raises(IndexOutOfRange, match="outside 0..4"):
            legendre_poly_eval(ctx, n, 3, 1, 2)


def test_legendre_poly_sign_symmetry():
    for q in (11, 13, 17, 19):
        p = OddPrime(q)
        n = (q - 1) // 2
        mod = q * q
        ctx = PrimeContext(p, 2)
        for value in (2, 5, 7):
            a = legendre_poly_eval(ctx, n, value)[0]
            b = legendre_poly_eval(ctx, n, -value)[0]
            assert b == (a if n % 2 == 0 else -a) % mod


def test_legendre_poly_eval_ext_matches_both_square_roots():
    # w -> r for either root r of disc maps Z[w]/(w^2 - disc) onto Z/p^4, so
    # the pair (l0, l1) must give P_n(x0 + x1 r) as l0 + l1 r at both roots
    cases = 0
    for q in (5, 11, 13, 19, 23, 37):
        p = OddPrime(q)
        ctx = PrimeContext(p, 4)
        mod = ctx.mod
        for disc in (-7, -3, -1, 2, 3, 7):
            if disc % q == 0 or legendre_symbol(disc, q) != 1:
                continue
            roots = [r.value for r in sqrt_mod(disc, p, 4)]
            for n in sorted({0, 1, 2, (q - 1) // 2, q - 1}):
                for x0, x1 in ((0, 1), (3, 5), (1, q), (q * q + 2, mod - 4)):
                    l0, l1 = legendre_poly_eval(ctx, n, x0, x1, disc)
                    for r in roots:
                        want = legendre_poly_eval(ctx, n, (x0 + x1 * r) % mod)
                        assert ((l0 + l1 * r) % mod, 0) == want, (q, disc, n, x0, x1, r)
                        cases += 1
    assert cases > 300


def test_lemma_2_2_congruence_random_args():
    # P_n(x) = sum binom^2/(-16)^k ((x-1)/2)^k (mod p^2), h=2 sum at m = -16/z
    import random

    rng = random.Random(99)
    for q in (5, 7, 11, 13, 17, 23, 31, 41, 47):
        p = OddPrime(q)
        n = (q - 1) // 2
        ctx = PrimeContext(p, 4)
        for _ in range(20):
            num = rng.randint(-40, 40)
            den = rng.choice([d for d in range(1, 25) if d % q])
            x = Fraction(num, den)
            z = (x - 1) / 2
            xv = x.numerator * pow(x.denominator, -1, q**4)
            lhs = legendre_poly_eval(ctx, n, xv)[0] % (q * q)
            if z == 0:
                assert lhs == 1
                continue
            m = Fraction(-16) / z
            if m.numerator % q == 0:
                continue
            rhs = _sum_value(2, m, (1,), q, 2)
            assert lhs == rhs


def test_clausen_square_identity():
    assert clausen_square_check(0, Fraction(7, 3))
    # n=1, x=3: P_1(3)^2 = 9 = 1 + 2*2*(8/4)
    assert clausen_square_check(1, Fraction(3))
    for n in range(11):
        for x in (
            Fraction(-2), Fraction(-3, 2), Fraction(-1), Fraction(-1, 2),
            Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
        ):
            assert clausen_square_check(n, x)


def _pairs_mod_p2(check_id: str, ws: Workspace) -> list:
    """The (lhs, rhs) pairs of a fixed-power check's evaluator on ws, each reduced mod p^2."""
    mod = ws.mod(2)
    return [(_res(lhs, mod), _res(rhs, mod)) for lhs, rhs in get_check(check_id).evaluate(ws)]


def test_lemma_4_1_hand_case():
    # p = 5, one pair per k = 0..n: k = 1 gives binom(3,1) = 3 and -binom(2,1)(1 - 5/2) = 3;
    # k = n = 2 gives binom(2,2) = 1 and binom(4,2)(1 - 5(1/3 + 1/4)) = -23/2 = 1 (mod 25)
    assert _pairs_mod_p2("lemma4.1", Workspace(OddPrime(5), 2)) == [(1, 1), (3, 3), (1, 1)]
    report = run_check("lemma4.1", 5)
    assert (report.verdict, report.lhs, report.rhs, report.modulus) == (PASS, 1, 1, 25)
    for q in (7, 11, 13, 17, 19, 23):
        report = run_check("lemma4.1", q)
        assert report.verdict == PASS and report.lhs == report.rhs == 1, q


def test_lemma_4_1_reports_the_first_k_that_fails(monkeypatch):
    # one corrupted harmonic-gap entry at 0 < k < n moves that k's pair, the
    # (k+1)-th of n + 1; a check that stopped at the first bad k shows 1 of 1
    q, bad_k = 29, 5
    n = (q - 1) // 2
    table = PrimeContext.weight_table

    def corrupted(ctx, ws, hi=None):
        out = table(ctx, ws, hi)
        if ws.kind != HARMONIC_GAP:
            return out
        return out[:bad_k] + [out[bad_k] + 1] + out[bad_k + 1:]

    monkeypatch.setattr(PrimeContext, "weight_table", corrupted)
    report = run_check("lemma4.1", q)
    assert report.verdict == FAIL and report.lhs != report.rhs
    assert report.detail == f"congruence {bad_k + 1} of {n + 1}"


@pytest.mark.parametrize("cid, grid, entry", [
    ("thm1.5", "THM15_M", 22),
    ("cor1.1", "THM15_M", 22),
    ("thm4.1", "THM41_GRID", (2, 22, (1, 1))),
])
def test_a_grid_m_that_p_divides_is_an_error_not_a_skip(monkeypatch, cid, grid, entry):
    # no grid m has a numerator p divides, so the evaluators skip none: an
    # edit that put one in reports the pole rather than drop the instance
    monkeypatch.setattr(registry, grid, getattr(registry, grid) + (entry,))
    report = run_check(cid, 11)
    assert report.verdict == ERROR
    assert report.detail == "DenominatorDivisible: m = 22 vanishes mod 11"


def test_theorem_4_1_transform_examples(monkeypatch):
    # one pair per grid instance (every m is +-2^a), each side agreeing mod p^2;
    # a degree-3 instance joins the grid here only, since in the catalogue its
    # four polynomial walks per prime would cost every sweep
    grid = THM41_GRID + ((1, 8, (2, -1, 0, 5)),)
    monkeypatch.setattr(registry, "THM41_GRID", grid)
    report = run_check("thm4.1", 11)
    assert report.verdict == PASS and report.modulus == 121
    for q in [3] + PRIMES_50:
        pairs = _pairs_mod_p2("thm4.1", Workspace(OddPrime(q), 2))
        assert len(pairs) == len(grid), q
        for instance, (lhs, rhs) in zip(grid, pairs):
            assert lhs == rhs, (instance, q)
        assert run_check("thm4.1", q).verdict == PASS, q


class DiscriminantNonResidue(Exception):
    """The resolvent of lemma_2_1_check has no root mod p."""


def lemma_2_1_check(m: int, branch: int, a: int, b: int, ctx: PrimeContext) -> bool:
    """Quadratic-resolvent identity tying a cubic sum at m to squares at m*.

    m* is the branch root of z^2 - m z + 16 m = 0; requires the resolvent
    discriminant m^2 - 64m to be a nonzero square mod p, else
    DiscriminantNonResidue.  Checks, mod p^2 over the full range:
    sum binom^3/m^k ((a k/16)(m* - m + 32) + b)
           = 2a S1(m*) S0(m*) + b S0(m*)^2
    with Sj(m*) = sum k^j binom^2 / m*^k, p the context's prime.  The square
    root, m* and the sums are taken mod p^digits of ctx, and branch picks
    the smaller or larger root at that precision.
    """
    digits, q, mod = ctx.digits, ctx.p, ctx.mod
    mod2 = q * q
    disc = m * m - 64 * m
    if disc % q == 0:
        raise DiscriminantNonResidue(f"p = {q} divides m^2 - 64m for m = {m}")
    if legendre_symbol(disc, q) == -1:
        raise DiscriminantNonResidue(f"m^2 - 64m = {disc} is not a square mod {q}")
    root = sqrt_mod(disc, q, digits)[0 if branch >= 0 else 1].value
    mstar = (m + root) * ctx.inverses(3)[2] % mod
    a_res, b_res = a % mod2, b % mod2

    s0_3, s1_3 = ctx.moments(3, m_inverse_residue(ctx, m), CONST_WEIGHT, FULL)
    inv16 = pow(16, -1, mod2)
    factor = a_res * inv16 % mod2 * ((mstar - m + 32) % mod2) % mod2
    lhs = (factor * s1_3 + b_res * s0_3) % mod2

    s0_2, s1_2 = ctx.moments(2, pow(mstar, -1, mod), CONST_WEIGHT, FULL)
    rhs = (2 * a_res * s1_2 % mod2 * s0_2 + b_res * s0_2 * s0_2) % mod2
    return lhs == rhs


def test_lemma_2_1_instances():
    # the resolvent-root pairings used in the quadratic-form proofs
    cases = [
        (16, 6, 3, -3, 13),    # m=16: a=6, b = 3 + sqrt(-3)
        (-64, 2, 2, 2, 17),    # m=-64: a=2, b = 2 + sqrt(2)
        (1, 28, 21, -7, 29),   # m=1: a=28, b = 21 + sqrt(-7)
        (256, 3, 3, 12, 23),   # m=256: a=3, b = 3 + 2*sqrt(3) = 3 + sqrt(12)
    ]
    for m, a, b0, b1sq, q in cases:
        p = OddPrime(q)
        if legendre_symbol(b1sq, q) != 1:
            continue
        root = sqrt_mod(b1sq, p, 4)[0].value
        for branch, sign in ((1, 1), (-1, -1)):
            assert lemma_2_1_check(m, branch, a, b0 + sign * root, PrimeContext(p, 4))


def test_lemma_2_1_square_specialization():
    # a=0, b=1 reduces to: sum binom^3/m^k = (sum binom^2/m*^k)^2
    for q in (7, 11, 13, 17, 19, 23, 29, 37, 41, 43, 47):
        contexts = [PrimeContext(OddPrime(q), digits) for digits in (2, 4, MAX_DIGITS)]
        for m in (1, 16, 64, -8, 256):
            try:
                for ctx in contexts:
                    assert lemma_2_1_check(m, 1, 0, 1, ctx)
                    assert lemma_2_1_check(m, -1, 0, 1, ctx)
            except DiscriminantNonResidue:
                continue


def test_lemma_2_1_skips_nonresidue_discriminant():
    # disc = m^2 - 64m = 9*16 - 64*... for m=16: 256 - 1024 = -768
    with pytest.raises(DiscriminantNonResidue):
        lemma_2_1_check(16, 1, 0, 1, PrimeContext(OddPrime(5), 2))


def test_full_equals_half_h3_e2():
    for q in (5, 7, 13, 29, 61):
        for m in (1, 16, 64, -8, -512, 4096):
            full = _sum_value(3, m, (1,), q, 2)
            half = _sum_value(3, m, (1,), q, 2, rng=HALF)
            assert full == half
        gap_full = _sum_value(3, 64, (1,), q, 2, weight=WeightSpec(HARMONIC_GAP))
        gap_half = _sum_value(
            3, 64, (1,), q, 2, rng=HALF, weight=WeightSpec(HARMONIC_GAP)
        )
        assert gap_full == gap_half


def test_full_sum_walks_a_visible_tail():
    # e > h + v(w): the tail n < k < p shows mod p^e and is walked
    for h, e, ws in ((1, 2, CONST_WEIGHT), (3, 3, WeightSpec(HARMONIC_GAP))):
        differs = False
        for q in (5, 7, 13, 29):
            p = OddPrime(q)
            ctx = PrimeContext(p, MAX_DIGITS)
            full = binomial_sum(SumSpec(h, 3, (1,), ws, FULL, e), p, ctx)
            assert len(ctx._bh[h]) == q
            assert reduce(full, e).value == exact_sum(SumSpec(h, 3, (1,), ws, FULL, e), p).value
            half = exact_sum(SumSpec(h, 3, (1,), ws, HALF, e), p).value
            differs |= reduce(full, e).value != half
        assert differs


def test_full_sum_answered_from_half_segment():
    # e <= bound = h + v(w) + (n+1) v(1/m): the tail vanishes mod p^e and is
    # skipped; one digit more and it is walked
    for q in (5, 7, 13, 29):
        p = OddPrime(q)
        n = (q - 1) // 2
        for h, m, ws, bound in ((2, 3, CONST_WEIGHT, 2),
                                (3, 3, WeightSpec(HARMONIC_GAP), 2),
                                (1, Fraction(1, q), CONST_WEIGHT, n + 2)):
            for e in range(1, min(bound + 1, MAX_POWER) + 1):
                ctx = PrimeContext(p, MAX_DIGITS)
                spec = SumSpec(h, m, (1,), ws, FULL, e)
                value = binomial_sum(spec, p, ctx)
                assert value.e == e
                assert value.value == exact_sum(spec, p).value, (q, h, e)
                assert len(ctx._bh[h]) == (n + 1 if e <= bound else q), (q, h, e)


_GROWTH_WEIGHTS = [WeightSpec(kind) for kind in WEIGHT_KINDS if kind not in (LUCAS_U, LUCAS_V)]
_GROWTH_WEIGHTS += [WeightSpec(kind, a, b) for kind in (LUCAS_U, LUCAS_V)
                    for a, b in ((1, 16), (-1, 1), (4, -3), (0, 5), (2, -1))]


def test_tables_grown_in_steps_equal_one_shot_builds():
    for q in (3, 5, 13, 29, 61):
        p = OddPrime(q)
        n = (q - 1) // 2
        stepped, once = PrimeContext(p, 3), PrimeContext(p, 3)
        mod = stepped.mod
        for hi in (2, n + 1, q, q + 2, 2 * q):
            stepped.inverses(hi)
        assert stepped.inverses(2 * q) == once.inverses(2 * q)
        assert once.inverses(2 * q) == [pow(j, -1, mod) if j % q else 0 for j in range(2 * q)]
        for h in (1, 2, 3):
            stepped.bh(h, n + 1)
            assert stepped.bh(h) == once.bh(h) == [comb(2 * k, k) ** h % mod for k in range(q)]
        for ws in _GROWTH_WEIGHTS:
            if ws.kind not in (HARMONIC, HARMONIC_GAP):
                # const 1 and the Lucas family are walked without a table
                assert stepped.weight_table(ws) is None
                continue
            stepped.weight_table(ws, n + 1)
            grown = stepped.weight_table(ws)
            assert grown == once.weight_table(ws)
            exact = exact_weights(ws.kind, ws.a, ws.b, q)
            scale = q ** -ws.valuation
            assert grown == [reduce_fraction(w * scale, q, 3) for w in exact]


def test_cold_half_sum_builds_only_half_tables():
    # HALF sums, and FULL sums whose tail is invisible, stop every table at
    # k = n; only the harmonic gap reads inverses up to 2n
    q = 997
    p, n = OddPrime(q), (q - 1) // 2
    for weights, inv_len in (([ws for ws in _GROWTH_WEIGHTS if ws.kind != HARMONIC_GAP], n + 1),
                             ([WeightSpec(HARMONIC_GAP)], 2 * n + 1)):
        ctx = PrimeContext(p, MAX_DIGITS)
        for ws in weights:
            for h in (1, 2, 3):
                for poly, rng, e in (((1,), HALF, 3), ((2, 1, 5), HALF, 2),
                                     ((1, 1), FULL, h + ws.valuation)):
                    if e >= 1:
                        binomial_sum(SumSpec(h, -64, poly, ws, rng, e), p, ctx)
        assert len(ctx._inv) == inv_len
        assert all(len(t) <= n + 1 for t in ctx._bh.values())
        assert all(len(t) <= n + 1 for t in ctx._weights.values())


PRIMES_60 = [3] + PRIMES_50 + [53, 59]


@st.composite
def sum_cases(draw):
    """(SumSpec, p) over every weight kind, degree 0..4, both ranges, e 1..4."""
    q = draw(st.sampled_from(PRIMES_60))
    kind = draw(st.sampled_from(WEIGHT_KINDS))
    a = b = 0
    if kind in (LUCAS_U, LUCAS_V):
        a, b = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any))
    num = draw(st.integers(-300, 300).filter(lambda v: v % q))
    # a denominator divisible by q makes m^{-1} divisible by q
    den = draw(st.sampled_from([1, 2, 3, 7, q, 5 * q]))
    deg = draw(st.integers(0, 4))
    poly = (draw(st.integers(1, 9)),) + tuple(draw(st.integers(-9, 9)) for _ in range(deg))
    spec = SumSpec(draw(st.integers(1, 3)), Fraction(num, den), poly, WeightSpec(kind, a, b),
                   draw(st.sampled_from([HALF, FULL])), draw(st.integers(1, 4)))
    return spec, OddPrime(q)


@settings(max_examples=300, deadline=None)
@given(sum_cases())
def test_binomial_sum_matches_oracle(case):
    spec, p = case
    value = binomial_sum(spec, p)
    assert value == exact_sum(spec, p)
    # a context deeper than the sum needs, as a sweep shares, gives the same answer
    assert binomial_sum(spec, p, PrimeContext(p, MAX_DIGITS)) == value


def _count_walks(monkeypatch) -> list:
    walks = []
    kernel = engine._walk
    monkeypatch.setattr(engine, "_walk", lambda *a: walks.append(1) or kernel(*a))
    return walks


def test_half_full_order_reuses_segments(monkeypatch):
    walks = _count_walks(monkeypatch)
    for q in (5, 13, 29):
        p = OddPrime(q)
        for h, m, ws in ((3, 64, CONST_WEIGHT), (2, Fraction(-16, q), WeightSpec(HARMONIC)),
                         (3, 1, WeightSpec(HARMONIC_GAP)), (2, 32, WeightSpec(PELL)),
                         (1, Fraction(3, q), WeightSpec(LUCAS_V, 5, 7))):
            fresh = {}
            for rng in (HALF, FULL):
                ctx = PrimeContext(p, 4)
                fresh[rng] = ctx.moments(h, m_inverse_residue(ctx, m), ws, rng)
            for order in ((HALF, FULL), (FULL, HALF)):
                ctx = PrimeContext(p, 4)
                minv = m_inverse_residue(ctx, m)
                walks.clear()
                for rng in order + order:
                    assert ctx.moments(h, minv, ws, rng) == fresh[rng]
                # the half segment and the tail, each walked once
                assert len(walks) == 2


def test_apery_stream_matches_oracle():
    for q in (3, 5, 7, 13, 31):
        ctx = PrimeContext(OddPrime(q), 3)
        assert list(ctx.apery()) == [exact_apery(k) % ctx.mod for k in range(q)]
        # a stream: each pass recomputes, and the context keeps no Apery table
        assert list(ctx.apery()) == list(ctx.apery())
        assert len(ctx._inv) <= q + 1 and not ctx._bh and not ctx._weights


def test_context_refuses_primes_above_engine_bound(monkeypatch):
    def no_tables(self, hi):
        raise AssertionError("tables allocated")

    # binomial and harmonic tables grow from the inverse table on first request
    monkeypatch.setattr(PrimeContext, "inverses", no_tables)
    with pytest.raises(PrimeTooLarge, match=str(ENGINE_PRIME_BOUND)):
        PrimeContext(OddPrime(1000000007), 2)
    # an int prime is refused before it is validated: 2^63 + 29 is a prime
    # that OddPrime itself refuses with a ValueError
    for big in (1000003, 2**63 + 29):
        with pytest.raises(PrimeTooLarge, match=str(big)):
            binomial_sum(SumSpec(3, 64), big)
    monkeypatch.setattr(engine, "ENGINE_PRIME_BOUND", 13)
    with pytest.raises(PrimeTooLarge):
        binomial_sum(SumSpec(3, 64), OddPrime(17))
    ctx = PrimeContext(OddPrime(13), 2)
    with pytest.raises(AssertionError, match="tables allocated"):
        ctx.bh(1)


def test_shared_context_matches_cold_paths():
    # the deepest workspace, its tables already grown by every other check,
    # answers as a fresh one at power 2: the harmonic sum is read mod p only
    for q in (11, 13, 29):
        p = OddPrime(q)
        shared = Workspace(p, MAX_POWER)
        for cid in ("eq1.0", "thm1.5", "cor4.3", "lemma2.2"):
            run_check(cid, p, workspace=shared)
        for cid in ("thm4.1", "lemma4.1"):
            assert _pairs_mod_p2(cid, shared) == _pairs_mod_p2(cid, Workspace(p, 2)), (cid, q)
            assert run_check(cid, p, workspace=shared) == run_check(cid, p), (cid, q)


def test_identity_checks_agree_across_context_digits():
    # both identities need only two digits to decide mod p^2: workspaces of
    # power 2..4 (contexts of 3..5 digits) give the same pairs
    for q in (3, 5, 11, 13, 29, 61, 97):
        p = OddPrime(q)
        for cid in ("lemma4.1", "thm4.1"):
            pairs = [_pairs_mod_p2(cid, Workspace(p, power)) for power in range(2, MAX_POWER + 1)]
            assert pairs[0] == pairs[1] == pairs[2], (cid, q)
            assert all(lhs == rhs for lhs, rhs in pairs[0]), (cid, q)
        contexts = [PrimeContext(p, digits) for digits in range(2, MAX_DIGITS + 1)]
        for value in (0, 2, 5, -7, q, q * q + 3):
            n = (q - 1) // 2
            want = reduce_fraction(exact_legendre_poly(n, value), q, 2)
            for ctx in contexts:
                got = legendre_poly_eval(ctx, n, value)
                assert got[0] % (q * q) == want and got[1] == 0, (q, value, ctx.digits)


def test_binomial_sum_refuses_a_mismatched_context():
    spec = SumSpec(3, 64, e=2)
    p = OddPrime(13)
    want = exact_sum(spec, p).value
    for digits in (2, 3, MAX_DIGITS):
        assert reduce(binomial_sum(spec, p, PrimeContext(p, digits)), 2).value == want
    with pytest.raises(ValueError, match="p = 11"):
        binomial_sum(spec, p, PrimeContext(OddPrime(11), MAX_DIGITS))
    # the harmonic gap, v(w) = -1, needs e + 1 digits
    gap = spec._replace(weight=WeightSpec(HARMONIC_GAP))
    assert reduce(binomial_sum(gap, p, PrimeContext(p, 3)), 2).value == exact_sum(gap, p).value
    with pytest.raises(ValueError, match="needs 3 digits"):
        binomial_sum(gap, p, PrimeContext(p, 2))
    # e = 4 needs 4 digits, 5 for the gap: the deepest context there is
    assert MAX_DIGITS == 5
    with pytest.raises(ValueError, match="outside 2..5"):
        PrimeContext(p, 6)
    for case, need in ((spec, 4), (gap, 5)):
        case = case._replace(e=4)
        with pytest.raises(ValueError, match=f"needs {need} digits"):
            binomial_sum(case, p, PrimeContext(p, need - 1))
        got = binomial_sum(case, p, PrimeContext(p, need))
        assert reduce(got, 4).value == exact_sum(case, p).value


def test_binomial_sum_takes_an_int_prime_as_exact_sum_does():
    # an int p used to raise AttributeError: 'int' object has no attribute 'p'
    spec = SumSpec(3, 64)
    assert binomial_sum(spec, 13) == exact_sum(spec, 13) == ResidueMod(OddPrime(13), 2, 10)
    for bad in (15, 2, -13):
        with pytest.raises(ValueError):
            binomial_sum(spec, bad)
    for bad in (13.0, None):
        with pytest.raises(TypeError):
            binomial_sum(spec, bad)
    # a context reads its prime through the same door: 13 is accepted
    assert PrimeContext(13, 3).p == 13
    for bad in (13.0, None):
        with pytest.raises(TypeError):
            PrimeContext(bad, 3)


def test_cold_sums_build_contexts_at_e_minus_v_digits(monkeypatch):
    built = []
    init = PrimeContext.__init__

    def recording_init(self, prime, digits):
        built.append(digits)
        init(self, prime, digits)

    monkeypatch.setattr(PrimeContext, "__init__", recording_init)
    p = OddPrime(13)
    deep = PrimeContext(p, MAX_DIGITS)
    kinds = [WeightSpec(kind, *((1, 16) if kind in (LUCAS_U, LUCAS_V) else (0, 0)))
             for kind in WEIGHT_KINDS]
    for ws in kinds:
        for e in (1, 2, 3, 4):
            # a FULL sum skips its tail where e <= h + v(w): often at h = 3, seldom at 1
            for h, rng in ((1, HALF), (1, FULL), (3, FULL)):
                spec = SumSpec(h, Fraction(-3, 8), (2, 1), ws, rng, e)
                built.clear()
                cold = binomial_sum(spec, p)
                assert built == [max(2, e + (ws.kind == HARMONIC_GAP))], (ws, e)
                want = reduce(binomial_sum(spec, p, deep), e).value
                assert reduce(cold, e).value == want, (ws, e, h, rng)


def test_inverse_table_matches_pow_in_steps_and_at_once(monkeypatch):
    for q in (3, 5, 7, 101, 997):
        p = OddPrime(q)
        for digits in range(2, MAX_DIGITS + 1):
            mod = q**digits
            want = [pow(j, -1, mod) if j % q else 0 for j in range(2 * q - 1)]
            once, stepped = PrimeContext(p, digits), PrimeContext(p, digits)
            assert once.inverses(2 * q - 1) == want
            for hi in (2, q, q + 1, 2 * q - 1):
                assert stepped.inverses(hi)[:hi] == want[:hi], (q, digits, hi)
            assert stepped.inverses(2 * q - 1) == want
    # 5^3 mod 6 = 5 = p: the recurrence would read inv[5] = 0, so j = 6 is
    # the one entry below 7 inverted by pow
    calls = []
    monkeypatch.setattr(engine, "pow", lambda *a: calls.append(a) or pow(*a), raising=False)
    assert PrimeContext(OddPrime(5), 3).inverses(7)[6] == pow(6, -1, 125) == 21
    assert calls == [(6, -1, 125)]


def _naive_walks(c, z0, z1, disc, mod, lengths):
    """{length: (A, B, A1, B1)} of sum_j c[j] z^j and sum_j j c[j] z^j in Z[w], term by term."""
    out = {}
    a0 = a1 = m0 = m1 = 0
    x0, x1 = 1, 0
    for j in range(max(lengths) + 1):
        if j in lengths:
            out[j] = (a0 % mod, a1 % mod, m0 % mod, m1 % mod)
        if j < len(c):
            a0, a1 = a0 + c[j] * x0, a1 + c[j] * x1
            m0, m1 = m0 + j * c[j] * x0, m1 + j * c[j] * x1
            x0, x1 = (x0 * z0 + disc * x1 * z1) % mod, (x0 * z1 + x1 * z0) % mod
    return out


def test_walk_matches_naive_sums():
    rng = random.Random(7)
    for q, size in ((5, 5), (13, 150), (101, 101), (25033, 25033)):
        mod = q**3
        # the kernel's block length for the whole list, and every short length
        b = min(size, isqrt(4 * size))
        lengths = {*range(30), b - 1, b, b + 1, 3 * b + 1, size - 1, size}
        lengths = {n for n in lengths if 0 <= n <= size}
        # c_k = mod^2 - 1 fills every packed field to its widest
        for c in ([mod * mod - 1] * size, [rng.randrange(mod * mod) for _ in range(size)]):
            unit, mult = rng.randrange(1, mod), q * rng.randrange(1, q * q)
            # scalar: x = 0, a multiple of q (as m^{-1} at lemma2.2), a unit and -1;
            # Z[w]: disc = 0, disc a multiple of q, and z with x or w part 0 mod q
            points = [(x, 0, 0) for x in (0, mult, unit, mod - 1)]
            points += [(mod - 1, mod - 1, disc) for disc in (0, mult, -3, mod - 1)]
            points += [(mult, unit, 7), (0, mod - 1, mult), (unit, mult, 0)]
            for z0, z1, disc in points:
                want = _naive_walks(c, z0, z1, disc, mod, lengths)
                for n in lengths:
                    assert engine._walk(c[:n], n, z0, z1, disc, mod, True) == want[n], (q, n)
                    # the kernel reads its terms once, so an iterator serves as a list
                    assert (engine._walk(iter(c[:n]), n, z0, z1, disc, mod, False)
                            == want[n][:2] + (0, 0))
                # a segment c[k0:] walked from z^k0 adds up with its prefix
                for k0 in sorted(lengths)[-3:]:
                    head = engine._walk(c[:k0], k0, z0, z1, disc, mod, True)
                    tail = engine._walk(islice(c, k0, None), size - k0, z0, z1, disc, mod,
                                        True, k0)
                    assert tuple((x + y) % mod for x, y in zip(head, tail)) == want[size]


def test_lucas_u_and_v_sums_share_one_walk(monkeypatch):
    # one walk of binom^h at alpha / m answers the u and the v sum of a pair
    walks = _count_walks(monkeypatch)
    for q in (13, 101):
        p = OddPrime(q)
        # disc = a^2 - 4b is 0 at (2, 1), and 13 at (1, -3)
        for h, m, pair in ((2, 32, (WeightSpec(PELL), WeightSpec(COMPANION_PELL))),
                           (2, 16, (WeightSpec(LUCAS_U, 1, 16), WeightSpec(LUCAS_V, 1, 16))),
                           (3, -8, (WeightSpec(LUCAS_U, 2, 1), WeightSpec(LUCAS_V, 2, 1))),
                           (1, 5, (WeightSpec(LUCAS_U, 1, -3), WeightSpec(LUCAS_V, 1, -3)))):
            ctx = PrimeContext(p, 4)
            minv = m_inverse_residue(ctx, m)
            for rng in (HALF, FULL):
                walks.clear()
                for ws in pair + pair:
                    s0, s1 = ctx.moments(h, minv, ws, rng)
                    assert s0 == exact_sum(SumSpec(h, m, (1,), ws, rng, 4), p).value
                    assert s1 == exact_sum(SumSpec(h, m, (1, 0), ws, rng, 4), p).value
                # the half segment, then only the tail
                assert len(walks) == 1, (q, h, m, rng)


def test_legendre_coeffs_built_once_per_context_and_degree(monkeypatch):
    builds = []
    inverses = PrimeContext.inverses
    # the coefficient recurrence is the only inverse-table reader on this path
    monkeypatch.setattr(PrimeContext, "inverses",
                        lambda self, hi: builds.append((id(self), hi)) or inverses(self, hi))
    for q in (11, 13, 29):
        p = OddPrime(q)
        ctx = PrimeContext(p, MAX_DIGITS)
        for n in (0, 1, (q - 1) // 2, q - 1):
            builds.clear()
            for _ in range(3):
                for x0, x1, disc in ((2, 0, 0), (-7, 0, 0), (q + 3, 0, 0), (0, 1, 2), (3, 5, 7)):
                    got = legendre_poly_eval(ctx, n, x0, x1, disc)
                    fresh = legendre_poly_eval(PrimeContext(p, MAX_DIGITS), n, x0, x1, disc)
                    assert got == fresh
            assert [hi for owner, hi in builds if owner == id(ctx)] == [n + 1]
            assert ctx.legendre_coeffs(n) == [
                comb(n, k) * comb(n + k, k) % ctx.mod for k in range(n + 1)]
