"""Named congruence checks over prime moduli, plus the suite runner.

The catalogue is one table, _CHECKS, with a row per check: its id and
anchor, its hypothesis on p, its status and failure mode, its modulus
power, its evaluator, and optionally a second hypothesis under which it
holds one power of p deeper.  A Hypothesis carries the text that list and
a SKIP print beside its predicate, and is built from a few combinators
(ALL, GT3, _ne, _mod, the two Legendre conditions, _and), so the text is
derived, not typed again.  Proved results abort the suite when they fail
(that signals an implementation bug); conjectural or biconditional
statements record counterexamples and continue.

An evaluator returns (or yields) its congruences as (lhs, rhs) pairs of
p-integral ints or Fractions, written as the paper writes them, or an
Equivalence.  It names no modulus: run_check runs the check at a power e
(its override, else modulus_power), reduces both sides of each pair mod
p^e as it reads them, and reports the first pair that differs.  An
evaluator takes (ws), or (ws, e) when it reads that power; that arity is
CongruenceCheck.reads_power, and only such a check takes an override.
Modular arithmetic stays only where a value must be a residue: an
exponentiation mod p^2, a point in Z[w], a biconditional's truths.

The engine states no congruence: lemma 4.1 and theorem 4.1 are evaluators
here too.  An evaluator reads every engine value through its Workspace:
sums (sum), Legendre values (legendre_poly) and table entries
(central_binomial, alternating_apery, half_tables).  The prime's context is
private to the Workspace.  A check does not list the sums it evaluates.
The oracle gates in tests/test_acceptance.py cover the sums the catalogue
is observed to evaluate: they record every SumSpec that reaches
binomial_sum, and every P_n argument that reaches legendre_poly_eval,
while each check runs at a few primes.

Importing this module builds the catalogue and loads no process pool:
run_suite imports concurrent.futures only when it starts one.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import cycle
from math import comb
from operator import index, mul
from typing import Callable, NamedTuple

from .arith import (
    OddPrime,
    ResidueMod,
    fermat_quotient,
    is_prime,
    legendre_symbol,
    reduce,
    require_int,
    sqrt_mod,
)
from .engine import (
    CONST_WEIGHT,
    FULL,
    HALF,
    MAX_POWER,
    PrimeContext,
    SumSpec,
    WeightSpec,
    binomial_sum,
    engine_prime,
    ext_pow,
    legendre_poly_eval,
    sum_digits,
)
from .errors import OverrideRefused, SuperconError, UnknownCheckId
from .quadform import (
    D1_ODDX1MOD4,
    RAW,
    X1MOD4,
    XPLUSY1MOD4,
    Y1MOD4,
    align_pi,
    normalize,
    pi_bar,
    represent,
)
from .seq import (
    COMPANION_PELL,
    CUBIC_CHAR,
    HARMONIC,
    HARMONIC_GAP,
    LUCAS_U,
    LUCAS_V,
    PELL,
    THREE_INDICATOR,
)

PROVED = "PROVED"
CONJECTURAL = "CONJECTURAL"

ABORT = "abort"
COUNTEREXAMPLE_MODE = "counterexample"

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
ERROR = "ERROR"
COUNTEREXAMPLE = "COUNTEREXAMPLE"

GAP_WEIGHT = WeightSpec(HARMONIC_GAP)
HARMONIC_WEIGHT = WeightSpec(HARMONIC)

# m values closed under m -> 4096/m; the dual-m relations run over these.
M_GRID = (1, -8, 16, -64, 256, -512, 4096)
AB_GRID = ((0, 1), (1, 0), (4, 1), (21, 8), (2, -3))
THM15_M = M_GRID + (3,)
# (h, m, poly) instances for the half-range reflection transform; the last,
# of degree 2, pins _poly_derivative and _poly_reflect_half where a P of
# degree 1 cannot.
THM41_GRID = (
    (3, 64, (1,)),
    (3, 16, (1, 0)),
    (3, -64, (4, 1)),
    (2, 256, (1, 1)),
    (1, -4, (1, 2)),
    (2, -16, (2, 3)),
    (3, -8, (1, 1, 1)),
)


def _res(value, mod: int) -> int:
    """A p-integral int or Fraction as a residue mod a power of p."""
    if isinstance(value, int):  # no inverse needed; lemma 4.1 hands over n + 1 int pairs
        return value % mod
    return value.numerator * pow(value.denominator, -1, mod) % mod


def _sgn(c: int) -> int:
    return -1 if c % 2 else 1


class Workspace:
    """Per-prime evaluation bundle shared by every check in a batch, up to mod p^power.

    It owns the prime's one PrimeContext, deep enough for any weight, and hands
    it to every engine call; the context is dropped with the workspace.  No
    evaluator reads the context: every sum, Legendre value and table entry a
    check reads is a method here, so a test can answer them all another way.
    """

    __slots__ = ("q", "n", "power", "_ctx", "_cache")

    def __init__(self, p: int, power: int):
        p = engine_prime(p)
        require_int("power", power)
        if not 1 <= power <= MAX_POWER:
            raise ValueError(f"workspace power {power} outside 1..{MAX_POWER}")
        self.q = p
        self.n = (p - 1) // 2
        self.power = power
        # the harmonic gap, v(w) = -1, needs the most digits
        self._ctx = PrimeContext(p, sum_digits(power, GAP_WEIGHT))
        self._cache: dict = {}

    def mod(self, e: int) -> int:
        return self.q**e

    def legendre(self, a) -> int:
        fr = Fraction(a)
        return legendre_symbol(fr.numerator * fr.denominator, self.q)

    def sum(self, h, m, poly=(1,), weight=CONST_WEIGHT, rng=FULL, e=2) -> int:
        # evaluate once at the workspace power, then cut down to e
        spec = SumSpec(h, m, tuple(poly), weight, rng, self.power)
        return reduce(binomial_sum(spec, self.q, self._ctx), e).value

    def gap1(self, m) -> int:
        """True value of sum_k k binom^3 (H_2k - H_k)/m^k mod p."""
        return self.sum(3, m, (1, 0), GAP_WEIGHT, FULL, 1)

    def gap0_half(self, m) -> int:
        return self.sum(3, m, (1,), GAP_WEIGHT, HALF, 2)

    def central_binomial(self, k: int) -> int:
        """binomial(2k, k) to the context's digits; the table grows to k alone."""
        return self._ctx.bh(1, k + 1)[k]

    def alternating_apery(self) -> int:
        """sum_{k<p} (-1)^k A_k, A_k the Apery numbers, unreduced but true to the context's digits."""
        return sum(map(mul, self._ctx.apery(), cycle((1, -1))))

    def half_tables(self) -> tuple:
        """Lemma 4.1's tables to the context's digits: binomial(2k, k) and p(H_2k - H_k)
        by k <= n, and j^{-1} by 0 < j <= 2n."""
        ctx, n = self._ctx, self.n
        return ctx.bh(1, n + 1), ctx.weight_table(GAP_WEIGHT, n + 1), ctx.inverses(2 * n + 1)

    def rep(self, d: int, convention: str):
        """The first representation normalize gives under convention."""
        key = ("rep", d, convention)
        if key not in self._cache:
            self._cache[key] = normalize(represent(self.q, d), convention)[0]
        return self._cache[key]

    def sqrt(self, a: int) -> ResidueMod:
        """The smaller square root of a mod p^2."""
        key = ("sqrt", a)
        if key not in self._cache:
            self._cache[key] = sqrt_mod(a, self.q, 2)[0]
        return self._cache[key]

    def aligned(self, d: int, convention: str):
        key = ("aligned", d, convention)
        if key not in self._cache:
            self._cache[key] = align_pi(self.rep(d, convention), self.sqrt(-d))
        return self._cache[key]

    def legendre_poly(self, x0, x1=0, disc: int = 0) -> tuple:
        """P_n(x0 + x1 w) in Z[w]/(w^2 - disc) for n = (p-1)/2, a pair to the context's digits;
        x0 and x1 are p-integral ints or Fractions."""
        mod = self._ctx.mod
        return legendre_poly_eval(self._ctx, self.n, _res(x0, mod), _res(x1, mod), disc)


class Equivalence(NamedTuple):
    """Truth values whose mutual agreement is the claim under test.

    The evaluator decides each truth at the modulus its statement names;
    witness is an (lhs, rhs) pair of p-integral values, which run_check
    reduces mod p^e for the report like any other pair.
    """

    truths: tuple
    witness: tuple


class Hypothesis(NamedTuple):
    """A condition on p: the text that list and a SKIP print, and the predicate it names."""

    text: str
    predicate: "Callable[[OddPrime], bool]"

    def __call__(self, p: OddPrime) -> bool:
        return self.predicate(p)


class CongruenceCheck(NamedTuple):
    """One catalogue entry; evaluate takes (ws), or (ws, e) when it reads its power.

    The check runs mod p^power, or mod p^(power + 1) at a prime where deeper holds.
    """

    id: str
    anchor: str
    hypothesis: Hypothesis
    status: str
    failure_mode: str
    power: int
    evaluate: "Callable[..., object]"
    deeper: "Hypothesis | None" = None

    def modulus_power(self, p: OddPrime) -> int:
        return self.power + 1 if self.deeper and self.deeper(p) else self.power

    @property
    def reads_power(self) -> bool:
        """Whether evaluate takes the power e, so that an override changes the test."""
        return self.evaluate.__code__.co_argcount == 2


class CheckReport(NamedTuple):
    check: str
    p: int
    verdict: str
    lhs: "int | None"
    rhs: "int | None"
    modulus: "int | None"
    detail: str = ""


# ---------------------------------------------------------------- evaluators


def _ev_gauss(ws: Workspace):
    x = ws.rep(1, D1_ODDX1MOD4).x
    return [(ws.central_binomial((ws.q - 1) // 4), 2 * x)]


def _ev_cde(ws: Workspace):
    x = ws.rep(1, D1_ODDX1MOD4).x
    factor = Fraction(pow(2, ws.q - 1, ws.mod(2)) + 1, 2)
    return [(ws.central_binomial((ws.q - 1) // 4), factor * (2 * x - Fraction(ws.q, 2 * x)))]


def _four_x_sq(ws: Workspace, d: int) -> int:
    x = ws.rep(d, RAW).x
    return 4 * x * x - 2 * ws.q


def _ev_eq1_0(ws: Workspace):
    rhs = _four_x_sq(ws, 1) if ws.q % 4 == 1 else 0
    return [(ws.sum(3, 64, e=2), rhs)]


def _ev_eq1_1(ws: Workspace):
    rhs = _four_x_sq(ws, 7) if legendre_symbol(ws.q, 7) == 1 else 0
    return [(ws.sum(3, 1, e=2), rhs)]


def _ev_eq1_2(ws: Workspace, e: int):
    a = ws.sum(3, -8, e=e)
    b = ws.legendre(2) * ws.sum(3, -512, e=e)
    c = ws.sum(3, 64, e=e)
    return [(a, b), (b, c)]


def _ev_eq1_3(ws: Workspace):
    rhs = ws.legendre(2) * _four_x_sq(ws, 2) if ws.q % 8 in (1, 3) else 0
    return [(ws.sum(3, -64, e=2), rhs)]


def _ev_eq1_4(ws: Workspace):
    rhs = _four_x_sq(ws, 3) if ws.q % 3 == 1 else 0
    return [(ws.sum(3, 16, e=2), rhs)]


def _ev_eq1_5(ws: Workspace, e: int):
    return [(ws.sum(3, 256, e=e), ws.legendre(-1) * ws.sum(3, 16, e=e))]


def _ev_eq1_6(ws: Workspace, e: int):
    return [(ws.sum(3, 4096, e=e), ws.legendre(-1) * ws.sum(3, 1, e=e))]


def _ev_eq1_8(ws: Workspace):
    return [(ws.alternating_apery(), ws.sum(3, 16, e=2))]


def _ev_eq1_9(ws: Workspace):
    return [
        (ws.sum(3, m, (1,), GAP_WEIGHT, FULL, 1),
         Fraction(fermat_quotient(m, ws.q).value * ws.sum(3, m, e=1), 6))
        for m in M_GRID
    ]


def _ev_su5_intro(ws: Workspace):
    x = ws.rep(1, D1_ODDX1MOD4).x
    target = ws.legendre(2) * x
    s1 = ws.sum(2, 8, (1, 1), CONST_WEIGHT, HALF, 2)
    s2 = ws.sum(2, -16, (2, 1), CONST_WEIGHT, HALF, 2)
    return [(s1, target), (s2, target)]


def _ev_jameson_ono(ws: Workspace):
    return [(ws.sum(3, 1, (1,), GAP_WEIGHT, HALF, 1), 0)]


def _ev_su1_1_11(ws: Workspace):
    return [(ws.sum(3, 64, (1,), HARMONIC_WEIGHT, HALF, 1), 0)]


def _ev_thm1_1_i(ws: Workspace):
    x = ws.rep(2, X1MOD4).x
    a = 4 * ws.sum(2, 32, (1, 0), WeightSpec(PELL))
    b = ws.sum(2, 32, (1, 0), WeightSpec(COMPANION_PELL))
    c = _sgn((ws.q - 1) // 8 + (x - 1) // 4) * (Fraction(ws.q, x) - 2 * x)
    d = _sgn((x - 1) // 4) * x
    t = ws.sum(2, 32, (1, 1), WeightSpec(COMPANION_PELL))
    return [(a, c), (b, c), (d, _sgn((ws.q - 1) // 8) * Fraction(t, 2))]


def _ev_thm1_1_ii(ws: Workspace):
    y = ws.rep(2, RAW).y
    a = ws.sum(2, 32, (1, 0), WeightSpec(PELL))
    b = Fraction(ws.sum(2, 32, (1, 0), WeightSpec(COMPANION_PELL)), 2)
    c = _sgn((y + 1) // 2) * y
    d = ws.sum(2, 32, (1,), WeightSpec(PELL))
    return [(a, c), (b, c), (d, _sgn((y - 1) // 2) * (2 * y - Fraction(ws.q, 4 * y)))]


def _ev_thm1_2_i(ws: Workspace):
    x = ws.rep(3, X1MOD4).x
    lhs = ws.sum(2, -16, (2, 1), WeightSpec(THREE_INDICATOR))
    return [(lhs, ws.legendre(2) * 2 * x)]


def _ev_thm1_2_ii_a(ws: Workspace):
    y = ws.rep(3, Y1MOD4).y
    lhs = ws.sum(2, -16, (1,), WeightSpec(CUBIC_CHAR))
    return [(lhs, _sgn((ws.q - 3) // 4) * (4 * y - Fraction(ws.q, 3 * y)))]


def _thm1_2_ii_b(ws: Workspace, first_h: int):
    y = ws.rep(3, Y1MOD4).y
    yform = _sgn((ws.q + 1) // 4) * y
    s1 = ws.sum(first_h, -16, (1, 0), WeightSpec(CUBIC_CHAR))
    s3 = ws.sum(2, -16, (1, 0), WeightSpec(THREE_INDICATOR))
    return [(s1, yform), (-s3, yform)]


def _ev_thm1_2_ii_b2(ws: Workspace):
    return _thm1_2_ii_b(ws, 2)


def _ev_thm1_2_ii_b3(ws: Workspace):
    return _thm1_2_ii_b(ws, 3)


def _ev_thm1_3_i(ws: Workspace):
    x = ws.rep(7, X1MOD4).x
    lhs = ws.sum(2, 16, (4, 3), WeightSpec(LUCAS_V, 1, 16))
    return [(lhs, 6 * ws.legendre(2) * x)]


def _ev_thm1_3_ii(ws: Workspace):
    y = ws.rep(7, Y1MOD4).y
    su = ws.sum(2, 16, (1, 0), WeightSpec(LUCAS_U, 1, 16))
    sv = ws.sum(2, 16, (1, 0), WeightSpec(LUCAS_V, 1, 16))
    rhs = Fraction(-ws.legendre(2) * y, 2)
    return [(su, rhs), (sv, rhs)]


def _ev_thm1_4_i(ws: Workspace):
    x = ws.rep(3, X1MOD4).x
    a = ws.sum(2, 64, (1,), WeightSpec(LUCAS_V, 4, 1))
    b = ws.sum(2, 64, (1, -1), WeightSpec(LUCAS_V, 4, 1))
    return [(a, 4 * x - Fraction(ws.q, x)), (b, -2 * x)]


def _ev_thm1_4_ii(ws: Workspace):
    y = ws.rep(3, Y1MOD4).y
    a = ws.sum(2, 64, (1,), WeightSpec(LUCAS_U, 4, 1))
    b1 = ws.sum(2, 64, (1, 0), WeightSpec(LUCAS_U, 4, 1))
    b2 = Fraction(ws.sum(2, 64, (1, 0), WeightSpec(LUCAS_V, 4, 1)), 4)
    return [(a, 2 * y - Fraction(ws.q, 6 * y)), (b1, y), (b2, y)]


def _ev_thm1_5(ws: Workspace):
    q, mod = ws.q, ws.mod(2)
    inv2, inv4 = pow(2, -1, mod), pow(4, -1, mod)
    out = []
    for m in THM15_M:
        # the sums at m come first: they refuse an m whose numerator p divides
        s1m, s0m = ws.sum(3, m, (1, 0)), ws.sum(3, m)
        mb = Fraction(4096, m)
        fq = (pow(_res(mb, mod), q - 1, mod) + 1) * inv4
        s1b, s0b = ws.sum(3, mb, (1, 0)), ws.sum(3, mb)
        g1b, g0b = ws.gap1(mb), ws.sum(3, mb, (1,), GAP_WEIGHT, FULL, 1)
        sym = ws.legendre(-m)
        for a, b in AB_GRID:
            lhs = sym * (a * s1m + b * s0m) + fq * (2 * a * s1b + (a - 2 * b) * s0b)
            rhs = q * inv2 * (a * s0b + 3 * (2 * a * g1b + (a - 2 * b) * g0b))
            out.append((lhs, rhs))
    return out


def _ev_cor1_1(ws: Workspace):
    q, mod = ws.q, ws.mod(2)
    out = []
    for m in THM15_M:
        mb = Fraction(4096, m)
        s0m, s0b = ws.sum(3, m), ws.sum(3, mb)
        g0b = ws.sum(3, mb, (1,), GAP_WEIGHT, FULL, 1)
        qp_scaled = pow(_res(mb, mod), q - 1, mod) - 1
        out.append((ws.legendre(-m) * s0m - s0b, -3 * q * g0b + qp_scaled * Fraction(s0b, 2)))
    return out


def _ev_vhm_4k1(ws: Workspace):
    return [(ws.sum(3, -64, (4, 1), e=3), ws.legendre(-1) * ws.q)]


def _ev_gz_3k1_16(ws: Workspace):
    return [(ws.sum(3, 16, (3, 1), e=2), ws.q)]


def _ev_gz_3k1_m8(ws: Workspace):
    return [(ws.sum(3, -8, (3, 1), e=3), ws.legendre(-1) * ws.q)]


def _ev_su2_21k8(ws: Workspace, e: int):
    return [(ws.sum(3, 1, (21, 8), e=e), 8 * ws.q)]


def _ev_long_6k1_256(ws: Workspace):
    lhs = ws.sum(3, 256, (6, 1), CONST_WEIGHT, HALF, 4)
    return [(lhs, ws.legendre(-1) * ws.q)]


def lemma_2_2_arguments(q: int, count: int) -> list:
    """Deterministic rational sample points with denominators prime to the prime q."""
    q = OddPrime(q)
    rng = random.Random(10007 * q + 17)
    args = []
    while len(args) < count:
        den = rng.randrange(1, 25)
        if den % q == 0:
            continue
        num = rng.randrange(-40, 41)
        args.append(Fraction(num, den))
    return args


def _ev_lemma2_2(ws: Workspace):
    out = []
    for x in lemma_2_2_arguments(ws.q, 4):
        z = (x - 1) / 2
        rhs = ws.sum(2, Fraction(-16) / z, e=2) if z else 1
        out.append((ws.legendre_poly(x)[0], rhs))
        out.append((ws.legendre_poly(-x)[0], _sgn(ws.n) * rhs))
    return out


def _ev_lemma2_3(ws: Workspace):
    q = ws.q
    out = []
    for d in (1, 2, 3, 7):
        if legendre_symbol(-d, q) != 1:
            continue
        ar = ws.aligned(d, RAW)
        pb = pi_bar(ar).value
        x, y = ar.rep.x, ar.rep.y
        s = ar.sqrt_md.value
        out.append((pb, 2 * x - Fraction(q, 2 * x)))
        out.append((pb, Fraction(-s, 2) * (4 * y - Fraction(q, d * y))))
    return out


# P_n(c sqrt d) is evaluated in Z[w]/(w^2 - d) at every prime: where sqrt d
# exists mod p, n = (p-1)/2 is even, P_n is an even polynomial, and its value
# there depends on d alone.
def _ev_lemma2_4_d2(ws: Workspace):
    mod = ws.mod(2)
    ar = ws.aligned(2, X1MOD4)
    pb = pi_bar(ar).value
    l0, l1 = ws.legendre_poly(0, 1, 2)
    r = ext_pow((0, _res(Fraction(ar.sqrt_md.value, 2), mod)), (-ar.rep.y) % 4, 2, mod)
    return [(l0, r[0] * pb), (l1, r[1] * pb)]


def _ev_lemma2_4_d3(ws: Workspace):
    mod = ws.mod(2)
    ar = ws.aligned(3, XPLUSY1MOD4)
    pb = pi_bar(ar).value
    s = ar.sqrt_md.value
    l0, l1 = ws.legendre_poly(0, Fraction(1, 2), 3)
    r = ext_pow((0, _res(Fraction(-s, 3), mod)), ws.n % 4, 3, mod)
    return [(ws.legendre_poly(s)[0], _sgn(ar.rep.y) * pb), (l0, r[0] * pb), (l1, r[1] * pb)]


def _ev_lemma2_4_d7(ws: Workspace):
    mod = ws.mod(2)
    ar = ws.aligned(7, XPLUSY1MOD4)
    pb = pi_bar(ar).value
    s = ar.sqrt_md.value
    l0, l1 = ws.legendre_poly(0, Fraction(3, 8), 7)
    r = ext_pow((0, _res(Fraction(s, 7), mod)), ws.n % 4, 7, mod)
    return [(ws.legendre_poly(3 * s)[0], _sgn(ws.n + ar.rep.y) * pb), (l0, r[0] * pb),
            (l1, r[1] * pb)]


def _ev_lemma4_1(ws: Workspace):
    """binom(2n-k,k) = (-1)^k binom(2k,k)(1 - p(H_2k - H_k)) mod p^2, one pair per k = 0..n,
    yielded in k order; the left side steps by (2n-2k)(2n-2k-1)/((2n-k)(k+1)).
    """
    n, mod = ws.n, ws.mod(2)
    B, hg, inv = ws.half_tables()
    lhs = 1
    for k in range(n + 1):
        yield lhs, _sgn(k) * B[k] * (1 - hg[k])
        lhs = lhs * (2 * n - 2 * k) * (2 * n - 2 * k - 1) * inv[2 * n - k] * inv[k + 1] % mod


def _poly_derivative(poly: tuple) -> tuple:
    d = len(poly) - 1
    return tuple(c * (d - i) for i, c in enumerate(poly[:-1]))


def _poly_reflect_half(poly: tuple) -> tuple:
    """2^d * P(-k - 1/2) as integer coefficients in k, highest first."""
    d = len(poly) - 1
    asc = [0] * (d + 1)
    for i, ci in enumerate(poly):
        e = d - i
        sign = -1 if e % 2 else 1
        for j in range(e + 1):
            asc[j] += ci * sign * comb(e, j) * 2**j * 2**i
    return tuple(reversed(asc))


def _ev_thm4_1(ws: Workspace):
    """Theorem 4.1's half-range reflection mod p^2 at each THM41_GRID instance, mbar = 16^h/m:

    ((-1)^h m / p) sum_{k<=n} P(k) binom^h / m^k = sum_{k<=n} binom^h / mbar^k
    [(mbar^{p-1}+1)/2 P(-k-1/2) + (p/2) P'(-k-1/2)] - p h sum_{k<=n} binom^h
    P(-k-1/2) (H_2k-H_k) / mbar^k, with the reflected polynomials times 2^d
    and the harmonic sum read mod p.
    """
    q, mod2 = ws.q, ws.mod(2)
    out = []
    for h, m, poly in THM41_GRID:
        # the sum at m comes first: it refuses an m whose numerator p divides
        lhs = ws.legendre((-1) ** h * m) * ws.sum(h, m, poly, CONST_WEIGHT, HALF)
        mbar = Fraction(16**h, m)
        d = len(poly) - 1
        qpoly = _poly_reflect_half(poly)
        s_q = ws.sum(h, mbar, qpoly, CONST_WEIGHT, HALF)
        rpoly = _poly_reflect_half(_poly_derivative(poly))
        s_r = ws.sum(h, mbar, rpoly, CONST_WEIGHT, HALF) if d else 0
        gap = ws.sum(h, mbar, qpoly, GAP_WEIGHT, HALF, 1)
        fq = Fraction(pow(_res(mbar, mod2), q - 1, mod2) + 1, 2)
        out.append((lhs, (fq * s_q + q * s_r - h * q * gap) / 2**d))
    return out


def _ev_cor4_1(ws: Workspace):
    lhs = ws.legendre(-1) * ws.gap1(-64) - Fraction(1, 6)
    if ws.q % 8 in (1, 3):
        x = ws.rep(2, RAW).x
        qp = fermat_quotient(2, ws.q).value
        return [(lhs, Fraction(-(3 * qp + 2) * x * x, 3))]
    return [(lhs, 0)]


def _ev_cor4_1_b(ws: Workspace):
    x = ws.rep(1, RAW).x
    qp = fermat_quotient(2, ws.q).value
    return [(ws.gap1(64), Fraction(-(3 * qp + 2) * x * x, 3))]


def _ev_cor4_2(ws: Workspace):
    a = ws.gap1(16) - Fraction(1, 6)
    b = ws.legendre(-1) * ws.gap1(256) - Fraction(1, 6)
    if ws.q % 3 == 1:
        x = ws.rep(3, RAW).x
        qp = fermat_quotient(2, ws.q).value
        rhs = Fraction(-2 * x * x * (4 * qp + 3), 9)
    else:
        rhs = 0
    return [(a, rhs), (b, rhs)]


def _congruent(a, b, mod: int) -> bool:
    return _res(a - b, mod) == 0


def _ev_cor4_3(ws: Workspace):
    # T1 sits at p^2, T2 and T3 at p; x = 0 where p does not split in Q(sqrt -7)
    q = ws.q
    lhs1 = ws.sum(3, 4096, (42, 5), e=2)
    rhs1 = 5 * q * ws.legendre(-1)
    qp = fermat_quotient(2, ws.q).value
    x = ws.rep(7, RAW).x if legendre_symbol(q, 7) == 1 else 0
    truths = (
        _congruent(lhs1, rhs1, q * q),
        _congruent(ws.gap1(1) - Fraction(1, 6), Fraction(-2 * x * x, 3), q),
        _congruent(ws.legendre(-1) * ws.gap1(4096) - Fraction(1, 6),
                   Fraction(-2 * (10 * qp + 7) * x * x, 21), q),
    )
    return Equivalence(truths, (lhs1, rhs1))


def _ev_cor4_4(ws: Workspace):
    # T1 sits at p^2, T2 and T3 at p; x = 0 where p does not split in Q(i)
    q = ws.q
    lhs1 = ws.sum(3, -512, (6, 1), e=2)
    rhs1 = ws.legendre(-2) * q
    qp = fermat_quotient(2, ws.q).value
    x = ws.rep(1, RAW).x if q % 4 == 1 else 0
    truths = (
        _congruent(lhs1, rhs1, q * q),
        _congruent(ws.gap1(-8) - Fraction(ws.legendre(-1), 6),
                   Fraction(-2 * (qp + 1) * x * x, 3), q),
        _congruent(ws.legendre(-2) * ws.gap1(-512) - Fraction(1, 6),
                   Fraction(-(3 * qp + 2) * x * x, 3), q),
    )
    return Equivalence(truths, (lhs1, rhs1))


def _ev_conj4_1_i(ws: Workspace):
    a = ws.gap0_half(-8)
    b = ws.gap0_half(64)
    c = ws.gap0_half(-512)
    if ws.q % 4 == 1:
        mid = Fraction(b, 2)
        return [(a, mid), (mid, ws.legendre(2) * Fraction(c, 3))]
    return [(a, Fraction(-7 * b, 2)), (b, -ws.legendre(2) * c)]


def _ev_conj4_1_ii(ws: Workspace):
    if ws.q % 3 == 1:
        rhs = ws.legendre(-1) * Fraction(ws.gap0_half(256), 2)
        return [(ws.gap0_half(16), rhs)]
    return [(ws.gap0_half(256), 0)]


def _ev_conj4_1_iii(ws: Workspace):
    return [(ws.gap0_half(1), 8 * ws.legendre(-1) * ws.gap0_half(4096))]


# ------------------------------------------------------------------ catalogue


# ALL and GT3 name module-level functions, so a check that uses them alone
# pickles; the combinators below build closures
def _all_odd(p: OddPrime) -> bool:
    return True


def _gt3(p: OddPrime) -> bool:
    return p > 3


ALL = Hypothesis("all odd p", _all_odd)
GT3 = Hypothesis("p > 3", _gt3)
_QR7 = Hypothesis("(p/7) = 1", lambda p: legendre_symbol(p, 7) == 1)
_NEG7_QR = Hypothesis("(-7/p) = 1", lambda p: legendre_symbol(-7, p) == 1)


def _ne(a: int) -> Hypothesis:
    return Hypothesis(f"p != {a}", lambda p: p != a)


def _mod(m: int, *residues: int) -> Hypothesis:
    return Hypothesis(f"p == {', '.join(map(str, residues))} (mod {m})",
                      lambda p: p % m in residues)


def _and(*hs: Hypothesis) -> Hypothesis:
    return Hypothesis(", ".join(h.text for h in hs), lambda p: all(h(p) for h in hs))


_CHECKS: "dict[str, CongruenceCheck]" = {check.id: check for check in (
    CongruenceCheck("gauss", "Gauss 1828", _mod(4, 1), PROVED, ABORT, 1, _ev_gauss),
    CongruenceCheck("cde", "Chowla-Dwork-Evans 1986", _mod(4, 1), PROVED, ABORT, 2, _ev_cde),
    CongruenceCheck("eq1.0", "van Hamme 1997", ALL, PROVED, ABORT, 2, _ev_eq1_0),
    CongruenceCheck("eq1.1", "KLMSY 2012", _ne(7), PROVED, ABORT, 2, _ev_eq1_1),
    CongruenceCheck("eq1.2", "KLMSY 2012", ALL, PROVED, ABORT, 2, _ev_eq1_2, _mod(4, 1)),
    CongruenceCheck("eq1.3", "KLMSY 2012", ALL, PROVED, ABORT, 2, _ev_eq1_3),
    CongruenceCheck("eq1.4", "KLMSY 2012", _ne(3), PROVED, ABORT, 2, _ev_eq1_4),
    CongruenceCheck("eq1.5", "KLMSY 2012", _ne(3), PROVED, ABORT, 2, _ev_eq1_5, _mod(3, 1)),
    CongruenceCheck("eq1.6", "KLMSY 2012", _ne(7), PROVED, ABORT, 2, _ev_eq1_6, _QR7),
    CongruenceCheck("eq1.8", "alternating Apery sum vs m=16", ALL, PROVED, ABORT, 2,
                    _ev_eq1_8),
    CongruenceCheck("eq1.9", "KLMSY 2012", GT3, PROVED, ABORT, 1, _ev_eq1_9),
    CongruenceCheck("su5.intro", "x mod p^2 from half-range binom^2 sums", _mod(4, 1),
                    PROVED, ABORT, 2, _ev_su5_intro),
    CongruenceCheck("jameson.ono", "Jameson-Ono observation", GT3, PROVED, ABORT, 1,
                    _ev_jameson_ono),
    CongruenceCheck("su1.1.11", "half-range harmonic sum at 64 vanishes",
                    _and(GT3, _mod(4, 3)), PROVED, ABORT, 1, _ev_su1_1_11),
    CongruenceCheck("thm1.1.i", "Pell-weighted sums, p = x^2+2y^2", _mod(8, 1),
                    PROVED, ABORT, 2, _ev_thm1_1_i),
    CongruenceCheck("thm1.1.ii", "Pell-weighted sums, p = x^2+2y^2", _mod(8, 3),
                    PROVED, ABORT, 2, _ev_thm1_1_ii),
    CongruenceCheck("thm1.2.i", "three-indicator weighted sum, p = x^2+3y^2", _mod(12, 1),
                    PROVED, ABORT, 2, _ev_thm1_2_i),
    CongruenceCheck("thm1.2.ii.a", "cubic-character weighted sum, p = x^2+3y^2", _mod(12, 7),
                    PROVED, ABORT, 2, _ev_thm1_2_ii_a),
    CongruenceCheck("thm1.2.ii.b2", "y mod p^2, squared-binomial reading", _mod(12, 7),
                    PROVED, ABORT, 2, _ev_thm1_2_ii_b2),
    CongruenceCheck("thm1.2.ii.b3", "y mod p^2, cubed-binomial reading", _mod(12, 7),
                    CONJECTURAL, COUNTEREXAMPLE_MODE, 2, _ev_thm1_2_ii_b3),
    CongruenceCheck("thm1.3.i", "v_k(1,16)-weighted sum, p = x^2+7y^2", _and(_mod(4, 1), _QR7),
                    PROVED, ABORT, 2, _ev_thm1_3_i),
    CongruenceCheck("thm1.3.ii", "u_k(1,16)-weighted sums, p = x^2+7y^2",
                    _and(_mod(4, 3), _QR7), PROVED, ABORT, 2, _ev_thm1_3_ii),
    CongruenceCheck("thm1.4.i", "v_k(4,1)-weighted sums at 64^k, p = x^2+3y^2", _mod(12, 1),
                    PROVED, ABORT, 2, _ev_thm1_4_i),
    CongruenceCheck("thm1.4.ii", "u_k(4,1)-weighted sums at 64^k, p = x^2+3y^2", _mod(12, 7),
                    PROVED, ABORT, 2, _ev_thm1_4_ii),
    CongruenceCheck("thm1.5", "dual-m reflection with harmonic correction", GT3,
                    PROVED, ABORT, 2, _ev_thm1_5),
    CongruenceCheck("cor1.1", "symmetric m vs 4096/m relation", GT3, PROVED, ABORT, 2,
                    _ev_cor1_1),
    CongruenceCheck("vhm.4k1", "van Hamme-Mortenson 4k+1 at -64", GT3, PROVED, ABORT, 3,
                    _ev_vhm_4k1),
    CongruenceCheck("gz.3k1.16", "Guo-Zeng 3k+1 at 16", GT3, PROVED, ABORT, 2, _ev_gz_3k1_16),
    CongruenceCheck("gz.3k1.m8", "Guo-Zeng 3k+1 at -8", GT3, PROVED, ABORT, 3, _ev_gz_3k1_m8),
    CongruenceCheck("su2.21k8", "21k+8 supercongruence", GT3, PROVED, ABORT, 3, _ev_su2_21k8),
    CongruenceCheck("long.6k1.256", "Long 2011, 6k+1 at 256", GT3, PROVED, ABORT, 4,
                    _ev_long_6k1_256),
    CongruenceCheck("lemma2.2", "Legendre polynomial vs binom^2 sum", ALL, PROVED, ABORT, 2,
                    _ev_lemma2_2),
    CongruenceCheck("lemma2.3", "conjugate factor closed forms",
                    Hypothesis("(-d/p) = 1 for some d in {1,2,3,7}",
                               lambda p: any(legendre_symbol(-d, p) == 1 for d in (1, 2, 3, 7))),
                    PROVED, ABORT, 2, _ev_lemma2_3),
    CongruenceCheck("lemma2.4.d2", "Coster-van Hamme, corrected: P_n(sqrt 2)", _mod(8, 1, 3),
                    PROVED, ABORT, 2, _ev_lemma2_4_d2),
    CongruenceCheck("lemma2.4.d3", "Coster-van Hamme, corrected: P_n(sqrt -3), P_n(sqrt3/2)",
                    _mod(3, 1), PROVED, ABORT, 2, _ev_lemma2_4_d3),
    CongruenceCheck("lemma2.4.d7", "Coster-van Hamme, corrected: P_n(3 sqrt -7), P_n(3 sqrt7/8)",
                    _NEG7_QR, PROVED, ABORT, 2, _ev_lemma2_4_d7),
    CongruenceCheck("lemma4.1", "binom(2n-k,k) reflection identity", ALL, PROVED, ABORT, 2,
                    _ev_lemma4_1),
    CongruenceCheck("thm4.1", "half-range reflection transform", ALL, PROVED, ABORT, 2,
                    _ev_thm4_1),
    CongruenceCheck("cor4.1", "harmonic moment at -64", GT3, PROVED, ABORT, 1, _ev_cor4_1),
    CongruenceCheck("cor4.1.b", "harmonic moment at 64", _mod(4, 1), PROVED, ABORT, 1,
                    _ev_cor4_1_b),
    CongruenceCheck("cor4.2", "harmonic moments at 16 and 256", GT3, PROVED, ABORT, 1,
                    _ev_cor4_2),
    CongruenceCheck("cor4.3", "42k+5 biconditional", _and(GT3, _ne(7)),
                    PROVED, COUNTEREXAMPLE_MODE, 2, _ev_cor4_3),
    CongruenceCheck("cor4.4", "6k+1 at -512 biconditional", GT3,
                    PROVED, COUNTEREXAMPLE_MODE, 2, _ev_cor4_4),
    CongruenceCheck("conj4.1.i", "half-range harmonic-gap relations at -8, 64, -512", GT3,
                    CONJECTURAL, COUNTEREXAMPLE_MODE, 2, _ev_conj4_1_i),
    CongruenceCheck("conj4.1.ii", "half-range harmonic-gap relation at 16 vs 256", _ne(3),
                    CONJECTURAL, COUNTEREXAMPLE_MODE, 2, _ev_conj4_1_ii),
    CongruenceCheck("conj4.1.iii", "half-range harmonic-gap relation at 1 vs 4096",
                    _and(GT3, _mod(7, 3, 5, 6)), CONJECTURAL, COUNTEREXAMPLE_MODE, 2,
                    _ev_conj4_1_iii),
)}


def checks() -> tuple:
    return tuple(_CHECKS.values())


def check_ids() -> tuple:
    return tuple(_CHECKS)


def get_check(check_id: str) -> CongruenceCheck:
    try:
        return _CHECKS[check_id]
    except KeyError:
        raise UnknownCheckId(f"no check named {check_id!r}") from None


# ------------------------------------------------------------------- running


def run_check(check_id: str, p: int, e_override: "int | None" = None,
              workspace: "Workspace | None" = None) -> CheckReport:
    """One check at one prime, on workspace when given (else a fresh one).

    A prime above ENGINE_PRIME_BOUND raises PrimeTooLarge before anything
    else reads it.  A workspace for another prime or for a power below the
    check's raises ValueError; a refused override raises OverrideRefused.
    """
    check = get_check(check_id)
    if e_override is not None:
        check_overrides({check_id: e_override})
    p = engine_prime(p)
    q = int(p)  # a report holds a plain int, which unpickles without a primality test
    try:
        if not check.hypothesis(p):
            return CheckReport(check_id, q, SKIP, None, None, None,
                               f"hypothesis: {check.hypothesis.text}")
        e = e_override if e_override is not None else check.modulus_power(p)
        ws = workspace or Workspace(p, e)
        fits = ws.q == p and ws.power >= e
        if fits:
            modulus = p**e
            outcome = check.evaluate(ws, e) if check.reads_power else check.evaluate(ws)
            witnesses = [outcome.witness] if isinstance(outcome, Equivalence) else outcome
            # each pair is reduced as it is read; only the first, the first that
            # differs and the count are kept, so an evaluator may yield its pairs
            first = bad = None
            count = 0
            for lhs, rhs in witnesses:
                pair = _res(lhs, modulus), _res(rhs, modulus)
                first = first or pair
                if bad is None and pair[0] != pair[1]:
                    bad = count, pair
                count += 1
            if first is None:
                raise ValueError("the evaluator gave no congruence")
    except SuperconError as exc:
        return CheckReport(check_id, q, ERROR, None, None, None, f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a catalogue defect: an ERROR report, not a traceback
        import traceback

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        return CheckReport(check_id, q, ERROR, None, None, None,
                           f"{type(exc).__name__} in {check_id} at p={q}: {exc} ({where})")
    if not fits:
        raise ValueError(f"a workspace for p = {ws.q} at power {ws.power} "
                         f"({ws._ctx.digits} digits) cannot run {check_id} mod {q}^{e}")
    lhs, rhs = first
    detail = ""
    if isinstance(outcome, Equivalence):
        ok = len(set(outcome.truths)) == 1
        detail = " ".join(f"T{i + 1}={'T' if t else 'F'}" for i, t in enumerate(outcome.truths))
    else:
        ok = bad is None
        if not ok:
            i, (lhs, rhs) = bad
            detail = f"congruence {i + 1} of {count}"
    if ok:
        verdict = PASS
    elif check.failure_mode == ABORT:
        verdict = FAIL
    else:
        verdict = COUNTEREXAMPLE
    return CheckReport(check_id, q, verdict, lhs, rhs, modulus, detail)


def check_overrides(overrides: dict) -> None:
    """UnknownCheckId or OverrideRefused unless each evaluator reads its power, in 1..MAX_POWER."""
    for cid, e in overrides.items():
        if not get_check(cid).reads_power:
            raise OverrideRefused(f"{cid} is evaluated at a fixed power; it takes no override")
        require_int(f"override power for {cid}", e)
        if e not in range(1, MAX_POWER + 1):
            raise OverrideRefused(f"override power {e} for {cid} outside 1..{MAX_POWER}")


def _evaluate_prime(args) -> list:
    ids, p, overrides = args
    p = engine_prime(p)
    live = []
    for cid in ids:
        check = get_check(cid)
        try:
            if check.hypothesis(p):
                live.append(overrides.get(cid) or check.modulus_power(p))
        except Exception:  # run_check below reports it as an ERROR
            pass
    ws = Workspace(p, max(live)) if live else None
    return [run_check(cid, p, overrides.get(cid), ws) for cid in ids]


class SuiteResult(NamedTuple):
    reports: tuple
    summary: dict
    aborted: "CheckReport | None" = None


def _summarize(reports) -> dict:
    summary: dict = {}
    for rep in reports:
        summary.setdefault(rep.check, {})
        summary[rep.check][rep.verdict] = summary[rep.check].get(rep.verdict, 0) + 1
    return summary


def _first_abort(batch) -> "CheckReport | None":
    return next((r for r in batch if r.verdict in (FAIL, ERROR)
                 and get_check(r.check).failure_mode == ABORT), None)


def run_suite(ids, primes, workers: int = 1, overrides: "dict | None" = None) -> SuiteResult:
    """Run the named checks over the given primes.

    Each prime's batch of reports is read in prime order, serially or from
    a pool of at most min(workers, len(primes)) processes, so the reports
    come sorted by (p, check id), one per distinct id and prime, whatever
    the worker count.  A FAIL or ERROR on an abort-mode check stops the run
    at the first prime P where one occurs: the reports end with P's batch,
    `aborted` is the first such report at P, and the jobs not yet read are
    cancelled.  A prime that is not an integer (a float or a str) raises
    TypeError, and one above ENGINE_PRIME_BOUND raises PrimeTooLarge before
    any prime runs; other ints that are not odd primes are dropped.  A
    worker count below 1 raises ValueError.  An override for a check that
    is not in ids, or whose evaluator does not read its power, raises
    OverrideRefused.
    """
    if workers < 1:
        raise ValueError(f"workers = {workers}, must be at least 1")
    ids = sorted(set(ids))
    for cid in ids:
        get_check(cid)
    # accept any integer iterable (e.g. range(5, 101)) and keep the odd primes
    primes = sorted({q for q in map(index, primes) if q % 2 and is_prime(q)})
    overrides = dict(overrides or {})
    check_overrides(overrides)
    stray = sorted(set(overrides) - set(ids))
    if stray:
        raise OverrideRefused(f"override for {', '.join(stray)}, which this run does not include")
    if not ids or not primes:
        return SuiteResult((), {})
    engine_prime(primes[-1])
    jobs = [(tuple(ids), q, overrides) for q in primes]
    # a forked pool starts all its workers at once, so it gets no more than the jobs
    workers = min(workers, len(jobs))
    pool = None
    if workers > 1:  # a serial run never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    reports: list = []
    aborted = None
    try:
        for batch in (pool.map if pool else map)(_evaluate_prime, jobs):
            reports.extend(batch)
            aborted = _first_abort(batch)
            if aborted:
                break
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return SuiteResult(tuple(reports), _summarize(reports), aborted)
