"""Summation engine for central binomial congruence sums.

The generic object is sum_k P(k) * binomial(2k,k)^h * w_k / m^k over the
half range k <= (p-1)/2 or the full range k <= p-1, evaluated modulo a
power of p.  All per-prime state (the inverse table below p, binomial
powers, harmonic tables, Legendre coefficients, memoized moment sums) lives
in a PrimeContext so that the many checks sharing a prime pay for each table
once.  It keeps only tables a later request reads, about 5.5 p entries after
every check at one prime; the Apery numbers, read once, and the kernel's
terms binom^h w_k are streams.  Every function here works on the context it
is given, at that context's digits; a sweep gives each prime one context,
owned by the registry's Workspace.  binomial_sum alone may be called without
one, and then builds a fresh context for that call.  The engine states no
congruence; the catalogue's evaluators reach it only through the Workspace.

Tables grow on demand to the prefix a request needs: a half-range sum
builds entries k <= n = (p-1)/2 only (inverses to 2n for the harmonic gap),
and a later full-range sum appends the tail (the harmonic gap's tail reads
inverses up to 2p - 2 and drops those above p once built).  binomial_sum
skips the tail of a FULL sum when it vanishes at the requested precision: p
divides binomial(2k,k) once for n < k < p, so the tail has valuation at least
h + v(w) + (n+1) v(m^{-1}), and when that is at least e the half sum is
already the answer mod p^e.

Every sum is one walk of a single kernel, _walk, over c_k = binom^h w_k
(times P(k) above degree 1) at a point z of Z[w]/(w^2 - disc): z = m^{-1}
for a scalar sum.  A Lucas-family weight (seq.LUCAS_FAMILY) has no table:
with alpha = (a + w)/2 and disc = a^2 - 4b, alpha^k = (v_k + u_k w)/2, so
one walk of binom^h at z = alpha m^{-1} gives its v and its u sum at once.
The walk is blocked (baby steps, giant steps) and packs each baby step's
fields into one int, so a block costs one dot product in C.  A Legendre
polynomial, over Z_p or over Z[w], is one walk of coefficients
C(n,k) C(n+k,k) built once per n.  Degree <= 1 sums are memoized as a half
segment k <= n and a full value; a full request after a half one walks
only the tail n < k < p.

Residue bookkeeping: tables store true residues mod p^digits, including
the p-divisibility of binomial(2k,k) for k > (p-1)/2.  The one negative
valuation in the system, H_{2k} - H_k for k in the upper half, is handled
by storing p*(H_{2k}-H_k), which is p-integral; sums over that table are
p times the true value and binomial_sum divides the scaling out of the
residue it returns.  Apart from that scaling no step divides by p, so a
sum mod p^e needs e - v(w) digits (sum_digits): e + 1 for the harmonic
gap, else e.  The inverse table, which the others are built from, costs one
reduction per entry, inv[j] = -(M // j) inv[M mod j] with M = p^digits.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import isqrt
from operator import index, mul

from .arith import OddPrime, Record, ResidueMod, require_int
from .errors import (
    DenominatorDivisible,
    IndexOutOfRange,
    PrimeTooLarge,
)
from .seq import CONST1, HARMONIC, HARMONIC_GAP, LUCAS_FAMILY, LUCAS_U, LUCAS_V, WEIGHT_KINDS

HALF = "half"
FULL = "full"

MAX_POWER = 4  # every congruence is taken mod p^e, 1 <= e <= MAX_POWER
# After every check at one prime a context holds about 5.5 p residues mod p^5
# (MAX_DIGITS): `verify --checks all` at p = 999983 peaks at about 343 MB.
ENGINE_PRIME_BOUND = 10**6


def engine_prime(p: int) -> OddPrime:
    """OddPrime(p), after PrimeTooLarge when p is above ENGINE_PRIME_BOUND.

    The bound is read first, so a prime the engine cannot hold is refused as
    too large even where OddPrime would refuse it, at 2^63 and above.
    """
    q = index(p)
    if q > ENGINE_PRIME_BOUND:
        raise PrimeTooLarge(f"p = {q} is above the engine bound {ENGINE_PRIME_BOUND}")
    return OddPrime(p)


class WeightSpec(Record, namedtuple("WeightSpec", "kind a b")):
    """Selector for the weight sequence w_k; a, b are Lucas parameters.

    Only the Lucas kinds read (a, b), and they need a nonzero pair; every
    other kind refuses a nonzero pair rather than ignore it.
    """

    __slots__ = ()

    def __new__(cls, kind: str = CONST1, a: int = 0, b: int = 0):
        require_int("a", a)
        require_int("b", b)
        if kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {kind!r}")
        lucas = kind in (LUCAS_U, LUCAS_V)
        if lucas and (a, b) == (0, 0):
            raise ValueError(f"{kind} weight needs nonzero Lucas parameters")
        if not lucas and (a, b) != (0, 0):
            raise ValueError(f"{kind} weight takes no Lucas parameters, "
                             f"got (a, b) = ({a}, {b})")
        return super().__new__(cls, kind, a, b)

    @property
    def valuation(self) -> int:
        """Lower bound on v_p(w_k) over k < p: -1 for the harmonic gap, else 0."""
        return -1 if self.kind == HARMONIC_GAP else 0


CONST_WEIGHT = WeightSpec(CONST1)


def sum_digits(e: int, weight: WeightSpec) -> int:
    """The digits a context needs for a sum mod p^e of this weight: e - v(w), at least 2."""
    return max(2, e - weight.valuation)


# the deepest context a sum needs: the harmonic gap at MAX_POWER
MAX_DIGITS = sum_digits(MAX_POWER, WeightSpec(HARMONIC_GAP))


class SumSpec(Record, namedtuple("SumSpec", "h m poly weight range e")):
    """One binomial sum: h, denominator base m, P(k) coeffs, weight, range, e.

    poly holds integer coefficients, highest degree first; m is an int or a
    Fraction, and h and e are ints, else TypeError; range is HALF or FULL; the
    result is wanted mod p^e.
    """

    __slots__ = ()

    def __new__(cls, h: int, m, poly: tuple = (1,), weight: WeightSpec = CONST_WEIGHT,
                range: str = FULL, e: int = 2):
        if isinstance(m, bool) or not isinstance(m, (int, Fraction)):
            raise TypeError(f"m must be an int or a Fraction, got {type(m).__name__}")
        require_int("h", h)
        require_int("e", e)
        if h not in (1, 2, 3):
            raise ValueError(f"h = {h} outside 1..3")
        if range not in (HALF, FULL):
            raise ValueError(f"range must be {HALF!r} or {FULL!r}")
        if not 1 <= e <= MAX_POWER:
            raise ValueError(f"e = {e} outside 1..{MAX_POWER}")
        poly = tuple(poly)  # before the check reads it: an iterator is read once
        if not poly or not all(isinstance(c, int) for c in poly):
            raise ValueError("poly must be a nonempty tuple of ints")
        return super().__new__(cls, h, m, poly, weight, range, e)


class PrimeContext:
    """Per-prime tables mod p^digits shared by every sum at that prime.

    Construction allocates nothing.  Every table is a prefix k < hi that a
    request grows on demand: a half-range walk builds k <= n, and a later
    full walk appends only the tail.  Only tables a later request reads
    again are kept: the Apery numbers and the kernel's terms are streams, and
    no inverse above p stays once the harmonic gap's tail is built.
    """

    __slots__ = ("p", "digits", "mod", "n", "_inv", "_bh", "_weights", "_moments", "_legendre")

    def __init__(self, p: int, digits: int):
        p = engine_prime(p)
        require_int("digits", digits)
        if not 2 <= digits <= MAX_DIGITS:
            raise ValueError(f"digits {digits} outside 2..{MAX_DIGITS}")
        self.p = p
        self.digits = digits
        self.mod = p**digits
        self.n = (p - 1) // 2
        self._inv = [0, 1]  # inv[1] seeds the recurrence in inverses (M mod 1 = 0)
        self._bh: dict = {}
        self._weights: dict = {}
        self._moments: dict = {}
        self._legendre: dict = {}

    def inverses(self, hi: int) -> list:
        """inv[j] = j^{-1} mod p^digits for 0 < j < hi, j != p (inv[p] = 0); hi <= 2p.

        New entries cost one reduction each: inv[j] = -(M // j) inv[M mod j] mod
        M = p^digits reads a unit already in the table, and gives inv[p] = 0;
        only p < j < 2p with M mod j = p falls back to pow(j, -1, M).  Entries
        above p serve only the harmonic gap's tail, which drops them once built.
        """
        inv = self._inv
        if hi > len(inv):
            q, mod = self.p, self.mod
            app = inv.append
            for j in range(len(inv), hi):
                r = mod % j
                app(-(mod // j) * inv[r] % mod if r != q else pow(j, -1, mod))
        return inv

    def bh(self, h: int, hi: "int | None" = None) -> list:
        """True residues of binomial(2k,k)^h mod p^digits for k < hi (default p).

        h = 1 steps binomial(2k,k) = binomial(2k-2,k-1) (4k-2) / k, so the one p
        of binomial(2k,k), k > n, enters as the factor 4k - 2 = 2p at k = n + 1
        and is carried by the residue; h = 2 and h = 3 are powers of that table.
        """
        hi = self.p if hi is None else hi
        table = self._bh.setdefault(h, [])
        lo = len(table)
        if hi > lo:
            mod = self.mod
            if h == 1:
                if not table:
                    table.append(1)  # binomial(0, 0)
                inv, cur = self.inverses(hi), table[-1]
                for k in range(len(table), hi):
                    cur = cur * ((4 * k - 2) * inv[k]) % mod
                    table.append(cur)
            else:
                seg = islice(self.bh(1, hi), lo, hi)
                table += ([x * x % mod for x in seg] if h == 2
                          else [x * x % mod * x % mod for x in seg])
        return table

    def weight_table(self, ws: WeightSpec, hi: "int | None" = None):
        """Harmonic residues w_k, k < hi (default p), p*w_k where ws.valuation is -1; else None."""
        if ws.kind not in (HARMONIC, HARMONIC_GAP):
            return None
        hi = self.p if hi is None else hi
        table = self._weights.setdefault(ws, [])
        lo = len(table)
        if hi <= lo:
            return table
        q, mod = self.p, self.mod
        if ws.kind == HARMONIC:
            inv = self.inverses(hi)
            acc = table[-1] if table else 0
            for k in range(lo, hi):
                acc = (acc + inv[k]) % mod
                table.append(acc)
        else:
            # p*(H_{2k} - H_k); the j = p term contributes exactly 1
            inv = self.inverses(2 * hi - 1)
            if not table:
                table.append(0)
            acc = table[-1]
            for k in range(len(table), hi):
                j = 2 * k - 1
                acc += 1 if j == q else q * inv[j] % mod
                acc = (acc + q * inv[2 * k] - q * inv[k]) % mod
                table.append(acc)
            del inv[q + 1:]  # no other table reads an inverse above p
        return table

    def apery(self):
        """Yield the Apery numbers A_k mod p^digits, k = 0..p-1, by their recurrence.

        (m+1)^3 A_{m+1} = (2m+1)(17m^2+17m+5) A_m - m^3 A_{m-1}; m+1 < p keeps
        the cube invertible.  Nothing is stored: the one reader takes one pass.
        """
        mod, inv = self.mod, self.inverses(self.p)
        prev, cur = 1, 5
        yield prev
        yield cur
        for m in range(1, self.p - 1):
            i = inv[m + 1]
            step = (2 * m + 1) * (17 * m * m + 17 * m + 5) * cur - m * m * m * prev
            prev, cur = cur, step * (i * i * i % mod) % mod
            yield cur

    def legendre_coeffs(self, n: int) -> list:
        """C(n,k) C(n+k,k) mod p^digits for k = 0..n, built once per n; 0 <= n < p.

        Each coefficient is the last times (n-k)(n+k+1)/(k+1)^2.  Only
        (k+1)^2 needs inverting, so any p-divisibility in C(n+k,k) is
        carried by the residue itself.
        """
        coeff = self._legendre.get(n)
        if coeff is None:
            if not 0 <= n < self.p:
                raise IndexOutOfRange(f"n = {n} outside 0..{self.p - 1}")
            mod, inv = self.mod, self.inverses(n + 1)
            coeff = [1] * (n + 1)
            for k in range(n):
                ik = inv[k + 1]
                coeff[k + 1] = coeff[k] * ((n - k) * (n + k + 1)) * ik % mod * ik % mod
            self._legendre[n] = coeff
        return coeff

    def _terms(self, h: int, ws: WeightSpec, lo: int, hi: int):
        """c_k = binom^h w_k, lo <= k < hi, each below mod^2, streamed from the tables
        (grown to hi first) without a term list; w_k = 1 without a weight table."""
        B = islice(self.bh(h, hi), lo, hi)
        wt = self.weight_table(ws, hi)
        return B if wt is None else map(mul, B, islice(wt, lo, hi))

    def moments(self, h: int, minv: int, ws: WeightSpec, rng: str):
        """(S0, S1) with Sj = sum k^j binom^h w_k m^{-k} mod p^digits.

        For the harmonic gap both are p times the true sums (see weight_table).
        Memoized per (h, minv, ws), a Lucas u and v weight at one point sharing
        an entry, as [half, full]: each request walks only the segments not yet
        walked, the half k <= n and the tail n < k < p.
        """
        mod = self.mod
        point, side = _point(ws, minv, mod)
        memo = self._moments.setdefault((h, point) + ((ws,) if side is None else ()), [None, None])
        slot = 0 if rng == HALF else 1
        if memo[slot] is None:
            n1 = self.n + 1
            if memo[0] is None:
                memo[0] = _walk(self._terms(h, ws, 0, n1), n1, *point, mod, True)
            if slot:
                tail = _walk(self._terms(h, ws, n1, self.p), self.p - n1, *point, mod, True, n1)
                memo[1] = tuple((x + y) % mod for x, y in zip(memo[0], tail))
        a0, a1, m0, m1 = memo[slot]
        return (a0, m0) if side is None else (2 * (a0, a1)[side] % mod, 2 * (m0, m1)[side] % mod)

    def poly_weighted_sum(self, h: int, minv: int, ws: WeightSpec, rng: str, poly: tuple):
        """sum P(k) binom^h w_k m^{-k} mod p^digits for any degree, one walk, no memo."""
        hi, mod = self.p if rng == FULL else self.n + 1, self.mod
        terms = list(self._terms(h, ws, 0, hi))  # scaled in place by P(k)
        for k in range(hi):
            c = 0
            for ci in poly:
                c = c * k + ci
            terms[k] *= c % mod
        point, side = _point(ws, minv, mod)
        a = _walk(terms, hi, *point, mod, False)
        return a[0] if side is None else 2 * a[side] % mod


def ext_pow(x: tuple, k: int, disc: int, mod: int) -> tuple:
    """x^k in Z[w]/(w^2 - disc) mod mod for k >= 0, by squaring; x = (x0, x1) is x0 + x1 w."""
    (y0, y1), (x0, x1) = (1, 0), x
    while k:
        if k & 1:
            y0, y1 = (y0 * x0 + disc * y1 * x1) % mod, (y0 * x1 + y1 * x0) % mod
        x0, x1 = (x0 * x0 + disc * x1 * x1) % mod, 2 * x0 * x1 % mod
        k >>= 1
    return y0, y1


def _point(ws: WeightSpec, minv: int, mod: int) -> tuple:
    """((z0, z1, disc), side): ws walks at m^{-1} and its sum is A (side None), or
    at alpha m^{-1} for the Lucas family, its v sum 2A (side 0) and its u sum 2B (1)."""
    if ws.kind not in LUCAS_FAMILY:
        return (minv, 0, 0), None
    side, ab = LUCAS_FAMILY[ws.kind]
    a, b = ab or (ws.a, ws.b)
    half = minv * ((mod + 1) // 2) % mod
    return (a * half % mod, half, (a * a - 4 * b) % mod), int(side == "u")


def _walk(c, size: int, z0: int, z1: int, disc: int, mod: int, moments: bool,
          k0: int = 0) -> tuple:
    """(A, B, A1, B1): sum_k c_k z^k = A + B w, sum_k k c_k z^k = A1 + B1 w (0 without moments).

    The one summation kernel, over the size terms c_k0 .. c_(k0+size-1) of the
    iterable c, each read once, so c may be a stream.  It sums in
    Z[w]/(w^2 - disc) mod mod at z = z0 + z1 w, 0 <= z0, z1 < mod; z1 = 0 is a
    scalar sum.  It builds the baby steps z^i = A_i + B_i w, i < b = 2 sqrt(size),
    once and packs the fields a walk reads (A_i, B_i if z1, then i A_i, i B_i if
    moments) into one int per i, W = bit_length(b^2 mod^3) + 1 bits each, which
    holds any 0 <= c_k < mod^2 (a one-field walk takes any ints).  A block is
    then one dot product in C; its fields are split off by shift and mask and
    added times z^s, which runs from z^k0 by giant steps z^b.  It never
    divides by z or w, so neither need be a unit.
    """
    b = max(min(size, isqrt(4 * size)), 1)
    pa, pb = [1] * (b + 1), [0] * (b + 1)
    if z1:
        dz1 = disc * z1 % mod
        for i in range(1, b + 1):
            x0, x1 = pa[i - 1], pb[i - 1]
            pa[i], pb[i] = (x0 * z0 + x1 * dz1) % mod, (x0 * z1 + x1 * z0) % mod
    else:
        for i in range(1, b + 1):
            pa[i] = pa[i - 1] * z0 % mod
    g0, g1 = pa.pop(), pb.pop()
    width = (b * b * mod**3).bit_length() + 1
    mask = (1 << width) - 1
    packed = [x0 | x1 << width for x0, x1 in zip(pa, pb)] if z1 else pa
    if moments:  # i (A_i | B_i << W) is i A_i | i B_i << W: no field overflows
        packed = [x | i * x << (2 * width if z1 else width) for i, x in enumerate(packed)]
    t0 = t1 = u0 = u1 = 0
    s0, s1 = ext_pow((z0, z1), k0, disc, mod)
    it = iter(c)
    if not z1:
        for s in range(k0, k0 + size, b):
            d = sum(map(mul, islice(it, b), packed))
            if moments:
                d, e = d & mask, d >> width
                u0 += s0 * (e + s * d)
            t0 += s0 * d
            s0 = s0 * g0 % mod
        return t0 % mod, 0, u0 % mod, 0
    for s in range(k0, k0 + size, b):
        d = sum(map(mul, islice(it, b), packed))
        d0, d1 = d & mask, d >> width & mask
        t0 += s0 * d0 + disc * s1 * d1
        t1 += s0 * d1 + s1 * d0
        if moments:
            e0, e1 = (d >> 2 * width & mask) + s * d0, (d >> 3 * width) + s * d1
            u0 += s0 * e0 + disc * s1 * e1
            u1 += s0 * e1 + s1 * e0
        s0, s1 = (s0 * g0 + disc * s1 * g1) % mod, (s0 * g1 + s1 * g0) % mod
    return t0 % mod, t1 % mod, u0 % mod, u1 % mod


def m_inverse_residue(ctx: PrimeContext, m) -> int:
    """Residue of m^{-1} mod p^digits, for m an int or a Fraction.

    DenominatorDivisible when m has positive valuation (each m^{-k} term
    would have a pole); m with negative valuation is allowed, its inverse
    simply carries the p-power.
    """
    q, mod = ctx.p, ctx.mod
    frac = Fraction(m)
    if frac.numerator % q == 0:
        raise DenominatorDivisible(f"m = {m} vanishes mod {q}")
    return frac.denominator * pow(frac.numerator, -1, mod) % mod


def binomial_sum(spec: SumSpec, p: int, ctx: "PrimeContext | None" = None) -> ResidueMod:
    """The sum described by spec, mod p^spec.e, at the prime p read by engine_prime.

    Works at the digits of ctx, which must be a context for p with at least
    sum_digits(spec.e, spec.weight) digits, else ValueError; without ctx it
    builds a fresh context at exactly that many.

    For n < k < p, p divides binomial(2k,k) exactly once, so the tail of a
    FULL sum has valuation at least h + v(w) + (n+1) v(m^{-1}), with v(w)
    from WeightSpec.valuation.  When spec.e is within that bound only the
    half range is walked.
    """
    p = engine_prime(p)
    digits = sum_digits(spec.e, spec.weight)
    if ctx is None:
        ctx = PrimeContext(p, digits)
    elif ctx.p != p or ctx.digits < digits:
        raise ValueError(f"a context for p = {ctx.p} at {ctx.digits} digits cannot "
                         f"evaluate mod {p}^{spec.e}, which needs {digits} digits")
    minv = m_inverse_residue(ctx, spec.m)
    # a lower bound on the valuation of the tail n < k < p
    bound = spec.h + spec.weight.valuation + (ctx.n + 1) * _valuation(minv, ctx.p, ctx.digits)
    rng = HALF if spec.e <= bound else spec.range
    if len(spec.poly) <= 2:
        s0, s1 = ctx.moments(spec.h, minv, spec.weight, rng)
        c1, c0 = (0,) * (2 - len(spec.poly)) + spec.poly
        raw = (c0 * s0 + c1 * s1) % ctx.mod
    else:
        raw = ctx.poly_weighted_sum(spec.h, minv, spec.weight, rng, spec.poly)
    if spec.weight.valuation:
        # The harmonic gap's raw residue is p times a p-integral sum, and p divides
        # it: for k <= n, p (H_2k - H_k) is a multiple of p, and for k > n
        # binom(2k,k)^h carries p^h.  The quotient is known to digits - 1 >= e.
        raw //= ctx.p
    return ResidueMod(p, spec.e, raw)


def _valuation(x: int, q: int, cap: int) -> int:
    """v_q(x), or cap when q^cap divides x."""
    v = 0
    while v < cap and x % q == 0:
        x //= q
        v += 1
    return v


def legendre_poly_eval(ctx: PrimeContext, n: int, x0: int, x1: int = 0, disc: int = 0):
    """P_n(x0 + x1*w) in Z[w]/(w^2 - disc) mod p^digits, as a pair, by one walk at (x-1)/2.

    P_n(x) = sum_k C(n,k) C(n+k,k) ((x-1)/2)^k with the coefficients from ctx;
    x1 = 0 is a value in Z_p, the first entry of the pair.
    """
    mod, inv2 = ctx.mod, (ctx.mod + 1) // 2
    z0, z1 = (x0 - 1) * inv2 % mod, x1 * inv2 % mod
    return _walk(ctx.legendre_coeffs(n), n + 1, z0, z1, disc, mod, False)[:2]
