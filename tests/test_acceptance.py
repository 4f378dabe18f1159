"""End-to-end acceptance gates.

One test per gate, so a verbose pytest run prints exactly one pass/fail
line per criterion.  Each gate also prints a summary line (visible with
-s, or in the failure report when a gate trips).  Runtime bounds are
asserted only where a gate states one, and time only the swept region
the bound refers to.
"""

import functools
import random
import sys
import time
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from supercon import engine, registry
from supercon.arith import (
    OddPrime,
    ResidueMod,
    is_prime,
    legendre_symbol,
    reduce,
    sqrt_mod,
)
from supercon.engine import (
    CONST_WEIGHT,
    FULL,
    HALF,
    MAX_POWER,
    PrimeContext,
    SumSpec,
    binomial_sum,
    legendre_poly_eval,
)
from supercon.errors import DenominatorDivisible, NonResidue, ZeroInput
from supercon.oracle import (
    brute_sqrt,
    clausen_square_check,
    exact_apery,
    exact_harmonic_gap,
    exact_legendre_poly,
    exact_sum,
    exhaustive_represent,
    reduce_fraction,
)
from supercon.quadform import represent
from supercon.registry import (
    ABORT,
    COUNTEREXAMPLE,
    ERROR,
    FAIL,
    PASS,
    PROVED,
    Workspace,
    check_ids,
    checks,
    lemma_2_2_arguments,
    run_check,
    run_suite,
)
from supercon.seq import HARMONIC_GAP


def _primes(lo, hi):
    return [q for q in range(lo, hi) if q % 2 and is_prime(q)]


# Every hypothesis in the catalogue holds at one of these primes.
RECORDING_PRIMES = (11, 19, 193)


@functools.cache
def _recorded_calls() -> tuple:
    """(sums, legendre) at RECORDING_PRIMES, each a dict check id -> set.

    sums holds the SumSpecs a check's evaluator hands to binomial_sum, and
    legendre the (p, n, x0, x1, disc, value) of its legendre_poly_eval calls.
    Recorded by wrapping both where the registry and the engine look them
    up, so the oracle gates cover exactly what the catalogue evaluates.
    """
    real_sum, real_legendre = engine.binomial_sum, engine.legendre_poly_eval
    sums = {cid: set() for cid in check_ids()}
    legendre = {cid: set() for cid in check_ids()}
    running = None

    def recording_sum(spec, p, ctx=None):
        sums[running].add(spec)
        return real_sum(spec, p, ctx)

    def recording_legendre(ctx, n, x0, x1=0, disc=0):
        value = real_legendre(ctx, n, x0, x1, disc)
        legendre[running].add((ctx.p, n, x0, x1, disc, value))
        return value

    engine.binomial_sum = registry.binomial_sum = recording_sum
    engine.legendre_poly_eval = registry.legendre_poly_eval = recording_legendre
    try:
        for running in sums:
            for q in RECORDING_PRIMES:
                run_check(running, q)
    finally:
        engine.binomial_sum = registry.binomial_sum = real_sum
        engine.legendre_poly_eval = registry.legendre_poly_eval = real_legendre
    return sums, legendre


def _recorded_specs() -> list:
    return sorted(set().union(*_recorded_calls()[0].values()), key=repr)


def _exact_legendre_pair(n: int, x0: int, x1: int, disc: int) -> tuple:
    """P_n(x0 + x1 w) over Q(w), w^2 = disc, as a (Fraction, Fraction) pair."""
    z0, z1 = Fraction(x0 - 1, 2), Fraction(x1, 2)
    a, b, t0, t1 = Fraction(0), Fraction(0), Fraction(1), Fraction(0)
    for k in range(n + 1):
        c = comb(n, k) * comb(n + k, k)
        a, b = a + c * t0, b + c * t1
        t0, t1 = t0 * z0 + disc * t1 * z1, t0 * z1 + t1 * z0
    return a, b


def _pole_at(spec, q) -> bool:
    """Whether q divides the numerator of m, so that binomial_sum must refuse the spec."""
    return Fraction(spec.m).numerator % q == 0


def test_recorder_sees_every_summing_check():
    # The checks that record no sum are those that read only tables (gauss,
    # cde, lemma4.1), lemma2.3 (pi-bar alone) and the lemma2.4 family, whose
    # Legendre values the Legendre gate records; a module that reached
    # binomial_sum under another name would show up here.
    silent = {cid for cid, specs in _recorded_calls()[0].items() if not specs}
    assert silent == {"gauss", "cde", "lemma2.3", "lemma2.4.d2", "lemma2.4.d3",
                      "lemma2.4.d7", "lemma4.1"}


def test_every_sum_and_legendre_value_goes_through_the_workspace():
    # One door: at RECORDING_PRIMES every binomial_sum and legendre_poly_eval
    # call a check makes, under the name the engine or the registry binds,
    # comes straight from Workspace.sum or Workspace.legendre_poly, and the
    # kernel walks only below one of them.  A check that reached the engine
    # another way would escape whatever the Workspace records.  Nor does any
    # code in the registry but a Workspace method read a context's attribute:
    # an evaluator that read a table there would escape the same way.
    doors = {Workspace.sum.__code__, Workspace.legendre_poly.__code__}
    methods = {f.__code__ for f in vars(Workspace).values() if hasattr(f, "__code__")}
    real_sum, real_legendre, real_walk = (
        engine.binomial_sum, engine.legendre_poly_eval, engine._walk)
    callers, strays, readers, running = set(), set(), set(), None

    def recording_caller(real):
        def call(*args):
            callers.add((running, sys._getframe(1).f_code))
            return real(*args)
        return call

    def watched_walk(*args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in doors:
            frame = frame.f_back
        if frame is None:
            strays.add(running)
        return real_walk(*args)

    def watched_getattribute(ctx, name):
        code = sys._getframe(1).f_code
        if code.co_filename == registry.__file__ and code not in methods:
            readers.add((running, code.co_name))
        return object.__getattribute__(ctx, name)

    with pytest.MonkeyPatch.context() as mp:
        for module in (engine, registry):
            mp.setattr(module, "binomial_sum", recording_caller(real_sum))
            mp.setattr(module, "legendre_poly_eval", recording_caller(real_legendre))
        mp.setattr(engine, "_walk", watched_walk)
        mp.setattr(PrimeContext, "__getattribute__", watched_getattribute)
        for running in check_ids():
            for q in RECORDING_PRIMES:
                assert run_check(running, q).verdict != ERROR, (running, q)
    assert callers and strays == set()
    assert readers == set(), sorted(readers)
    assert {code for _, code in callers} == doors, sorted(
        (cid, code.co_name) for cid, code in callers if code not in doors)


def test_legendre_evaluations_match_exact_expansion():
    # Every P_n evaluation the catalogue makes at RECORDING_PRIMES, in Z_p
    # (x1 = 0) and in Z[w] for each disc, against the exact rational sum mod p^2.
    recorded = _recorded_calls()[1]
    assert {cid for cid, calls in recorded.items() if calls} == {
        "lemma2.2", "lemma2.4.d2", "lemma2.4.d3", "lemma2.4.d7"}
    calls = set().union(*recorded.values())
    assert {disc for *_, x1, disc, _ in calls if x1} == {2, 3, 7}
    assert any(x1 == 0 for *_, x1, _, _ in calls)
    for q, n, x0, x1, disc, (l0, l1) in sorted(calls):
        mod = q * q
        if x1 == 0:
            assert (l0 % mod, l1) == (reduce_fraction(exact_legendre_poly(n, x0), q, 2), 0)
            continue
        a, b = _exact_legendre_pair(n, x0, x1, disc)
        assert (l0 % mod, l1 % mod) == (reduce_fraction(a, q, 2), reduce_fraction(b, q, 2)), (
            q, n, x0, x1, disc)
    print(f"legendre gate: PASS  {len(calls)} P_n evaluations vs exact sums")


class ExactWorkspace(Workspace):
    """A Workspace without a context: every value an evaluator reads is exact arithmetic.

    Sums come from oracle.exact_sum, P_n in Z[w] from Fractions, the binomials
    from math.comb, the Apery sum from oracle.exact_apery and the harmonic gap
    from oracle.exact_harmonic_gap; an evaluator that read the context would
    meet None and report an ERROR.
    """

    __slots__ = ()

    def __init__(self, p, power):
        super().__init__(p, power)
        self._ctx = None

    def sum(self, h, m, poly=(1,), weight=CONST_WEIGHT, rng=FULL, e=2):
        return exact_sum(SumSpec(h, m, poly, weight, rng, e), self.q).value

    def legendre_poly(self, x0, x1=0, disc=0):
        return _exact_legendre_pair(self.n, x0, x1, disc)

    def central_binomial(self, k):
        return comb(2 * k, k)

    def alternating_apery(self):
        return sum((-1) ** k * exact_apery(k) for k in range(self.q))

    def half_tables(self):
        n = self.n
        return ([comb(2 * k, k) for k in range(n + 1)],
                [self.q * exact_harmonic_gap(k) for k in range(n + 1)],
                [0] + [Fraction(1, j) for j in range(1, 2 * n + 1)])


def _exact_mismatches(primes) -> tuple:
    """(compared, mismatches) over every live report at primes, and every check that
    reads its power at each power 1..MAX_POWER, run on the engine and on an ExactWorkspace."""
    runs = [(check, None) for check in checks()] + [
        (check, e) for check in checks() if check.reads_power for e in range(1, MAX_POWER + 1)]
    compared, mismatches = 0, []
    for q in primes:
        p = OddPrime(q)
        for check, e in runs:
            if not check.hypothesis(p):
                continue
            exact = ExactWorkspace(p, e or check.modulus_power(p))
            want, got = run_check(check.id, q, e), run_check(check.id, q, e, exact)
            compared += 1
            if got != want:
                mismatches.append((want, got))
    return compared, mismatches


def test_reports_match_an_exact_arithmetic_workspace():
    # A report-level oracle: every live report at the odd primes below 60 is the
    # same whether the Workspace answers from the engine or from exact arithmetic.
    # It covers the glue the value gates above do not: the precision each sum
    # is asked at, the reduction of Fraction sides, the order of the pairs.
    # CI runs the same comparison over the odd primes 60..150.
    compared, mismatches = _exact_mismatches(_primes(3, 60))
    assert compared > 600 and not mismatches, (compared, len(mismatches), mismatches[:3])
    print(f"exact workspace gate: PASS  {compared} reports equal the engine's")


FAULT_PRIMES = tuple(_primes(5, 200))


@functools.cache
def _clean_sweep() -> dict:
    ids = tuple(check_ids())
    return {q: registry._evaluate_prime((ids, q, {})) for q in FAULT_PRIMES}


def _faulted_sweep(install, power=None) -> tuple:
    """(reached, passing, moved) over FAULT_PRIMES with install's faults in place.

    install(mp, offset) patches through the MonkeyPatch mp; offset(q) is a unit
    1 + (call count mod (q - 1)) that differs per call, so both sides of a
    congruence cannot shift alike and no reduction mod p^e removes it.
    reached holds the checks that drew an offset, passing those that PASS
    somewhere without faults, and moved those of them that FAIL or report a
    COUNTEREXAMPLE at some prime with them; for the biconditionals cor4.3 and
    cor4.4, whose truths can all flip together, a changed truth vector is
    enough.  An ERROR is not a move: a fault that raises shows nothing about
    whether the check reads the faulted value.  Each prime runs
    through _evaluate_prime, as run_suite would run it, but without its stop
    at the first FAIL.  With power(check, q) given, offset(q) is the unit times
    q^(power - 1) for the running check, and passing and moved hold
    (check, power) pairs.
    """
    ids, clean = tuple(check_ids()), _clean_sweep()
    real_run = registry.run_check
    calls, running, reached = 0, None, set()

    def offset(q):
        nonlocal calls
        calls += 1
        reached.add(running)
        unit = 1 + calls % (q - 1)
        return unit * q ** (power(running, q) - 1) if power else unit

    def tracking_run(cid, *args):
        nonlocal running
        running = cid
        return real_run(cid, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(registry, "run_check", tracking_run)
        install(mp, offset)
        faulty = {q: registry._evaluate_prime((ids, q, {})) for q in FAULT_PRIMES}
    assert reached and None not in reached

    passing, moved = set(), set()
    for q in FAULT_PRIMES:
        for before, after in zip(clean[q], faulty[q]):
            if before.verdict != PASS:
                continue
            key = (before.check, power(before.check, q)) if power else before.check
            passing.add(key)
            equivalence = before.check in ("cor4.3", "cor4.4")
            flipped = equivalence and after.verdict == PASS and after.detail != before.detail
            if after.verdict in (FAIL, COUNTEREXAMPLE) or flipped:
                moved.add(key)
    return reached, passing, moved


def test_a_pass_can_fail_when_its_sums_are_wrong():
    # Faults in the left sides: every binomial_sum, legendre_poly_eval, binomial
    # table (PrimeContext.bh) and pi_bar answer is offset.  Every check that
    # reads one and PASSes somewhere must leave PASS.  The checks that read a
    # table or pi_bar and no sum are named, so one that stops reading its
    # value fails the gate.
    real_sum, real_legendre = engine.binomial_sum, engine.legendre_poly_eval
    real_bh, real_pi_bar = PrimeContext.bh, registry.pi_bar

    def install(mp, offset):
        def faulty_sum(spec, p, ctx=None):
            value = real_sum(spec, p, ctx)
            return ResidueMod(value.p, value.e, value.value + offset(value.p))

        def faulty_legendre(ctx, n, x0, x1=0, disc=0):
            l0, l1 = real_legendre(ctx, n, x0, x1, disc)
            return (l0 + offset(ctx.p)) % ctx.mod, l1

        def faulty_bh(ctx, h, hi=None):
            shift = offset(ctx.p)
            return [(x + shift) % ctx.mod for x in real_bh(ctx, h, hi)]

        def faulty_pi_bar(aligned):
            value = real_pi_bar(aligned)
            return ResidueMod(value.p, value.e, value.value + offset(value.p))

        mp.setattr(engine, "binomial_sum", faulty_sum)
        mp.setattr(registry, "binomial_sum", faulty_sum)
        mp.setattr(registry, "legendre_poly_eval", faulty_legendre)
        mp.setattr(PrimeContext, "bh", faulty_bh)
        mp.setattr(registry, "pi_bar", faulty_pi_bar)

    reached, passing, moved = _faulted_sweep(install)
    assert reached & passing <= moved, sorted(reached & passing - moved)
    direct = {"gauss", "cde", "lemma4.1", "lemma2.3", "lemma2.4.d2", "lemma2.4.d3",
              "lemma2.4.d7"}
    assert direct <= moved, sorted(direct - moved)
    print(f"fault gate: PASS  {len(reached & passing)} checks read a faulted value "
          f"and each left PASS at one of {len(FAULT_PRIMES)} primes")


def test_a_pass_can_fail_when_its_top_digit_is_wrong():
    # A report's modulus is p^E, E the check's modulus_power, so the sums and
    # Legendre values behind it must carry E digits.  Each binomial_sum answer
    # and legendre_poly_eval value gets c p^(E-1) added, and every check that
    # draws one must leave PASS at some prime of each power E at which it
    # PASSes.  A sum asked at fewer digits drops the fault and trips the gate.
    real_sum, real_legendre = engine.binomial_sum, engine.legendre_poly_eval

    def power(cid, q):
        return registry.get_check(cid).modulus_power(OddPrime(q))

    def install(mp, offset):
        def faulty_sum(spec, p, ctx=None):
            value = real_sum(spec, p, ctx)
            return ResidueMod(value.p, value.e, value.value + offset(value.p))

        def faulty_legendre(ctx, n, x0, x1=0, disc=0):
            l0, l1 = real_legendre(ctx, n, x0, x1, disc)
            return (l0 + offset(ctx.p)) % ctx.mod, (l1 + offset(ctx.p)) % ctx.mod

        for module in (engine, registry):
            mp.setattr(module, "binomial_sum", faulty_sum)
            mp.setattr(module, "legendre_poly_eval", faulty_legendre)

    reached, passing, moved = _faulted_sweep(install, power)
    reached_passing = {key for key in passing if key[0] in reached}
    assert reached_passing <= moved, sorted(reached_passing - moved)
    print(f"top-digit gate: PASS  {len(reached_passing)} (check, E) pairs read a "
          f"faulted value and each left PASS at one of {len(FAULT_PRIMES)} primes")


def test_a_pass_can_fail_when_its_right_side_is_wrong():
    # Faults in the right sides' inputs, one kind per sweep: the Fermat
    # quotient, then the x and y of p = x^2 + d y^2 as the evaluators read
    # them.  Workspace.aligned keeps the true representation: the pi_bar
    # fault above already covers what it feeds.  Both sets are named, so a
    # check that stops reading its input fails the gate.
    real_quotient, real_rep, real_aligned = (
        registry.fermat_quotient, Workspace.rep, Workspace.aligned)

    def fault_quotient(mp, offset):
        def faulty_quotient(m, p):
            value = real_quotient(m, p)
            return ResidueMod(value.p, value.e, value.value + offset(value.p))

        mp.setattr(registry, "fermat_quotient", faulty_quotient)

    def fault_rep(mp, offset):
        aligning = False

        def faulty_rep(ws, d, convention):
            rep = real_rep(ws, d, convention)
            if aligning:
                return rep
            shift = offset(ws.q)
            return SimpleNamespace(x=rep.x + shift, y=rep.y + shift)

        def true_aligned(ws, d, convention):
            nonlocal aligning
            aligning = True
            try:
                return real_aligned(ws, d, convention)
            finally:
                aligning = False

        mp.setattr(Workspace, "rep", faulty_rep)
        mp.setattr(Workspace, "aligned", true_aligned)

    quotient_readers = {"eq1.9", "cor4.1", "cor4.1.b", "cor4.2", "cor4.3", "cor4.4"}
    rep_readers = {"gauss", "cde", "eq1.0", "eq1.1", "eq1.3", "eq1.4", "su5.intro",
                   "thm1.1.i", "thm1.1.ii", "thm1.2.i", "thm1.2.ii.a", "thm1.2.ii.b2",
                   "thm1.3.i", "thm1.3.ii", "thm1.4.i", "thm1.4.ii", "cor4.1", "cor4.1.b",
                   "cor4.2", "cor4.3", "cor4.4"}
    for install, readers in ((fault_quotient, quotient_readers), (fault_rep, rep_readers)):
        reached, passing, moved = _faulted_sweep(install)
        assert reached & passing == readers, sorted((reached & passing) ^ readers)
        assert readers <= moved, (install.__name__, sorted(readers - moved))
        print(f"{install.__name__}: PASS  {len(readers)} checks left PASS "
              f"at one of {len(FAULT_PRIMES)} primes")


def test_criterion_1_proved_suite():
    # Every abort-on-failure PROVED check over its full prime range: the
    # mod p^2 family to p <= 1000 in under a minute single-threaded, the
    # mod p^3/p^4 family to p <= 300.  Zero FAIL or ERROR verdicts, and
    # every check must actually fire (PASS somewhere), so a hypothesis
    # predicate that never matches cannot silently hollow out the sweep.
    proved = [c for c in checks() if c.status == PROVED and c.failure_mode == ABORT]
    shallow = [c.id for c in proved if not c.deeper and c.power <= 2]
    deep = [c.id for c in proved if c.deeper or c.power >= 3]
    assert len(shallow) + len(deep) == len(proved)

    start = time.perf_counter()
    res_shallow = run_suite(shallow, range(5, 1001), workers=1)
    elapsed = time.perf_counter() - start
    res_deep = run_suite(deep, range(5, 301), workers=1)

    fired = set()
    passes = 0
    for res in (res_shallow, res_deep):
        assert not res.aborted
        for r in res.reports:
            assert r.verdict not in (FAIL, ERROR), (r.check, r.p, r.detail)
            if r.verdict == PASS:
                fired.add(r.check)
                passes += 1
    assert fired == set(shallow) | set(deep)
    assert elapsed < 60.0
    print(f"criterion 1: PASS  {len(shallow)} checks to p<=1000 and "
          f"{len(deep)} deep checks to p<=300, {passes} congruences verified, "
          f"shallow sweep {elapsed:.1f}s single-threaded")


def test_criterion_2_fast_paths_match_oracles():
    # The streaming engine against the exact-rational oracle on every sum
    # the catalogue evaluates, Cornacchia against exhaustive search, and the
    # Tonelli-Shanks/Hensel roots against full root tables.  Where p divides
    # the numerator of m the engine must refuse: the oracle may still return
    # a value there, when the poles cancel.
    specs = _recorded_specs()
    primes = _primes(5, 98)
    refused = 0
    for spec in specs:
        for q in primes:
            p = OddPrime(q)
            if _pole_at(spec, q):
                with pytest.raises(DenominatorDivisible):
                    binomial_sum(spec, p)
                refused += 1
                continue
            fast = reduce(binomial_sum(spec, p), spec.e)
            slow = exact_sum(spec, p)
            assert (fast.value, fast.modulus) == (slow.value, slow.modulus), (spec, q)
    assert refused

    reps = 0
    for q in _primes(3, 500):
        for d in (1, 2, 3, 7):
            if d % q == 0:
                continue
            found = exhaustive_represent(q, d)
            if legendre_symbol(-d, q) != 1:
                assert found == []
                continue
            rep = represent(OddPrime(q), d)
            assert (rep.x, rep.y) in found
            reps += 1

    # Moduli p^e <= 10^5.  A prime above sqrt(10^5) only admits e = 1,
    # where the root pair is forced by r^2 = a over a field, so primes
    # are capped at 313 and every exponent regime under the bound runs.
    # Small moduli are checked at every unit residue; large ones at a
    # seeded sample plus one direct brute_sqrt probe.
    roots_checked = 0
    for q in _primes(3, 314):
        p = OddPrime(q)
        e = 1
        while q**e <= 100_000:
            m = q**e
            table = {}
            for z in range(m):
                table.setdefault(z * z % m, []).append(z)
            probe = next(a for a in range(1, m) if a % q and a in table)
            assert brute_sqrt(probe, q, e) == table[probe]
            try:
                sqrt_mod(q, p, e)
            except ZeroInput:
                pass
            else:
                raise AssertionError(f"sqrt_mod accepted non-unit {q} mod {m}")
            if m <= 10_000:
                residues = range(1, m)
            else:
                rng = random.Random(m)
                residues = {rng.randrange(1, m) for _ in range(64)}
                residues.add(probe)
            for a in residues:
                if a % q == 0:
                    continue
                if a in table:
                    lo, hi = sqrt_mod(a, p, e)
                    assert [lo.value, hi.value] == table[a]
                    assert lo.modulus == m
                    roots_checked += 1
                else:
                    try:
                        sqrt_mod(a, p, e)
                    except NonResidue:
                        pass
                    else:
                        raise AssertionError(f"sqrt_mod missed non-residue {a} mod {m}")
            e += 1
    print(f"criterion 2: PASS  {len(specs)} specs vs exact sums at "
          f"{len(primes)} primes ({refused} refused poles), {reps} representations, "
          f"{roots_checked} root pairs vs brute tables")


def test_criterion_3_structural_identities():
    # Binomial reflection identity at every k <= (p-1)/2, the Clausen
    # square identity in exact rational arithmetic, and the Legendre
    # polynomial congruence at 20 sampled rational arguments per prime.
    for q in _primes(3, 201):
        report = run_check("lemma4.1", q)
        assert report.verdict == PASS and report.lhs == report.rhs, q

    grid = [Fraction(v, 2) for v in range(-4, 5)]
    for n in range(11):
        for x in grid:
            assert clausen_square_check(n, x), (n, x)

    args_checked = 0
    for q in _primes(3, 51):
        p = OddPrime(q)
        n = (q - 1) // 2
        ctx = PrimeContext(p, 4)
        for x in lemma_2_2_arguments(q, 20):
            xv = x.numerator * pow(x.denominator, -1, q**4)
            lhs = legendre_poly_eval(ctx, n, xv)[0] % (q * q)
            z = (x - 1) / 2
            if z == 0:
                assert lhs == 1
                continue
            m = Fraction(-16) / z
            if m.numerator % q == 0:
                continue
            spec = SumSpec(2, m, (1,), CONST_WEIGHT, HALF, 2)
            assert lhs == reduce(binomial_sum(spec, p), 2).value, (q, x)
            args_checked += 1
    print(f"criterion 3: PASS  reflection identity to p<=200, Clausen n<=10 "
          f"on a 9-point grid, {args_checked} polynomial congruence args")


def test_criterion_4_valuation_and_range_laws():
    # ord_p binom(2k,k) is the indicator [k > (p-1)/2] below p, and the
    # full-range sum agrees with its half-range truncation mod p^2 for
    # h = 3 always and for h = 2 whenever the weights are p-integral
    # (every kind the catalogue sums except the harmonic gap).
    for q in _primes(3, 101):
        n = (q - 1) // 2
        for k in range(q):
            b = comb(2 * k, k)
            v = 0
            while b % q == 0:
                v += 1
                b //= q
            assert v == (1 if k > n else 0), (q, k)

    seen = set()
    shapes = 0
    primes = _primes(5, 201)
    refused = 0
    for spec in _recorded_specs():
        if spec.h == 2 and spec.weight.kind == HARMONIC_GAP:
            continue
        if spec.h not in (2, 3):
            continue
        shape = (spec.h, Fraction(spec.m), spec.poly, spec.weight)
        if shape in seen:
            continue
        seen.add(shape)
        full = SumSpec(spec.h, spec.m, spec.poly, spec.weight, FULL, 2)
        half = SumSpec(spec.h, spec.m, spec.poly, spec.weight, HALF, 2)
        for q in primes:
            p = OddPrime(q)
            if _pole_at(spec, q):
                for whole_or_half in (full, half):
                    with pytest.raises(DenominatorDivisible):
                        binomial_sum(whole_or_half, p)
                refused += 1
                continue
            a = reduce(binomial_sum(full, p), 2)
            b = reduce(binomial_sum(half, p), 2)
            assert (a.value, a.modulus) == (b.value, b.modulus), (spec, q)
        shapes += 1
    assert shapes >= 30 and refused
    print(f"criterion 4: PASS  valuation law to p<=100, full/half agreement "
          f"for {shapes} sum shapes at {len(primes)} primes ({refused} refused poles)")


def test_criterion_5_conjecture_harness():
    # The open congruences and the proved biconditionals sweep 5..2000
    # with four workers and must report zero counterexamples.
    ids = ["conj4.1.i", "conj4.1.ii", "conj4.1.iii", "cor4.3", "cor4.4"]
    start = time.perf_counter()
    res = run_suite(ids, range(5, 2001), workers=4)
    elapsed = time.perf_counter() - start
    assert not res.aborted
    bad = [r for r in res.reports if r.verdict in (COUNTEREXAMPLE, FAIL, ERROR)]
    assert bad == [], bad[:5]
    passes = sum(r.verdict == PASS for r in res.reports)
    fired = {r.check for r in res.reports if r.verdict == PASS}
    assert fired == set(ids)
    assert elapsed < 300.0
    print(f"criterion 5: PASS  zero counterexamples in {passes} instances "
          f"over 5..2000, {elapsed:.1f}s with 4 workers")


def test_criterion_6_exponent_resolution():
    # Two rival exponents for one congruence; exactly one may survive a
    # sweep to p <= 500, and the survivor is named in the output.
    ids = ["thm1.2.ii.b2", "thm1.2.ii.b3"]
    res = run_suite(ids, range(5, 501), workers=1)
    assert not res.aborted
    tally = {cid: {"pass": 0, "cx": 0} for cid in ids}
    for r in res.reports:
        assert r.verdict not in (FAIL, ERROR), (r.check, r.p)
        if r.verdict == PASS:
            tally[r.check]["pass"] += 1
        elif r.verdict == COUNTEREXAMPLE:
            tally[r.check]["cx"] += 1
    survivors = [cid for cid in ids if tally[cid]["pass"] and not tally[cid]["cx"]]
    assert survivors == ["thm1.2.ii.b2"], tally
    b2, b3 = tally["thm1.2.ii.b2"], tally["thm1.2.ii.b3"]
    print(f"criterion 6: PASS  surviving variant: thm1.2.ii.b2 "
          f"({b2['pass']}/{b2['pass']} applicable primes agree; "
          f"thm1.2.ii.b3 falsified at {b3['cx']} of {b3['cx'] + b3['pass']})")
