"""Check catalogue semantics and the suite runner."""

import concurrent.futures
import pickle
import time

import pytest

from supercon import engine, registry
from supercon.arith import (
    OddPrime,
    ResidueMod,
    fermat_quotient,
    is_prime,
    legendre_symbol,
    sqrt_mod,
)
from supercon.engine import PrimeContext, SumSpec, WeightSpec, binomial_sum
from supercon.errors import OverrideRefused, PrimeTooLarge, UnknownCheckId
from supercon.oracle import brute_sqrt, exact_sum, exhaustive_represent
from supercon.quadform import RAW, QuadRep, align_pi, represent
from supercon.registry import (
    ABORT,
    CONJECTURAL,
    COUNTEREXAMPLE,
    COUNTEREXAMPLE_MODE,
    ERROR,
    FAIL,
    PASS,
    PROVED,
    SKIP,
    Hypothesis,
    Workspace,
    check_ids,
    checks,
    get_check,
    run_check,
    run_suite,
)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29]


def test_catalogue_shape():
    ids = check_ids()
    assert len(ids) == len(set(ids))
    assert "eq1.0" in ids and "conj4.1.iii" in ids
    for check in checks():
        assert check.status in (PROVED, CONJECTURAL)
        assert check.failure_mode in (ABORT, COUNTEREXAMPLE_MODE)
        if check.status == PROVED:
            # biconditional corollaries are the only proved checks allowed
            # to record counterexamples (the open half may fail)
            if check.failure_mode == COUNTEREXAMPLE_MODE:
                assert check.id in ("cor4.3", "cor4.4")
        assert check.anchor and check.hypothesis.text


def test_get_check_unknown():
    with pytest.raises(UnknownCheckId):
        get_check("nosuch")


def test_run_check_examples():
    r = run_check("eq1.0", 13)
    assert r.verdict == PASS and r.lhs == r.rhs == 10 and r.modulus == 169
    r = run_check("thm1.2.i", 7)
    assert r.verdict == SKIP and "hypothesis" in r.detail
    r = run_check("gauss", 13)
    assert r.verdict == PASS and r.lhs == r.rhs == 7 and r.modulus == 13


def test_run_check_lemma_2_1_nonresidue_skips():
    # lemma2.1-style discriminant obstructions surface as SKIP via lemma2.2
    # arguments; spot-check that no ERROR leaks from a hypothesis-passing prime
    for q in SMALL_PRIMES:
        r = run_check("lemma2.2", q)
        assert r.verdict in (PASS, SKIP)


def test_hypothesis_violations_never_error():
    for check in checks():
        for q in (3, 5, 7, 11, 13):
            r = run_check(check.id, q)
            assert r.verdict in (PASS, SKIP, COUNTEREXAMPLE), (check.id, q, r)


def test_run_check_accepts_workspace_reuse():
    p = OddPrime(13)
    ws = Workspace(p, 2)
    a = run_check("eq1.0", p, workspace=ws)
    b = run_check("eq1.4", p, workspace=ws)
    assert a.verdict == PASS and b.verdict == PASS


def test_override_modulus_power():
    r = run_check("su2.21k8", 11, e_override=4)
    assert r.verdict == PASS and r.modulus == 11**4


def test_verdict_invariant_under_y_sign_choice():
    # (-1)^((y+1)/2) * y has the same value at y and -y, so the verdict
    # cannot depend on which normalized representative was produced
    for y in range(-99, 100, 2):
        f = (-1) ** (((y + 1) // 2) % 2) * y
        g = (-1) ** (((-y + 1) // 2) % 2) * -y
        assert f == g
    check = get_check("thm1.1.ii")
    for q in (3, 11, 19, 43, 59, 67, 83):
        p = OddPrime(q)
        baseline = run_check("thm1.1.ii", p)
        if baseline.verdict != PASS:
            continue
        ws = Workspace(p, 2)
        rep = ws.rep(2, RAW)
        ws._cache[("rep", 2, RAW)] = QuadRep(p, 2, rep.x, -rep.y, RAW)
        flipped = run_check("thm1.1.ii", p, workspace=ws)
        assert flipped.verdict == PASS
        assert (flipped.lhs, flipped.rhs) == (baseline.lhs, baseline.rhs)


def test_run_suite_eq10_all_pass():
    res = run_suite(["eq1.0"], range(5, 101))
    assert not res.aborted
    assert all(r.verdict == PASS for r in res.reports)
    assert res.summary["eq1.0"][PASS] == len(res.reports)


def test_run_suite_empty():
    res = run_suite([], [5, 7])
    assert res.reports == () and res.summary == {}


def test_run_suite_unknown_id():
    with pytest.raises(UnknownCheckId):
        run_suite(["eq1.0", "bogus"], [5])


def test_run_suite_deterministic_and_parallel_equivalence():
    ids = ["eq1.0", "gauss", "thm1.2.ii.b3", "lemma2.3"]
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31]

    def strip(res):
        return [
            (r.check, r.p, r.verdict, r.lhs, r.rhs, r.modulus, r.detail)
            for r in res.reports
        ]

    seq1 = run_suite(ids, primes)
    seq2 = run_suite(ids, primes)
    par = run_suite(ids, primes, workers=3)
    assert strip(seq1) == strip(seq2) == strip(par)
    order = [(r.p, r.check) for r in seq1.reports]
    assert order == sorted(order)


def test_run_suite_conjectural_failures_do_not_abort():
    res = run_suite(["thm1.2.ii.b3"], [7, 19, 31, 43])
    assert not res.aborted
    assert all(r.verdict == COUNTEREXAMPLE for r in res.reports)


def _fail_eq10_at(bad_p):
    check = get_check("eq1.0")

    def evaluate(ws):
        if ws.q == bad_p:
            return [(0, 1)]
        return check.evaluate(ws)

    return check._replace(evaluate=evaluate)


@pytest.mark.parametrize("bad_p", [1009, 1103])
def test_abort_cuts_serial_and_parallel_runs_alike(monkeypatch, bad_p):
    # workers fork after the patch, so they see the failing check too
    monkeypatch.setitem(registry._CHECKS, "eq1.0", _fail_eq10_at(bad_p))
    serial = run_suite(["eq1.0", "eq1.1"], range(1000, 1201))
    parallel = run_suite(["eq1.0", "eq1.1"], range(1000, 1201), workers=2)
    assert serial == parallel
    assert serial.aborted.check == "eq1.0" and serial.aborted.p == bad_p
    assert serial.aborted.verdict == FAIL
    assert serial.reports[-1].p == bad_p
    assert {r.p for r in serial.reports} == {q for q in range(1009, bad_p + 1) if is_prime(q)}


def test_a_job_above_the_abort_cannot_break_the_run(monkeypatch):
    # eq1.0 fails at 1009 only after the job at 1013 has raised; a run that
    # reads the batches in prime order stops at 1009 and never sees the raise
    check = get_check("eq1.0")

    def evaluate(ws):
        if ws.q == 1009:
            time.sleep(0.2)
            return [(0, 1)]
        return check.evaluate(ws)

    init = Workspace.__init__

    def raising_init(self, p, power):
        if p == 1013:
            raise RuntimeError("the job above the abort")
        init(self, p, power)

    monkeypatch.setitem(registry._CHECKS, "eq1.0", check._replace(evaluate=evaluate))
    monkeypatch.setattr(Workspace, "__init__", raising_init)
    serial = run_suite(["eq1.0", "eq1.1"], range(1000, 1101))
    assert serial.aborted.p == 1009 and serial.aborted.verdict == FAIL
    assert [r.p for r in serial.reports] == [1009, 1009]
    for _ in range(3):
        parallel = run_suite(["eq1.0", "eq1.1"], range(1000, 1101), workers=2)
        assert parallel == serial


def test_evaluator_exception_is_an_error_report(monkeypatch):
    check = get_check("eq1.0")

    def evaluate(ws):
        if ws.q == 1013:
            return 1 // (ws.q - 1013)
        return check.evaluate(ws)

    monkeypatch.setitem(registry._CHECKS, "eq1.0", check._replace(evaluate=evaluate))
    report = run_check("eq1.0", 1013)
    assert report.verdict == ERROR and (report.lhs, report.rhs, report.modulus) == (None,) * 3
    assert report.detail.startswith("ZeroDivisionError in eq1.0 at p=1013: ")
    serial = run_suite(["eq1.0", "eq1.1"], range(1000, 1101))
    parallel = run_suite(["eq1.0", "eq1.1"], range(1000, 1101), workers=2)
    assert serial == parallel
    assert serial.aborted == report
    assert serial.reports[-1].p == 1013


def test_an_evaluator_that_gives_no_congruence_is_an_error_report(monkeypatch):
    monkeypatch.setattr(registry, "THM41_GRID", ())
    report = run_check("thm4.1", 11)
    assert report.verdict == ERROR and (report.lhs, report.rhs, report.modulus) == (None,) * 3
    assert report.detail.startswith(
        "ValueError in thm4.1 at p=11: the evaluator gave no congruence")
    serial = run_suite(["eq1.0", "thm4.1"], [5, 7, 11])
    parallel = run_suite(["eq1.0", "thm4.1"], [5, 7, 11], workers=2)
    assert serial == parallel
    assert serial.aborted.check == "thm4.1" and serial.aborted.p == 5
    assert [r.check for r in serial.reports] == ["eq1.0", "thm4.1"]


def test_hypothesis_exception_is_an_error_report(monkeypatch):
    check = get_check("eq1.0")
    raising = check._replace(hypothesis=Hypothesis("p > 0", lambda p: 1 // (p - 11) >= 0))
    monkeypatch.setitem(registry._CHECKS, "eq1.0", raising)
    serial = run_suite(["eq1.0"], [5, 7, 11, 13])
    parallel = run_suite(["eq1.0"], [5, 7, 11, 13], workers=2)
    assert serial == parallel
    assert [r.p for r in serial.reports] == [5, 7, 11]
    assert serial.aborted.p == 11 and serial.aborted.verdict == ERROR
    assert serial.aborted.detail.startswith("ZeroDivisionError in eq1.0 at p=11: ")


def test_records_are_immutable_hashable_picklable_tuples():
    p = OddPrime(13)
    ws = Workspace(p, 2)
    result = run_suite(["eq1.0", "gauss"], [13])
    # a prime is an immutable int, which pickles as its type and hashes as its value
    assert type(pickle.loads(pickle.dumps(p))) is OddPrime and pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(AttributeError):
        p.extra = 1
    assert hash(p) == hash(13) and p == 13 and isinstance(p, int)
    records = [ResidueMod(p, 2, 1000), WeightSpec("lucas_u", 1, 16),
               SumSpec(3, 64, [1, 0], WeightSpec("harmonic")), QuadRep(p, 1, 3, 2, RAW),
               align_pi(ws.rep(1, RAW), ws.sqrt(-1)), get_check("cor4.3").evaluate(ws),
               get_check("eq1.0"), result.reports[0], result]
    for record in records:
        assert pickle.loads(pickle.dumps(record)) == record
        assert type(pickle.loads(pickle.dumps(record))) is type(record)
        with pytest.raises(AttributeError):
            record.extra = 1
        if record is not result:  # its summary is a dict
            assert hash(record._replace()) == hash(record)
    assert repr(records[3]) == "QuadRep(p=OddPrime(13), d=1, x=3, y=2, convention='raw')"
    assert repr(records[0]) == "155 (mod 13^2)" and records[2].poly == (1, 0)
    assert OddPrime(11) < p < OddPrime(17)
    # _replace validates as the constructor does
    assert records[0]._replace(value=-1).value == 168
    with pytest.raises(ValueError, match="15 is not prime"):
        OddPrime(15)


def test_override_refused_where_the_power_is_fixed():
    # derived from the evaluators' arity: only these take their power e
    assert [c.id for c in checks() if c.reads_power] == ["eq1.2", "eq1.5", "eq1.6", "su2.21k8"]
    with pytest.raises(OverrideRefused, match="eq1.0"):
        run_suite(["eq1.0"], [11], overrides={"eq1.0": 3})
    with pytest.raises(OverrideRefused, match="eq1.0"):
        run_check("eq1.0", 11, e_override=3)
    res = run_suite(["su2.21k8"], [11], overrides={"su2.21k8": 4})
    assert res.reports[0].verdict == PASS and res.reports[0].modulus == 11**4
    # a power outside 1..4 is refused, not run at another power or reported
    for e in (0, -1, 5, 7):
        with pytest.raises(OverrideRefused, match="outside 1..4"):
            run_suite(["su2.21k8"], [11, 13], overrides={"su2.21k8": e})
        with pytest.raises(OverrideRefused, match="outside 1..4"):
            run_check("su2.21k8", 11, e_override=e)
    # 3.0 in range(1, 5) holds, and True ran eq1.2 at p^1: neither is an int
    for e in (3.0, True, 2.5):
        with pytest.raises(TypeError, match="override power"):
            run_suite(["eq1.2"], [13], overrides={"eq1.2": e})
        with pytest.raises(TypeError, match="override power"):
            run_check("eq1.2", 13, e_override=e)


def test_override_refused_for_a_check_outside_the_run():
    # an override must name a check the run includes, else it would change nothing
    with pytest.raises(OverrideRefused, match="eq1.2"):
        run_suite(["eq1.0"], [5, 7], overrides={"eq1.2": 3})
    with pytest.raises(OverrideRefused, match="eq1.2"):
        run_suite([], [5, 7], overrides={"eq1.2": 3})
    res = run_suite(["eq1.0", "eq1.2"], [5, 7], overrides={"eq1.2": 3})
    assert [r.modulus for r in res.reports if r.check == "eq1.2"] == [5**3, 7**3]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_suite_removes_duplicate_ids(workers):
    res = run_suite(["eq1.0", "gauss", "eq1.0"], [5, 13], workers=workers)
    assert [(r.p, r.check) for r in res.reports] == [
        (5, "eq1.0"), (5, "gauss"), (13, "eq1.0"), (13, "gauss"),
    ]
    assert res.summary["eq1.0"] == {PASS: 2}


class _Thirteen:
    def __index__(self):
        return 13


def test_a_prime_must_be_an_int():
    # a float or a str is refused, not truncated or parsed into a prime
    for p in (13.5, 13.0, "13"):
        with pytest.raises(TypeError):
            run_check("eq1.0", p)
    with pytest.raises(TypeError):
        run_suite(["eq1.0"], [13.5, "17", 19.9])
    assert run_check("eq1.0", _Thirteen()).p == 13
    res = run_suite(["eq1.0"], [True, 2, 9, _Thirteen(), 15, 17])
    assert [r.p for r in res.reports] == [13, 17]


# every function that takes a prime, each asked one question about it
PRIME_READERS = {
    "OddPrime": OddPrime,
    "ResidueMod": lambda p: ResidueMod(p, 2, 200),
    "legendre_symbol": lambda p: legendre_symbol(3, p),
    "fermat_quotient": lambda p: fermat_quotient(2, p),
    "sqrt_mod": lambda p: sqrt_mod(3, p, 2),
    "represent": lambda p: represent(p, 1),
    "PrimeContext": lambda p: PrimeContext(p, 2).bh(1),
    "binomial_sum": lambda p: binomial_sum(SumSpec(3, 64), p),
    "Workspace": lambda p: Workspace(p, 2).sum(3, 64),
    "run_check": lambda p: run_check("eq1.0", p),
    "exact_sum": lambda p: exact_sum(SumSpec(3, 64), p),
    "exhaustive_represent": lambda p: exhaustive_represent(p, 1),
    "brute_sqrt": lambda p: brute_sqrt(3, p, 1),
}


@pytest.mark.parametrize("name", sorted(PRIME_READERS))
def test_every_function_reads_a_prime_through_one_door(name):
    read = PRIME_READERS[name]
    assert read(13) == read(OddPrime(13)) == read(_Thirteen()), name
    for bad in (13.0, "13", 13.5, None):
        with pytest.raises(TypeError):
            read(bad)
    for bad in (15, 2, True):
        with pytest.raises(ValueError):
            read(bad)


@pytest.mark.parametrize("workers", [1, 2])
def test_reports_hold_plain_ints(workers):
    # a report holding an OddPrime would run a primality test each time it is unpickled
    reports = run_suite(check_ids(), range(5, 60), workers=workers).reports
    assert reports and {type(r.p) for r in reports} == {int}
    assert {type(v) for r in reports for v in (r.lhs, r.rhs, r.modulus)} <= {int, type(None)}


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool by a serial one and record each pool's size."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, jobs):
            return map(fn, jobs)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_the_pool_is_no_larger_than_the_prime_count(recording_pool):
    def swept(primes):
        return [(r.p, r.verdict) for r in run_suite(["eq1.0"], primes, workers=3).reports]

    assert swept([5]) == [(5, PASS)]
    assert recording_pool == []
    assert swept([5, 7]) == [(5, PASS), (7, PASS)]
    assert swept(range(5, 30)) == [(q, PASS) for q in SMALL_PRIMES]
    assert recording_pool == [2, 3]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_suite_refuses_a_prime_above_the_bound_before_running(monkeypatch, recording_pool,
                                                                workers):
    ran = []
    monkeypatch.setattr(registry, "_evaluate_prime", lambda job: ran.append(job[1]) or [])
    with pytest.raises(PrimeTooLarge, match="1000003"):
        run_suite(["eq1.0"], [5, 7, 1000003], workers=workers)
    # 2^63 + 29 is prime and above what OddPrime accepts
    with pytest.raises(PrimeTooLarge, match=str(2**63 + 29)):
        run_suite(["eq1.0"], [5, 2**63 + 29], workers=workers)
    # run_check reads the bound first too: not a ValueError from OddPrime, an
    # ERROR report from the context, or a SKIP from a hypothesis that fails
    for cid, big in (("eq1.0", 2**63 + 29), ("eq1.0", 1000003), ("gauss", 1000003)):
        with pytest.raises(PrimeTooLarge, match=str(big)):
            run_check(cid, big)
    assert ran == [] and recording_pool == []


@pytest.mark.parametrize("workers", [0, -3])
def test_run_suite_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"workers = {workers}"):
        run_suite(["eq1.0"], [5], workers=workers)


def test_run_check_refuses_a_mismatched_workspace():
    with pytest.raises(ValueError, match="p = 13"):
        run_check("eq1.0", 11, workspace=Workspace(OddPrime(13), 4))
    # su2.21k8 at p^4 needs a power-4 workspace, whose context has 5 digits
    with pytest.raises(ValueError, match=r"power 3 \(4 digits\)"):
        run_check("su2.21k8", 11, e_override=4, workspace=Workspace(OddPrime(11), 3))
    ws = Workspace(OddPrime(11), 4)
    assert ws._ctx.digits == 5
    assert run_check("su2.21k8", 11, e_override=4, workspace=ws).verdict == PASS
    # a deeper workspace serves a check at a lower power
    assert run_check("eq1.0", 11, workspace=ws).verdict == PASS
    for power in (0, 5):
        with pytest.raises(ValueError, match="outside 1..4"):
            Workspace(OddPrime(11), power)
    # 2.0 used to build a context whose modulus was the float 11^3.0
    for power in (2.0, True):
        with pytest.raises(TypeError, match="power must be an int"):
            Workspace(11, power)


def test_gauss_and_cde_build_tables_to_their_one_entry():
    for q in (13, 29, 1009):
        k = (q - 1) // 4
        for cid in ("gauss", "cde"):
            ws = Workspace(OddPrime(q), 2)
            assert run_check(cid, q, workspace=ws).verdict == PASS
            tables = [ws._ctx._inv, *ws._ctx._bh.values(), *ws._ctx._weights.values()]
            assert max(len(t) for t in tables) == k + 1


def test_a_full_sweep_keeps_each_table_once(monkeypatch):
    # every check at one prime, through the sweep's own path: the context keeps
    # no inverse above p, no table past k < p, and no Apery or unit-part table
    q = 1009
    workspaces = []
    init = Workspace.__init__

    def recording_init(self, p, power):
        init(self, p, power)
        workspaces.append(self)

    monkeypatch.setattr(Workspace, "__init__", recording_init)
    reports = registry._evaluate_prime((tuple(check_ids()), q, {}))
    assert {r.verdict for r in reports} <= {PASS, SKIP}
    (ctx,) = [ws._ctx for ws in workspaces]
    assert len(ctx._inv) <= q + 1
    tables = [ctx._inv, *ctx._bh.values(), *ctx._weights.values(), *ctx._legendre.values()]
    assert max(len(t) for t in tables[1:]) <= q
    assert set(ctx.__slots__) == {"p", "digits", "mod", "n", "_inv", "_bh", "_weights",
                                  "_moments", "_legendre"}
    # inverses, binom^1..3, the harmonic gap and P_n coefficients: 5.5 p entries
    assert sum(map(len, tables)) <= 5.5 * q + 2


def test_run_suite_builds_one_context_per_prime(monkeypatch):
    builds = []
    init = engine.PrimeContext.__init__

    def counting_init(self, prime, digits):
        builds.append(prime)
        init(self, prime, digits)

    monkeypatch.setattr(engine.PrimeContext, "__init__", counting_init)
    primes = [5, 7, 13, 29, 61, 73, 97]
    res = run_suite(check_ids(), primes)
    assert not res.aborted
    assert builds == primes
    # alone, a check builds one context at each prime where it is evaluated;
    # a zero Legendre argument at lemma2.2 (p = 61, 317, 337) included
    for check in checks():
        builds.clear()
        run_suite([check.id], primes + [317, 337])
        live = [q for q in primes + [317, 337] if check.hypothesis(OddPrime(q))]
        assert builds == live, check.id
