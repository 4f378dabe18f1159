"""Self-test: the benchmark's checkers accept true output and reject corrupted output.

    python3 benchmarks/test_checks.py      (or: python3 -m pytest benchmarks)
"""

import copy
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from workloads import WEIGHT_KINDS, WORKLOADS  # noqa: E402

PRIMES = checks.odd_primes(3, 160)
_SWEEP = []


def sweep() -> list:
    """Catalogue reports over PRIMES, computed once by the program."""
    if not _SWEEP:
        from supercon.registry import run_suite

        result = run_suite(checks.CHECK_IDS, PRIMES)
        _SWEEP.extend({f: getattr(r, f) for f in checks.REPORT_FIELDS} for r in result.reports)
    return copy.deepcopy(_SWEEP)


def verdicts(records):
    """check_sweep with every prime in the recomputation sample."""
    return checks.check_sweep(records, PRIMES, set(PRIMES))


def find(records, cid, verdict):
    return next(r for r in records if r["check"] == cid and r["verdict"] == verdict)


def test_true_sweep_passes():
    bad, problems = verdicts(sweep())
    assert bad == {} and problems == []


def test_flipped_lhs_is_rejected():
    records = sweep()
    rec = find(records, "eq1.0", "PASS")
    rec["lhs"] = (rec["lhs"] + 1) % rec["modulus"]
    bad, _ = verdicts(records)
    assert (rec["check"], rec["p"]) in bad


def test_wrong_modulus_is_rejected():
    records = sweep()
    rec = find(records, "long.6k1.256", "PASS")
    rec["modulus"] //= rec["p"]
    bad, _ = verdicts(records)
    assert (rec["check"], rec["p"]) in bad


def test_dropped_prime_is_rejected():
    records = [r for r in sweep() if r["p"] != 29]
    bad, _ = verdicts(records)
    assert {(cid, 29) for cid in checks.CHECK_IDS} <= set(bad)
    assert all(checks.is_failure(bad[(cid, 29)]) for cid in checks.CHECK_IDS)


def test_counterexample_turned_to_pass_is_rejected():
    records = sweep()
    rec = find(records, "thm1.2.ii.b3", "COUNTEREXAMPLE")
    rec["verdict"] = "PASS"
    bad, _ = verdicts(records)
    assert (rec["check"], rec["p"]) in bad
    rec["lhs"] = rec["rhs"]  # consistent with PASS, but not with the recomputation
    bad, _ = verdicts(records)
    assert (rec["check"], rec["p"]) in bad


def test_consistent_but_wrong_sides_are_rejected():
    records = sweep()
    for cid in ("gauss", "conj4.1.i", "eq1.2"):
        rec = find(records, cid, "PASS")
        rec["lhs"] = rec["rhs"] = (rec["rhs"] + 1) % rec["modulus"]
        bad, _ = verdicts(records)
        assert (cid, rec["p"]) in bad, cid


def test_skip_where_hypothesis_holds_is_rejected():
    records = sweep()
    rec = find(records, "gauss", "PASS")
    rec.update(verdict="SKIP", lhs=None, rhs=None, modulus=None)
    bad, _ = verdicts(records)
    assert (rec["check"], rec["p"]) in bad


def test_fail_verdict_counts_as_failure():
    records = sweep()
    rec = find(records, "eq1.0", "PASS")
    rec["verdict"] = "FAIL"
    bad, _ = verdicts(records)
    assert checks.is_failure(bad[(rec["check"], rec["p"])])


def test_worker_reports_must_match_serial():
    reference = sweep()
    records = sweep()
    records[5]["lhs"] = (records[5]["lhs"] or 0) + 1
    assert set(checks.same_reports(records, reference)) == {(records[5]["check"], records[5]["p"])}
    assert checks.same_reports(reference, sweep()) == {}


def test_single_sums_checker():
    workload = WORKLOADS["single-sums"]
    inputs = workload.inputs(7, HERE)
    inputs["specs"] = [s for s in inputs["specs"] if s[-1] < 120][:40]
    inputs["oracle"] = [0, 1]
    output, _ = workload.call(inputs)
    bad, problems = workload.verify(inputs, output)
    assert bad == {} and problems == []
    output["values"][3] = (output["values"][3] + 1) % inputs["specs"][3][-1]
    bad, _ = workload.verify(inputs, output)
    assert set(bad) == {3}


def test_direct_sum_matches_oracle():
    from fractions import Fraction

    from supercon.engine import SumSpec, WeightSpec
    from supercon.oracle import exact_sum

    rng = random.Random(5)
    for kind in WEIGHT_KINDS:
        for _ in range(3):
            p = rng.choice(checks.odd_primes(5, 60))
            m = Fraction(rng.choice((1, 3, -7, 16)), rng.choice((1, 2, 9)))
            if m.numerator % p == 0 or m.denominator % p == 0:
                continue
            h, e, rnge = rng.randint(1, 3), rng.randint(1, 4), rng.choice(("half", "full"))
            poly = (rng.randint(1, 5), rng.randint(-3, 3), 2)
            a, b = (3, -2) if kind.startswith("lucas") else (0, 0)
            want = exact_sum(SumSpec(h, m, poly, WeightSpec(kind, a, b), rnge, e), p).value
            assert checks.direct_sum(h, m, poly, kind, a, b, rnge, e, p) == want


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
