"""The four workloads: seeded inputs, the timed calls, and their checks.

inputs() and verify() run in the benchmark process and never import
supercon for timing; call() runs inside a fresh round process, after
set-up, and is the only code between the two clock reads of run_s.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from math import gcd

import checks

SWEEP_RANGE = (5, 1000)
SWEEP_SAMPLE = 16          # primes per sweep where RECOMPUTED checks are redone
LARGE_BASE = 25000
LARGE_SAMPLE = 2
SUM_COUNT = 2000
SUM_PRIMES = (5, 997)      # oracle.exact_sum stops at 1000
ORACLE_SAMPLE = 4
ORACLE_MAX_P = 300         # exact Fraction sums cost O(p^2) big-rational steps
WEIGHT_KINDS = ("const1", "lucas_u", "lucas_v", "pell", "companion_pell",
                "cubic_char", "three_indicator", "harmonic", "harmonic_gap")


def large_primes() -> list:
    """Smallest prime >= LARGE_BASE in each of three residue classes.

    p = 1 (mod 24) with (p/7) = 1 meets every hypothesis that needs p = 1
    (mod 4, 8, 12 or 3) or (-7/p) = 1; p = 19 (mod 24) with (p/7) = 1 meets
    those needing p = 3 (mod 4, 8) or 7 (mod 12); p = 1 (mod 4) with
    p = 3, 5, 6 (mod 7) meets conj4.1.iii.  So every check runs at least once.
    """
    rules = (
        lambda q: q % 24 == 1 and checks.legendre(q, 7) == 1,
        lambda q: q % 24 == 19 and checks.legendre(q, 7) == 1,
        lambda q: q % 4 == 1 and q % 7 in (3, 5, 6),
    )
    out = []
    for rule in rules:
        q = LARGE_BASE
        while not (checks.is_prime(q) and rule(q)):
            q += 1
        out.append(q)
    return out


class Workload:
    name = ""
    workers = 1

    def inputs(self, seed: int, out_dir) -> dict:
        raise NotImplementedError

    def ops(self, inputs: dict) -> list:
        """Keys of the operations one round attempts, in output order."""
        raise NotImplementedError

    def call(self, inputs: dict):
        """Run one round inside the round process; return (output, report bytes)."""
        raise NotImplementedError

    def collect(self, inputs: dict, output: dict) -> dict:
        """Complete a round's output in the benchmark process."""
        return output

    def results(self, inputs: dict, output) -> dict:
        """Operation key -> its deterministic result, for round-to-round comparison."""
        raise NotImplementedError

    def verify(self, inputs: dict, output, reference=None) -> tuple:
        """(bad, problems) as in checks.check_sweep."""
        raise NotImplementedError


class Sweep(Workload):
    """supercon verify --checks all over the odd primes of SWEEP_RANGE."""

    def __init__(self, name: str, workers: int):
        self.name, self.workers = name, workers

    def inputs(self, seed, out_dir):
        primes = checks.odd_primes(*SWEEP_RANGE)
        report = str(out_dir / f"report-{self.name}.json")
        argv = ["verify", "--checks", "all", "--primes", "%d..%d" % SWEEP_RANGE,
                "--format", "json", "--workers", str(self.workers), "--output", report]
        sample = sorted(random.Random(seed).sample(primes, SWEEP_SAMPLE))
        return {"argv": argv, "report": report, "primes": primes, "sample": sample}

    def ops(self, inputs):
        return [(cid, p) for p in inputs["primes"] for cid in checks.CHECK_IDS]

    def call(self, inputs):
        from supercon import cli

        code = cli.main(inputs["argv"])
        return {"exit": code}, os.path.getsize(inputs["report"])

    def collect(self, inputs, output):
        """Read the report the CLI wrote, and remove it before the next round."""
        try:
            with open(inputs["report"], encoding="utf-8") as fh:
                output["records"] = json.load(fh)["records"]
            os.unlink(inputs["report"])
        except (OSError, ValueError, KeyError) as exc:
            print(f"bench: no report from round: {exc}", file=sys.stderr)
            output["records"] = []
        return output

    def results(self, inputs, output):
        return {(r["check"], r["p"]): tuple(r.get(f) for f in checks.REPORT_FIELDS)
                for r in output["records"]}

    def verify(self, inputs, output, reference=None):
        bad, problems = checks.check_sweep(output["records"], inputs["primes"],
                                           set(inputs["sample"]))
        if reference is not None:
            for key, why in checks.same_reports(output["records"], reference).items():
                bad.setdefault(key, why)
        return bad, problems


class LargePrimes(Workload):
    """registry.run_suite over all checks at the three large_primes()."""

    name = "large-primes"

    def inputs(self, seed, out_dir):
        primes = large_primes()
        return {"primes": primes,
                "sample": sorted(random.Random(seed).sample(primes, LARGE_SAMPLE))}

    def ops(self, inputs):
        return [(cid, p) for p in inputs["primes"] for cid in checks.CHECK_IDS]

    def call(self, inputs):
        from supercon.registry import check_ids, run_suite

        result = run_suite(check_ids(), inputs["primes"])
        return {"records": [{f: getattr(r, f) for f in checks.REPORT_FIELDS}
                            for r in result.reports]}, 0

    results = Sweep.results

    def verify(self, inputs, output, reference=None):
        return checks.check_sweep(output["records"], inputs["primes"], set(inputs["sample"]))


def _unit_rational(rng: random.Random, p: int):
    """An int or a Fraction m whose numerator and denominator are prime to p."""
    while True:
        if rng.random() < 0.5:
            num, den = rng.choice((-1, 1)) * rng.randint(1, 64), 1
        else:
            num, den = rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(2, 20)
        if num % p and den % p and gcd(num, den) == 1:
            return num, den


class SingleSums(Workload):
    """SUM_COUNT cold binomial_sum + reduce calls on seeded random SumSpecs."""

    name = "single-sums"

    def inputs(self, seed, out_dir):
        rng = random.Random(seed)
        pool = checks.odd_primes(*SUM_PRIMES)
        specs = []
        for _ in range(SUM_COUNT):
            p = rng.choice(pool)
            num, den = _unit_rational(rng, p)
            degree = rng.randint(0, 4)
            poly = [rng.choice([c for c in range(-9, 10) if c])]
            poly += [rng.randint(-9, 9) for _ in range(degree)]
            kind = rng.choice(WEIGHT_KINDS)
            a, b = 0, 0
            if kind in ("lucas_u", "lucas_v"):
                while (a, b) == (0, 0):
                    a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            specs.append([rng.randint(1, 3), num, den, poly, kind, a, b,
                          rng.choice((checks.HALF, checks.FULL)), rng.randint(1, 4), p])
        small = [i for i, s in enumerate(specs) if s[-1] <= ORACLE_MAX_P]
        return {"specs": specs, "oracle": sorted(rng.sample(small, ORACLE_SAMPLE))}

    def ops(self, inputs):
        return list(range(len(inputs["specs"])))

    def call(self, inputs):
        from supercon.arith import OddPrime, reduce
        from supercon.engine import SumSpec, WeightSpec, binomial_sum

        values = []
        for h, num, den, poly, kind, a, b, rng, e, p in inputs["specs"]:
            try:
                m = num if den == 1 else Fraction(num, den)
                spec = SumSpec(h, m, tuple(poly), WeightSpec(kind, a, b), rng, e)
                values.append(reduce(binomial_sum(spec, OddPrime(p)), e).value)
            except Exception as exc:  # one failed operation, the round goes on
                values.append(f"raised {type(exc).__name__}: {exc}")
        return {"values": values}, 0

    def results(self, inputs, output):
        return dict(enumerate(output["values"]))

    def verify(self, inputs, output, reference=None):
        bad = {}
        specs, values = inputs["specs"], output["values"]
        for i, (spec, value) in enumerate(zip(specs, values)):
            if isinstance(value, str):
                bad[i] = value
                continue
            h, num, den, poly, kind, a, b, rng, e, p = spec
            want = checks.direct_sum(h, Fraction(num, den), poly, kind, a, b, rng, e, p)
            if value != want:
                bad[i] = f"value {value} differs from the direct sum {want}"
        if len(values) != len(specs):
            return bad, [f"{len(values)} values for {len(specs)} sums"]
        if inputs["oracle"]:
            from supercon.engine import SumSpec, WeightSpec
            from supercon.oracle import exact_sum

            for i in inputs["oracle"]:
                h, num, den, poly, kind, a, b, rng, e, p = specs[i]
                m = num if den == 1 else Fraction(num, den)
                spec = SumSpec(h, m, tuple(poly), WeightSpec(kind, a, b), rng, e)
                want = exact_sum(spec, p).value
                if values[i] != want:
                    bad[i] = f"value {values[i]} differs from oracle.exact_sum {want}"
        return bad, []


WORKLOADS = {w.name: w for w in (
    Sweep("catalogue", 1),
    Sweep("catalogue-workers", 2),
    LargePrimes(),
    SingleSums(),
)}
