"""Let a prime sweep decide between two rival exponents for one congruence.

The catalogue registers the same sum twice, weighted by the cubic
character mod 3: once against the square of the central binomial
coefficient (thm1.2.ii.b2) and once against the cube (thm1.2.ii.b3).
Both variants also check the companion sum weighted by the three-indicator.
Only one can be right; the sweep says which.
"""

from supercon.registry import COUNTEREXAMPLE, PASS, run_suite

VARIANTS = ("thm1.2.ii.b2", "thm1.2.ii.b3")


def main() -> None:
    result = run_suite(VARIANTS, range(5, 501))
    for cid in VARIANTS:
        tally = result.summary.get(cid, {})
        ok, bad = tally.get(PASS, 0), tally.get(COUNTEREXAMPLE, 0)
        verdict = "survives" if ok and not bad else "falsified"
        print(f"{cid}: {verdict}  ({ok} primes agree, {bad} disagree)")
    first = next((r for r in result.reports
                  if r.verdict == COUNTEREXAMPLE and r.check == "thm1.2.ii.b3"), None)
    if first is not None:
        print(f"first disagreement: p = {first.p}, "
              f"{first.lhs} != {first.rhs} (mod {first.modulus})")


if __name__ == "__main__":
    main()
