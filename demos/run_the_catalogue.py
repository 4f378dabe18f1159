"""Sweep every proved mod-p^2 check over a prime range and tabulate verdicts.

Equivalent to:  supercon verify --checks proved --primes 5..200 --workers 2
(minus the deeper mod-p^3/p^4 checks, which this demo leaves out for speed).
"""

from supercon.registry import ABORT, PROVED, checks, run_suite


def main() -> None:
    ids = [c.id for c in checks()
           if c.status == PROVED and c.failure_mode == ABORT
           and not c.deeper and c.power <= 2]
    result = run_suite(ids, range(5, 200), workers=2)
    for cid in ids:
        tally = result.summary.get(cid, {})
        cells = "  ".join(f"{verdict} {count}" for verdict, count in sorted(tally.items()))
        print(f"{cid:14s} {cells}")
    primes = {r.p for r in result.reports}
    note = "aborted early" if result.aborted else "no failures"
    print(f"\n{len(ids)} checks over {len(primes)} primes, {note}")


if __name__ == "__main__":
    main()
