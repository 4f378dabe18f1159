"""Command-line front end: suite runs, catalogue listing, ad-hoc sums.

Exit codes: 0 success (including reported counterexamples unless
--strict-conjectures), 1 proved-check failure or unrepresentable input,
2 configuration / usage / IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .arith import is_prime
from .engine import (
    ENGINE_PRIME_BOUND,
    FULL,
    HALF,
    MAX_POWER,
    SumSpec,
    WeightSpec,
    binomial_sum,
    engine_prime,
)
from .errors import (
    ConventionUnachievable,
    NotRepresentable,
    OverrideRefused,
    PrimeTooLarge,
    RamifiedPrime,
    SuperconError,
    UnknownCheckId,
)
from .quadform import CONVENTIONS, RAW, SUPPORTED_D, normalize, represent
from .registry import (
    CONJECTURAL,
    PROVED,
    check_ids,
    checks,
    get_check,
    run_suite,
)
from .seq import WEIGHT_KINDS

_POWER_GLYPH = {1: "p", 2: "p²", 3: "p³", 4: "p⁴"}


def _power_label(check) -> str:
    e = check.power
    return f"{_POWER_GLYPH[e]}/{_POWER_GLYPH[e + 1]}" if check.deeper else _POWER_GLYPH[e]


def _signed(value: int, mod: int) -> str:
    if value > mod // 2:
        return f"{value} (= {value - mod})"
    return str(value)


def _square(v: int) -> str:
    """v^2 as it reads: a negative base in parentheses, so -3^2 is not read as -(3^2)."""
    return f"({v})^2" if v < 0 else f"{v}^2"


def _parse_primes(text: str) -> list:
    """Prime list from '5..100' range syntax or '5,7,13' explicit list.

    PrimeTooLarge when a prime is above the engine bound.
    """
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        # refuse before the scan: the first prime above the bound is a prime gap away
        above = (q for q in range(max(lo, ENGINE_PRIME_BOUND + 1), hi + 1) if is_prime(q))
        first = next(above, None)
        if first is not None:
            engine_prime(first)
        return [q for q in range(max(lo, 3), hi + 1) if q % 2 and is_prime(q)]
    return [engine_prime(int(part)) for part in text.split(",")]


def _parse_checks(text: str) -> list:
    names = text.strip()
    if names in ("all", ""):
        return list(check_ids())
    if names == "proved":
        return [c.id for c in checks() if c.status == PROVED]
    if names == "conjectural":
        return [c.id for c in checks() if c.status == CONJECTURAL]
    ids = [part.strip() for part in names.split(",") if part.strip()]
    if not ids:
        raise ValueError(f"checks {text!r} names no check")
    for cid in ids:
        get_check(cid)
    return ids


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not id=e")
        cid, _, e_s = pair.partition("=")
        cid = cid.strip()
        if cid in out:
            raise ValueError(f"override for {cid!r} given more than once")
        out[cid] = int(e_s)
    return out


def _load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored.

    The keys are the verify flags less --config, '-' or '_' alike.  ValueError
    names the file, the line and the key of an unknown key, of a key given on
    a second line, or of a boolean that is not one of 1/true/yes or 0/false/no.
    """
    flags = {"checks", "primes", "format", "output", "workers", "override",
             "strict_conjectures"}
    conf = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in flags:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in conf:
                raise ValueError(f"{path}:{lineno}: key {key!r} given more than once")
            if key == "strict_conjectures":
                truth = {"1": True, "true": True, "yes": True,
                         "0": False, "false": False, "no": False}.get(value.lower())
                if truth is None:
                    raise ValueError(f"{path}:{lineno}: {key} = {value!r} is not "
                                     "1/true/yes or 0/false/no")
                value = truth
            conf[key] = value
    return conf


def _records(reports) -> list:
    return [
        {
            "check": r.check,
            "p": r.p,
            "verdict": r.verdict,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "modulus": r.modulus,
        }
        for r in reports
    ]


def _emit(text: str, output: "str | None") -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_human(result) -> str:
    lines = []
    for r in result.reports:
        if r.verdict == "PASS":
            lines.append(
                f"{r.check} @ p={r.p}: PASS  {_signed(r.lhs, r.modulus)} == "
                f"{_signed(r.rhs, r.modulus)} (mod {r.modulus})"
            )
        elif r.verdict == "SKIP":
            lines.append(f"{r.check} @ p={r.p}: SKIP ({r.detail})")
        elif r.verdict == "ERROR":
            lines.append(f"{r.check} @ p={r.p}: ERROR ({r.detail})")
        else:
            suffix = f"  [{r.detail}]" if r.detail else ""
            lines.append(
                f"{r.check} @ p={r.p}: {r.verdict}  {_signed(r.lhs, r.modulus)} != "
                f"{_signed(r.rhs, r.modulus)} (mod {r.modulus}){suffix}"
            )
    lines.append("")
    lines.append("summary:")
    for cid in sorted(result.summary):
        counts = result.summary[cid]
        parts = ", ".join(f"{v}={counts[v]}" for v in sorted(counts))
        lines.append(f"  {cid}: {parts}")
    if result.aborted is not None:
        lines.append(
            f"aborted: proved check {result.aborted.check} failed at p={result.aborted.p}"
        )
    return "\n".join(lines) + "\n"


def _render_json(result) -> str:
    body = {
        "schema": 1,
        "records": _records(result.reports),
        "summary": result.summary,
    }
    return json.dumps(body, indent=2) + "\n"


def _render_csv(result) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["check", "p", "verdict", "lhs", "rhs", "modulus"]
    )
    writer.writeheader()
    for rec in _records(result.reports):
        writer.writerow(rec)
    return buf.getvalue()


def cmd_list(args) -> int:
    rows = []
    try:
        wanted = [get_check(args.id)] if args.id else list(checks())
    except UnknownCheckId as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in wanted:
        if args.status and check.status.lower() != args.status:
            continue
        rows.append(
            f"{check.id} | {check.anchor} | {check.hypothesis.text} | "
            f"{_power_label(check)} | {check.status}"
        )
    print("\n".join(rows))
    return 0


def cmd_verify(args) -> int:
    conf = {}
    if args.config:
        try:
            conf = _load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        ids = _parse_checks(args.checks or conf.get("checks", "all"))
        primes = _parse_primes(args.primes or conf.get("primes", "5..100"))
        overrides = _parse_overrides(
            args.override
            or ([p for p in conf.get("override", "").split(",") if p] or None)
        )
        workers = int(
            args.workers if args.workers is not None
            else conf.get("workers", os.environ.get("SUPERCON_WORKERS", "1"))
        )
        if workers < 1:
            raise ValueError(f"workers = {workers}, must be at least 1")
        fmt = args.format or conf.get("format", "human")
        output = args.output or conf.get("output")
        strict = args.strict_conjectures or conf.get("strict_conjectures", False)
        if fmt not in ("human", "json", "csv"):
            raise ValueError(f"unknown format {fmt!r}")
    except (ValueError, UnknownCheckId, PrimeTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not primes:
        print("error: no primes in range", file=sys.stderr)
        return 2
    try:
        result = run_suite(ids, primes, workers=workers, overrides=overrides)
    except (UnknownCheckId, OverrideRefused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    render = {"human": _render_human, "json": _render_json, "csv": _render_csv}[fmt]
    try:
        _emit(render(result), output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counterexample = any(r.verdict == "COUNTEREXAMPLE" for r in result.reports)
    if result.aborted is not None or (strict and counterexample):
        return 1
    return 0


def cmd_represent(args) -> int:
    try:
        reps = normalize(represent(args.p, args.d), args.convention)
    except (NotRepresentable, RamifiedPrime, ConventionUnachievable) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, SuperconError) as exc:  # a ValueError: args.p is no odd prime
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in reps:
        print(f"{r.p} = {_square(r.x)} + {args.d}*{_square(r.y)}  (x, y) = ({r.x}, {r.y})")
    return 0


def cmd_sum(args) -> int:
    try:
        p = engine_prime(args.p)
        m = Fraction(args.m)
        m = int(m) if m.denominator == 1 else m
        poly = tuple(int(c) for c in args.poly.split(","))
        weight = WeightSpec(args.weight, args.lucas_a, args.lucas_b)
        spec = SumSpec(args.h, m, poly, weight, args.range, args.e)
    except (ValueError, ZeroDivisionError, PrimeTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        value = binomial_sum(spec, p)
    except SuperconError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"{_signed(value.value, value.modulus)} (mod {value.modulus})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercon",
        description="verify central-binomial congruences over prime ranges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the check catalogue")
    p_list.add_argument("--status", choices=["proved", "conjectural"])
    p_list.add_argument("--id", help="show a single check")
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run checks over a prime range")
    p_verify.add_argument("--checks", help="ids, or all/proved/conjectural")
    p_verify.add_argument("--primes", help="range 5..100 or list 5,7,13")
    p_verify.add_argument("--format", choices=["human", "json", "csv"])
    p_verify.add_argument("--output", help="write the report to a file")
    p_verify.add_argument("--workers", type=int)
    p_verify.add_argument(
        "--override", action="append", metavar="ID=E",
        help="modulus-power override, repeatable",
    )
    p_verify.add_argument("--strict-conjectures", action="store_true")
    p_verify.add_argument("--config", help="flat key=value config file")
    p_verify.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("represent", help="write p as x^2 + d*y^2")
    p_rep.add_argument("p", type=int)
    p_rep.add_argument("d", type=int, choices=SUPPORTED_D)
    p_rep.add_argument(
        "--convention", default=RAW,
        choices=sorted(CONVENTIONS),
    )
    p_rep.set_defaults(func=cmd_represent)

    p_sum = sub.add_parser("sum", help="evaluate one binomial sum mod p^e")
    p_sum.add_argument("--h", type=int, required=True, choices=[1, 2, 3])
    p_sum.add_argument("--m", required=True, help="denominator base, int or a/b")
    p_sum.add_argument("--poly", default="1", help="coefficients, highest first")
    p_sum.add_argument("--weight", default="const1", choices=sorted(WEIGHT_KINDS))
    p_sum.add_argument("--lucas-a", type=int, default=0)
    p_sum.add_argument("--lucas-b", type=int, default=0)
    p_sum.add_argument("--range", default=FULL, choices=[HALF, FULL])
    p_sum.add_argument("--e", type=int, default=2, choices=range(1, MAX_POWER + 1))
    p_sum.add_argument("-p", type=int, required=True, dest="p")
    p_sum.set_defaults(func=cmd_sum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
