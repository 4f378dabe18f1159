"""Command-line interface: exit codes, output formats, config handling."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supercon
from supercon.arith import is_prime
from supercon.cli import _load_config, main
from supercon.quadform import CONVENTIONS


def run_cli(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse rejections exit directly
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_list_contains_catalogue_row(capsys):
    rc, out, _ = run_cli(capsys, "list")
    assert rc == 0
    assert "eq1.0 | van Hamme 1997 | all odd p | p² | PROVED" in out


def test_list_single_id_and_status_filter(capsys):
    rc, out, _ = run_cli(capsys, "list", "--id", "eq1.0")
    assert rc == 0 and out.count("\n") == 1
    rc, out, _ = run_cli(capsys, "list", "--status", "conjectural")
    assert rc == 0
    assert "conj4.1.iii" in out and "eq1.0" not in out
    for line in out.strip().splitlines():
        assert line.endswith("CONJECTURAL")


def test_list_unknown_id_exit_2(capsys):
    rc, _, err = run_cli(capsys, "list", "--id", "nosuch")
    assert rc == 2 and "nosuch" in err


def test_sum_examples(capsys):
    rc, out, _ = run_cli(
        capsys, "sum", "--h", "3", "--m", "64", "--poly", "1", "--e", "2", "-p", "13"
    )
    assert rc == 0 and out.strip() == "10 (mod 169)"
    rc, out, _ = run_cli(
        capsys, "sum", "--h", "3", "--m", "64", "--poly", "4,1", "--e", "2", "-p", "13"
    )
    assert rc == 0 and out.strip() == "0 (mod 169)"
    # at p = 3 (mod 4) the (4k+1) sum does not vanish; regression-pin it
    rc, out, _ = run_cli(
        capsys, "sum", "--h", "3", "--m", "64", "--poly", "4,1", "--e", "2", "-p", "11"
    )
    assert rc == 0 and out.strip() == "54 (mod 121)"
    rc, out, _ = run_cli(
        capsys, "sum", "--weight", "harmonic_gap", "--h", "3", "--m", "1",
        "--e", "1", "-p", "11", "--range", "half",
    )
    assert rc == 0 and out.strip() == "0 (mod 11)"


def test_sum_fraction_m_and_errors(capsys):
    rc, out, _ = run_cli(
        capsys, "sum", "--h", "2", "--m", "256/3", "--poly", "1", "--e", "1",
        "-p", "7",
    )
    assert rc == 0 and "(mod 7)" in out
    # p | m is a domain failure, not a crash
    rc, _, err = run_cli(
        capsys, "sum", "--h", "3", "--m", "26", "--poly", "1", "--e", "2", "-p", "13"
    )
    assert rc == 1 and "DenominatorDivisible" in err
    rc, _, err = run_cli(
        capsys, "sum", "--h", "3", "--m", "64", "--poly", "1", "--e", "2", "-p", "9"
    )
    assert rc == 2


def test_sum_refuses_lucas_parameters_for_other_weights(capsys):
    rc, out, err = run_cli(
        capsys, "sum", "--h", "2", "--m", "32", "--weight", "pell",
        "--lucas-a", "5", "--lucas-b", "7", "-p", "1009",
    )
    assert rc == 2 and out == "" and err.startswith("error:") and "pell" in err
    rc, out, _ = run_cli(capsys, "sum", "--h", "2", "--m", "32", "--weight", "pell", "-p", "1009")
    assert rc == 0 and out.endswith("(mod 1018081)\n")
    rc, _, _ = run_cli(
        capsys, "sum", "--h", "2", "--m", "32", "--weight", "lucas_u",
        "--lucas-a", "5", "--lucas-b", "7", "-p", "1009",
    )
    assert rc == 0


def test_verify_reports_a_repeated_check_once(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--checks", "eq1.0,eq1.0", "--primes", "5", "--format", "json",
    )
    body = json.loads(out)
    assert rc == 0 and len(body["records"]) == 1 and body["summary"] == {"eq1.0": {"PASS": 1}}


def test_sum_and_verify_refuse_primes_above_engine_bound(capsys, monkeypatch):
    from supercon.engine import PrimeContext

    def no_tables(self, hi):
        raise AssertionError("tables allocated")

    monkeypatch.setattr(PrimeContext, "inverses", no_tables)
    rc, out, err = run_cli(
        capsys, "sum", "--h", "3", "--m", "64", "--e", "2", "-p", "1000000007"
    )
    assert rc == 2 and out == "" and "above the engine bound" in err
    rc, out, err = run_cli(capsys, "verify", "--checks", "eq1.0", "--primes", "5,1000000007")
    assert rc == 2 and out == "" and "above the engine bound" in err
    # 2^63 + 29 is prime and above what OddPrime accepts, so the bound is read first
    big = str(2**63 + 29)
    for argv in (("verify", "--checks", "eq1.0", "--primes", big),
                 ("verify", "--checks", "eq1.0", "--primes", f"5..{big}"),
                 ("sum", "--h", "3", "--m", "64", "-p", big)):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "" and "above the engine bound" in err, argv


def test_verify_refuses_range_above_engine_bound_before_scanning(capsys, monkeypatch):
    from supercon import cli

    calls = []

    def counted_is_prime(n):
        calls.append(n)
        if len(calls) > 10**4:
            raise AssertionError("the range was scanned")
        return is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counted_is_prime)
    rc, out, err = run_cli(capsys, "verify", "--checks", "eq1.0", "--primes", "5..1000000000")
    assert rc == 2 and out == "" and "above the engine bound" in err
    # the first prime above 10^6 is 1000003, so this range stays within the bound
    calls.clear()
    rc, out, _ = run_cli(
        capsys, "verify", "--checks", "gauss", "--primes", "999980..1000002", "--format", "csv",
    )
    assert rc == 0 and out.splitlines()[1:] == ["gauss,999983,SKIP,,,"]


def test_represent_examples(capsys):
    rc, out, _ = run_cli(capsys, "represent", "13", "3")
    assert rc == 0 and "(x, y) = (1, 2)" in out
    rc, out, _ = run_cli(
        capsys, "represent", "23", "7", "--convention", "xplusy1mod4"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "(4, 1)" in out and "(-4, 1)" in out


def test_represent_parenthesizes_a_negative_part(capsys):
    # -3^2 reads as -(3^2): a negative part is printed in parentheses
    rc, out, _ = run_cli(capsys, "represent", "17", "2", "--convention", "x1mod4")
    assert rc == 0 and out == "17 = (-3)^2 + 2*2^2  (x, y) = (-3, 2)\n"
    rc, out, _ = run_cli(capsys, "represent", "1009", "7", "--convention", "xplusy1mod4")
    assert rc == 0 and out.splitlines() == ["1009 = 1^2 + 7*12^2  (x, y) = (1, 12)",
                                            "1009 = 1^2 + 7*(-12)^2  (x, y) = (1, -12)"]


def test_represent_failures(capsys):
    rc, _, err = run_cli(capsys, "represent", "5", "7")
    assert rc == 1 and "NotRepresentable" in err
    rc, _, err = run_cli(capsys, "represent", "7", "7")
    assert rc == 1 and "RamifiedPrime" in err
    rc, _, err = run_cli(capsys, "represent", "9", "7")
    assert rc == 2
    rc, _, err = run_cli(capsys, "represent", "17", "2", "--convention", "y1mod4")
    assert rc == 1 and "ConventionUnachievable" in err


def test_represent_output_is_byte_identical_to_golden(capsys):
    # every odd prime below 200, every d and every convention: 900 exit codes
    # and stdouts, unachievable and unrepresentable cases included
    digest = hashlib.sha256()
    for p in filter(is_prime, range(3, 200)):
        for d in (1, 2, 3, 7):
            for c in CONVENTIONS:
                rc, out, _ = run_cli(capsys, "represent", str(p), str(d), "--convention", c)
                digest.update(f"{p} {d} {c} {rc}\n{out}".encode())
    assert digest.hexdigest() == "970183cc7df50c84847fd1314d6fb319f60fa5ca6bb49ed0ce2167ec92700c57"


def test_verify_no_primes_exit_2(capsys):
    rc, _, err = run_cli(capsys, "verify", "--primes", "4..4")
    assert rc == 2 and "no primes" in err


def test_verify_refuses_checks_that_name_no_check(capsys, tmp_path):
    # "," used to run nothing, print an empty report and exit 0
    rc, out, err = run_cli(capsys, "verify", "--checks", ",", "--primes", "5..7")
    assert rc == 2 and out == "" and err.startswith("error:")
    conf = tmp_path / "suite.conf"
    conf.write_text("checks = ,\nprimes = 5..7\n")
    rc, out, err = run_cli(capsys, "verify", "--config", str(conf))
    assert rc == 2 and out == "" and err.startswith("error:")


def test_verify_bad_inputs_exit_2(capsys, monkeypatch, tmp_path):
    rc, _, err = run_cli(capsys, "verify", "--checks", "bogus", "--primes", "5..7")
    assert rc == 2
    rc, _, err = run_cli(capsys, "verify", "--primes", "5,6,7")
    assert rc == 2
    rc, _, err = run_cli(
        capsys, "verify", "--checks", "eq1.0", "--primes", "5..7",
        "--override", "eq1.0=9",
    )
    assert rc == 2
    for power in ("0", "5", "x"):
        rc, out, err = run_cli(
            capsys, "verify", "--checks", "su2.21k8", "--primes", "11",
            "--override", f"su2.21k8={power}",
        )
        assert rc == 2 and out == "", power
    # eq1.0 is evaluated mod p^2 whatever its override says
    rc, out, err = run_cli(
        capsys, "verify", "--checks", "eq1.0", "--primes", "11", "--override", "eq1.0=3",
    )
    assert rc == 2 and out == "" and "takes no override" in err
    # an override for a check the run does not include would change nothing
    rc, out, err = run_cli(
        capsys, "verify", "--checks", "eq1.0", "--primes", "5..7", "--override", "eq1.2=3",
    )
    assert rc == 2 and out == "" and err.startswith("error:") and "eq1.2" in err
    assert "Traceback" not in err
    rc, _, err = run_cli(
        capsys, "verify", "--checks", "eq1.0", "--primes", "5..7",
        "--format", "xml",
    )
    assert rc == 2
    # fewer than one worker is refused from the flag, the config and the environment
    for workers in ("-3", "0"):
        rc, out, err = run_cli(
            capsys, "verify", "--checks", "eq1.0", "--primes", "5..7", "--workers", workers,
        )
        assert rc == 2 and out == "" and "workers" in err
    conf = tmp_path / "suite.conf"
    conf.write_text("workers = 0\n")
    rc, out, err = run_cli(
        capsys, "verify", "--checks", "eq1.0", "--primes", "5..7", "--config", str(conf),
    )
    assert rc == 2 and out == "" and "workers" in err
    monkeypatch.setenv("SUPERCON_WORKERS", "-1")
    rc, out, err = run_cli(capsys, "verify", "--checks", "eq1.0", "--primes", "5..7")
    assert rc == 2 and out == "" and "workers" in err
    rc, _, _ = run_cli(
        capsys, "verify", "--checks", "eq1.0", "--primes", "5..7", "--workers", "1",
    )
    assert rc == 0


def test_verify_json_csv_identical_records(capsys):
    argv = ["verify", "--checks", "eq1.0,gauss", "--primes", "5..40"]
    rc, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    doc = json.loads(out_json)
    assert doc["schema"] == 1
    rc, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(rows) == len(doc["records"])
    for rec, row in zip(doc["records"], rows):
        for key in ("check", "p", "verdict", "lhs", "rhs", "modulus"):
            want = rec[key]
            got = row[key]
            assert got == ("" if want is None else str(want))


def test_verify_json_summary_roundtrip(capsys):
    rc, out_json, _ = run_cli(
        capsys, "verify", "--checks", "eq1.0,cde,thm1.2.ii.b3",
        "--primes", "5..60", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out_json)
    recomputed: dict = {}
    for rec in doc["records"]:
        recomputed.setdefault(rec["check"], {})
        verdict = rec["verdict"]
        recomputed[rec["check"]][verdict] = (
            recomputed[rec["check"]].get(verdict, 0) + 1
        )
    assert recomputed == doc["summary"]


def test_verify_exit_codes_for_conjectures(capsys):
    argv = ["verify", "--checks", "thm1.2.ii.b3", "--primes", "5..60"]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and "COUNTEREXAMPLE" in out
    rc, _, _ = run_cli(capsys, *argv, "--strict-conjectures")
    assert rc == 1


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "verify", "--checks", "gauss", "--primes", "5..30",
        "--format", "json", "--output", str(target),
    )
    assert rc == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == 1 and doc["records"]


def test_verify_config_file_and_flag_precedence(tmp_path, capsys):
    conf = tmp_path / "suite.conf"
    conf.write_text(
        "# comment line\n"
        "checks = gauss\n"
        "primes = 5..30   # inline comment\n"
        "format = csv\n"
        "workers = 2\n"
    )
    rc, out, _ = run_cli(capsys, "verify", "--config", str(conf))
    assert rc == 0 and out.startswith("check,p,verdict")
    rc, out, _ = run_cli(
        capsys, "verify", "--config", str(conf), "--format", "json",
        "--primes", "13..13",
    )
    assert rc == 0
    doc = json.loads(out)
    assert [rec["p"] for rec in doc["records"]] == [13]
    rc, _, err = run_cli(capsys, "verify", "--config", str(tmp_path / "absent.conf"))
    assert rc == 2


def test_verify_config_refuses_an_unknown_key(tmp_path, capsys):
    # misspelt keys used to be dropped: this ran serially, printed human output, exit 0
    conf = tmp_path / "typo.conf"
    conf.write_text("checks = eq1.0\nprimes = 5..7\nworker = 2\nformt = json\n")
    rc, out, err = run_cli(capsys, "verify", "--config", str(conf))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and f"{conf}:3:" in err and "'worker'" in err
    assert "Traceback" not in err


def test_verify_config_refuses_an_unreadable_boolean(tmp_path, capsys):
    # "maybe" used to be read as false
    conf = tmp_path / "strict.conf"
    conf.write_text("checks = eq1.0\nprimes = 5..7\nstrict_conjectures = maybe\n")
    rc, out, err = run_cli(capsys, "verify", "--config", str(conf))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and f"{conf}:3:" in err and "strict_conjectures" in err
    for text, want in (("yes", True), ("TRUE", True), ("1", True), ("no", False),
                       ("false", False), ("0", False)):
        conf.write_text(f"strict-conjectures = {text}\n")
        assert _load_config(str(conf)) == {"strict_conjectures": want}, text


def test_verify_refuses_a_repeated_override_flag(capsys):
    # the last one used to win: this ran eq1.2 mod 5^4, reported FAIL and exited 1
    rc, out, err = run_cli(
        capsys, "verify", "--checks", "eq1.2", "--primes", "5..7",
        "--override", "eq1.2=3", "--override", "eq1.2=4",
    )
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "'eq1.2'" in err and "Traceback" not in err


def test_verify_refuses_a_repeated_override_in_config(tmp_path, capsys):
    conf = tmp_path / "twice.conf"
    conf.write_text("checks = eq1.2\nprimes = 5..7\noverride = eq1.2=3,eq1.2=4\n")
    rc, out, err = run_cli(capsys, "verify", "--config", str(conf))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "'eq1.2'" in err and "Traceback" not in err
    conf.write_text("checks = eq1.2\nprimes = 5..7\noverride = eq1.2=2\n")
    rc, out, _ = run_cli(capsys, "verify", "--config", str(conf))
    assert rc == 0 and "PASS" in out


@pytest.mark.parametrize("lines, key", [
    # the last line used to win: eq1.2 ran mod 5^4, reported FAIL and exited 1
    (["checks = eq1.2", "override = eq1.2=3", "override = eq1.2=4"], "override"),
    # only gauss used to run
    (["checks = eq1.0", "checks = gauss"], "checks"),
    # one key, spelt both ways
    (["checks = eq1.0", "strict-conjectures = no", "strict_conjectures = yes"],
     "strict_conjectures"),
], ids=["override", "checks", "both-spellings"])
def test_verify_config_refuses_a_repeated_key(tmp_path, capsys, lines, key):
    conf = tmp_path / "twice.conf"
    conf.write_text("primes = 5..7\n" + "\n".join(lines) + "\n")
    rc, out, err = run_cli(capsys, "verify", "--config", str(conf))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and f"{conf}:{len(lines) + 1}:" in err
    assert repr(key) in err and "Traceback" not in err


def test_verify_workers_env(monkeypatch, capsys):
    monkeypatch.setenv("SUPERCON_WORKERS", "2")
    rc, out, _ = run_cli(
        capsys, "verify", "--checks", "eq1.0", "--primes", "5..20",
        "--format", "csv",
    )
    assert rc == 0
    assert out.strip().splitlines()[1:] == [
        "eq1.0,5,PASS,19,19,25",
        "eq1.0,7,PASS,0,0,49",
        "eq1.0,11,PASS,0,0,121",
        "eq1.0,13,PASS,10,10,169",
        "eq1.0,17,PASS,259,259,289",
        "eq1.0,19,PASS,0,0,361",
    ]


def test_verify_human_shows_signed_form(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--checks", "eq1.0", "--primes", "5..5"
    )
    assert rc == 0
    # 19 = -6 (mod 25): the signed rendering accompanies the residue
    assert "19 (= -6)" in out


def test_deterministic_output_across_worker_counts(capsys):
    argv = [
        "verify", "--checks", "proved", "--primes", "5..30", "--format", "csv",
    ]
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv, "--workers", "3")
    assert rc1 == rc2 == 0 and out1 == out2


def test_verify_report_is_byte_identical_to_golden(capsys):
    # a speed-up must leave reports byte-identical; the digest is the same on
    # CPython 3.10 through 3.13.  The three primes near 25000, one per residue
    # class, make every walk 12.5k terms long.  The human report carries what
    # JSON drops: "congruence i of n", the SKIP hypotheses, the counterexamples.
    # Only list prints every hypothesis text and power label: "all odd p",
    # "p > 3" and "p != 3" never SKIP in 5..400
    verify = ("verify", "--checks", "all", "--primes")
    for args, digest in (
            ((*verify, "5..400", "--format", "json"),
             "8235976e316b9d1f656478a62f9281ae7e7e58bbc4b955ea5838e55c28656889"),
            ((*verify, "25033,25243,25037", "--format", "json"),
             "70d39aef82af47f866fe921657fadcf74bc674fe73849fc318c2b98220b0f29b"),
            ((*verify, "5..400"),
             "0ac2dec39e98d91ae836e28f02ce11cba407ee8a831f40d4014f1ec20c73991d"),
            # the csv writer calls str() on every field, so it alone would show
            # a prime that printed as anything but its digits
            ((*verify, "5..400", "--format", "csv"),
             "18bf6a6f58bfec05cd815dc2b1e6301f50451b7d0e2efb731a14da8de08ef7d5"),
            (("list",), "3cc13469acca118d17e92accd1833baff9506465d1cc72fe525617533f41664a")):
        rc, out, _ = run_cli(capsys, *args)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_import_loads_only_what_every_run_needs():
    # in a fresh interpreter, importing the CLI adds no process pool, no
    # dataclasses, no csv writer and no oracle to what the interpreter holds
    # at start; the oracle still resolves as supercon.exact_sum
    code = ("import sys; bare = set(sys.modules); import supercon.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare))); "
            "print(supercon.exact_sum.__module__)")
    env = dict(os.environ, PYTHONPATH=str(Path(supercon.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    added = out[0].split()
    lazy = {"concurrent", "multiprocessing", "dataclasses", "csv"}
    assert "supercon.cli" in added
    assert [m for m in added if m.split(".")[0] in lazy or m == "supercon.oracle"] == []
    assert out[1] == "supercon.oracle"
