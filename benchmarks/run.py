"""Benchmark entry point: run one workload, check it, print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
src/ tree.  Every round runs in a fresh interpreter (round.py), so nothing
cached carries over, as between two `supercon verify` runs.  Rounds repeat
while the next one fits in S seconds, and there is always at least one.

--trace 0 reports the end-to-end metrics: median set-up time over several
fresh interpreters, median run time and median peak memory over rounds.
--trace 1 runs the rounds with tracer.py installed and reports the median
per-layer metrics instead.  Outputs are checked after the rounds (see
checks.py), outside every timed region.  The last line of standard output
is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8
TIME_LIMIT_S = 170.0    # the whole invocation must end within 180 s
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill a round's whole process group, workers included, and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(name: str, inputs_path: Path, out: Path, deadline: float, spool=None):
    """Run round.py once; its result dict with setup_s added, or None."""
    result_path = out / f"result-{name}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "round.py"), name, str(inputs_path), str(result_path)]
    if spool is not None:
        shutil.rmtree(spool, ignore_errors=True)
        spool.mkdir(parents=True)
        cmd.append(str(spool))
    env = dict(os.environ)
    env.pop("SUPERCON_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = _now()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        print(f"bench: round {name} stopped at the time limit", file=sys.stderr)
        return None
    finally:
        if proc.returncode is None:
            _stop_group(proc)
    if code != 0 or not result_path.exists():
        print(f"bench: round {name} exited with {code}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not Path(result["source"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: imported supercon from {result['source']}, not from src/")
    result["setup_s"] = result["ready"] - started
    return result


def _median(values: list):
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "supercon" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'supercon'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # checks that call the oracle import it
    deadline = _now() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / workload.name
    out.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(args.seed, out)
    inputs_path = out / "inputs.json"
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)

    # the first interpreter also writes the bytecode caches the others reuse
    spawn("setup", inputs_path, out, deadline)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            result = spawn("setup", inputs_path, out, deadline)
            if result:
                setups.append(result["setup_s"])

    rounds = []
    begun = _now()
    while True:
        spool = out / f"spool-{len(rounds)}" if args.trace else None
        result = spawn(workload.name, inputs_path, out, deadline, spool)
        if result is not None:
            result["output"] = workload.collect(inputs, result["output"])
        rounds.append(result)
        elapsed = _now() - begun
        per_round = elapsed / len(rounds)
        if (result is None or elapsed + per_round > args.seconds
                or _now() + 2 * per_round > deadline):
            break
    for extra in range(1, len(rounds)):
        shutil.rmtree(out / f"spool-{extra}", ignore_errors=True)

    reference = None
    if workload.workers > 1:
        serial = WORKLOADS["catalogue"]
        ref_inputs = serial.inputs(args.seed, out)
        ref_path = out / "inputs-serial.json"
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump(ref_inputs, fh)
        ref = spawn(serial.name, ref_path, out, deadline)
        reference = serial.collect(ref_inputs, ref["output"])["records"] if ref else []

    ops = workload.ops(inputs)
    done = [r for r in rounds if r is not None]
    problems = [f"{len(rounds) - len(done)} rounds did not finish"] if len(done) < len(rounds) else []
    failed = len(ops) * (len(rounds) - len(done))
    wrong = bool(problems)
    if done:
        bad, found = workload.verify(inputs, done[0]["output"], reference)
        problems += found
        first = workload.results(inputs, done[0]["output"])
        for result in done:
            now = workload.results(inputs, result["output"])
            moved = {k for k in set(first) | set(now) if first.get(k) != now.get(k)}
            failed += len(set(bad) | moved)
            wrong = wrong or bool(moved)
        wrong = wrong or any(not checks.is_failure(why) for why in bad.values())
        for key, why in sorted(bad.items(), key=str)[:20]:
            print(f"bench: {key}: {why}", file=sys.stderr)
    for why in problems[:20]:
        print(f"bench: {why}", file=sys.stderr)

    metrics = {}
    if done and args.trace:
        for name, (unit, _) in tracer.LAYER_METRICS.items():
            metrics[name] = {"value": _median([r["layers"][name] for r in done]), "unit": unit}
        print(f"bench: traced run_s median {_median([r['run_s'] for r in done]):.4f} s",
              file=sys.stderr)
    elif done:
        # a serial round starts no child, so its children_maxrss_kb is 0
        rss = [(r["maxrss_kb"] + workload.workers * r["children_maxrss_kb"]) / 1024 for r in done]
        values = {
            "setup_s": _median(setups + [r["setup_s"] for r in done]),
            "run_s": _median([r["run_s"] for r in done]),
            "peak_rss_mb": _median(rss),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"bench: {workload.name} {name} = {metric['value']} {metric['unit']}",
              file=sys.stderr)
    print(f"bench: {len(done)} rounds, {len(ops)} operations each, run_s "
          + " ".join(f"{r['run_s']:.3f}" for r in done), file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
