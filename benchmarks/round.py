"""One round of a workload in a fresh interpreter, as a user's run would be.

    python3 benchmarks/round.py WORKLOAD INPUTS.json RESULT.json [SPOOL_DIR]

WORKLOAD "setup" only sets up.  Set-up ends when supercon is imported and
its catalogue built; the moment is written as CLOCK_MONOTONIC, which the
benchmark process compares with the moment it started this one.  With
SPOOL_DIR the round runs traced and the result carries per-layer metrics.
"""

import json
import sys
import time

import supercon.cli  # noqa: F401  (set-up: imports the package, builds the catalogue)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    import resource
    from pathlib import Path

    name, input_path, result_path = argv[:3]
    spool = Path(argv[3]) if len(argv) > 3 else None
    result = {"ready": READY, "source": supercon.__file__}
    if name != "setup":
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        with open(input_path, encoding="utf-8") as fh:
            inputs = json.load(fh)
        recorder = None
        if spool is not None:
            import tracer

            recorder = tracer.install(spool)
        started = time.perf_counter()
        output, report_bytes = workload.call(inputs)
        result["run_s"] = time.perf_counter() - started
        result["output"] = output
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if recorder is not None:
            workers = recorder.worker_spans()
            layers = tracer.layer_metrics(recorder.spans, workers)
            layers["cli.report_bytes"] = report_bytes
            result["layers"] = layers
            with open(spool / "spans.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "parent", "name", "start", "end", "extra"],
                           "main": recorder.spans, "workers": workers}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
