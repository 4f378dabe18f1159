"""Spans around supercon's public functions, installed from outside.

install() replaces each traced function, in every supercon module that
binds it, by a wrapper that records one span (id, parent, name, start, end,
extra) per call.  Spans stay in memory; layer_metrics() turns them into the
per-layer counts and self times, where a span's self time is its duration
minus that of its direct children.  A function the program no longer has
is skipped, and its metrics read zero.

Worker processes forked by the suite runner inherit the wrappers.  Each
worker starts an empty span list after the fork and appends the spans of
every job it ran to a spool file, which the parent merges.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _kmax(ctx, rng) -> int:
    return ctx.p if rng == "full" else (ctx.p - 1) // 2 + 1


# (module, attribute path, span name, extra(args, kwargs) -> int or None)
TARGETS = (
    ("supercon.engine", "get_context", "engine.get_context", None),
    ("supercon.engine", "PrimeContext.__init__", "engine.context_build", None),
    ("supercon.engine", "PrimeContext.binom_units", "engine.binom_units", None),
    ("supercon.engine", "PrimeContext.bh", "engine.bh", None),
    ("supercon.engine", "PrimeContext.weight_table", "engine.weight_table", None),
    ("supercon.engine", "PrimeContext.moments", "engine.moments",
     lambda a, k: _kmax(a[0], a[4] if len(a) > 4 else k["rng"])),
    ("supercon.engine", "PrimeContext.poly_weighted_sum", "engine.poly_weighted_sum",
     lambda a, k: _kmax(a[0], a[4] if len(a) > 4 else k["rng"])),
    ("supercon.engine", "legendre_poly_eval", "engine.legendre_poly_eval",
     lambda a, k: (a[0] if a else k["spec"]).n),
    ("supercon.engine", "legendre_poly_eval_ext", "engine.legendre_poly_eval_ext",
     lambda a, k: a[1] if len(a) > 1 else k["n"]),
    ("supercon.engine", "lemma_4_1_check", "engine.lemma_4_1_check", None),
    ("supercon.engine", "theorem_4_1_transform", "engine.theorem_4_1_transform", None),
    ("supercon.engine", "lemma_2_1_check", "engine.lemma_2_1_check", None),
    ("supercon.engine", "binomial_sum", "engine.binomial_sum", None),
    ("supercon.seq", "apery_stream", "seq.apery_stream", None),
    ("supercon.quadform", "represent", "quadform.represent", None),
    ("supercon.quadform", "normalize", "quadform.normalize", None),
    ("supercon.quadform", "align_pi", "quadform.align_pi", None),
    ("supercon.quadform", "select_aligned", "quadform.select_aligned", None),
    ("supercon.quadform", "pi_bar", "quadform.pi_bar", None),
    ("supercon.arith", "is_prime", "arith.is_prime", None),
    ("supercon.arith", "legendre_symbol", "arith.legendre_symbol", None),
    ("supercon.arith", "fermat_quotient", "arith.fermat_quotient", None),
    ("supercon.arith", "sqrt_mod", "arith.sqrt_mod", None),
    ("supercon.arith", "mod_inv", "arith.mod_inv", None),
    ("supercon.arith", "reduce", "arith.reduce", None),
    ("supercon.arith", "padic_add", "arith.padic_add", None),
    ("supercon.arith", "padic_mul", "arith.padic_mul", None),
    ("supercon.arith", "padic_div", "arith.padic_div", None),
    ("supercon.registry", "run_suite", "registry.run_suite",
     lambda a, k: k.get("workers", a[2] if len(a) > 2 else 1)),
    ("supercon.registry", "_evaluate_prime", "registry.job", None),
    ("supercon.registry", "run_check", "registry.run_check", None),
    ("supercon.registry", "Workspace.__init__", "registry.workspace_build", None),
    ("supercon.cli", "main", "cli.main", None),
)

# span name -> layer whose self time it adds to
SELF_TIME = {
    "engine.get_context": "engine.context.s",
    "engine.context_build": "engine.context.s",
    "engine.binom_units": "engine.tables.s",
    "engine.bh": "engine.tables.s",
    "engine.weight_table": "engine.tables.s",
    "engine.moments": "engine.moment.s",
    "engine.poly_weighted_sum": "engine.poly.s",
    "engine.legendre_poly_eval": "engine.legendre.s",
    "engine.legendre_poly_eval_ext": "engine.legendre.s",
    "engine.lemma_4_1_check": "engine.identity.s",
    "engine.theorem_4_1_transform": "engine.identity.s",
    "engine.lemma_2_1_check": "engine.identity.s",
    "engine.binomial_sum": "engine.sum.self_s",
    "seq.apery_stream": "seq.apery.s",
    "registry.run_check": "registry.self_s",
    "registry.job": "registry.self_s",
    "registry.workspace_build": "registry.self_s",
    "cli.main": "cli.self_s",
}
for _module, _path, _name, _extra in TARGETS:
    for _layer in ("quadform", "arith"):
        if _name.startswith(_layer + "."):
            SELF_TIME[_name] = f"{_layer}.s"

# every per-layer metric, with its unit and direction
LAYER_METRICS = {
    "engine.context.builds": ("count", "lower"),
    "engine.context.hits": ("count", "higher"),
    "engine.context.s": ("s", "lower"),
    "engine.moment.passes": ("count", "lower"),
    "engine.moment.hits": ("count", "higher"),
    "engine.moment.s": ("s", "lower"),
    "engine.kernel.terms": ("count", "lower"),
    "engine.kernel.terms_per_s": ("terms/s", "higher"),
    "engine.tables.s": ("s", "lower"),
    "engine.poly.passes": ("count", "lower"),
    "engine.poly.s": ("s", "lower"),
    "engine.legendre.passes": ("count", "lower"),
    "engine.legendre.s": ("s", "lower"),
    "engine.identity.s": ("s", "lower"),
    "engine.sum.calls": ("count", "lower"),
    "engine.sum.self_s": ("s", "lower"),
    "seq.apery.terms": ("count", "lower"),
    "seq.apery.s": ("s", "lower"),
    "quadform.represent.calls": ("count", "lower"),
    "quadform.s": ("s", "lower"),
    "arith.sqrt_mod.calls": ("count", "lower"),
    "arith.s": ("s", "lower"),
    "registry.checks.run": ("count", "lower"),
    "registry.workspace.builds": ("count", "lower"),
    "registry.self_s": ("s", "lower"),
    "registry.pool.busy_s": ("s", "lower"),
    "registry.pool.overhead_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
}


class Recorder:
    """Span store of one process; a forked worker starts an empty one."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.spans: list = []
        self.stack: list = []
        self.next_id = 1
        self.in_worker = False

    def after_fork(self) -> None:
        self.spans, self.stack, self.in_worker = [], [], True

    def open(self) -> tuple:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        return sid, parent, perf_counter()

    def close(self, token: tuple, name: str, extra) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans.append((token[0], token[1], name, token[2], end, extra))

    def flush_worker(self) -> None:
        """Append this worker's spans to its spool file and forget them."""
        if self.in_worker and not self.stack and self.spans:
            with open(self.spool / f"worker-{os.getpid()}.pkl", "ab") as fh:
                pickle.dump(self.spans, fh)
            self.spans = []

    def worker_spans(self) -> list:
        """Span lists of every worker process, read back from the spool."""
        out = []
        for path in sorted(self.spool.glob("worker-*.pkl")):
            spans = []
            with open(path, "rb") as fh:
                while True:
                    try:
                        spans.extend(pickle.load(fh))
                    except EOFError:
                        break
            out.append(spans)
        return out


def _wrap_call(fn, name: str, rec: Recorder, extra):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = rec.open()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(token, name, extra(args, kwargs) if extra else None)
            if name == "registry.job":
                rec.flush_worker()

    return traced


def _wrap_generator(fn, name: str, rec: Recorder):
    """One span per next(); the consumer's work between items is not inside."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def items():
            while True:
                token = rec.open()
                try:
                    item = next(inner)
                except StopIteration:
                    rec.close(token, name, 0)
                    return
                except BaseException:
                    rec.close(token, name, 0)
                    raise
                rec.close(token, name, 1)
                yield item

        return items()

    return traced


def install(spool: Path) -> Recorder:
    """Wrap every TARGET that exists; return the recorder the spans go to."""
    import importlib
    import inspect

    rec = Recorder(spool)
    os.register_at_fork(after_in_child=rec.after_fork)
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "supercon" or name.startswith("supercon.")]
    for module_name, path, name, extra in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            print(f"trace: {module_name}.{path} not found, its metrics read zero",
                  file=sys.stderr)
            continue
        if inspect.isgeneratorfunction(fn):
            wrapper = _wrap_generator(fn, name, rec)
        else:
            wrapper = _wrap_call(fn, name, rec, extra)
        if outer:
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    return rec


def layer_metrics(main_spans: list, worker_spans: list) -> dict:
    """Per-layer counts and self times over the spans of every process."""
    counts: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    terms = 0
    pool_wall = pool_workers = busy = 0.0
    for in_worker, spans in [(False, main_spans)] + [(True, s) for s in worker_spans]:
        child_time: defaultdict = defaultdict(float)
        children: defaultdict = defaultdict(set)
        for sid, parent, name, start, end, extra in spans:
            child_time[parent] += end - start
            children[parent].add(name)
        for sid, parent, name, start, end, extra in spans:
            duration = end - start
            counts[name] += 1
            if name == "registry.run_suite" and (extra or 1) > 1:
                # its whole wall time is spent waiting on the pool
                pool_wall += duration
                pool_workers = max(pool_workers, extra)
                continue
            layer = SELF_TIME.get(name, "registry.self_s" if name.startswith("registry.")
                                  else None)
            if layer:
                self_s[layer] += duration - child_time[sid]
            if name == "engine.get_context" and "engine.context_build" not in children[sid]:
                counts["context_hit"] += 1
            elif name == "engine.moments":
                # a memo hit returns before asking for any table
                if children[sid]:
                    counts["moment_pass"] += 1
                    terms += extra
                else:
                    counts["moment_hit"] += 1
            elif name in ("engine.poly_weighted_sum", "engine.legendre_poly_eval",
                          "engine.legendre_poly_eval_ext"):
                terms += extra
            elif name == "seq.apery_stream":
                counts["apery_term"] += extra
            elif name == "registry.job" and in_worker:
                busy += duration
    kernel_s = self_s["engine.moment.s"] + self_s["engine.poly.s"] + self_s["engine.legendre.s"]
    out = {
        "engine.context.builds": counts["engine.context_build"],
        "engine.context.hits": counts["context_hit"],
        "engine.moment.passes": counts["moment_pass"],
        "engine.moment.hits": counts["moment_hit"],
        "engine.kernel.terms": terms,
        "engine.kernel.terms_per_s": terms / kernel_s if kernel_s else 0.0,
        "engine.poly.passes": counts["engine.poly_weighted_sum"],
        "engine.legendre.passes": (counts["engine.legendre_poly_eval"]
                                   + counts["engine.legendre_poly_eval_ext"]),
        "engine.sum.calls": counts["engine.binomial_sum"],
        "seq.apery.terms": counts["apery_term"],
        "quadform.represent.calls": counts["quadform.represent"],
        "arith.sqrt_mod.calls": counts["arith.sqrt_mod"],
        "registry.checks.run": counts["registry.run_check"],
        "registry.workspace.builds": counts["registry.workspace_build"],
        "registry.pool.busy_s": busy,
        "registry.pool.overhead_s": pool_workers * pool_wall - busy if pool_wall else 0.0,
        "cli.report_bytes": 0,
    }
    for metric, (unit, _) in LAYER_METRICS.items():
        if unit == "s" and metric not in out:
            out[metric] = self_s[metric]
    return out
