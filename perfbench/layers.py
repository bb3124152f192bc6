"""Per-layer tracing of superband, installed from outside the package.

``Tracer.install`` wraps every public function and method (plus the
arithmetic operators) of each superband module.  A function wrapper is set
on the defining module and on every superband module that imported the
name; a method wrapper is set on its class.  Hot calls are aggregated
(calls, total time, self time, an optional size count); coarse boundaries
also record one span each.  Self time is a call's duration minus the time
of the wrapped calls it made.

``traced_run`` runs every operation three times, each time in a fresh
process that imports superband and calls ``superband.cli.main(argv)``
(``child``): plain, traced, and with only a counter on ``Fraction.__new__``
(set before superband is imported, and kept out of the traced pass because
it would inflate every layer's self time).  A fresh process per pass starts
with cold caches, as a one-shot ``superband`` process does, so the counts
describe what one command costs.  The traced and Fraction-counting outputs
must be byte-identical to the plain one, and that must match its pin.  The
children's spans and aggregates are summed and written to ``trace.json`` in
the run directory when the run ends.
"""

from __future__ import annotations

import contextlib
import fnmatch
import functools
import inspect
import io
import json
import os
import sys
import time
from collections import defaultdict
from fractions import Fraction

import mix

#: how a traced child is started: ``python -c CHILD MODE ARGV...``
CHILD = "import sys, layers; sys.exit(layers.child(sys.argv[1], sys.argv[2:]))"
MODES = ("plain", "traced", "fractions")

MODULES = ("algebra", "linalg", "poly", "supermatrix", "gamma", "families",
           "analysis", "evolution", "serialize", "randgen", "suites", "cli")
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__matmul__", "__neg__", "__truediv__", "__pow__", "__eq__")
#: coarse boundaries that record one span per call
SPANS = ("cli.main", "suites.*", "families.cayley_table_verify",
         "analysis.equivalence_report", "evolution.laplace", "evolution.orbit",
         "algebra.annihilator_odd", "gamma.chain_product_verify", "serialize.dumps")


def _term_pairs(args, result):
    a, b = args
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else int(bool(b)))


def _cells(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


#: size counts, by aggregate name: f(args, result) -> int
COUNTERS = {
    "algebra.GrassmannElement.__mul__": _term_pairs,
    "linalg.rref": _cells,
    "serialize.dumps": lambda args, result: len(result.encode()),
    "serialize.load_json": lambda args, result: len(args[0].encode()),
}

_LOADS = ("serialize.loads", "serialize.load_*", "serialize.parse_input")
_DUMPS = ("serialize.to_obj", "serialize.dump_*")

#: metric -> (aggregate name patterns, field).  Field calls, count, total or
#: self sums that field of the matching aggregates; fractions, import and
#: overhead are taken from the passes as a whole.  Names and units are
#: declared in BENCHMARK.json.
PER_LAYER = {
    **{f"suites.{name}.s": ((f"suites.{name}",), "total") for name in mix.SUITE_NAMES},
    "algebra.mul.calls": (("algebra.GrassmannElement.__mul__",), "calls"),
    "algebra.mul.term_pairs": (("algebra.GrassmannElement.__mul__",), "count"),
    "algebra.mul.self_s": (("algebra.GrassmannElement.__mul__",), "self"),
    "algebra.inverse.calls": (("algebra.GrassmannElement.inverse",), "calls"),
    "algebra.annihilator_odd.self_s": (("algebra.annihilator_odd",), "self"),
    "algebra.ann_contains.calls": (("algebra.AnnihilatorBasis.contains",), "calls"),
    "algebra.ann_contains.self_s": (("algebra.AnnihilatorBasis.contains",), "self"),
    "algebra.fraction_new.calls": ((), "fractions"),
    "linalg.rref.calls": (("linalg.rref",), "calls"),
    "linalg.rref.cells": (("linalg.rref",), "count"),
    "linalg.rref.self_s": (("linalg.rref",), "self"),
    "linalg.in_span.calls": (("linalg.in_span",), "calls"),
    "poly.mul.calls": (("poly.GrassmannPoly.__mul__",), "calls"),
    "poly.substitute.calls": (("poly.GrassmannPoly.substitute",), "calls"),
    "poly.substitute.self_s": (("poly.GrassmannPoly.substitute",), "self"),
    "supermatrix.matmul.calls": (("supermatrix.SuperMatrix.__matmul__",), "calls"),
    "supermatrix.berezinian.self_s": (("supermatrix.berezinian",), "self"),
    "gamma.chain_product_verify.self_s": (("gamma.chain_product_verify",), "self"),
    "gamma.contains.calls": (("gamma.GammaSet.contains",), "calls"),
    "families.make_family.calls": (("families.make_family",), "calls"),
    "families.match_named_form.calls": (("families.match_named_form",), "calls"),
    "families.match_named_form.self_s": (("families.match_named_form",), "self"),
    "families.cayley_table_verify.self_s": (("families.cayley_table_verify",), "self"),
    "families.param_matmul.calls": (("families.ParamSuperMatrix.__matmul__",), "calls"),
    "analysis.equivalence_report.self_s": (("analysis.equivalence_report",), "self"),
    "evolution.laplace.self_s": (("evolution.laplace",), "self"),
    "evolution.orbit.self_s": (("evolution.orbit",), "self"),
    "serialize.to_obj.calls": (("serialize.to_obj",), "calls"),
    "serialize.to_obj.self_s": (_DUMPS, "self"),
    "serialize.dumps.bytes": (("serialize.dumps",), "count"),
    "serialize.dumps.self_s": (("serialize.dumps",), "self"),
    "serialize.loads.bytes": (("serialize.load_json",), "count"),
    "serialize.loads.self_s": (_LOADS, "self"),
    "cli.import_s": ((), "import"),
    "trace.overhead_ratio": ((), "overhead"),
}


class Tracer:
    """In-memory spans and per-function aggregates of one process."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total s, self s, count]
        self.spans = []  # [id, parent id, name, start s, end s]
        self._stack = []  # one [child time] frame per active wrapped call
        self._span_stack = []

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        counter = COUNTERS.get(name)
        span = any(fnmatch.fnmatchcase(name, p) for p in SPANS)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                span_id = len(self.spans)
                parent = self._span_stack[-1] if self._span_stack else None
                record = [span_id, parent, name, 0.0, 0.0]
                self.spans.append(record)
                self._span_stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if span:
                    self._span_stack.pop()
                    record[3], record[4] = start, end
            if counter is not None:
                stats[3] += counter(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the public surface of every superband module.  A module or
        name that no longer exists leaves its metrics at 0."""
        modules = {name: sys.modules[f"superband.{name}"]
                   for name in MODULES if f"superband.{name}" in sys.modules}
        everywhere = [m for n, m in sys.modules.items()
                      if n == "superband" or n.startswith("superband.")]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{short}.{attr}", obj)
                    for holder in everywhere:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, name, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        suites = modules.get("suites")
        for table in vars(suites).values() if suites else ():
            if isinstance(table, dict) and set(table) == set(mix.SUITE_NAMES):
                for name, fn in list(table.items()):
                    table[name] = self.wrap(f"suites.{name}", fn)
                break
        else:
            print("perfbench: no suite table found in superband.suites", file=sys.stderr)

    def _wrap_class(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))


def child(mode, argv):
    """Run one operation in this fresh process under ``mode`` (one of
    ``MODES``) and print its record as one JSON line: exit code, stdout text,
    in-process seconds of ``superband.cli.main`` and process id, plus the aggregates
    and spans (traced) or the Fraction construction count (fractions)."""
    record = {}
    if mode == "fractions":
        original = Fraction.__dict__["__new__"]
        record["fractions"] = 0

        def counting_new(*args, **kwargs):
            record["fractions"] += 1
            return original(*args, **kwargs)

        Fraction.__new__ = counting_new
    from superband import cli

    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    record.update(exit=code, stdout=buf.getvalue(), main_s=time.perf_counter() - start,
                  pid=os.getpid())
    if tracer is not None:
        record.update(stats=tracer.stats, spans=tracer.spans)
    print(json.dumps(record))
    return 0


def _pass(run, mode, op, workdir, env):
    """One operation in a fresh child under ``mode``; returns its record."""
    code, out, stderr, *_ = run.run_child([CHILD, mode, *op.argv], workdir, env)
    if code != 0:
        raise RuntimeError(f"{mode} pass of {op.label} failed: {stderr.decode()[-500:]}")
    return json.loads(out.splitlines()[-1])


def _value(stats, patterns, field):
    index = {"calls": 0, "total": 1, "self": 2, "count": 3}[field]
    return sum(stat[index] for name, stat in stats.items()
               if any(fnmatch.fnmatchcase(name, p) for p in patterns))


def _layer_self(stats):
    """Self seconds summed per module, largest first."""
    totals = defaultdict(float)
    for name, stat in stats.items():
        totals[name.split(".")[0]] += stat[2]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def traced_run(ops, workdir, pins, import_s):
    """Plain, traced and Fraction-counting passes over ``ops``, each
    operation and pass in its own fresh process; ``import_s`` is reported as
    ``cli.import_s``.  Returns (metrics, attempted, failed)."""
    import run

    env = run.child_env(run.HERE)
    stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
    spans, per_op = [], []
    failed = 0
    for i, op in enumerate(ops):
        plain, traced, counted = (_pass(run, mode, op, workdir, env) for mode in MODES)
        out = plain["stdout"].encode()
        why = mix.check(op, pins, plain["exit"], out)
        for mode, other in (("traced", traced), ("Fraction-counting", counted)):
            if why is None and (other["exit"], other["stdout"].encode()) != (plain["exit"], out):
                why = f"{op.label}: {mode} output differs from the plain output"
        if why:
            failed += 1
            print(f"FAILED {why}", file=sys.stderr)
        for name, stat in traced["stats"].items():
            total = stats[name]
            for k, v in enumerate(stat):
                total[k] += v
        base = len(spans)
        spans += [{"id": base + s[0], "parent": None if s[1] is None else base + s[1],
                   "name": s[2], "start": s[3], "end": s[4], "op": i}
                  for s in traced["spans"]]
        per_op.append({"label": op.label, "plain_s": plain["main_s"],
                       "traced_s": traced["main_s"], "fractions": counted["fractions"],
                       "pids": [plain["pid"], traced["pid"], counted["pid"]]})

    plain_s = sum(p["plain_s"] for p in per_op)
    traced_s = sum(p["traced_s"] for p in per_op)
    metrics = {}
    for name, (patterns, field) in PER_LAYER.items():
        if field == "fractions":
            metrics[name] = sum(p["fractions"] for p in per_op)
        elif field == "import":
            metrics[name] = import_s
        elif field == "overhead":
            metrics[name] = traced_s / plain_s
        else:
            metrics[name] = _value(stats, patterns, field)
    by_layer = _layer_self(stats)
    sidecar = {
        "operations": per_op,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "trace_self_s_by_layer": by_layer,
        "aggregates": {name: dict(zip(("calls", "total_s", "self_s", "count"), stat))
                       for name, stat in sorted(stats.items()) if stat[0]},
        "spans": spans,
        "metrics": metrics,
    }
    path = workdir / "trace.json"
    path.write_text(json.dumps(sidecar, indent=1), encoding="utf-8")
    top = ", ".join(f"{k} {v:.3f}s" for k, v in list(by_layer.items())[:4])
    print(f"trace written to {path}; self time by layer: {top}", file=sys.stderr)
    return metrics, len(ops), failed
