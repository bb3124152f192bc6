"""Benchmark for the superband command line tool.

    python3 perfbench/run.py --workload verify_n4 --seed 1 --seconds 30 --trace 0

Run from a checkout that holds ``src/superband``.  With ``--trace 0`` a
closed loop with one client starts one ``superband`` process at a time
(interpreter start included) for ``--seconds`` seconds and reports the
end-to-end metrics, its times scaled to a reference host speed (``measure``).
With ``--trace 1`` a fixed prefix of the same operations runs under the
wrappers of ``layers.py``, each operation in fresh processes, and the
per-layer metrics are reported instead.  Metric names and
units are those declared in ``BENCHMARK.json``.  Either way every output is
checked against its pin in ``pins.json`` and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Generated inputs, traces and sidecars go to ``.bench_build/perfbench`` in the
checkout.  Exit status is 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
BUILD = ROOT / ".bench_build" / "perfbench"

#: names and units of the metrics each mode prints
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: the console-script entry point, as the installed ``superband`` runs it
ENTRY = "import sys; from superband.cli import main; sys.exit(main())"
IMPORT_ONLY = "import superband.cli"

#: Host-speed probe: a fixed pure-Python program doing the kind of work
#: superband does (products of Fraction-valued terms keyed by monomial
#: bitmasks), run in a fresh process like an operation.  It imports nothing
#: of superband, so no change to the program moves it.
CALIBRATE = """
from fractions import Fraction

def mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if not ka & kb:
                k, v = ka | kb, va * vb
                out[k] = out.get(k, 0) + (-v if bin(ka & (kb - 1)).count("1") & 1 else v)
    return {k: v for k, v in out.items() if v}

x = {m: Fraction(m % 7 - 3, m % 5 + 1) for m in range(0, 128, 3)}
y = {m: Fraction(m % 4 - 2, m % 3 + 1) for m in range(1, 128, 5)}
print(sum(len(mul(mul(x, y), y)) for _ in range(100)))
"""
#: Wall seconds of one CALIBRATE process at the reference speed (its median
#: on the machine of metrics.json).  A constant, so that figures of different
#: commits compare; it only sets the scale of the reported times.
CALIBRATE_REF_S = 0.3
#: Operations run in blocks of at least BLOCK_S seconds, plus one import-only
#: set-up probe, between two CALIBRATE probes.
BLOCK_S = 2.0


def declared(kind):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def child_env(*paths):
    """Environment of a child: ``src`` (then ``paths``) on the module path."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SUPERBAND_SEED", "PYTHONPATH", "PYTHONHOME")}
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (SRC, *paths))
    return env


def run_child(args, cwd, env):
    """Run ``python -c <args...>`` to completion.

    Returns (exit code, stdout bytes, stderr bytes, wall s, user+sys CPU s,
    max RSS in KiB) of that one process.
    """
    with open(os.devnull, "rb") as stdin, \
            open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", *args], cwd=cwd, env=env,
                                stdin=stdin, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out, stderr, wall, cpu, usage.ru_maxrss


def import_seconds(workdir):
    """Median in-child time of ``import superband.cli``, interpreter start
    excluded."""
    code = ("import time; t = time.perf_counter(); import superband.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(5):
        exit_code, out, stderr, *_ = run_child([code], workdir, child_env())
        if exit_code != 0:
            raise RuntimeError(f"importing superband.cli failed: {stderr.decode()}")
        times.append(float(out))
    return statistics.median(times)


def prepare(workload, seed, trace):
    """Generate the run's operations and input files before any timing."""
    workdir = BUILD / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = mix.operations(workload, seed)
    for op in ops:
        op.write_inputs(workdir)
    return ops, workdir


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe(code, workdir, env):
    """Wall seconds of one fresh process that runs ``code`` and must succeed."""
    exit_code, _, stderr, wall, _, _ = run_child([code], workdir, env)
    if exit_code != 0:
        raise RuntimeError(f"probe failed: {stderr.decode()[-500:]}")
    return wall


def summarize(blocks, factors, passed):
    """End-to-end times of ``blocks``, each block's times multiplied by its
    factor."""
    walls = [wall * f for b, f in zip(blocks, factors) for _, wall, _ in b["ops"]]
    cpus = [cpu * f for b, f in zip(blocks, factors) for _, _, cpu in b["ops"]]
    return {
        "op_p50_s": statistics.median(walls),
        "op_p90_s": percentile(walls, 90),
        "ops_per_s": passed / sum(walls),
        "cpu_s_per_op": statistics.median(cpus),
        "setup_s": statistics.median(b["setup_s"] * f for b, f in zip(blocks, factors)),
    }


def measure(ops, workdir, pins, seconds):
    """Closed loop, one client: one process per operation, cycling through
    ``ops``, for ``seconds`` of wall time and at least one pass over ``ops``.

    On a shared host, how fast one process runs drifts by tens of percent
    within seconds to minutes.  So the loop runs in blocks: an
    import-only set-up probe and at least BLOCK_S seconds of operations,
    between two CALIBRATE probes.  Every time in a block is scaled by
    CALIBRATE_REF_S over the mean of its two CALIBRATE times, which reports
    it at the reference speed.  The unscaled figures go to stderr, and every
    block's times to ``blocks.json`` in ``workdir``.
    """
    env = child_env()
    probe(IMPORT_ONLY, workdir, env)  # compile bytecode before timing
    blocks, rss = [], []
    failed = 0
    i = 0
    start = time.perf_counter()
    calibrate = probe(CALIBRATE, workdir, env)
    while i < len(ops) or time.perf_counter() - start < seconds:
        block = {"setup_s": probe(IMPORT_ONLY, workdir, env), "ops": []}
        while sum(wall for _, wall, _ in block["ops"]) < BLOCK_S:
            op = ops[i % len(ops)]
            i += 1
            code, out, stderr, wall, cpu, maxrss = run_child([ENTRY, *op.argv], workdir, env)
            block["ops"].append((op.label, wall, cpu))
            rss.append(maxrss)
            why = mix.check(op, pins, code, out)
            if why:
                failed += 1
                print(f"FAILED {why} {stderr.decode()[-500:]}", file=sys.stderr)
        block["calibrate_s"] = (calibrate, probe(CALIBRATE, workdir, env))
        calibrate = block["calibrate_s"][1]
        blocks.append(block)
    (workdir / "blocks.json").write_text(json.dumps(blocks, indent=1), encoding="utf-8")
    factors = [CALIBRATE_REF_S / statistics.mean(b["calibrate_s"]) for b in blocks]
    attempted = len(rss)
    metrics = summarize(blocks, factors, attempted - failed)
    metrics["peak_rss_mb"] = max(rss) / 1024
    unscaled = summarize(blocks, [1.0] * len(blocks), attempted - failed)
    print(f"{attempted} operations in {len(blocks)} blocks; speed factor median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}; "
          f"unscaled: {json.dumps(unscaled)}", file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=mix.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "superband" / "cli.py").is_file():
        print(f"perfbench: no superband source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pins = mix.load_pins(PINS)
    ops, workdir = prepare(args.workload, args.seed, args.trace)
    if args.trace:
        import layers

        ops = ops[: mix.TRACE_OPS[args.workload]]
        values, attempted, failed = layers.traced_run(
            ops, workdir, pins, import_seconds(workdir))
        units = declared("per_layer")
    else:
        values, attempted, failed = measure(ops, workdir, pins, args.seconds)
        units = declared("end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
