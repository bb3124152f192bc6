"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import mix
import run

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def oneshot(seed):
    return bench("--workload", "cli_oneshot", "--seed", str(seed),
                 "--seconds", "1", "--trace", "0")


@pytest.fixture(scope="module")
def pins():
    return mix.load_pins(run.PINS)


def test_every_pooled_operation_is_pinned(pins):
    for workload in mix.WORKLOADS:
        missing = [op.label for op in mix.pool(workload) if op.key not in pins]
        assert not missing, f"{workload}: {missing}"


def test_corrupted_pin_is_counted_as_failed(tmp_path, pins):
    corrupted = {key: dict(pin, sha256="0" * 64) for key, pin in pins.items()}
    ops = mix.operations("cli_oneshot", 5)[:5]
    for op in ops:
        op.write_inputs(tmp_path)
    _, attempted, failed = run.measure(ops, tmp_path, corrupted, 1)
    assert failed == attempted >= 5


def test_times_are_scaled_by_the_calibration_probe(tmp_path, monkeypatch):
    """Where CALIBRATE takes twice its reference time, every reported time
    is half the measured one."""
    def fake_child(args, cwd, env):
        wall = 2 * run.CALIBRATE_REF_S if args[0] == run.CALIBRATE else 1.0
        return 0, b"", b"", wall, wall, 1024

    monkeypatch.setattr(run, "run_child", fake_child)
    op = mix.operations("cli_oneshot", 1)[0]
    metrics, attempted, failed = run.measure([op], tmp_path, {}, 0)
    assert attempted == failed == run.BLOCK_S
    assert metrics["op_p50_s"] == metrics["cpu_s_per_op"] == metrics["setup_s"] == 0.5
    assert metrics["peak_rss_mb"] == 1


def test_check_reports_each_kind_of_failure(pins):
    op = mix.operations("cli_oneshot", 0)[0]
    pin = pins[op.key]
    good = json.dumps({"passed": True}).encode()
    assert "exit code" in mix.check(op, {op.key: dict(pin, exit=pin["exit"] + 1)},
                                    pin["exit"], good)
    assert "no pinned output" in mix.check(op, {}, pin["exit"], good)
    assert "unreadable" in mix.check(op, pins, pin["exit"], b"not json")


def test_printed_metric_names_are_declared():
    per_layer = run.declared("per_layer")
    assert set(layers.PER_LAYER) == set(per_layer)
    described = json.loads((run.HERE / "metrics.json").read_text())["metrics"]
    assert set(described) == set(run.declared("end_to_end")) | set(per_layer)
    printed = result_of(oneshot(1))["metrics"]
    assert {name: m["unit"] for name, m in printed.items()} == run.declared("end_to_end")


def test_seed_changes_inputs_not_metric_names():
    for workload in mix.WORKLOADS:
        first = [op.key for op in mix.operations(workload, 1)]
        assert first == [op.key for op in mix.operations(workload, 1)]
        assert first != [op.key for op in mix.operations(workload, 2)]
    names = [set(result_of(oneshot(seed))["metrics"]) for seed in (1, 2)]
    assert names[0] == names[1]


def test_oneshot_mix_has_fixed_proportions():
    for seed in (1, 2):
        ops = mix.operations("cli_oneshot", seed)
        assert len(ops) == 100
        for kind, quota, _ in mix.ONESHOT_MIX:
            assert sum(op.label.rsplit("-", 1)[0] == kind for op in ops) == quota


def test_traced_output_matches_untraced(tmp_path, pins):
    ops = mix.operations("cli_oneshot", 3)[:4]
    for op in ops:
        op.write_inputs(tmp_path)
    metrics, attempted, failed = layers.traced_run(ops, tmp_path, pins, 0.1)
    assert (attempted, failed) == (4, 0)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["trace.overhead_ratio"] > 0
    sidecar = json.loads((tmp_path / "trace.json").read_text())
    assert sidecar["spans"] and sidecar["aggregates"]
    assert [op["label"] for op in sidecar["operations"]] == [op.label for op in ops]


def test_each_traced_pass_is_a_fresh_process(tmp_path, pins):
    """Every pass of every operation runs in its own process, so nothing a
    process caches reaches another pass or operation."""
    op = next(op for op in mix.pool("cli_oneshot") if op.kind == "annihilator")
    op.write_inputs(tmp_path)
    _, _, failed = layers.traced_run([op, op], tmp_path, pins, 0.1)
    assert failed == 0
    sidecar = json.loads((tmp_path / "trace.json").read_text())
    pids = [pid for entry in sidecar["operations"] for pid in entry["pids"]]
    assert len(set(pids)) == len(pids) == 6
    assert os.getpid() not in pids


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify_n4", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
