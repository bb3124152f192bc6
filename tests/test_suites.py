"""``run_suite`` spreads the suites of ``--suite all`` over forked helpers.

Each suite draws from its own seeded generator, so the report must not
depend on how many processes ran it.  A suite that a helper does not report
runs again in the calling process, so its exception surfaces there, and no
helper outlives ``run_suite``.
"""

from __future__ import annotations

import json
import os

import pytest

from superband import suites
from superband.config import SUITES, SuiteConfig


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fan_out_report_equals_the_one_cpu_report(monkeypatch, n):
    for seed in (0, 7, 42):
        cfg = SuiteConfig(generators=n, seed=seed, samples=40)
        _cpus(monkeypatch, 1)
        alone = suites.run_suite(cfg)
        _cpus(monkeypatch, 3)
        spread = suites.run_suite(cfg)
        assert json.dumps(spread) == json.dumps(alone)
        assert [s["name"] for s in spread["suites"]] == list(SUITES)
    _no_children_left()


def test_suite_table_lists_the_config_suites_in_order():
    assert tuple(suites._SUITE_FUNCS) == SUITES


def test_one_cpu_or_one_suite_forks_nothing(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refuse)
    _cpus(monkeypatch, 1)
    assert suites.run_suite(SuiteConfig(samples=8))["passed"]
    _cpus(monkeypatch, 4)
    assert suites.run_suite(SuiteConfig(suite="gamma", samples=8))["passed"]


def test_suite_raising_in_a_helper_raises_here(monkeypatch, tmp_path):
    parent = os.getpid()
    log = tmp_path / "ran"

    def boom(name):
        def suite(cfg, rng):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            raise _Boom(name)

        return suite

    for name in SUITES:
        monkeypatch.setitem(suites._SUITE_FUNCS, name, boom(name))
    _cpus(monkeypatch, 3)
    # every process stops claiming at its first failure, so each helper
    # raises in exactly one suite and the rest run here, in order
    with pytest.raises(_Boom, match="^algebra$"):
        suites.run_suite(SuiteConfig(samples=8))
    ran = [int(pid) for pid in log.read_text().split()]
    assert sum(pid != parent for pid in ran) == 2
    _no_children_left()


def test_helper_that_dies_is_replaced_here(monkeypatch):
    parent = os.getpid()

    def dies(name):
        def suite(cfg, rng):
            if os.getpid() != parent:
                os._exit(3)
            return [{"label": name, "passed": True}]

        return suite

    for name in SUITES:
        monkeypatch.setitem(suites._SUITE_FUNCS, name, dies(name))
    _cpus(monkeypatch, 3)
    report = suites.run_suite(SuiteConfig(samples=8))
    assert [s["checks"] for s in report["suites"]] == [
        [{"label": name, "passed": True}] for name in SUITES
    ]
    _no_children_left()


@pytest.mark.parametrize("n", [3, 4])
def test_passing_report_does_not_depend_on_the_draws(n):
    # a passing report holds labels and verdicts only, so drawing other
    # samples, by another seed or another sampler, changes none of its bytes
    # as long as every label still passes
    reports = []
    for seed in (0, 1):
        report = suites.run_suite(SuiteConfig(generators=n, seed=seed))
        assert report["passed"]
        del report["config"]["seed"]
        reports.append(json.dumps(report))
    assert reports[0] == reports[1]
    _no_children_left()
