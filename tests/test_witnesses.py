"""A failing label reports its first witness, serialized when the report is
assembled.

Every label passes on working code, so one check is made to fail on known
samples: the report must name the first of them and be otherwise unchanged.
A label checked on a polynomial family records the family itself, in the
form ``superband analyze --family`` reads.
"""

from __future__ import annotations

import copy

from superband import suites
from superband.config import SuiteConfig
from superband.serialize import dumps, load_value, to_obj

CFG = SuiteConfig(generators=4, seed=3, suite="supermatrix", samples=20)


def test_counterexample_is_the_first_failing_witness(monkeypatch):
    clean = suites.run_suite(CFG)
    real = suites.ber_parts
    calls, failed = [], []

    def broken(m):
        # "7a" compares Ber M with the sum of these parts: spoil the even
        # part on the third and the sixth sample
        calls.append(m)
        even, odd = real(m)
        if len(calls) in (3, 6):
            failed.append(m)
            even = even + m.ctx.one()
        return even, odd

    monkeypatch.setattr(suites, "ber_parts", broken)
    report = suites.run_suite(CFG)

    assert len(calls) == CFG.samples and len(failed) == 2
    (suite,) = report["suites"]
    (entry,) = [c for c in suite["checks"] if c["label"] == "7a"]
    assert entry == {"label": "7a", "passed": False,
                     "counterexample": to_obj(failed[0])}
    assert entry["counterexample"] != to_obj(failed[1])

    # apart from that entry and the verdicts above it, the bytes are the same
    expected = copy.deepcopy(clean)
    expected["passed"] = expected["suites"][0]["passed"] = False
    for check in expected["suites"][0]["checks"]:
        if check["label"] == "7a":
            check.update(entry)
    assert dumps(report) == dumps(expected)


def test_component_label_witness_is_the_family_analyze_reads(monkeypatch):
    cfg = SuiteConfig(generators=4, seed=3, suite="analysis", samples=24)
    real = suites.band_component_system_check
    calls, failed = [], []

    def broken(comps):
        # spoil "kn" on the second sample only
        calls.append(comps)
        report = real(comps)
        if len(calls) == 2:
            failed.append(comps)
            report = report._replace(holds=False)
        return report

    monkeypatch.setattr(suites, "band_component_system_check", broken)
    report = suites.run_suite(cfg)

    assert len(calls) == cfg.samples // 8 and len(failed) == 1
    (suite,) = report["suites"]
    (entry,) = [c for c in suite["checks"] if c["label"] == "kn"]
    assert entry["passed"] is False
    assert load_value(entry["counterexample"]) == failed[0].family("t")
    # every other label still passes and records no counterexample
    others = [c for c in suite["checks"] if c["label"] != "kn"]
    assert others and all(c == {"label": c["label"], "passed": True} for c in others)


def test_label_with_two_witnesses_per_sample_reports_the_failing_one(monkeypatch):
    # "equiv" is checked twice per sample: on a random linear family, then
    # on a band family; spoil the band family of the second sample only
    cfg = SuiteConfig(generators=4, seed=3, suite="analysis", samples=24)
    real = suites.equivalence_report
    calls = []

    def broken(family):
        calls.append(family)
        report = real(family)
        if len(calls) == 4:
            report = report._replace(band=not report.band)
        return report

    monkeypatch.setattr(suites, "equivalence_report", broken)
    (suite,) = suites.run_suite(cfg)["suites"]

    (entry,) = [c for c in suite["checks"] if c["label"] == "equiv"]
    assert entry["passed"] is False
    assert load_value(entry["counterexample"]) == calls[3]
    assert entry["counterexample"] != to_obj(calls[2])
    others = [c for c in suite["checks"] if c["label"] != "equiv"]
    assert others and all(c == {"label": c["label"], "passed": True} for c in others)


def test_label_without_a_witness_reports_no_counterexample(monkeypatch):
    cfg = SuiteConfig(generators=4, seed=3, suite="gamma", samples=24)
    real = suites.strong_gamma_check

    def broken(family):
        return real(family)._replace(is_strong=False)

    monkeypatch.setattr(suites, "strong_gamma_check", broken)
    (suite,) = suites.run_suite(cfg)["suites"]

    (entry,) = [c for c in suite["checks"] if c["label"] == "strong"]
    assert entry == {"label": "strong", "passed": False}


def test_idem_turns_red_when_the_strong_check_always_fails(monkeypatch):
    """``idem`` also checks the idempotent companion [[0, G], [D, I]] of each
    strong head, so a check that always says "not idempotent" is caught."""
    cfg = SuiteConfig(generators=4, seed=0, suite="gamma", samples=200)
    monkeypatch.setattr(suites, "idempotent_strong_check", lambda m: False)
    report = suites.run_suite(cfg)

    (suite,) = report["suites"]
    (entry,) = [c for c in suite["checks"] if c["label"] == "idem"]
    assert entry["passed"] is False
    witness = load_value(entry["counterexample"])
    assert witness @ witness == witness
