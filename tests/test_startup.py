"""What a ``superband`` process imports, and the records that replaced
dataclasses.

Each import check runs in a fresh interpreter, since this test session has
long since loaded every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from superband.analysis import ComponentSystemReport, EquivalenceReport, FunctionalReport
from superband.config import SuiteConfig
from superband.errors import ConfigError
from superband.families import CayleyReport
from superband.gamma import ChainReport, StrongGammaReport

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules that only some subcommands need, and the stdlib module whose
#: import drags in inspect, ast, dis and tokenize
DEFERRED = ("superband.suites", "superband.gamma", "superband.analysis",
            "superband.randgen", "superband.evolution", "superband.families",
            "superband.poly", "superband.supermatrix", "dataclasses")


def run_python(code):
    env = dict(os.environ)
    env.pop("SUPERBAND_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code):
    """The DEFERRED modules in sys.modules after running ``code``."""
    out = run_python(
        f"import sys\n{code}\n"
        f"print(' '.join(m for m in {DEFERRED!r} if m in sys.modules))"
    )
    return out.split()


def test_cli_import_defers_subcommand_modules():
    assert loaded_after("import superband.cli") == []


def test_annihilator_loads_only_the_element_modules():
    code = (
        "import contextlib, io\n"
        "from superband.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['annihilator', '--alpha', 'xi1 + xi2*xi3*xi4',"
        " '--format', 'json']) == 0"
    )
    assert loaded_after(code) == []


def test_table_does_not_load_the_suites():
    code = (
        "import contextlib, io\n"
        "from superband.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['table', '--generators', '3']) == 0"
    )
    loaded = loaded_after(code)
    assert "superband.suites" not in loaded
    assert "superband.evolution" not in loaded


GOLDEN = Path(__file__).resolve().parent / "golden"

#: a subcommand that reads its input from a file, and the sampler modules
#: it must leave unimported
READERS = {
    "check-band": (["check-band", "--in", str(GOLDEN / "band_pair_n4.json")],
                   ("poly", "randgen")),
    "analyze": (["analyze", "--family", str(GOLDEN / "family_P_n4.json")], ("randgen",)),
}


@pytest.mark.parametrize("command", sorted(READERS))
def test_reader_does_not_load_the_samplers(command):
    argv, unneeded = READERS[command]
    loaded = loaded_after(
        "import contextlib, io\n"
        "from superband.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    for name in unneeded:
        assert f"superband.{name}" not in loaded


_ONE = {"n": 2, "terms": [{"c": "1", "idx": []}]}
_XI = {"n": 2, "terms": [{"c": "1", "idx": [1]}]}
_CONSTANT_TERM = [{"c": _ONE, "s": 0, "t": 0}]

#: a small canonical value of each kind, and the modules loading it must
#: leave unimported
LOADS = {
    "SuperMatrix": ({"p": 1, "q": 1, "rows": [[_ONE, _XI], [_XI, _ONE]]},
                    ("poly", "families", "evolution")),
    "SuperVector": ({"even": [_ONE], "odd": [_XI]}, ("poly", "families", "evolution")),
    "ParamSuperMatrix": ({"n": 2, "p": 1, "q": 1,
                          "rows": [[_CONSTANT_TERM, []], [[], _CONSTANT_TERM]]},
                         ("evolution",)),
}


@pytest.mark.parametrize("kind", sorted(LOADS))
def test_loads_imports_only_the_modules_of_its_kind(kind):
    value, unneeded = LOADS[kind]
    loaded = loaded_after(
        "from superband.serialize import loads\n"
        f"assert type(loads({json.dumps(value)!r})).__name__ == {kind!r}"
    )
    for name in unneeded:
        assert f"superband.{name}" not in loaded


def test_algebra_import_precomputes_no_masks():
    # every one-shot process would pay for a table built at import
    run_python(
        "from superband import algebra\n"
        "for f in algebra._basis, algebra._graded_basis, algebra._masks:\n"
        "    assert f.cache_info().currsize == 0, f"
    )


def test_refused_generator_count_leaves_no_context_behind():
    # contexts are cached per process, so only a fresh one shows a refused
    # request that would be the first for n = 1
    out = run_python(
        "from superband.algebra import create_algebra\n"
        "from superband.errors import ConfigError\n"
        "from superband.serialize import dumps\n"
        "try:\n"
        "    create_algebra(True)\n"
        "except ConfigError as exc:\n"
        "    print(exc)\n"
        "print(dumps(create_algebra(1).gen(1)))"
    )
    refused, dumped = out.splitlines()
    assert refused == "number of generators must be an integer in 1..16, got True"
    assert dumped.startswith('{"n":1,')


def test_every_export_resolves():
    out = run_python(
        "import superband\n"
        "missing = [n for n in superband.__all__ if getattr(superband, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert set(superband.__all__) <= set(dir(superband))\n"
        "ns = {}\n"
        "exec('from superband import *', ns)\n"
        "assert set(superband.__all__) <= set(ns), set(superband.__all__) - set(ns)\n"
        "from superband import serialize, linalg\n"
        "assert serialize.dumps is superband.dumps\n"
        "print(len(superband.__all__))"
    )
    assert int(out) > 50


def test_unknown_name_raises_attribute_error():
    import superband

    with pytest.raises(AttributeError, match="no_such_name"):
        superband.no_such_name
    assert not hasattr(superband, "no_such_name")


RECORDS = {
    CayleyReport: ("operands", "computed", "reference", "discrepancies",
                   "unmatched", "products"),
    StrongGammaReport: ("is_strong", "semigroup_failures", "strong_failures"),
    ChainReport: ("product", "closed_form", "matches_closed_form", "ber",
                  "ber_formula", "ber_matches"),
    ComponentSystemReport: ("holds", "failures"),
    FunctionalReport: ("residual", "taylor_form", "matches"),
    EquivalenceReport: ("band", "functional", "differential", "differential_eq_only",
                        "k0_idempotent", "k0_orthogonal", "k1_square_zero",
                        "k1_absorbs"),
    SuiteConfig: ("generators", "seed", "suite", "samples"),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_fields_equality_and_immutability(cls):
    fields = RECORDS[cls]
    assert cls._fields == fields
    record = cls(*range(len(fields)))
    assert record == cls(*range(len(fields)))
    assert record != cls(*range(1, len(fields) + 1))
    assert [getattr(record, f) for f in fields] == list(range(len(fields)))
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_suite_config_defaults_and_validation():
    assert SuiteConfig() == SuiteConfig(
        generators=4, seed=0, suite="all", samples=200
    )
    assert SuiteConfig(suite="gamma").validate() == SuiteConfig(suite="gamma")
    for bad in ({"generators": 17}, {"seed": -1}, {"suite": "nope"},
                {"samples": 0}):
        with pytest.raises(ConfigError):
            SuiteConfig(**bad).validate()
