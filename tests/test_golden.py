"""Command-line outputs pinned byte for byte.

Each ``CASES`` file under ``tests/golden/`` is the exact stdout of one
``superband`` command, recorded before the code it covers was rewritten.
The verify report carries only pass flags, so the table (every named
product), the annihilator basis, the resolvents (Laurent matrices and their
defects) and the orbit (a parametric supervector) pin the arithmetic
itself.  The ``help_*.txt`` files pin the parser: its wording, choices and
defaults, wrapped at ``COLUMNS=80``.  The ``.txt`` resolvent and orbit
reports pin how Laurent scalars and polynomials print.  The ``analyze``
reports pin the verdict and the counterexample matrix of every relation, on
a family where all of them hold (P), a linear family where all of them fail
and a degree-two band family whose three descriptions disagree.  The files
that no case names are inputs, not outputs: ``x0_n4.json`` for the orbit,
``family_*.json`` for ``analyze`` and ``band_pair_n4.json`` for
``check-band``.  A rewrite must leave all of them unchanged, and every
subcommand has at least one pinned report besides its ``--help``.

``DIGESTS`` pins larger reports by the SHA-256 of their stdout instead of
a file: annihilator bases at 12, 14 and 16 generators, where the echelon form
has thousands of rows.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from superband.cli import _HANDLERS

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

ALPHA = "xi1 + xi2*xi3*xi4"

CASES = {
    "verify_all_n4_seed42.json": (
        "verify", "--suite", "all", "--seed", "42", "--generators", "4",
        "--format", "json",
    ),
    "verify_all_n5_seed7.json": (
        "verify", "--suite", "all", "--generators", "5", "--seed", "7",
        "--format", "json",
    ),
    "verify_all_n8_seed42.json": (
        "verify", "--suite", "all", "--generators", "8", "--seed", "42",
        "--format", "json",
    ),
    # the gamma suite at 12 generators, where products involve generators
    # above the eighth
    "verify_gamma_n12_seed42.json": (
        "verify", "--suite", "gamma", "--generators", "12", "--samples", "40",
        "--seed", "42", "--format", "json",
    ),
    "table_n4.json": (
        "table", "--generators", "4", "--alpha", ALPHA, "--format", "json",
    ),
    "table_n6.json": (
        "table", "--generators", "6", "--alpha", ALPHA, "--format", "json",
    ),
    "annihilator_n6.json": (
        "annihilator", "--generators", "6",
        "--alpha", "xi1*xi2*xi3 + 2 xi4 - 1/3 xi2*xi5*xi6", "--format", "json",
    ),
    # 2^9 odd monomials, so the kernel basis is pinned at a size where
    # dense and sparse elimination do very different work
    "annihilator_n10.json": (
        "annihilator", "--generators", "10",
        "--alpha", "xi1*xi2*xi3 + 2 xi4 - 1/3 xi2*xi5*xi6", "--format", "json",
    ),
    **{
        f"resolvent_{kind}_n4.json": (
            "resolvent", "--family", kind, "--alpha", ALPHA, "--generators", "4",
            "--format", "json",
        )
        for kind in "PQYT"
    },
    "resolvent_T_rrt_n4.json": (
        "resolvent", "--family", "T", "--alpha", ALPHA, "--generators", "4",
        "--check", "rrt", "--format", "json",
    ),
    "resolvent_P_rra_n4.json": (
        "resolvent", "--family", "P", "--alpha", ALPHA, "--generators", "4",
        "--check", "rra", "--format", "json",
    ),
    "resolvent_P_rra_n6.json": (
        "resolvent", "--family", "P", "--alpha", ALPHA, "--generators", "6",
        "--check", "rra", "--format", "json",
    ),
    "orbit_P_n4.json": (
        "orbit", "--x0", str(GOLDEN / "x0_n4.json"), "--family", "P",
        "--alpha", ALPHA, "--generators", "4", "--format", "json",
    ),
    # the text reports print the Laurent entries' repr and the orbit's str
    "resolvent_T_rrt_n4.txt": (
        "resolvent", "--family", "T", "--alpha", ALPHA, "--generators", "4",
        "--check", "rrt",
    ),
    "resolvent_P_rra_n4.txt": (
        "resolvent", "--family", "P", "--alpha", ALPHA, "--generators", "4",
        "--check", "rra",
    ),
    "orbit_P_n4.txt": (
        "orbit", "--x0", str(GOLDEN / "x0_n4.json"), "--family", "P",
        "--alpha", ALPHA, "--generators", "4",
    ),
    **{
        f"analyze_{family}_{report}.{fmt}": (
            "analyze", "--family", str(GOLDEN / f"family_{family}_n4.json"),
            "--report", report, "--format", "json" if fmt == "json" else "text",
        )
        for family in ("P", "linear", "band2")
        for report in ("equivalence", "components")
        for fmt in ("json", "txt")
    },
    **{
        f"check_band_n4.{fmt}": (
            "check-band", "--in", str(GOLDEN / "band_pair_n4.json"),
            "--format", "json" if fmt == "json" else "text",
        )
        for fmt in ("json", "txt")
    },
    "help_main.txt": ("--help",),
    **{
        f"help_{command}.txt": (command, "--help")
        for command in (
            "verify", "table", "check-band", "analyze", "resolvent", "orbit",
            "annihilator",
        )
    },
}

#: name -> (command, SHA-256 of its stdout); the n = 14 report is 223,302 bytes
DIGESTS = {
    "annihilator_n12_xi1": (
        ("annihilator", "--generators", "12", "--alpha", "xi1", "--format", "json"),
        "67dddff5a858547246dcce48097e874c78ca1f7b5bfe3bdfcf7155260110217c",
    ),
    "annihilator_n12_sum": (
        ("annihilator", "--generators", "12", "--alpha", "xi1 + xi2*xi3*xi4 - 1/2 xi5",
         "--format", "json"),
        "e88f29456348e0d90474b893a8bdafb5cdf57b7b64fc4c9e432d49452a690425",
    ),
    "annihilator_n14_xi1": (
        ("annihilator", "--generators", "14", "--alpha", "xi1", "--format", "json"),
        "0649a3efc8c592bec0f90148f68053de44750a61f4a6bce80090752aec50464a",
    ),
    # 16 generators: monomial masks use every bit the algebra allows
    "annihilator_n16_sum": (
        ("annihilator", "--generators", "16", "--alpha", ALPHA, "--format", "json"),
        "0ad6099406aa3b02cf2c3b839f349d232576ee3715ce717bfafd48b62ad0ac64",
    ),
}

#: cases whose report says a relation fails, so the command exits 1
EXIT_ONE = {
    f"analyze_{family}_{report}.{fmt}"
    for family, report in (("linear", "components"), ("band2", "equivalence"))
    for fmt in ("json", "txt")
}


def _run(argv):
    env = dict(os.environ)
    env.pop("SUPERBAND_SEED", None)
    env["COLUMNS"] = "80"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "superband.cli", *argv], capture_output=True, env=env,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_pin(name):
    proc = _run(CASES[name])
    assert proc.returncode == (1 if name in EXIT_ONE else 0), proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stdout_matches_digest(name):
    argv, digest = DIGESTS[name]
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_every_subcommand_has_a_pinned_report():
    pinned = {argv[0] for argv in CASES.values() if "--help" not in argv}
    assert pinned >= set(_HANDLERS)
