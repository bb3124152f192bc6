"""Command-line outputs pinned byte for byte.

Each ``CASES`` file under ``tests/golden/`` is the exact stdout of one
``superband`` command, recorded before the code it covers was rewritten.
The verify report carries only pass flags, so the table (every named
product), the annihilator basis, the resolvents (Laurent matrices and their
defects) and the orbit (a parametric supervector) pin the arithmetic
itself.  The ``help_*.txt`` files pin the parser: its wording, choices and
defaults, wrapped at ``COLUMNS=80``.  The ``.txt`` resolvent and orbit
reports pin how Laurent scalars and polynomials print.  ``x0_n4.json`` is
the orbit's input, not an output.  A rewrite must leave all of them
unchanged.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "table_n4.json": (
        "table", "--generators", "4", "--alpha", ALPHA, "--format", "json",
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
    "help_main.txt": ("--help",),
    **{
        f"help_{command}.txt": (command, "--help")
        for command in (
            "verify", "table", "check-band", "analyze", "resolvent", "orbit",
            "annihilator",
        )
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_pin(name):
    env = dict(os.environ)
    env.pop("SUPERBAND_SEED", None)
    env["COLUMNS"] = "80"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "superband.cli", *CASES[name]],
        capture_output=True, check=True, env=env,
    )
    assert proc.stdout == (GOLDEN / name).read_bytes()
