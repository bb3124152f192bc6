"""Seeded operations, input files and output checks for the superband benchmark.

Every operation is one ``superband`` command line.  Its inputs come from a
fixed pool: pool entry ``i`` of a command kind is built from
``random.Random(f"{kind}:{i}")`` with ``superband.randgen`` and written with
``superband.serialize``, so every entry has a pinned output (``pins.json``).
The workload seed chooses ``cli_oneshot``'s entries from its pools and the
order of every workload's operations.

Input files are referred to by bare file names and commands run with the
input directory as working directory, because ``resolvent`` and ``orbit``
echo the ``--family`` argument into their output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify_n4", "cli_oneshot")

SUITE_NAMES = ("algebra", "supermatrix", "gamma", "families", "analysis", "resolvent")

#: verify workloads: generator count and the number of pinned --seed values.
#: Operation times differ by up to 2x between --seed values, so every run
#: covers the whole pool (``run.measure``), and the workload seed only sets
#: the order; one pass takes about 40 s.
VERIFY_POOLS = {"verify_n4": (4, 12)}

#: cli_oneshot: (kind, commands per mix, pool size).  One mix is 100 commands.
ONESHOT_MIX = (
    ("table", 20, 40),
    ("resolvent", 14, 40),
    ("annihilator", 16, 40),
    ("orbit", 14, 40),
    ("check-band", 14, 40),
    ("analyze", 16, 40),
) + tuple((f"verify-{name}", 1, 8) for name in SUITE_NAMES)

#: operations the traced run executes (a fixed prefix, so counts
#: depend only on the seed)
TRACE_OPS = {"verify_n4": 2, "cli_oneshot": 100}

# families whose identities hold for every odd alpha (checked in pins.json)
_RESOLVENT_CASES = (("P", "rra"), ("E", "rra"), ("Z", "rra"),
                    ("E", "rrt"), ("T", "rrt"), ("Z", "rrt"))
_ORBIT_KINDS = ("P", "E", "T", "A", "Z")
_COMPONENT_KINDS = ("P", "E", "Z")
_ANTITRIANGLE_KINDS = ("P", "Q", "Y", "E", "A", "Z")
_ALL_KINDS = ("P", "Q", "Y", "E", "T", "A", "Z")

#: the published Cayley table rows (row operand is the left factor) ...
_OPERANDS = ("P(t)", "P(s)", "A", "Z", "Y(t)", "T(t)", "T(s)")
_REFERENCE_ROWS = {
    "P(t)": ("P(t)", "P(t)", "Z", "Z", "P(t)", "P(t)", "P(t)"),
    "P(s)": ("P(s)", "P(s)", "Z", "Z", "P(s)", "P(s)", "P(s)"),
    "A": ("A", "A", "Z", "Z", "Z", "A", "A"),
    "Z": ("Z", "Z", "Z", "Z", "Z", "Z", "Z"),
    "Y(t)": ("A*t", "A*s", "Z", "Z", "Z", "Y(t)", "Y(t)"),
    "T(t)": ("P(2t)", "P(t+s)", "A", "Z", "Y(t)", "T(2t)", "T(t+s)"),
    "T(s)": ("P(t+s)", "P(2s)", "A", "Z", "Y(t)", "T(t+s)", "T(2s)"),
}
#: ... and the three cells where direct multiplication gives another form
_KNOWN_DISCREPANCIES = {
    ("P(t)", "Y(t)"): "Y(0)",
    ("P(s)", "Y(t)"): "Y(0)",
    ("Y(t)", "P(s)"): "A*t",
}
EXPECTED_TABLE = [
    [_KNOWN_DISCREPANCIES.get((row, col), _REFERENCE_ROWS[row][j])
     for j, col in enumerate(_OPERANDS)]
    for row in _OPERANDS
]


@dataclass(frozen=True)
class Op:
    """One command: superband arguments plus the input files it reads."""

    label: str
    kind: str
    argv: tuple
    files: tuple  # ((file name, JSON text), ...)

    @property
    def key(self) -> str:
        """Pin key: digest of the arguments and the input file contents."""
        blob = json.dumps([list(self.argv), [list(f) for f in self.files]])
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def write_inputs(self, directory: Path):
        for name, text in self.files:
            (directory / name).write_text(text, encoding="utf-8")


# -- building operations -------------------------------------------------


def _verify_op(label, generators, seed, suite="all", samples=None):
    argv = ["verify", "--suite", suite, "--generators", str(generators),
            "--seed", str(seed)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return Op(label, "verify", tuple(argv + ["--format", "json"]), ())


def _alpha(rng, ctx):
    """A random nonzero odd element; pass it as ``--alpha=EXPR``, since its
    text may start with a minus sign."""
    from superband.randgen import random_nonzero_odd

    return random_nonzero_odd(rng, ctx)


def _family_source(rng, label, kind, alpha, name):
    """Either a named kind with --alpha, or a serialized family file."""
    from superband.families import make_family
    from superband.serialize import dumps

    if rng.random() < 0.5:
        return ["--family", kind, f"--alpha={alpha}",
                "--generators", str(alpha.ctx.n)], []
    path = f"{label}-{name}.json"
    return ["--family", path], [(path, dumps(make_family(kind, alpha)))]


def _antitriangle(rng, ctx):
    from superband.families import make_family
    from superband.randgen import random_element
    from superband.supermatrix import SuperMatrix

    if rng.random() < 0.5:
        kind = rng.choice(_ANTITRIANGLE_KINDS)
        return make_family(kind, _alpha(rng, ctx)).eval_at({"t": rng.randint(-3, 3)})
    return SuperMatrix.from_blocks(
        [[ctx.zero()]],
        [[random_element(rng, ctx, parity="odd", max_terms=2)]],
        [[random_element(rng, ctx, parity="odd", max_terms=2)]],
        [[random_element(rng, ctx, parity="even", max_terms=2)]],
    )


def _oneshot_op(kind, index) -> Op:
    from superband.algebra import create_algebra
    from superband.analysis import random_band_components
    from superband.families import make_family
    from superband.randgen import random_supervector
    from superband.serialize import dumps, to_obj

    label = f"{kind}-{index}"
    rng = random.Random(f"{kind}:{index}")
    files = []
    if kind.startswith("verify-"):
        return _verify_op(label, rng.choice((3, 4)), index,
                          suite=kind[len("verify-"):], samples=rng.randint(2, 5))
    if kind == "annihilator":
        ctx = create_algebra(rng.randint(4, 8))
        argv = ["annihilator", "--generators", str(ctx.n), f"--alpha={_alpha(rng, ctx)}"]
    elif kind == "table":
        ctx = create_algebra(rng.randint(3, 5))
        argv = ["table", "--generators", str(ctx.n), f"--alpha={_alpha(rng, ctx)}"]
    elif kind == "resolvent":
        fam_kind, check = rng.choice(_RESOLVENT_CASES)
        ctx = create_algebra(rng.randint(3, 6))
        source, files = _family_source(rng, label, fam_kind, _alpha(rng, ctx), "family")
        argv = ["resolvent", *source, "--check", check]
    elif kind == "orbit":
        ctx = create_algebra(rng.randint(3, 6))
        x0 = f"{label}-x0.json"
        source, files = _family_source(
            rng, label, rng.choice(_ORBIT_KINDS), _alpha(rng, ctx), "family")
        files.append((x0, dumps(random_supervector(rng, ctx))))
        argv = ["orbit", "--x0", x0, *source]
    elif kind == "check-band":
        ctx = create_algebra(rng.randint(3, 5))
        pair = f"{label}-pair.json"
        first, second = _antitriangle(rng, ctx), _antitriangle(rng, ctx)
        files = [(pair, json.dumps({"first": to_obj(first), "second": to_obj(second)},
                                   sort_keys=True, separators=(",", ":")))]
        argv = ["check-band", "--in", pair]
    elif kind == "analyze":
        ctx = create_algebra(rng.randint(3, 5))
        report = rng.choice(("equivalence", "components"))
        kinds = _COMPONENT_KINDS if report == "components" else _ALL_KINDS
        choice = rng.choice(kinds + ("band",))
        if choice == "band":
            # the three descriptions provably coincide for degree one only
            degree = 1 if report == "equivalence" else rng.randint(1, 2)
            fam = random_band_components(rng, ctx, degree=degree).family("t")
        else:
            fam = make_family(choice, _alpha(rng, ctx))
        path = f"{label}-family.json"
        files = [(path, dumps(fam))]
        argv = ["analyze", "--family", path, "--report", report]
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    return Op(label, kind, tuple(argv + ["--format", "json"]), tuple(files))


def pool(workload):
    """Every operation a workload can draw, for any seed."""
    if workload in VERIFY_POOLS:
        generators, size = VERIFY_POOLS[workload]
        return [_verify_op(f"{workload}-{s}", generators, s) for s in range(size)]
    return [_oneshot_op(kind, i) for kind, _, size in ONESHOT_MIX for i in range(size)]


def operations(workload, seed):
    """The seeded operation sequence of one run; runs cycle through it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload in VERIFY_POOLS:
        ops = pool(workload)
    else:
        ops = [_oneshot_op(kind, i)
               for kind, quota, size in ONESHOT_MIX
               for i in rng.sample(range(size), quota)]
    rng.shuffle(ops)
    return ops


# -- checking outputs ----------------------------------------------------


def _verdict(kind, obj):
    """Why a parsed report is not an all-pass verdict, or None."""
    if kind == "verify":
        return None if obj["passed"] is True else "verify reports a failing check"
    if kind == "table":
        if obj["passed"] is not True or obj["unmatched"]:
            return "table does not pass"
        if obj["labels"] != EXPECTED_TABLE:
            return "table cells differ from the known answer"
        return None
    if kind == "resolvent":
        return None if obj["check"]["passed"] is True else "resolvent check fails"
    if kind == "annihilator":
        # an odd alpha squares to zero, so it lies in its own annihilator
        ok = obj["dim"] == len(obj["basis"]) >= 1
        return None if ok else "annihilator basis is empty or inconsistent"
    if kind == "orbit":
        return None if obj["defect_zero"] is True else "orbit leaves a Cauchy defect"
    if kind == "check-band":
        return None if obj["consistent"] is not False else "band routes disagree"
    if kind == "analyze":
        ok = obj["agree"] if obj["report"] == "equivalence" else obj["holds"]
        return None if ok is True else "analyze verdict fails"
    return f"no verdict rule for {kind!r}"


def check(op, pins, exit_code, stdout: bytes):
    """Why an operation failed, or None when exit code, verdict and bytes
    all match."""
    pin = pins.get(op.key)
    if pin is None:
        return f"{op.label}: no pinned output for these inputs"
    if exit_code != pin["exit"]:
        return f"{op.label}: exit code {exit_code}, pinned {pin['exit']}"
    try:
        why = _verdict(op.kind, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        why = f"unreadable report ({exc!r})"
    if why:
        return f"{op.label}: {why}"
    if hashlib.sha256(stdout).hexdigest() != pin["sha256"]:
        return f"{op.label}: output bytes differ from the pin"
    return None


def load_pins(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["ops"]
