"""Command line front end: the ``superband`` tool.

Seven subcommands cover the library surface: ``verify`` runs the seeded
identity suites, ``table`` multiplies the seven standard one-parameter
operands pairwise, ``check-band`` classifies an ordered pair of
antitriangle supermatrices, ``analyze`` evaluates the three equivalent
descriptions of a degree-one family, ``resolvent`` transforms a family
and tests its resolvent identity, ``orbit`` integrates an initial
supervector along a family, and ``annihilator`` prints the odd
annihilator basis of an element.

Reports go to stdout (or ``--out PATH``) as text or canonical JSON.  The
JSON form is deterministic: same inputs, same bytes.  Exit status is 0
when every requested identity holds, 1 when a computed identity fails,
and 2 for unusable input (bad flags, malformed files, shape or parity
violations).  ``verify`` takes its status from the ``"passed"`` of the
report dict ``suites.run_suite`` returns.  The ``SUPERBAND_SEED``
environment variable, when set, overrides ``--seed`` for ``verify``.

``main`` first calls ``gc.freeze()``.  Everything alive at that point (the
modules the interpreter and superband loaded) lives until the process
ends, yet the collections at exit would still walk it and break its
reference cycles: about 7% of the CPU of a one-shot command.  Collections
skip frozen objects, and the operating system takes their memory back at
exit.  A caller that runs ``main`` inside a longer process only keeps the
objects alive at each call out of later collections.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import MAX_GENERATORS, AlgebraContext, annihilator_odd, create_algebra
from .config import FAMILY_KINDS, FORMATS, SUITES, SuiteConfig
from .errors import ConfigError, ParseError, SuperbandError
from .serialize import dumps, load_value, parse_input, read_json, to_obj
# every other module (supermatrix, poly, families, evolution, suites, gamma,
# analysis) is imported by the handlers that use it, so a process compiles
# only the modules its subcommand needs.
if TYPE_CHECKING:
    from .families import ParamSuperMatrix

RESOLVENT_CHECKS = ("rrt", "rra")
ANALYZE_REPORTS = ("equivalence", "components")

_ALPHA_TOKEN = re.compile(r"xi[0-9]+|[0-9]+(?:/[0-9]+)?|[+-]")


# -- alpha expressions -------------------------------------------------


def parse_alpha(text: str, ctx: AlgebraContext):
    """Grassmann element from a compact expression.

    Accepts sums of terms such as ``"xi1"``, ``"-xi2"`` or
    ``"2 xi1 + 1/2 xi2*xi3"``: each term is an optional rational
    coefficient times generators ``xiK`` joined by ``*`` or whitespace.
    """
    source = text.replace("*", " ")
    junk = _ALPHA_TOKEN.sub(" ", source).split()
    if junk:
        raise ParseError(f"unexpected text in alpha expression: {junk[0]!r}")
    tokens = _ALPHA_TOKEN.findall(source)
    if not tokens:
        raise ParseError("empty alpha expression")

    total = ctx.zero()
    term = None
    sign = 1
    for tok in tokens:
        if tok in "+-":
            if term is not None:
                total, term, sign = total + term * sign, None, 1
            if tok == "-":
                sign = -sign
        elif tok.startswith("xi"):
            try:
                k = int(tok[2:])
            except ValueError:  # more digits than int() converts
                raise ParseError(f"generator index too long in {tok[:12]!r}...") from None
            if not 1 <= k <= ctx.n:
                raise ParseError(f"generator xi{k} outside 1..{ctx.n}")
            factor = ctx.gen(k)
            term = factor if term is None else term * factor
        else:
            try:
                factor = ctx.scalar(Fraction(tok))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in coefficient {tok!r}") from None
            except ValueError:  # more digits than int() converts
                raise ParseError(f"coefficient too long: {tok[:12]!r}...") from None
            term = factor if term is None else term * factor
    if term is None:
        raise ParseError("alpha expression ends with a dangling sign")
    return total + term * sign


# -- shared input helpers ----------------------------------------------


def _effective_seed(args) -> int:
    env = os.environ.get("SUPERBAND_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(
                f"SUPERBAND_SEED must be an integer, got {env!r}"
            ) from None
    return args.seed


def _read_family(path: str) -> ParamSuperMatrix:
    """A serialized family; a constant supermatrix counts as one."""
    from .families import ParamSuperMatrix
    from .supermatrix import SuperMatrix

    value = parse_input(path)
    if isinstance(value, SuperMatrix):
        value = ParamSuperMatrix.from_supermatrix(value)
    if not isinstance(value, ParamSuperMatrix):
        raise ParseError(f"{path}: expected a parametric supermatrix")
    return value


def _family_from_arg(args) -> ParamSuperMatrix:
    """--family accepts a named kind, built with --alpha over an algebra of
    --generators, or a path to a serialized family; either way --generators
    and --alpha (odd) are checked."""
    from .families import _family_alpha, make_family

    alpha = _family_alpha(parse_alpha(args.alpha, create_algebra(args.generators)))
    if args.family in FAMILY_KINDS:
        return make_family(args.family, alpha)
    return _read_family(args.family)


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- verify ------------------------------------------------------------


def _cmd_verify(args):
    from .suites import render_text, run_suite

    cfg = SuiteConfig(
        generators=args.generators,
        seed=_effective_seed(args),
        suite=args.suite,
        samples=args.samples,
    )
    report = run_suite(cfg)
    return report, render_text(report), 0 if report["passed"] else 1


# -- table -------------------------------------------------------------


def _cmd_table(args):
    from .families import cayley_table_verify

    ctx = create_algebra(args.generators)
    alpha = parse_alpha(args.alpha, ctx)
    report = cayley_table_verify(alpha)
    labels = [
        [report.computed[(row, col)] for col in report.operands]
        for row in report.operands
    ]
    matrices = [
        [to_obj(report.products[(row, col)]) for col in report.operands]
        for row in report.operands
    ]
    discrepancies = [
        {"row": row, "column": col, "computed": computed, "reference": expected}
        for row, col, computed, expected in sorted(report.discrepancies)
    ]
    passed = report.matches_known
    obj = {
        "alpha": to_obj(alpha),
        "operands": list(report.operands),
        "labels": labels,
        "reference": [list(report.reference[row]) for row in report.operands],
        "matrices": matrices,
        "discrepancies": discrepancies,
        "unmatched": [
            {"row": row, "column": col} for row, col in sorted(report.unmatched)
        ],
        "passed": passed,
    }
    return obj, _table_text(alpha, report, passed), 0 if passed else 1


def _table_text(alpha, report, passed) -> str:
    cells = {}
    width = max(len(lbl) for lbl in report.operands)
    for row in report.operands:
        for idx, col in enumerate(report.operands):
            label = report.computed[(row, col)] or "?"
            if label != report.reference[row][idx]:
                label += "*"
            cells[(row, col)] = label
            width = max(width, len(label))
    lines = [f"alpha: {alpha}"]
    header = " " * (width + 1) + "| " + " ".join(
        col.ljust(width) for col in report.operands
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.operands:
        body = " ".join(cells[(row, col)].ljust(width) for col in report.operands)
        lines.append(f"{row.ljust(width)} | {body}")
    if report.discrepancies:
        lines.append("cells differing from the reference rows (marked *):")
        for row, col, computed, expected in sorted(report.discrepancies):
            lines.append(f"  {row} x {col}: computed {computed}, stored {expected}")
    if report.unmatched:
        lines.append("products matching no named form:")
        for row, col in sorted(report.unmatched):
            lines.append(f"  {row} x {col}")
    lines.append(f"result: {'pass' if passed else 'FAIL'}")
    return "\n".join(lines)


# -- check-band --------------------------------------------------------


def _cmd_check_band(args):
    from .gamma import band_pair_check, band_pair_components
    from .supermatrix import SuperMatrix

    data = read_json(args.in_path)
    if not isinstance(data, dict) or set(data) != {"first", "second"}:
        raise ParseError('check-band input must be {"first": ..., "second": ...}')
    first = load_value(data["first"])
    second = load_value(data["second"])
    if not isinstance(first, SuperMatrix) or not isinstance(second, SuperMatrix):
        raise ParseError("check-band operands must be constant supermatrices")
    relation = band_pair_check(first, second)
    conditions = band_pair_components(first, second)
    shared_delta = first.block_delta() == second.block_delta()
    # With equal lower-left blocks the four conditions say exactly MN = M,
    # so the two routes must agree; with different blocks they need not.
    consistent = None
    if shared_delta:
        consistent = all(conditions.values()) == (relation in ("left_zero", "both"))
    obj = {
        "relation": relation,
        "component_conditions": dict(conditions),
        "shared_delta": shared_delta,
        "consistent": consistent,
    }
    lines = [f"relation: {relation}", "component conditions:"]
    for name, ok in conditions.items():
        lines.append(f"  {name}: {_flag(ok)}")
    lines.append(f"shared delta blocks: {_flag(shared_delta)}")
    if consistent is not None:
        lines.append(f"routes consistent: {_flag(consistent)}")
    code = 1 if consistent is False else 0
    return obj, "\n".join(lines), code


# -- analyze -----------------------------------------------------------


def _cmd_analyze(args):
    fam = _read_family(args.family)
    if args.report == "components":
        return _analyze_components(fam)
    return _analyze_equivalence(fam)


def _analyze_equivalence(fam):
    from .analysis import EquivalenceReport, equivalence_sides

    components, sides = equivalence_sides(fam)
    rep = EquivalenceReport.from_sides(sides)
    degree = components.degree
    relations = rep._asdict()
    # a failing relation's counterexample is the difference of its sides
    counter = {
        name: left - right
        for name, (left, right) in sides.items()
        if not relations[name]
    }
    obj = {
        "report": "equivalence",
        "degree": degree,
        "relations": relations,
        "agree": rep.agree,
        "counterexamples": {name: to_obj(value) for name, value in counter.items()},
    }
    lines = ["report: equivalence", f"degree: {degree}"]
    for name, held in relations.items():
        indent = "" if name in ("band", "functional", "differential") else "  "
        lines.append(f"{indent}{name}: {_flag(held)}")
    lines.append(f"agree: {_flag(rep.agree)}")
    if counter:
        failed = ", ".join(sorted(counter))
        lines.append(f"counterexample matrices available (json format): {failed}")
    return obj, "\n".join(lines), 0 if rep.agree else 1


def _analyze_components(fam):
    from .analysis import band_component_system_check, components_of

    comp = components_of(fam)
    sys_rep = band_component_system_check(comp)
    obj = {
        "report": "components",
        "degree": comp.degree,
        "components": [to_obj(k) for k in comp.components],
        "holds": sys_rep.holds,
        "failures": [
            {"relation": name, "indices": list(indices)}
            for name, indices in sys_rep.failures
        ],
    }
    lines = [
        "report: components",
        f"degree: {comp.degree}",
        f"band relation system: {'holds' if sys_rep.holds else 'FAILS'}",
    ]
    for name, indices in sys_rep.failures:
        where = ", ".join(str(i) for i in indices)
        lines.append(f"  {name}({where})" if where else f"  {name}")
    return obj, "\n".join(lines), 0 if sys_rep.holds else 1


# -- resolvent ---------------------------------------------------------


def _cmd_resolvent(args):
    from .evolution import laplace, resolvent_defect, resolvent_tail

    fam = _family_from_arg(args)
    r = laplace(fam)
    defect = resolvent_defect(r)
    obj = {
        "family": args.family,
        "resolvent": to_obj(r),
        "defect": to_obj(defect),
        "defect_zero": defect.is_zero(),
        "check": None,
    }
    lines = [f"family: {args.family}", "resolvent:"]
    for i, row in enumerate(r.rows):
        for j, entry in enumerate(row):
            lines.append(f"  [{i}][{j}] {entry!r}")
    lines.append(f"defect zero: {_flag(defect.is_zero())}")
    if args.check is None:
        return obj, "\n".join(lines), 0
    if args.check == "rrt":
        ok = defect.is_zero()
    else:
        tail = resolvent_tail(fam)
        ok = defect == tail
        obj["expected_tail"] = to_obj(tail)
    obj["check"] = {"label": args.check, "passed": ok}
    lines.append(f"{args.check}: {'pass' if ok else 'FAIL'}")
    return obj, "\n".join(lines), 0 if ok else 1


# -- orbit -------------------------------------------------------------


def _cmd_orbit(args):
    from .evolution import cauchy_defect, moving_time_check, orbit
    from .supermatrix import SuperVector

    x0 = parse_input(args.x0)
    if not isinstance(x0, SuperVector):
        raise ParseError(f"{args.x0}: expected a supervector")
    fam = _family_from_arg(args)
    traj = orbit(fam, x0)
    defect = cauchy_defect(fam, x0)
    law = None
    if "s" not in fam.variables():
        law = moving_time_check(fam)
    obj = {
        "family": args.family,
        "orbit": to_obj(traj),
        "cauchy_defect": to_obj(defect),
        "defect_zero": defect.is_zero(),
        "law": law,
    }
    lines = [f"family: {args.family}", "orbit:"]
    for label, entries in (("even", traj.even), ("odd", traj.odd)):
        for poly in entries:
            lines.append(f"  {label}: {poly}")
    lines.append(f"cauchy defect zero: {_flag(defect.is_zero())}")
    if law is not None:
        lines.append(f"product law: {law}")
    return obj, "\n".join(lines), 0 if defect.is_zero() else 1


# -- annihilator -------------------------------------------------------


def _cmd_annihilator(args):
    ctx = create_algebra(args.generators)
    alpha = parse_alpha(args.alpha, ctx)
    basis = annihilator_odd([alpha], ctx)
    sound = all((b * alpha).is_zero() for b in basis.basis)
    obj = {
        "alpha": to_obj(alpha),
        "dim": basis.dim,
        "basis": [to_obj(b) for b in basis.basis],
    }
    lines = [f"alpha: {alpha}", f"dimension: {basis.dim}", "basis:"]
    for b in basis.basis:
        lines.append(f"  {b}")
    return obj, "\n".join(lines), 0 if sound else 1


# -- wiring ------------------------------------------------------------

_HANDLERS = {
    "verify": _cmd_verify,
    "table": _cmd_table,
    "check-band": _cmd_check_band,
    "analyze": _cmd_analyze,
    "resolvent": _cmd_resolvent,
    "orbit": _cmd_orbit,
    "annihilator": _cmd_annihilator,
}


def _add_output_flags(sub):
    sub.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    sub.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )


def _add_generators_flag(sub):
    sub.add_argument(
        "--generators",
        type=int,
        default=4,
        metavar="N",
        help=f"number of Grassmann generators, 1..{MAX_GENERATORS} (default: 4)",
    )


def _add_alpha_flag(sub, required=False):
    sub.add_argument(
        "--alpha",
        default=None if required else "xi1",
        required=required,
        metavar="EXPR",
        help='odd element expression, e.g. "xi1" or "2 xi1 + 1/2 xi2*xi3"',
    )


def _add_family_source_flags(sub):
    """--family, --alpha and --generators, which ``_family_from_arg`` reads."""
    sub.add_argument(
        "--family",
        required=True,
        metavar="NAME|PATH",
        help=f"named kind ({', '.join(FAMILY_KINDS)}) or serialized family",
    )
    _add_alpha_flag(sub)
    _add_generators_flag(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superband",
        description="Exact checks for one-parameter supermatrix families.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("verify", help="run the seeded identity suites")
    _add_generators_flag(p)
    p.add_argument("--seed", type=int, default=0, help="suite seed (default: 0)")
    p.add_argument(
        "--suite",
        default="all",
        choices=SUITES + ("all",),
        help="which suite to run (default: all)",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=200,
        metavar="K",
        help="random samples per suite (default: 200)",
    )
    _add_output_flags(p)

    p = sub.add_parser("table", help="multiply the seven standard operands")
    _add_generators_flag(p)
    _add_alpha_flag(p)
    _add_output_flags(p)

    p = sub.add_parser(
        "check-band", help="classify an ordered pair of antitriangle matrices"
    )
    p.add_argument(
        "--in",
        dest="in_path",
        required=True,
        metavar="PATH",
        help='JSON file {"first": matrix, "second": matrix}',
    )
    _add_output_flags(p)

    p = sub.add_parser(
        "analyze", help="evaluate the band / functional / differential views"
    )
    p.add_argument(
        "--family",
        required=True,
        metavar="PATH",
        help="serialized parametric supermatrix",
    )
    p.add_argument(
        "--report",
        choices=ANALYZE_REPORTS,
        default="equivalence",
        help="which report to produce (default: equivalence)",
    )
    _add_output_flags(p)

    p = sub.add_parser(
        "resolvent", help="transform a family and test resolvent identities"
    )
    _add_family_source_flags(p)
    p.add_argument(
        "--check",
        choices=RESOLVENT_CHECKS,
        default=None,
        help="identity to assert on the defect",
    )
    _add_output_flags(p)

    p = sub.add_parser("orbit", help="apply a family to an initial supervector")
    p.add_argument(
        "--x0",
        required=True,
        metavar="PATH",
        help="serialized initial supervector",
    )
    _add_family_source_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("annihilator", help="odd annihilator basis of an element")
    _add_alpha_flag(p, required=True)
    _add_generators_flag(p)
    _add_output_flags(p)

    return parser


def main(argv=None) -> int:
    gc.freeze()  # what exists now lives until exit: spare the collector it
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        obj, text, code = _HANDLERS[args.command](args)
        payload = dumps(obj) if args.format == "json" else text
        _emit(payload, args.out)
        return code
    except (SuperbandError, OSError) as exc:
        print(f"superband: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
