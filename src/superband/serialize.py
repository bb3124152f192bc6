"""Strict JSON forms for every value the command line reads or writes.

Dumps are canonical: object keys sorted, compact separators, and term lists
in their natural order (monomials in tuple order, polynomial terms by
(t, s) degree, Laurent terms by inverse exponent).  Polynomials and Laurent
values share one term-list form, {"c": element, <exponent names>}, with the
names and bounds of their kind: "t", "s" in 0..MAX_VAR_DEGREE, or "iz",
"iw" of any integer value.  The parser accepts exactly the canonical shape
— wrong key sets, unsorted or duplicated terms, and malformed rationals
raise ParseError — while parity, shape, and algebra-mismatch violations
surface as the constructing module's own errors.

An element is {"n": 3, "terms": [{"idx": [1, 2], "c": "-1/2"}]} with
rationals as strings of ASCII digits, -?digits(/digits)?.  A constant
supermatrix is {"p", "q", "rows"} with element entries.  Containers whose
entries are bare term lists (parametric and Laurent matrices, parametric
supervectors) carry a top-level "n", because an all-zero entry is an empty
list with no element object to name the algebra.  A zero parametric matrix
and a zero Laurent matrix share one canonical form; sniffing resolves it as
parametric.  A polynomial or a Laurent value on its own is tagged with its
kind: {"n": 3, "poly": terms} or {"laurent": terms, "n": 3}.

Elements come from ``algebra``, which this module imports.  Every other
value has one of three shapes, named by the base class it derives from: a
graded matrix (``supermatrix.GradedMatrix``), a graded vector
(``supermatrix.GradedVector``) or a term list (``poly.SparsePoly``).  One
walker writes and reads both graded shapes; the class attribute ``_entry``,
the entry ring, tells it whether the entries are elements or term lists, and
one codec serves both term-list kinds.  A dumped value's base is found by
its qualified name, and load_value imports the concrete class it builds only
then, so a process loads only the modules of the kinds it reads or makes.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    MAX_GENERATORS, GrassmannElement, _coefficient_str, _int_arg, _mask, _unchecked,
    create_algebra,
)
from .errors import ConfigError, ParseError

# ---------------------------------------------------------------------------
# shared validation helpers
# ---------------------------------------------------------------------------


def _require_keys(obj, keys, what):
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(obj).__name__}")
    got, want = set(obj), set(keys)
    if got != want:
        missing = ", ".join(sorted(want - got))
        extra = ", ".join(sorted(got - want))
        detail = "; ".join(
            part
            for part in (
                f"missing {missing}" if missing else "",
                f"unexpected {extra}" if extra else "",
            )
            if part
        )
        raise ParseError(f"{what} must have exactly keys {sorted(want)} ({detail})")
    return obj


def _int(value, what, minimum=None, maximum=None):
    try:
        return _int_arg(value, what, minimum, maximum)
    except ConfigError as exc:
        raise ParseError(str(exc)) from None


#: the only rational form dumps writes; Fraction() alone would also take
#: spaces, signs, underscores, decimals and exponents, and "1e4000000" costs
#: seconds to expand
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


# Fractions are immutable, so one parsed value can serve every repeat of a
# coefficient string; strings that fail to parse are not cached.
@lru_cache(maxsize=1024)
def _parse_fraction(text):
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError(text)
    return Fraction(text)


def _rational(value, what) -> Fraction:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a rational string like '-1/2', got {value!r}")
    try:
        return _parse_fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} is not a rational like '-1/2': {value!r}") from None


def _list(value, what):
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _grid(obj, what):
    rows = _list(obj["rows"], f"{what} rows")
    if not rows:
        raise ParseError(f"{what} rows must be nonempty")
    for row in rows:
        _list(row, f"{what} row")
    return rows


def _context(obj, what):
    return create_algebra(_int(obj["n"], f"{what} generator count", 1, MAX_GENERATORS))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def dump_element(x: GrassmannElement) -> dict:
    return {
        "n": x.ctx.n,
        "terms": [
            {"c": _coefficient_str(c), "idx": list(idx)} for idx, c in x.sorted_terms()
        ],
    }


def load_element(obj) -> GrassmannElement:
    _require_keys(obj, ("n", "terms"), "element")
    ctx = _context(obj, "element")
    terms = {}
    previous = None
    for entry in _list(obj["terms"], "element terms"):
        _require_keys(entry, ("c", "idx"), "element term")
        try:
            idx = ctx._check_index(_list(entry["idx"], "monomial index list"))
        except ConfigError as exc:
            raise ParseError(str(exc)) from None
        if previous is not None and idx <= previous:
            raise ParseError(
                f"element terms must be strictly ascending; {list(idx)} repeats or"
                " precedes an earlier monomial"
            )
        previous = idx
        c = _rational(entry["c"], "coefficient")
        if c:
            terms[_mask(idx)] = c
    # indices, order and coefficients are checked above, so the terms are
    # already canonical
    return _unchecked(GrassmannElement, ctx, terms)


# ---------------------------------------------------------------------------
# term lists: polynomials in t and s, Laurent values in z and w
# ---------------------------------------------------------------------------

#: the tag of a term list on its own, by the first exponent name of its kind
_TAGS = {"t": "poly", "iz": "laurent"}


def _dump_terms(x) -> list:
    """The term list of a GrassmannPoly or LaurentScalar, each term keyed by
    the kind's exponent names."""
    a, b = x.KEYWORDS
    return [
        {"c": dump_element(c), a: ea, b: eb} for (ea, eb), c in x.sorted_terms()
    ]


def _load_terms(entries, ctx, cls):
    """Inverse of _dump_terms for the term-list kind ``cls``: exponents
    within ``cls.BOUNDS``, terms strictly ascending."""
    a, b = cls.KEYWORDS
    lo, hi = cls.BOUNDS
    noun = cls.__name__
    terms = {}
    previous = None
    for entry in _list(entries, f"{noun} terms"):
        _require_keys(entry, ("c", a, b), f"{noun} term")
        ea = _int(entry[a], f"{a} exponent", minimum=lo, maximum=hi)
        eb = _int(entry[b], f"{b} exponent", minimum=lo, maximum=hi)
        if previous is not None and (ea, eb) <= previous:
            raise ParseError(
                f"{noun} terms must be strictly ascending by ({a}, {b});"
                f" ({ea}, {eb}) repeats or precedes an earlier term"
            )
        previous = (ea, eb)
        terms[previous] = load_element(entry["c"])
    return cls(ctx, terms)


# ---------------------------------------------------------------------------
# the graded walker: matrices and vectors over any entry ring
# ---------------------------------------------------------------------------


def _dump_graded(x, matrix) -> dict:
    """{"p", "q", "rows"} for a graded matrix or {"even", "odd"} for a graded
    vector, plus "n" when the entries are term lists: an all-zero entry is an
    empty list, with no element to name the algebra."""
    if x._entry is GrassmannElement:
        dump, out = dump_element, {}
    else:
        dump, out = _dump_terms, {"n": x.ctx.n}
    if matrix:
        out.update(p=x.p, q=x.q, rows=[[dump(e) for e in row] for row in x.rows])
    else:
        out.update(even=[dump(e) for e in x.even], odd=[dump(e) for e in x.odd])
    return out


def _load_graded(obj, cls):
    """Inverse of _dump_graded for the concrete class ``cls``; load_value has
    already matched the key set."""
    what = cls.__name__
    entry = cls._entry
    ctx = None if entry is GrassmannElement else _context(obj, what)

    def load(x):
        return load_element(x) if ctx is None else _load_terms(x, ctx, entry)

    if "rows" in obj:
        p = _int(obj["p"], "p", minimum=1)
        q = _int(obj["q"], "q", minimum=1)
        return cls(p, q, [[load(x) for x in row] for row in _grid(obj, what)])
    return cls(
        [load(x) for x in _list(obj["even"], "even slots")],
        [load(x) for x in _list(obj["odd"], "odd slots")],
    )


# ---------------------------------------------------------------------------
# whole-value dispatch
# ---------------------------------------------------------------------------


def to_obj(value):
    """The canonical JSON-ready object for any serializable value.

    JSON-ready input (a report dict, say) is returned as it is.
    """
    if isinstance(value, GrassmannElement):
        return dump_element(value)
    if isinstance(value, (dict, list, str, int, bool)) or value is None:
        return value
    # a dumped value's class is already loaded, so naming its base imports nothing
    for kind in type(value).__mro__:
        name = f"{kind.__module__}.{kind.__qualname__}"
        if name == "superband.supermatrix.GradedMatrix":
            return _dump_graded(value, matrix=True)
        if name == "superband.supermatrix.GradedVector":
            return _dump_graded(value, matrix=False)
        if name == "superband.poly.SparsePoly":
            return {"n": value.ctx.n, _TAGS[value.KEYWORDS[0]]: _dump_terms(value)}
    raise ConfigError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Deterministic canonical JSON text."""
    return json.dumps(to_obj(value), sort_keys=True, separators=(",", ":"))


def load_value(obj):
    """Recover a value from its canonical object form by shape sniffing."""
    if not isinstance(obj, dict):
        raise ParseError(
            "top-level value must be a JSON object (element, matrix, or vector)"
        )
    keys = set(obj)
    if keys == {"n", "terms"}:
        return load_element(obj)
    if keys == {"p", "q", "rows"}:
        from .supermatrix import SuperMatrix

        return _load_graded(obj, SuperMatrix)
    if keys == {"even", "odd"}:
        from .supermatrix import SuperVector

        return _load_graded(obj, SuperVector)
    if keys == {"even", "n", "odd"}:
        from .families import ParamSuperVector

        return _load_graded(obj, ParamSuperVector)
    if keys == {"n", "poly"}:
        from .poly import GrassmannPoly

        return _load_terms(obj["poly"], _context(obj, "polynomial"), GrassmannPoly)
    if keys == {"laurent", "n"}:
        from .poly import LaurentScalar

        return _load_terms(obj["laurent"], _context(obj, "Laurent value"), LaurentScalar)
    if keys == {"n", "p", "q", "rows"}:
        # the first term of any entry tells the kind; an all-zero grid, with
        # no term at all, reads as parametric
        terms = (
            term
            for row in _grid(obj, "matrix")
            for entry in row
            for term in _list(entry, "matrix entry")
        )
        first = next(terms, None)
        if isinstance(first, dict) and "iz" in first:
            from .evolution import LaurentMatrix

            return _load_graded(obj, LaurentMatrix)
        from .families import ParamSuperMatrix

        return _load_graded(obj, ParamSuperMatrix)
    raise ParseError(
        f"unrecognized value shape with keys {sorted(keys)}; expected an element,"
        " a (parametric or Laurent) supermatrix, a supervector, a polynomial or"
        " a Laurent value"
    )


def load_json(text: str):
    """json.loads of str or bytes ``text`` (else ConfigError), each refusal a
    ParseError: a syntax error carries its byte offset, and nesting too deep
    for the decoder or an integer too long to convert is refused as well."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise ConfigError(f"text must be a str, bytes or bytearray, got {type(text).__name__}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", offset=exc.pos) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise ParseError("invalid JSON: an integer has too many digits") from None


def read_json(path):
    """The JSON value in a file of UTF-8 text, named by a str or os.PathLike
    (``open`` would take an int for a file descriptor, read it and close it)."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    return load_json(text)


def loads(text: str):
    """Parse canonical JSON text into a value."""
    return load_value(load_json(text))


def parse_input(path):
    """Read one canonical JSON value from a file."""
    return load_value(read_json(path))
