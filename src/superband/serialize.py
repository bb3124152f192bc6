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
rationals as strings.  A constant supermatrix is {"p", "q", "rows"} with
element entries.  Containers whose entries are bare term lists (parametric
and Laurent matrices, parametric supervectors) carry a top-level "n",
because an all-zero entry is an empty list with no element object to name
the algebra.  A zero parametric matrix and a zero Laurent matrix share one
canonical form; sniffing resolves it as parametric.  A polynomial or a
Laurent value on its own is tagged with its kind: {"n": 3, "poly": terms}
or {"laurent": terms, "n": 3}.

Elements come from ``algebra``, which this module imports.  The matrix,
vector and polynomial classes are imported only by the loaders that build
them, and a dumped value's class is looked up by name, so a process loads
only the modules of the kinds it reads or makes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .algebra import GrassmannElement, create_algebra
from .errors import ConfigError, ParseError

if TYPE_CHECKING:
    from .evolution import LaurentMatrix
    from .families import ParamSuperMatrix, ParamSuperVector
    from .poly import GrassmannPoly, LaurentScalar
    from .supermatrix import SuperMatrix, SuperVector

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
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParseError(f"{what} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ParseError(f"{what} must be at most {maximum}, got {value}")
    return value


# Fractions are immutable, so one parsed value can serve every repeat of a
# coefficient string; strings that fail to parse are not cached.
_parse_fraction = lru_cache(maxsize=1024)(Fraction)


def _rational(value, what) -> Fraction:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a rational string like '-1/2', got {value!r}")
    try:
        return _parse_fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} is not a rational: {value!r}") from None


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
    n = _int(obj["n"], f"{what} generator count")
    try:
        return create_algebra(n)
    except ConfigError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def dump_element(x: GrassmannElement) -> dict:
    return {
        "n": x.ctx.n,
        "terms": [
            {"c": str(c), "idx": list(idx)} for idx, c in x.sorted_terms()
        ],
    }


def _monomial(raw, n):
    """The index tuple of a JSON index list: integers in 1..n, strictly
    increasing."""
    last = 0
    for i in raw:
        if type(i) is not int or i <= last:
            break
        last = i
    else:
        if last <= n:
            return tuple(raw)
    # not plainly valid: check entry by entry to report the first fault
    idx = tuple(_int(i, "monomial index", minimum=1, maximum=n) for i in raw)
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ParseError(f"monomial indices must be strictly increasing: {list(idx)}")
    return idx


def load_element(obj) -> GrassmannElement:
    _require_keys(obj, ("n", "terms"), "element")
    ctx = _context(obj, "element")
    terms = {}
    previous = None
    for entry in _list(obj["terms"], "element terms"):
        _require_keys(entry, ("c", "idx"), "element term")
        idx = _monomial(_list(entry["idx"], "monomial index list"), ctx.n)
        if previous is not None and idx <= previous:
            raise ParseError(
                f"element terms must be strictly ascending; {list(idx)} repeats or"
                " precedes an earlier monomial"
            )
        previous = idx
        c = _rational(entry["c"], "coefficient")
        if c:
            terms[idx] = c
    # indices, order and coefficients are checked above, so the terms are
    # already canonical
    return GrassmannElement(ctx, terms)


# ---------------------------------------------------------------------------
# the graded-matrix walker, constant supermatrices and supervectors
# ---------------------------------------------------------------------------


def _dump_grid(m, dump_entry) -> dict:
    """The {"p", "q", "rows"} form of any graded matrix."""
    return {
        "p": m.p,
        "q": m.q,
        "rows": [[dump_entry(x) for x in row] for row in m.rows],
    }


def _load_grid(obj, cls, what, load_entry, keys=("n", "p", "q", "rows")):
    """Inverse of _dump_grid: ``load_entry(entry, ctx)`` reads one entry, with
    ``ctx`` taken from "n", or None when ``keys`` has no "n"."""
    _require_keys(obj, keys, what)
    ctx = _context(obj, what) if "n" in keys else None
    p = _int(obj["p"], "p", minimum=1)
    q = _int(obj["q"], "q", minimum=1)
    rows = [[load_entry(x, ctx) for x in row] for row in _grid(obj, what)]
    return cls(p, q, rows)


def dump_matrix(m: SuperMatrix) -> dict:
    return _dump_grid(m, dump_element)


def load_matrix(obj) -> SuperMatrix:
    from .supermatrix import SuperMatrix

    return _load_grid(
        obj, SuperMatrix, "supermatrix", lambda x, ctx: load_element(x),
        keys=("p", "q", "rows"),
    )


def dump_supervector(v: SuperVector) -> dict:
    return {
        "even": [dump_element(x) for x in v.even],
        "odd": [dump_element(x) for x in v.odd],
    }


def load_supervector(obj) -> SuperVector:
    from .supermatrix import SuperVector

    _require_keys(obj, ("even", "odd"), "supervector")
    return SuperVector(
        [load_element(x) for x in _list(obj["even"], "even slots")],
        [load_element(x) for x in _list(obj["odd"], "odd slots")],
    )


# ---------------------------------------------------------------------------
# term lists: polynomials in t and s, Laurent values in z and w
# ---------------------------------------------------------------------------


def _dump_terms(x) -> list:
    """The term list of a GrassmannPoly or LaurentScalar, each term keyed by
    the kind's exponent names."""
    a, b = x.KEYWORDS
    return [
        {"c": dump_element(c), a: ea, b: eb} for (ea, eb), c in x.sorted_terms()
    ]


def _load_terms(entries, ctx, cls, what, noun):
    """Inverse of _dump_terms: exponents within ``cls.BOUNDS``, terms strictly
    ascending; ``what`` names the list and ``noun`` its terms in errors."""
    a, b = cls.KEYWORDS
    lo, hi = cls.BOUNDS
    terms = {}
    previous = None
    for entry in _list(entries, what):
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


# each value carries its kind, so one dumper serves both
dump_poly = dump_laurent_scalar = _dump_terms


def load_poly(entries, ctx) -> GrassmannPoly:
    from .poly import GrassmannPoly

    return _load_terms(entries, ctx, GrassmannPoly, "polynomial", "polynomial")


def load_laurent_scalar(entries, ctx) -> LaurentScalar:
    from .poly import LaurentScalar

    return _load_terms(entries, ctx, LaurentScalar, "Laurent scalar", "Laurent")


def dump_poly_value(x: GrassmannPoly) -> dict:
    """A polynomial on its own: its term list tagged "poly", with "n"."""
    return {"n": x.ctx.n, "poly": _dump_terms(x)}


def dump_laurent_value(x: LaurentScalar) -> dict:
    """A Laurent value on its own: its term list tagged "laurent", with "n"."""
    return {"laurent": _dump_terms(x), "n": x.ctx.n}


def dump_param_matrix(m: ParamSuperMatrix) -> dict:
    return {"n": m.ctx.n, **_dump_grid(m, dump_poly)}


def load_param_matrix(obj) -> ParamSuperMatrix:
    from .families import ParamSuperMatrix

    return _load_grid(obj, ParamSuperMatrix, "parametric supermatrix", load_poly)


def dump_param_supervector(v: ParamSuperVector) -> dict:
    return {
        "even": [dump_poly(x) for x in v.even],
        "n": v.ctx.n,
        "odd": [dump_poly(x) for x in v.odd],
    }


def load_param_supervector(obj) -> ParamSuperVector:
    from .families import ParamSuperVector

    _require_keys(obj, ("even", "n", "odd"), "parametric supervector")
    ctx = _context(obj, "parametric supervector")
    return ParamSuperVector(
        [load_poly(x, ctx) for x in _list(obj["even"], "even slots")],
        [load_poly(x, ctx) for x in _list(obj["odd"], "odd slots")],
    )


def dump_laurent_matrix(m: LaurentMatrix) -> dict:
    return {"n": m.ctx.n, **_dump_grid(m, dump_laurent_scalar)}


def load_laurent_matrix(obj) -> LaurentMatrix:
    from .evolution import LaurentMatrix

    return _load_grid(obj, LaurentMatrix, "Laurent matrix", load_laurent_scalar)


# ---------------------------------------------------------------------------
# whole-value dispatch
# ---------------------------------------------------------------------------


#: the dumper of every serializable kind but elements, by the qualified name
#: of its class; a dumped value's class is already loaded, so the lookup
#: imports nothing
_DUMPERS = {
    "superband.supermatrix.SuperMatrix": dump_matrix,
    "superband.supermatrix.SuperVector": dump_supervector,
    "superband.families.ParamSuperMatrix": dump_param_matrix,
    "superband.families.ParamSuperVector": dump_param_supervector,
    "superband.evolution.LaurentMatrix": dump_laurent_matrix,
    "superband.poly.GrassmannPoly": dump_poly_value,
    "superband.poly.LaurentScalar": dump_laurent_value,
}


def to_obj(value):
    """The canonical JSON-ready object for any serializable value.

    JSON-ready input (a report dict, say) is returned as it is.
    """
    if isinstance(value, GrassmannElement):
        return dump_element(value)
    if isinstance(value, (dict, list, str, int, bool)) or value is None:
        return value
    for kind in type(value).__mro__:
        dump = _DUMPERS.get(f"{kind.__module__}.{kind.__qualname__}")
        if dump is not None:
            return dump(value)
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
        return load_matrix(obj)
    if keys == {"even", "odd"}:
        return load_supervector(obj)
    if keys == {"even", "n", "odd"}:
        return load_param_supervector(obj)
    if keys == {"n", "poly"}:
        return load_poly(obj["poly"], _context(obj, "polynomial"))
    if keys == {"laurent", "n"}:
        return load_laurent_scalar(obj["laurent"], _context(obj, "Laurent scalar"))
    if keys == {"n", "p", "q", "rows"}:
        for row in _grid(obj, "matrix"):
            for entry in row:
                for term in _list(entry, "matrix entry"):
                    if isinstance(term, dict) and "iz" in term:
                        return load_laurent_matrix(obj)
                    return load_param_matrix(obj)
        return load_param_matrix(obj)
    raise ParseError(
        f"unrecognized value shape with keys {sorted(keys)}; expected an element,"
        " a (parametric or Laurent) supermatrix, a supervector, a polynomial or"
        " a Laurent value"
    )


def load_json(text: str):
    """json.loads with every refusal mapped to ParseError: a syntax error
    carries its byte offset, and nesting too deep for the decoder or an
    integer too long to convert is refused as well."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", offset=exc.pos) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise ParseError("invalid JSON: an integer has too many digits") from None


def read_json(path):
    """The JSON value in a file of UTF-8 text."""
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
