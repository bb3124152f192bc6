"""Sparse polynomials in two central variables with Grassmann coefficients.

The variables commute with everything (they model real time values), so a
value is just a dict mapping an exponent pair to a nonzero
GrassmannElement.  SparsePoly derives from ``algebra._Sparse``, the base it
shares with GrassmannElement, which holds the immutable storage, operand
coercion, + and the arithmetic that follows from +, unary - and *.
SparsePoly supplies the two hooks of coercion and + (``_lift`` is
``constant``; ``_merge_into`` adds term by term with ``_add_at``) and holds
the checks and the rest of the ring arithmetic of the kinds once, and each
sibling subclass fixes the variables and the exponent policy:

    GrassmannPoly   polynomials in t and s, exponents 0..MAX_VAR_DEGREE
    LaurentScalar   Laurent sums in z and w, any integer inverse exponent

The degree cap of GrassmannPoly catches runaway symbolic composition early;
it is high enough for every flow in this package (degree-8 component
families and the order-8 smoothing chain).  The two kinds never mix in
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .algebra import (
    EVEN, AlgebraContext, GrassmannElement, _context_arg, _dict_arg, _graded_arg, _Rational,
    _Sparse, _unchecked,
)
from .errors import ConfigError

MAX_VAR_DEGREE = 9

_CONSTANT = (0, 0)


def _raised(op, name, e):
    """``op`` name^e for e >= 0, printing nothing for e = 0 and no ^1."""
    if e == 0:
        return ""
    return f"{op}{name}" if e == 1 else f"{op}{name}^{e}"


def _add_at(terms, key, c):
    """Add the element c to ``terms[key]``, dropping the key if the sum is zero."""
    acc = terms.get(key)
    total = c if acc is None else acc + c
    if total.terms:
        terms[key] = total
    else:
        terms.pop(key, None)


class SparsePoly(_Sparse):
    """A canonical sparse sum of c * monomial over one Grassmann algebra,
    keyed by exponent pairs; see the module docstring for the kinds."""

    __slots__ = ()

    #: the two variable names, the names of their exponents in ``term``,
    #: ``coefficient`` and the JSON form, and the inclusive exponent bounds;
    #: a subclass also sets ``_power(name, e)``, how one variable prints
    VARS = None
    KEYWORDS = None
    BOUNDS = None

    def __init__(self, ctx: AlgebraContext, terms: dict):
        _context_arg(ctx)
        clean = {}
        for key, c in _dict_arg(terms, "terms").items():
            self._check_key(key)
            if _graded_arg(c, ctx, None, "coefficient").terms:
                clean[key] = c
        super().__init__(ctx, clean)

    @classmethod
    def _check_key(cls, key):
        if not (
            type(key) is tuple and len(key) == 2
            and type(key[0]) is int and type(key[1]) is int
        ):
            raise ConfigError(f"exponent keys must be pairs of integers, got {key!r}")
        lo, hi = cls.BOUNDS
        if not (lo <= key[0] <= hi and lo <= key[1] <= hi):
            (a, ea), (b, eb) = zip(cls.VARS, key)
            raise ConfigError(
                f"exponents of {cls.__name__} must lie in {lo}..{hi},"
                f" got {a}^{ea} {b}^{eb}"
            )

    @classmethod
    def _index(cls, var):
        """The position of the parameter ``var`` in VARS, else ConfigError."""
        if var not in cls.VARS:
            raise ConfigError(f"unknown parameter {var!r}, expected one of {cls.VARS}")
        return cls.VARS.index(var)

    @classmethod
    def _key(cls, exponents, named):
        """The exponent pair given to ``term`` or ``coefficient``: up to two
        exponents by position or by the names in KEYWORDS, 0 when left out."""
        if not exponents and not named.keys() - cls.KEYWORDS:
            a, b = cls.KEYWORDS
            return named.get(a, 0), named.get(b, 0)
        key = dict(zip(cls.KEYWORDS, exponents))
        if len(exponents) > 2 or any(k in key or k not in cls.KEYWORDS for k in named):
            raise TypeError(
                f"expected the exponents {', '.join(cls.KEYWORDS)}, by position or"
                f" keyword, got {exponents!r} and {sorted(named)}"
            )
        key.update(named)
        return tuple(key.get(k, 0) for k in cls.KEYWORDS)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return _unchecked(cls, _context_arg(ctx), {})

    @classmethod
    def constant(cls, value: GrassmannElement):
        ctx = _graded_arg(value, None, None, "value").ctx
        return _unchecked(cls, ctx, {_CONSTANT: value} if value.terms else {})

    @classmethod
    def term(cls, value: GrassmannElement, *exponents, **named):
        """value times the monomial with the given exponents."""
        return cls(_graded_arg(value, None, None, "value").ctx,
                   {cls._key(exponents, named): value})

    # -- basics --------------------------------------------------------

    def coefficient(self, *exponents, **named) -> GrassmannElement:
        """The coefficient at the exponents ``term`` takes, refused as there."""
        key = self._key(exponents, named)
        self._check_key(key)
        return self.terms.get(key, self.ctx.zero())

    def is_even(self) -> bool:
        return all(c.is_even() for c in self.terms.values())

    def is_odd(self) -> bool:
        return all(c.is_odd() for c in self.terms.values())

    # the hooks of _Sparse._coerce and +
    _lift = constant

    @staticmethod
    def _merge_into(terms, other):
        for key, c in other.items():
            _add_at(terms, key, c)

    # -- ring operations ----------------------------------------------

    def __neg__(self):
        return _unchecked(type(self), self.ctx, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not type(self) or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _unchecked(type(self), self.ctx, {})
        # times the shared constant 1 (ctx.one()), the product is the other side
        if len(b) == 1 and b.get(_CONSTANT) is self.ctx._one:
            return self
        if len(a) == 1 and a.get(_CONSTANT) is self.ctx._one:
            return other
        lo, hi = self.BOUNDS
        terms = {}
        for (ea, fa), ca in a.items():
            for (eb, fb), cb in b.items():
                key = e, f = ea + eb, fa + fb
                if not (lo <= e <= hi and lo <= f <= hi):
                    self._check_key(key)
                _add_at(terms, key, ca * cb)
        return _unchecked(type(self), self.ctx, terms)

    def rename(self, src: str, dst: str):
        """Move every power of ``src`` onto ``dst``: exponents add, and terms
        that land on one key add."""
        i, j = self._index(src), self._index(dst)
        if i == j:
            return self
        out = {}
        for (a, b), c in self.terms.items():
            _add_at(out, (0, a + b) if j else (a + b, 0), c)
        return _unchecked(type(self), self.ctx, out)

    def _is_constant(self):
        return not self.terms.keys() - {_CONSTANT}

    def __eq__(self, other):
        if type(other) is not type(self):
            if isinstance(other, SparsePoly):
                # constants of two kinds both equal their element, so they
                # equal each other; nothing else crosses kinds
                if not (self._is_constant() and other._is_constant()):
                    return False
            elif isinstance(other, GrassmannElement):
                # an element of another algebra is unequal, not an error
                other = self.constant(other)
            elif isinstance(other, _Rational):
                other = self.constant(self.ctx.scalar(other))
            else:
                return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        # a constant equals its element, so it hashes like one
        if self._is_constant():
            return hash(self.terms.get(_CONSTANT, self.ctx.zero()))
        return hash((self.ctx, tuple(self.sorted_terms())))

    # -- display -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})" + "".join(self._power(v, e) for v, e in zip(self.VARS, key))
            for key, c in self.sorted_terms()
        )

    __repr__ = __str__


class GrassmannPoly(SparsePoly):
    """Canonical sparse polynomial in t and s over one Grassmann algebra."""

    __slots__ = ()

    VARS = KEYWORDS = ("t", "s")
    BOUNDS = (0, MAX_VAR_DEGREE)

    @staticmethod
    def _power(name, e):
        return _raised("*", name, e)

    def __repr__(self):
        return f"<poly {self}>"

    @classmethod
    def variable(cls, ctx, var: str):
        key = (0, 1) if cls._index(var) else (1, 0)
        return _unchecked(cls, ctx, {key: _context_arg(ctx).one()})

    def variables(self):
        used = set()
        for et, es in self.terms:
            if et:
                used.add("t")
            if es:
                used.add("s")
        return used

    def degree(self, var: str) -> int:
        i = self._index(var)
        return max((k[i] for k in self.terms), default=0)

    # -- calculus and substitution ------------------------------------

    def derivative(self, var: str = "t") -> "GrassmannPoly":
        return _unchecked(type(self), self.ctx, self._shifted(var, -1, lambda e: e))

    def integrate(self, var: str = "t") -> "GrassmannPoly":
        """Antiderivative with zero constant term (integral from 0)."""
        # the checked constructor enforces the degree cap
        return GrassmannPoly(self.ctx, self._shifted(var, 1, lambda e: Fraction(1, e + 1)))

    def _shifted(self, var, step, scale):
        """The terms with the exponent e of ``var`` moved to e + step >= 0
        (the others dropped), each coefficient times ``scale(e)``."""
        i = self._index(var)
        terms = {}
        for key, c in self.terms.items():
            e = key[i]
            if e + step >= 0:
                terms[key[:i] + (e + step,) + key[i + 1:]] = c * scale(e)
        return terms

    def substitute(self, var: str, replacement: "GrassmannPoly") -> "GrassmannPoly":
        """Replace ``var`` by a polynomial (e.g. t -> t+s or t -> t/2)."""
        i = self._index(var)
        return self._substituted(i, self._powers(replacement))

    def _powers(self, replacement):
        """{0: 1, 1: replacement}, which ``_substituted`` extends with each
        power it uses, so that the entries of one matrix can share it."""
        return {0: self.constant(self.ctx.one()), 1: self._arg(replacement, "replacement")}

    def _substituted(self, i, powers):
        out = _unchecked(type(self), self.ctx, {})
        for key, c in self.terms.items():
            e = key[i]
            power = powers.get(e)
            if power is None:
                power = powers[e] = powers[1] ** e
            rest = list(key)
            rest[i] = 0
            out = out + _unchecked(type(self), self.ctx, {tuple(rest): c}) * power
        return out

    def rename(self, src: str, dst: str) -> "GrassmannPoly":
        """Swap-free renaming: ``dst`` must not already occur."""
        if self._index(src) != self._index(dst) and dst in self.variables():
            raise ConfigError(f"cannot rename {src}->{dst}: {dst} already occurs")
        return super().rename(src, dst)

    def eval_at(self, assignment: dict) -> GrassmannElement:
        """Evaluate with even (or rational) values for every occurring parameter."""
        return self._evaluated(self._value_powers(assignment, self.variables()))

    def _value_powers(self, assignment, used):
        """{(var, 1): value} for the checked ``assignment``, which ``_evaluated``
        extends with each power it uses; ``used`` names the required parameters."""
        _dict_arg(assignment, "assignment")
        for var in self.VARS:  # in order, so the message names the first
            if var in used and var not in assignment:
                raise ConfigError(f"no value supplied for parameter {var!r}")
        powers = {}
        for var, raw in assignment.items():
            self._index(var)
            value = self.ctx.scalar(raw) if isinstance(raw, _Rational) else raw
            powers[var, 1] = _graded_arg(value, self.ctx, EVEN, f"parameter {var}")
        return powers

    def _evaluated(self, powers):
        acc = self.ctx.zero()
        for key, c in self.terms.items():
            term = c
            for var, e in zip(self.VARS, key):
                if e:
                    power = powers.get((var, e))
                    if power is None:
                        power = powers[var, e] = powers[var, 1] ** e
                    term = term * power
            acc = acc + term
        return acc


class LaurentScalar(SparsePoly):
    """A finite sum of terms c * z^(-iz) * w^(-iw) with Grassmann
    coefficients.

    Keys store the inverse exponents, so (2, 0) is 1/z^2; negative keys mean
    positive powers, e.g. the bare variable w is the key (0, -1).
    """

    __slots__ = ()

    VARS = ("z", "w")
    KEYWORDS = ("iz", "iw")
    BOUNDS = (-inf, inf)

    @staticmethod
    def _power(name, i):
        return _raised("/", name, i) if i > 0 else _raised("*", name, -i)
