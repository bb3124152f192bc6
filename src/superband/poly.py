"""Polynomials in the formal central parameters t and s with Grassmann
coefficients.

The parameters commute with everything (they model real time values), so a
polynomial is just a dict mapping the exponent pair (et, es) to a nonzero
GrassmannElement.  Exponents are capped per variable to catch runaway
symbolic composition early; the cap is high enough for every flow in this
package (degree-8 component families and the order-8 smoothing chain).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraContext, GrassmannElement
from .errors import ConfigError, ContextError, ParityError

VARS = ("t", "s")
MAX_VAR_DEGREE = 9

_Rational = (int, Fraction)


def _check_key(key):
    et, es = key
    if et < 0 or es < 0:
        raise ConfigError(f"negative exponent in {key!r}")
    if et > MAX_VAR_DEGREE or es > MAX_VAR_DEGREE:
        raise ConfigError(
            f"degree cap {MAX_VAR_DEGREE} per parameter exceeded by t^{et} s^{es}"
        )


class GrassmannPoly:
    """Canonical sparse polynomial in t and s over one Grassmann algebra."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: AlgebraContext, coeffs: dict):
        _set_ctx(self, ctx)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannPoly is immutable")

    def __reduce__(self):
        return GrassmannPoly, (self.ctx, self.coeffs)

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, value: GrassmannElement):
        if value.is_zero():
            return cls(value.ctx, {})
        return cls(value.ctx, {(0, 0): value})

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def term(cls, value: GrassmannElement, t: int = 0, s: int = 0):
        _check_key((t, s))
        if value.is_zero():
            return cls(value.ctx, {})
        return cls(value.ctx, {(t, s): value})

    @classmethod
    def variable(cls, ctx, var: str):
        if var not in VARS:
            raise ConfigError(f"unknown parameter {var!r}, expected one of {VARS}")
        key = (1, 0) if var == "t" else (0, 1)
        return cls(ctx, {key: ctx.one()})

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, t: int = 0, s: int = 0) -> GrassmannElement:
        return self.coeffs.get((t, s), self.ctx.zero())

    def variables(self):
        used = set()
        for et, es in self.coeffs:
            if et:
                used.add("t")
            if es:
                used.add("s")
        return used

    def degree(self, var: str) -> int:
        i = VARS.index(var)
        return max((k[i] for k in self.coeffs), default=0)

    def is_even(self) -> bool:
        return all(c.is_even() for c in self.coeffs.values())

    def is_odd(self) -> bool:
        return all(c.is_odd() for c in self.coeffs.values())

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def _coerce(self, other):
        if isinstance(other, GrassmannPoly):
            if other.ctx != self.ctx:
                raise ContextError("polynomials over different algebras")
            return other
        if isinstance(other, GrassmannElement):
            return GrassmannPoly.constant(self._coerce_elem(other))
        if isinstance(other, _Rational):
            return GrassmannPoly.constant(self.ctx.scalar(other))
        return None

    def _coerce_elem(self, elem):
        if elem.ctx != self.ctx:
            raise ContextError("element from a different algebra")
        return elem

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for key, c in other.coeffs.items():
            acc = coeffs.get(key)
            total = c if acc is None else acc + c
            if total.is_zero():
                coeffs.pop(key, None)
            else:
                coeffs[key] = total
        return GrassmannPoly(self.ctx, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannPoly(self.ctx, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return GrassmannPoly(self.ctx, {})
        coeffs = {}
        for (ta, sa), ca in a.items():
            for (tb, sb), cb in b.items():
                key = et, es = ta + tb, sa + sb
                if not (0 <= et <= MAX_VAR_DEGREE and 0 <= es <= MAX_VAR_DEGREE):
                    _check_key(key)
                c = ca * cb
                if c.is_zero():
                    continue
                acc = coeffs.get(key)
                total = c if acc is None else acc + c
                if total.is_zero():
                    coeffs.pop(key, None)
                else:
                    coeffs[key] = total
        return GrassmannPoly(self.ctx, coeffs)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ConfigError(f"powers must be nonnegative integers, got {k!r}")
        acc = GrassmannPoly.constant(self.ctx.one())
        for _ in range(k):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if not isinstance(other, GrassmannPoly):
            if isinstance(other, GrassmannElement):
                # an element of another algebra is unequal, not an error
                other = GrassmannPoly.constant(other)
            elif isinstance(other, _Rational):
                other = GrassmannPoly.constant(self.ctx.scalar(other))
            else:
                return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its element, so it hashes like one
        if not self.coeffs.keys() - {(0, 0)}:
            return hash(self.coefficient())
        return hash((self.ctx, tuple(self.sorted_terms())))

    # -- calculus and substitution ------------------------------------

    def derivative(self, var: str = "t") -> "GrassmannPoly":
        i = VARS.index(var)
        coeffs = {}
        for key, c in self.coeffs.items():
            e = key[i]
            if e == 0:
                continue
            new = list(key)
            new[i] = e - 1
            coeffs[tuple(new)] = c * e
        return GrassmannPoly(self.ctx, coeffs)

    def integrate(self, var: str = "t") -> "GrassmannPoly":
        """Antiderivative with zero constant term (integral from 0)."""
        i = VARS.index(var)
        coeffs = {}
        for key, c in self.coeffs.items():
            new = list(key)
            new[i] = key[i] + 1
            _check_key(tuple(new))
            coeffs[tuple(new)] = c * Fraction(1, new[i])
        return GrassmannPoly(self.ctx, coeffs)

    def substitute(self, var: str, replacement: "GrassmannPoly") -> "GrassmannPoly":
        """Replace ``var`` by a polynomial (e.g. t -> t+s or t -> t/2)."""
        i = VARS.index(var)
        replacement = self._coerce(replacement)
        out = GrassmannPoly.zero(self.ctx)
        powers = {0: GrassmannPoly.constant(self.ctx.one())}
        for key, c in self.coeffs.items():
            e = key[i]
            if e not in powers:
                powers[e] = replacement ** e
            rest = list(key)
            rest[i] = 0
            out = out + GrassmannPoly(self.ctx, {tuple(rest): c}) * powers[e]
        return out

    def rename(self, src: str, dst: str) -> "GrassmannPoly":
        """Swap-free renaming: ``dst`` must not already occur."""
        if src == dst:
            return self
        if dst in self.variables():
            raise ConfigError(f"cannot rename {src}->{dst}: {dst} already occurs")
        if dst not in VARS:
            raise ConfigError(f"unknown parameter {dst!r}, expected one of {VARS}")
        i = VARS.index(src)
        # dst does not occur, so every exponent of src moves onto dst as is
        if i == 0:
            coeffs = {(0, key[0]): c for key, c in self.coeffs.items()}
        else:
            coeffs = {(key[1], 0): c for key, c in self.coeffs.items()}
        return GrassmannPoly(self.ctx, coeffs)

    def eval_at(self, assignment: dict) -> GrassmannElement:
        """Evaluate with even (or rational) values for every occurring parameter."""
        values = {}
        for var in self.variables():
            if var not in assignment:
                raise ConfigError(f"no value supplied for parameter {var!r}")
        for var, raw in assignment.items():
            if var not in VARS:
                raise ConfigError(f"unknown parameter {var!r}")
            value = raw if isinstance(raw, GrassmannElement) else self.ctx.scalar(raw)
            value = self._coerce_elem(value)
            if not value.is_even():
                raise ParityError(f"parameter {var} must take an even value, got {value}")
            values[var] = value
        acc = self.ctx.zero()
        for (et, es), c in self.coeffs.items():
            term = c
            if et:
                term = term * values["t"] ** et
            if es:
                term = term * values["s"] ** es
            acc = acc + term
        return acc

    # -- display -------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        frags = []
        for (et, es), c in self.sorted_terms():
            mono = "".join(
                f"*{v}^{e}" if e > 1 else (f"*{v}" if e == 1 else "")
                for v, e in (("t", et), ("s", es))
            )
            frags.append(f"({c}){mono}")
        return " + ".join(frags)

    def __repr__(self):
        return f"<poly {self}>"


# the slot setters, which bypass the immutability guard in __setattr__
_set_ctx = GrassmannPoly.ctx.__set__
_set_coeffs = GrassmannPoly.coeffs.__set__
