"""Orbits of the one-parameter matrix families and their formal resolvents.

The orbit of an initial supervector under a family is computed symbolically,
together with the defect of the first-order evolution equation it solves and
the translational / moving-time classification of the family.  Resolvents
are handled as formal Laplace images: the rule  t^m -> m!/z^(m+1)  is taken
as the definition.  The resulting LaurentMatrix is the graded matrix of
``supermatrix`` over a tiny Laurent algebra in the two central variables z
and w, exact enough to verify the resolvent difference identities term by
term.
"""

from fractions import Fraction
from math import factorial

from .algebra import GrassmannElement
from .errors import ConfigError, ContextError, ParityError, ShapeError
from .families import ParamSuperMatrix, ParamSuperVector, generator_of
from .poly import GrassmannPoly
from .supermatrix import GradedMatrix, SuperVector

_Rational = (int, Fraction)
_LAURENT_VARS = ("z", "w")


class LaurentScalar:
    """A finite sum of terms c * z^(-iz) * w^(-iw) with Grassmann
    coefficients.

    Keys store the inverse exponents, so (2, 0) is 1/z^2; negative keys mean
    positive powers, e.g. the bare variable w is the key (0, -1).
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        clean = {}
        for key, c in terms.items():
            iz, iw = key
            if not (isinstance(iz, int) and isinstance(iw, int)):
                raise ConfigError(f"exponent keys must be integers, got {key!r}")
            if not isinstance(c, GrassmannElement):
                raise ConfigError("coefficients must be GrassmannElements")
            if c.ctx != ctx:
                raise ContextError("coefficients from different algebras")
            if not c.is_zero():
                clean[(iz, iw)] = c
        self.ctx = ctx
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def term(cls, value: GrassmannElement, iz: int = 0, iw: int = 0):
        return cls(value.ctx, {(iz, iw): value})

    @classmethod
    def constant(cls, value: GrassmannElement):
        return cls.term(value)

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, iz: int = 0, iw: int = 0) -> GrassmannElement:
        return self.terms.get((iz, iw), self.ctx.zero())

    def is_even(self) -> bool:
        return all(c.is_even() for c in self.terms.values())

    def is_odd(self) -> bool:
        return all(c.is_odd() for c in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def rename(self, src: str = "z", dst: str = "w") -> "LaurentScalar":
        """Move every power of src onto dst (exponents merge)."""
        if src not in _LAURENT_VARS or dst not in _LAURENT_VARS:
            raise ConfigError(f"variables are {_LAURENT_VARS}")
        if src == dst:
            return self
        out = {}
        for (iz, iw), c in self.terms.items():
            key = (0, iz + iw) if dst == "w" else (iz + iw, 0)
            out[key] = out.get(key, self.ctx.zero()) + c
        return LaurentScalar(self.ctx, out)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentScalar):
            if other.ctx != self.ctx:
                raise ContextError("scalars from different algebras")
            return other
        if isinstance(other, GrassmannElement):
            return LaurentScalar.constant(other)
        if isinstance(other, _Rational):
            return LaurentScalar.constant(self.ctx.scalar(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, self.ctx.zero()) + c
        return LaurentScalar(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for (az, aw), c in self.terms.items():
            for (bz, bw), d in other.terms.items():
                key = (az + bz, aw + bw)
                prod = c * d
                out[key] = out.get(key, self.ctx.zero()) + prod
        return LaurentScalar(self.ctx, out)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __eq__(self, other):
        if not isinstance(other, LaurentScalar):
            if not isinstance(other, (GrassmannElement,) + _Rational):
                return False
            other = self._coerce(other)
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        # a constant equals its element, so it hashes like one
        if not self.terms.keys() - {(0, 0)}:
            return hash(self.coefficient())
        return hash((self.ctx, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"

        def power(name, i):
            if i == 0:
                return ""
            if i == 1:
                return f"/{name}"
            if i > 0:
                return f"/{name}^{i}"
            return f"*{name}^{-i}" if i != -1 else f"*{name}"

        bits = []
        for (iz, iw), c in self.sorted_terms():
            bits.append(f"({c}){power('z', iz)}{power('w', iw)}")
        return " + ".join(bits)


class LaurentMatrix(GradedMatrix):
    """A (p|q) supermatrix of LaurentScalar entries in z and w, graded
    coefficientwise."""

    __slots__ = ()

    _entry = LaurentScalar
    _constant = staticmethod(LaurentScalar.constant)

    def rename(self, src: str = "z", dst: str = "w") -> "LaurentMatrix":
        return LaurentMatrix(
            self.p, self.q, [[x.rename(src, dst) for x in row] for row in self.rows]
        )


# -- orbits ------------------------------------------------------------


def orbit(family: ParamSuperMatrix, x0: SuperVector) -> ParamSuperVector:
    """X(t) = F(t) X0 for a (1|1) family and constant initial vector."""
    if (family.p, family.q) != (1, 1):
        raise ShapeError(f"orbits are defined for (1|1) families, got ({family.p}|{family.q})")
    if (x0.p, x0.q) != (1, 1):
        raise ShapeError(f"orbits need a (1|1) initial vector, got ({x0.p}|{x0.q})")
    return family.apply(x0)


def cauchy_defect(family: ParamSuperMatrix, x0: SuperVector) -> ParamSuperVector:
    """X'(t) - A X(t) for the orbit of x0, with A the family's generator."""
    x = orbit(family, x0)
    gen = ParamSuperMatrix.from_supermatrix(generator_of(family))
    return x.derivative("t") - gen.apply(x)


def moving_time_check(family: ParamSuperMatrix) -> str:
    """Classify how F(t)F(s) relates to the family itself.

    ``translational`` when F(t)F(s) = F(t+s) (checked first, so degenerate
    families satisfying both laws report translational), ``moving_time``
    when F(t)F(s) = F(t), else ``neither``.  Symbolic matrix equality is
    the same as agreement on every symbolic initial vector.
    """
    if "s" in family.variables():
        raise ConfigError("classification expects a family in t only")
    t = GrassmannPoly.variable(family.ctx, "t")
    s = GrassmannPoly.variable(family.ctx, "s")
    product = family @ family.rename("t", "s")
    if product == family.substitute("t", t + s):
        return "translational"
    if product == family:
        return "moving_time"
    return "neither"


def commutativity_obstruction(x0: SuperVector, alpha: GrassmannElement):
    """alpha * kappa(t) for the idempotent-family orbit of x0.

    The odd orbit coordinate kappa(t) = alpha x0_even + kappa0 is constant,
    and the commutator of the generator with the family annihilates the
    orbit exactly when this product vanishes."""
    if (x0.p, x0.q) != (1, 1):
        raise ShapeError(f"expected a (1|1) vector, got ({x0.p}|{x0.q})")
    if not alpha.is_odd():
        raise ParityError(f"odd direction expected, got {alpha}")
    if alpha.ctx != x0.ctx:
        raise ContextError("vector and direction from different algebras")
    return alpha * (alpha * x0.even[0] + x0.odd[0])


# -- resolvents --------------------------------------------------------


def laplace(family: ParamSuperMatrix) -> LaurentMatrix:
    """Formal Laplace image: every entry c t^m becomes c m!/z^(m+1)."""
    if "s" in family.variables():
        raise ConfigError("the transform expects a family in t only")
    ctx = family.ctx
    rows = []
    for row in family.rows:
        out = []
        for poly in row:
            terms = {}
            for (mt, _), c in poly.coeffs.items():
                terms[(mt + 1, 0)] = c * factorial(mt)
            out.append(LaurentScalar(ctx, terms))
        rows.append(out)
    # integer multiples of graded coefficients keep the grading
    return LaurentMatrix._graded(family.p, family.q, rows)


def resolvent_defect(r: LaurentMatrix) -> LaurentMatrix:
    """R(z) - R(w) - (w-z) R(z) R(w) in bivariate Laurent arithmetic.

    The input must be a function of z alone; the w-instance is obtained by
    renaming.  The standard resolvent identity makes this vanish; families
    obeying the band law instead leave a tail proportional to the generator.
    """
    if any(iw != 0 for row in r.rows for x in row for (_, iw) in x.terms):
        raise ConfigError("the resolvent must be given in z only")
    rw = r.rename("z", "w")
    w_minus_z = LaurentScalar(
        r.ctx, {(0, -1): r.ctx.one(), (-1, 0): -r.ctx.one()}
    )
    return (r - rw) - (r @ rw).scale(w_minus_z)
