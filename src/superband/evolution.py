"""Orbits of the one-parameter matrix families and their formal resolvents.

The orbit of an initial supervector under a family is computed symbolically,
together with the defect of the first-order evolution equation it solves and
the translational / moving-time classification of the family.  Resolvents
are handled as formal Laplace images: the rule  t^m -> m!/z^(m+1)  is taken
as the definition.  The resulting LaurentMatrix is the graded matrix of
``supermatrix`` over the LaurentScalar sums of ``poly`` in the two central
variables z and w, exact enough to verify the resolvent difference
identities term by term.
"""

from math import factorial

from .algebra import ODD, GrassmannElement, _graded_arg
from .errors import ConfigError
from .families import ParamSuperMatrix, ParamSuperVector, generator_of, product_and_shift
from .families import _family_arg
from .poly import LaurentScalar
from .supermatrix import GradedMatrix, SuperMatrix, SuperVector, _container_arg


class LaurentMatrix(GradedMatrix):
    """A (p|q) supermatrix of LaurentScalar entries in z and w, graded
    coefficientwise."""

    __slots__ = ()

    _entry = LaurentScalar


# -- orbits ------------------------------------------------------------


def orbit(family: ParamSuperMatrix, x0: SuperVector) -> ParamSuperVector:
    """X(t) = F(t) X0 for a (1|1) family and constant initial vector."""
    _container_arg(family, ParamSuperMatrix, "family", shape=(1, 1))
    return family.apply(_container_arg(x0, SuperVector, "x0"))


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
    product, shifted = product_and_shift(family)
    if product == shifted:
        return "translational"
    if product == family:
        return "moving_time"
    return "neither"


def commutativity_obstruction(x0: SuperVector, alpha: GrassmannElement):
    """alpha * kappa(t) for the idempotent-family orbit of x0.

    The odd orbit coordinate kappa(t) = alpha x0_even + kappa0 is constant,
    and the commutator of the generator with the family annihilates the
    orbit exactly when this product vanishes."""
    _container_arg(x0, SuperVector, "x0", shape=(1, 1))
    _graded_arg(alpha, x0.ctx, ODD, "direction alpha")
    return alpha * (alpha * x0.rows[0][0] + x0.rows[1][0])


# -- resolvents --------------------------------------------------------


def laplace(family: ParamSuperMatrix) -> LaurentMatrix:
    """Formal Laplace image: every entry c t^m becomes c m!/z^(m+1)."""
    ctx = _family_arg(family).ctx

    def image(poly):
        return LaurentScalar(
            ctx, {(mt + 1, 0): c * factorial(mt) for (mt, _), c in poly.terms.items()}
        )

    return family._map(image, LaurentMatrix)


def resolvent_defect(r: LaurentMatrix) -> LaurentMatrix:
    """R(z) - R(w) - (w-z) R(z) R(w) in bivariate Laurent arithmetic.

    The input must be a function of z alone; the w-instance is obtained by
    renaming.  The standard resolvent identity makes this vanish; families
    obeying the band law instead leave a tail proportional to the generator.
    """
    _container_arg(r, LaurentMatrix, "resolvent")
    if any(iw != 0 for row in r.rows for x in row for (_, iw) in x.terms):
        raise ConfigError("the resolvent must be given in z only")
    rw = r.rename("z", "w")
    w_minus_z = LaurentScalar(
        r.ctx, {(0, -1): r.ctx.one(), (-1, 0): -r.ctx.one()}
    )
    return (r - rw) - (r @ rw).scale(w_minus_z)


def resolvent_tail(generator: SuperMatrix) -> LaurentMatrix:
    """(1/(zw) - 1/w^2) A: the resolvent defect of a band-law family whose
    generator is A, where the standard resolvent identity leaves zero."""
    _container_arg(generator, SuperMatrix, "generator")
    one = generator.ctx.one()
    factor = LaurentScalar(generator.ctx, {(1, 1): one, (0, 2): -one})
    return LaurentMatrix.from_supermatrix(generator).scale(factor)
