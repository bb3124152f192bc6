"""Component analysis of polynomial matrix families.

A family K(t) = K0 + K1 t + ... + Kn t^n is handled through its constant
coefficient matrices.  The module checks the component relation system that
characterises the band law K(t)K(s) = K(t), computes the correction terms of
the generalized functional and differential equations satisfied by such
families, and evaluates the three equivalent descriptions of degree-one
families (band law, functional equation with first-derivative correction,
differential equation with idempotent part orthogonal to the generator).
"""

from collections import namedtuple
from math import comb

from .algebra import _context_arg, annihilator_odd
from .errors import ConfigError, ShapeError
from .families import ParamSuperMatrix, _family_arg, functional_residual, product_and_shift
from .poly import GrassmannPoly
from .supermatrix import SuperMatrix, _container_list

MAX_COMPONENT_DEGREE = 8


class ComponentList:
    """Constant coefficient matrices of a polynomial family, lowest power
    first; the list [K0, ..., Kn] stands for K(t) = sum Km t^m."""

    __slots__ = ("ctx", "components")

    def __init__(self, components):
        mats = _container_list(components, SuperMatrix, "components", "component K{}")
        if not mats:
            raise ConfigError("a component list needs at least K0")
        if len(mats) - 1 > MAX_COMPONENT_DEGREE:
            raise ConfigError(f"component degree is capped at {MAX_COMPONENT_DEGREE}")
        self.ctx = mats[0].ctx
        self.components = mats

    @property
    def degree(self) -> int:
        return len(self.components) - 1

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        return (
            isinstance(other, ComponentList) and self.components == other.components
        )

    def generator(self) -> SuperMatrix:
        """The degree-one coefficient K1 (zero for constant families)."""
        if len(self.components) > 1:
            return self.components[1]
        first = self.components[0]
        return SuperMatrix.zero(self.ctx, first.p, first.q)

    def family(self, var: str = "t") -> ParamSuperMatrix:
        """Rebuild the polynomial family sum Km var^m."""
        i = GrassmannPoly._index(var)
        return ParamSuperMatrix._from_coefficients(self[0], {
            (0, m) if i else (m, 0): (k, 1) for m, k in enumerate(self.components)
        })

    def __repr__(self):
        return f"ComponentList(degree={self.degree}, shape=({self[0].p}|{self[0].q}))"


def components_of(family: ParamSuperMatrix) -> ComponentList:
    """Coefficient extraction per power of t for a single-parameter family."""
    _family_arg(family)
    degree = max(x.degree("t") for row in family.rows for x in row)
    return ComponentList(
        [family._map(lambda x: x.coefficient(t=m), SuperMatrix) for m in range(degree + 1)]
    )


class ComponentSystemReport(
    namedtuple("ComponentSystemReport", "holds failures")
):
    """Truth of the band relation system on a component list.

    ``failures`` holds (relation, indices) pairs: ``k0_idempotent`` (),
    ``ki_square`` (i,), ``ki_k0`` (i,), ``k0_ki`` (i,) and ``ki_kj`` (i, j).
    """

    __slots__ = ()


def band_component_system_check(components) -> ComponentSystemReport:
    """K0^2 = K0; Ki^2 = Z, Ki K0 = Ki, K0 Ki = Z for i >= 1; Ki Kj = Z for
    distinct i, j >= 1.  Together these are exactly the band law
    K(t)K(s) = K(t) read off per power of t and s."""
    c = ComponentList(components)
    k = c.components
    zero = SuperMatrix.zero(c.ctx, k[0].p, k[0].q)
    failures = []
    if k[0] @ k[0] != k[0]:
        failures.append(("k0_idempotent", ()))
    for i in range(1, len(k)):
        if k[i] @ k[i] != zero:
            failures.append(("ki_square", (i,)))
        if k[i] @ k[0] != k[i]:
            failures.append(("ki_k0", (i,)))
        if k[0] @ k[i] != zero:
            failures.append(("k0_ki", (i,)))
    for i in range(1, len(k)):
        for j in range(1, len(k)):
            if i != j and k[i] @ k[j] != zero:
                failures.append(("ki_kj", (i, j)))
    return ComponentSystemReport(not failures, tuple(failures))


class FunctionalReport(
    namedtuple("FunctionalReport", "residual taylor_form matches")
):
    """K(t+s) - K(t)K(s) next to its expected Taylor tail.

    For families satisfying the band relation system the residual equals
    sum_{m=1..n} sum_{l=m..n} C(l, m) Kl s^m t^(l-m); ``matches`` records
    exact equality of the two symbolic matrices.
    """

    __slots__ = ()


def n_functional_residual(components) -> FunctionalReport:
    c = ComponentList(components)
    residual = functional_residual(c.family("t"))
    n = c.degree
    taylor = ParamSuperMatrix._from_coefficients(c[0], {
        (l - m, m): (c[l], comb(l, m)) for m in range(1, n + 1) for l in range(m, n + 1)
    })
    return FunctionalReport(residual, taylor, residual == taylor)


def n_differential_defect(components) -> ParamSuperMatrix:
    """K'(t) - K1 K(t); for component lists passing the band system this is
    the derivative tail sum_{m=2..n} m Km t^(m-1) (zero in degree one)."""
    c = ComponentList(components)
    fam = c.family("t")
    return fam.derivative("t") - ParamSuperMatrix.from_supermatrix(c.generator()) @ fam


def derivative_tail(components) -> ParamSuperMatrix:
    """sum_{m=2..n} m Km t^(m-1), the part of K' beyond the generator term."""
    c = ComponentList(components)
    return ParamSuperMatrix._from_coefficients(
        c[0], {(m - 1, 0): (c[m], m) for m in range(2, len(c.components))}
    )


class EquivalenceReport(
    namedtuple(
        "EquivalenceReport",
        "band functional differential differential_eq_only"
        " k0_idempotent k0_orthogonal k1_square_zero k1_absorbs",
    )
):
    """The three descriptions of a degree-one family, with the component
    relations behind the differential one broken out.

    ``differential`` is the full third statement: the differential equation
    K' = K1 K together with K0 idempotent and K0 K1 = Z.  The bare equation
    alone is ``differential_eq_only``; it already forces ``k1_square_zero``
    (K1^2 = Z) and ``k1_absorbs`` (K1 K0 = K1), which are reported too.
    """

    __slots__ = ()

    @classmethod
    def from_sides(cls, sides: dict) -> "EquivalenceReport":
        """The verdicts of ``equivalence_sides``: a relation holds when its
        two sides are equal."""
        held = {name: left == right for name, (left, right) in sides.items()}
        return cls(
            differential=held["differential_eq_only"]
            and held["k0_idempotent"]
            and held["k0_orthogonal"],
            **held,
        )

    @property
    def agree(self) -> bool:
        return self.band == self.functional == self.differential


def equivalence_sides(family: ParamSuperMatrix):
    """The family's ``components_of`` and ``{relation: (left, right)}`` for
    the seven relations of ``EquivalenceReport`` that have a field of their own.

    Each relation states left == right; ``differential`` is not listed,
    since it is the conjunction of three listed ones.
    """
    c = components_of(family)
    product, shifted = product_and_shift(family)
    k0 = c[0]
    k1 = c.generator()
    zero = SuperMatrix.zero(c.ctx, k0.p, k0.q)
    derivative = family.derivative("t")
    s = GrassmannPoly.variable(c.ctx, "s")
    return c, {
        "band": (product, family),
        "functional": (shifted, product + derivative.scale(s)),
        "differential_eq_only": (
            derivative, ParamSuperMatrix.from_supermatrix(k1) @ family
        ),
        "k0_idempotent": (k0 @ k0, k0),
        "k0_orthogonal": (k0 @ k1, zero),
        "k1_square_zero": (k1 @ k1, zero),
        "k1_absorbs": (k1 @ k0, k1),
    }


def equivalence_report(family: ParamSuperMatrix) -> EquivalenceReport:
    """Evaluate the band law, the functional equation with first-derivative
    correction, and the differential description on one degree-one family.

    For degree-one families the three truth values provably coincide.
    ``EquivalenceReport.from_sides(equivalence_sides(family)[1])`` inspects a
    higher-degree family anyway (the values then need not agree)."""
    c, sides = equivalence_sides(family)
    if c.degree > 1:
        raise ShapeError(f"degree-one family required, got degree {c.degree}")
    return EquivalenceReport.from_sides(sides)


def random_band_components(rng, ctx, p=1, q=1, degree=1) -> ComponentList:
    """A random component list satisfying the whole band relation system.

    K0 = [[0, G], [D, I]] with G from a random odd span and D from its
    annihilator is idempotent; every higher component [[0, Gi], [0, 0]] with
    Gi from the same span then squares to zero, absorbs K0 from the right
    and is killed by it from the left.
    """
    from .randgen import random_combination, random_nonzero_odd

    # an odd seed squares to zero, so it lies in its own annihilator
    seeds = [random_nonzero_odd(rng, _context_arg(ctx))]
    ann = annihilator_odd(seeds, ctx)
    zero_qp = [[ctx.zero()] * p for _ in range(q)]
    zero_qq = [[ctx.zero()] * q for _ in range(q)]
    eye = [[ctx.one() if i == j else ctx.zero() for j in range(q)] for i in range(q)]

    def combos(vectors, rows, cols):
        return [[random_combination(rng, ctx, vectors) for _ in range(cols)]
                for _ in range(rows)]

    mats = [SuperMatrix._antitriangle(combos(seeds, p, q), combos(ann.basis, q, p), eye)]
    for _ in range(degree):
        mats.append(SuperMatrix._antitriangle(combos(seeds, p, q), zero_qp, zero_qq))
    return ComponentList(mats)
