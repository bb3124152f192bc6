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

from .algebra import annihilator_odd
from .errors import ConfigError, ContextError, ShapeError
from .families import ParamSuperMatrix
from .poly import GrassmannPoly
from .randgen import random_coeff, random_nonzero_odd
from .supermatrix import SuperMatrix

MAX_COMPONENT_DEGREE = 8


class ComponentList:
    """Constant coefficient matrices of a polynomial family, lowest power
    first; the list [K0, ..., Kn] stands for K(t) = sum Km t^m."""

    __slots__ = ("ctx", "components")

    def __init__(self, components):
        mats = tuple(components)
        if not mats:
            raise ConfigError("a component list needs at least K0")
        if len(mats) - 1 > MAX_COMPONENT_DEGREE:
            raise ConfigError(f"component degree is capped at {MAX_COMPONENT_DEGREE}")
        first = mats[0]
        for m in mats:
            if not isinstance(m, SuperMatrix):
                raise ConfigError("components must be SuperMatrices")
            if not m.same_shape(first):
                raise ShapeError("components must share one shape")
            if m.ctx != first.ctx:
                raise ContextError("components from different algebras")
        self.ctx = first.ctx
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
        if var not in ("t", "s"):
            raise ConfigError(f"unknown parameter {var!r}")
        acc = ParamSuperMatrix.zero(self.ctx, self[0].p, self[0].q)
        for m, k in enumerate(self.components):
            weight = GrassmannPoly.term(
                self.ctx.one(), t=m if var == "t" else 0, s=m if var == "s" else 0
            )
            acc = acc + ParamSuperMatrix.from_supermatrix(k).scale(weight)
        return acc

    def __repr__(self):
        return f"ComponentList(degree={self.degree}, shape=({self[0].p}|{self[0].q}))"


def _as_components(components) -> ComponentList:
    if isinstance(components, ComponentList):
        return components
    return ComponentList(components)


def components_of(family: ParamSuperMatrix) -> ComponentList:
    """Coefficient extraction per power of t for a single-parameter family."""
    if "s" in family.variables():
        raise ConfigError("component extraction expects a family in t only")
    degree = max(x.degree("t") for row in family.rows for x in row)
    mats = []
    for m in range(degree + 1):
        mats.append(
            SuperMatrix(
                family.p,
                family.q,
                [[x.coefficient(t=m) for x in row] for row in family.rows],
            )
        )
    return ComponentList(mats)


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
    c = _as_components(components)
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
    c = _as_components(components)
    fam = c.family("t")
    t = GrassmannPoly.variable(c.ctx, "t")
    s = GrassmannPoly.variable(c.ctx, "s")
    residual = fam.substitute("t", t + s) - fam @ fam.rename("t", "s")
    n = c.degree
    taylor = ParamSuperMatrix.zero(c.ctx, c[0].p, c[0].q)
    for m in range(1, n + 1):
        for l in range(m, n + 1):
            weight = GrassmannPoly.term(c.ctx.scalar(comb(l, m)), t=l - m, s=m)
            taylor = taylor + ParamSuperMatrix.from_supermatrix(c[l]).scale(weight)
    return FunctionalReport(residual, taylor, residual == taylor)


def n_differential_defect(components) -> ParamSuperMatrix:
    """K'(t) - K1 K(t); for component lists passing the band system this is
    the derivative tail sum_{m=2..n} m Km t^(m-1) (zero in degree one)."""
    c = _as_components(components)
    fam = c.family("t")
    return fam.derivative("t") - ParamSuperMatrix.from_supermatrix(c.generator()) @ fam


def derivative_tail(components) -> ParamSuperMatrix:
    """sum_{m=2..n} m Km t^(m-1), the part of K' beyond the generator term."""
    c = _as_components(components)
    acc = ParamSuperMatrix.zero(c.ctx, c[0].p, c[0].q)
    for m in range(2, len(c.components)):
        weight = GrassmannPoly.term(c.ctx.scalar(m), t=m - 1)
        acc = acc + ParamSuperMatrix.from_supermatrix(c[m]).scale(weight)
    return acc


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

    @property
    def agree(self) -> bool:
        return self.band == self.functional == self.differential


def equivalence_report(
    family: ParamSuperMatrix, restrict_linear: bool = True
) -> EquivalenceReport:
    """Evaluate the band law, the functional equation with first-derivative
    correction, and the differential description on one family.

    For degree-one families the three truth values provably coincide; pass
    ``restrict_linear=False`` to inspect higher-degree families anyway (the
    values then need not agree)."""
    if "s" in family.variables():
        raise ConfigError("equivalence expects a family in t only")
    degree = max(x.degree("t") for row in family.rows for x in row)
    if restrict_linear and degree > 1:
        raise ShapeError(f"degree-one family required, got degree {degree}")
    c = components_of(family)
    k0 = c[0]
    k1 = c.generator()
    zero = SuperMatrix.zero(c.ctx, k0.p, k0.q)
    t = GrassmannPoly.variable(c.ctx, "t")
    s = GrassmannPoly.variable(c.ctx, "s")
    shifted = family.substitute("t", t + s)
    other = family.rename("t", "s")
    product = family @ other
    derivative = family.derivative("t")
    band = product == family
    functional = shifted == product + derivative.scale(s)
    diff_only = derivative == ParamSuperMatrix.from_supermatrix(k1) @ family
    k0_idem = k0 @ k0 == k0
    k0_orth = k0 @ k1 == zero
    return EquivalenceReport(
        band=band,
        functional=functional,
        differential=diff_only and k0_idem and k0_orth,
        differential_eq_only=diff_only,
        k0_idempotent=k0_idem,
        k0_orthogonal=k0_orth,
        k1_square_zero=k1 @ k1 == zero,
        k1_absorbs=k1 @ k0 == k1,
    )


def random_band_components(rng, ctx, p=1, q=1, degree=1) -> ComponentList:
    """A random component list satisfying the whole band relation system.

    K0 = [[0, G], [D, I]] with G from a random odd span and D from its
    annihilator is idempotent; every higher component [[0, Gi], [0, 0]] with
    Gi from the same span then squares to zero, absorbs K0 from the right
    and is killed by it from the left.
    """
    seeds = [random_nonzero_odd(rng, ctx)]
    span = annihilator_odd(seeds, ctx)
    if not span.dim:
        seeds = [ctx.gen(1)]
        span = annihilator_odd(seeds, ctx)
    ann = span.basis

    def span_combo():
        acc = ctx.zero()
        for v in seeds:
            acc = acc + v * random_coeff(rng)
        return acc

    def ann_combo():
        acc = ctx.zero()
        for v in ann:
            acc = acc + v * random_coeff(rng)
        return acc

    zero_pp = [[ctx.zero()] * p for _ in range(p)]
    zero_qp = [[ctx.zero()] * p for _ in range(q)]
    zero_qq = [[ctx.zero()] * q for _ in range(q)]
    eye = [[ctx.one() if i == j else ctx.zero() for j in range(q)] for i in range(q)]
    k0 = SuperMatrix.from_blocks(
        zero_pp,
        [[span_combo() for _ in range(q)] for _ in range(p)],
        [[ann_combo() for _ in range(p)] for _ in range(q)],
        eye,
    )
    mats = [k0]
    for _ in range(degree):
        mats.append(
            SuperMatrix.from_blocks(
                zero_pp,
                [[span_combo() for _ in range(q)] for _ in range(p)],
                zero_qp,
                zero_qq,
            )
        )
    return ComponentList(mats)
