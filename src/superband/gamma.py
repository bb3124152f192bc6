"""Antitriangle supermatrix families controlled by a span of odd elements.

An antitriangle matrix [[0, G], [D, B]] multiplies as

    [[G1 D2, G1 B2], [B1 D2, B1 B2 + D1 G2]],

so whether a product stays antitriangle is decided entirely by the odd
blocks.  This module models the controlling span (`GammaSet`), membership
of (1|1) matrices in the left/right families it defines, strongness of a
family (both mixed odd products vanish), band classification of ordered
pairs, idempotency via the component relations, the closed form of long
chain products with the matching determinant ratio, and closure of
one-parameter antitriangle families under multiplication.
"""

from collections import namedtuple

from . import linalg
from .algebra import (
    GrassmannElement,
    annihilator_odd,
    coordinates,
    in_odd_span,
)
from .errors import ConfigError, ContextError, NotInvertible, ParityError, ShapeError
from .poly import GrassmannPoly
from .randgen import (
    _body_det,
    _random_terms,
    random_coeff,
    random_even_invertible,
    random_nonzero_odd,
)
from .supermatrix import SuperMatrix, _grid_mul, berezinian, det_even

CLOSURE_MENU = ("t", "s", "t+s", "t*s")


def _grid_is_zero(grid):
    return all(x.is_zero() for row in grid for x in row)


def _require_antitriangle(m, what):
    if any(not x.is_zero() for row in m.block_a() for x in row):
        raise ShapeError(f"{what} needs antitriangle matrices (zero upper-left block)")


class GammaSet:
    """A rational span of odd elements with optional even stabilizers.

    ``span`` lists a basis of the controlling odd subspace; the vectors must
    be independent so that coordinates are well defined.  ``stabilizing_evens``
    are even elements b expected to keep the span stable (b*span inside the
    span) -- the requirement for the derived matrix families to stay closed,
    checked by :meth:`stabilizes`.
    """

    __slots__ = ("ctx", "span", "stabilizing_evens", "_ann")

    def __init__(self, span, stabilizing_evens=(), ctx=None):
        vectors = tuple(span)
        if ctx is None:
            if not vectors:
                raise ConfigError("an empty span needs an explicit ctx")
            ctx = vectors[0].ctx
        for v in vectors:
            if not isinstance(v, GrassmannElement):
                raise ConfigError("span entries must be GrassmannElements")
            if v.ctx != ctx:
                raise ContextError("span vectors from different algebras")
            if not v.is_odd():
                raise ParityError(f"span vectors must be odd, got {v}")
        odd = ctx.odd_monomials()
        if linalg.rank([coordinates(v, odd) for v in vectors]) != len(vectors):
            raise ConfigError("span vectors must be linearly independent")
        evens = tuple(stabilizing_evens)
        for b in evens:
            if b.ctx != ctx:
                raise ContextError("stabilizers from a different algebra")
            if not b.is_even():
                raise ParityError(f"stabilizers must be even, got {b}")
        self.ctx = ctx
        self.span = vectors
        self.stabilizing_evens = evens
        self._ann = None

    @property
    def dim(self) -> int:
        return len(self.span)

    def contains(self, x: GrassmannElement) -> bool:
        if x.ctx != self.ctx:
            raise ContextError("element from a different algebra")
        return in_odd_span(x, self.span)

    def annihilator(self):
        """Basis of the odd elements annihilating every span vector (cached)."""
        if self._ann is None:
            self._ann = annihilator_odd(self.span, self.ctx)
        return self._ann

    def stabilizes(self) -> bool:
        """True when every stabilizer maps the span into itself (vacuously
        true without stabilizers)."""
        return all(
            self.contains(v * b) for b in self.stabilizing_evens for v in self.span
        )

    def __repr__(self):
        return f"GammaSet(dim={self.dim}, n={self.ctx.n})"


def gamma_membership(m: SuperMatrix, g: GammaSet, side: str = "left") -> bool:
    """Whether the (1|1) antitriangle matrix [[0, u], [l, b]] belongs to the
    left family (u in the span, l annihilating it) or the mirrored right
    family (l in the span, u annihilating it)."""
    if (m.p, m.q) != (1, 1):
        raise ShapeError(f"membership is defined for (1|1) matrices, got ({m.p}|{m.q})")
    _require_antitriangle(m, "membership")
    if m.ctx != g.ctx:
        raise ContextError("matrix and span from different algebras")
    upper = m.rows[0][1]
    lower = m.rows[1][0]
    if side == "left":
        return g.contains(upper) and g.annihilator().contains(lower)
    if side == "right":
        return g.contains(lower) and g.annihilator().contains(upper)
    raise ConfigError(f"side must be 'left' or 'right', got {side!r}")


class StrongGammaReport(
    namedtuple("StrongGammaReport", "is_strong semigroup_failures strong_failures")
):
    """Outcome of the pairwise orthogonality check on a family.

    ``semigroup_failures`` lists ordered index pairs (i, j) with
    G_i D_j != 0 (the product leaves the antitriangle shape);
    ``strong_failures`` lists pairs with D_i G_j != 0.
    """

    __slots__ = ()


def strong_gamma_check(family) -> StrongGammaReport:
    """Check G_i D_j = 0 and D_i G_j = 0 for all ordered pairs, self-pairs
    included.  An empty family is vacuously strong."""
    mats = list(family)
    if not mats:
        return StrongGammaReport(True, (), ())
    first = mats[0]
    for m in mats:
        if not isinstance(m, SuperMatrix):
            raise ShapeError("expected SuperMatrices")
        if not m.same_shape(first):
            raise ShapeError(
                f"mixed shapes ({m.p}|{m.q}) and ({first.p}|{first.q}) in one family"
            )
        if m.ctx != first.ctx:
            raise ContextError("family members from different algebras")
        _require_antitriangle(m, "strongness")
    gammas = [m.block_gamma() for m in mats]
    deltas = [m.block_delta() for m in mats]
    semigroup, strong = [], []
    for i in range(len(mats)):
        for j in range(len(mats)):
            if not _grid_is_zero(_grid_mul(gammas[i], deltas[j])):
                semigroup.append((i, j))
            if not _grid_is_zero(_grid_mul(deltas[i], gammas[j])):
                strong.append((i, j))
    return StrongGammaReport(
        not semigroup and not strong, tuple(semigroup), tuple(strong)
    )


def band_pair_check(m: SuperMatrix, n: SuperMatrix) -> str:
    """Classify the ordered pair by direct multiplication: ``left_zero`` when
    MN = M, ``right_zero`` when MN = N, ``both`` when MN = M = N, else
    ``neither``."""
    prod = m @ n
    left = prod == m
    right = prod == n
    if left and right:
        return "both"
    if left:
        return "left_zero"
    if right:
        return "right_zero"
    return "neither"


def band_pair_components(m: SuperMatrix, n: SuperMatrix) -> dict:
    """The blockwise conditions behind MN = M for antitriangle factors.

    Returns the truth of G1 D2 = 0 ("orthogonal"), G1 B2 = G1
    ("gamma_stable"), B1 D2 = D2 ("delta_stable") and B1 B2 + D1 G2 = B1
    ("b_band").  Together with equal lower-left blocks these four are
    equivalent to MN = M; the lower-left proviso matters, since e.g. the
    zero matrix left-absorbs everything while "delta_stable" can fail.
    """
    m._check_peer(n)
    _require_antitriangle(m, "band components")
    _require_antitriangle(n, "band components")
    g1, d1, b1 = m.block_gamma(), m.block_delta(), m.block_b()
    g2, d2, b2 = n.block_gamma(), n.block_delta(), n.block_b()
    bb = _grid_mul(b1, b2)
    dg = _grid_mul(d1, g2)
    recombined = [[x + y for x, y in zip(rx, ry)] for rx, ry in zip(bb, dg)]
    return {
        "orthogonal": _grid_is_zero(_grid_mul(g1, d2)),
        "gamma_stable": _grid_mul(g1, b2) == g1,
        "delta_stable": _grid_mul(b1, d2) == d2,
        "b_band": recombined == b1,
    }


def idempotent_strong_check(m: SuperMatrix) -> bool:
    """GB = G, BD = D and B^2 = B; for matrices whose odd blocks are
    orthogonal both ways this is exactly MM = M."""
    _require_antitriangle(m, "idempotency check")
    g, d, b = m.block_gamma(), m.block_delta(), m.block_b()
    return (
        _grid_mul(g, b) == g
        and _grid_mul(b, d) == d
        and _grid_mul(b, b) == b
    )


class ChainReport(
    namedtuple(
        "ChainReport",
        "product closed_form matches_closed_form ber ber_formula ber_matches",
    )
):
    """Product of a chain against its closed antitriangle form.

    ``product`` and ``closed_form`` are SuperMatrices.  ``ber`` is the
    berezinian of the product, ``ber_formula`` the ratio
    -det(G1 W Dn) / det(B1 W Bn); either is None when the needed inverse
    does not exist, and ``ber_matches`` is None whenever one side is.
    """

    __slots__ = ()


def chain_product_verify(family) -> ChainReport:
    """Multiply the chain out and compare with the closed form

        [[0, G1 W Bn], [B1 W Dn, B1 W Bn]],    W = B2 ... B(n-1),

    where W is the empty product (identity) for chains of length two.  The
    berezinian of the product is compared with the determinant ratio
    -det(G1 W Dn)/det(B1 W Bn).  Pairwise-strong chains are expected to
    match on both counts; the function itself only reports.
    """
    mats = list(family)
    if len(mats) < 2:
        raise ConfigError("a chain needs at least two matrices")
    for m in mats:
        _require_antitriangle(m, "chain product")
    product = mats[0]
    for m in mats[1:]:
        product = product @ m

    first, last = mats[0], mats[-1]
    ctx = first.ctx
    p, q = first.p, first.q
    word = [[ctx.one() if i == j else ctx.zero() for j in range(q)] for i in range(q)]
    for m in mats[1:-1]:
        word = _grid_mul(word, m.block_b())
    gamma_word = _grid_mul(first.block_gamma(), word)
    b_word = _grid_mul(first.block_b(), word)
    closed = SuperMatrix.from_blocks(
        [[ctx.zero()] * p for _ in range(p)],
        _grid_mul(gamma_word, last.block_b()),
        _grid_mul(b_word, last.block_delta()),
        _grid_mul(b_word, last.block_b()),
    )
    matches = product == closed

    try:
        ber = berezinian(product)
    except NotInvertible:
        ber = None
    try:
        numerator = det_even(_grid_mul(gamma_word, last.block_delta()))
        denominator = det_even(_grid_mul(b_word, last.block_b()))
        ber_formula = -(numerator * denominator.inverse())
    except NotInvertible:
        ber_formula = None
    ber_matches = None if ber is None or ber_formula is None else ber == ber_formula
    return ChainReport(product, closed, matches, ber, ber_formula, ber_matches)


def _menu_substitution(ctx, label):
    t = GrassmannPoly.variable(ctx, "t")
    s = GrassmannPoly.variable(ctx, "s")
    return {"t": t, "s": s, "t+s": t + s, "t*s": t * s}[label]


def closure_witness(family) -> str | None:
    """The first substitution phi from the menu (t, s, t+s, t*s) with
    family(t) family(s) == family(phi), or None when no candidate works."""
    if "s" in family.variables():
        raise ConfigError("closure expects a family in the single parameter t")
    product = family @ family.rename("t", "s")
    for label in CLOSURE_MENU:
        candidate = family.substitute("t", _menu_substitution(family.ctx, label))
        if candidate == product:
            return label
    return None


def closure_check(family) -> bool:
    """True when the two-parameter product lands back in the family under one
    of the menu substitutions."""
    return closure_witness(family) is not None


def _combination(rng, ctx, basis):
    acc = ctx.zero()
    for b in basis:
        acc = acc + b * random_coeff(rng)
    return acc


def _random_invertible_even_grid(rng, ctx, q):
    pool = ctx.even_monomials()
    for _ in range(40):
        grid = [[_random_terms(rng, pool, 2) for _ in range(q)] for _ in range(q)]
        if _body_det(grid):
            return [[GrassmannElement(ctx, terms) for terms in row] for row in grid]
    return [
        [random_even_invertible(rng, ctx) if i == j else ctx.zero() for j in range(q)]
        for i in range(q)
    ]


def random_strong_family(rng, ctx, p=1, q=1, length=3, span_size=None):
    """Pairwise-strong antitriangle matrices built from a random odd span.

    Upper-odd entries are rational combinations of the span vectors,
    lower-odd entries combinations of their common annihilator, so every
    mixed product of odd blocks vanishes term by term; the lower-right
    blocks are kept invertible so chain berezinians stay defined.
    """
    seeds, ann = [ctx.gen(1)], None
    for _ in range(24):
        k = span_size if span_size else rng.randint(1, 2)
        trial = [random_nonzero_odd(rng, ctx) for _ in range(k)]
        basis = annihilator_odd(trial, ctx)
        if basis.dim:
            seeds, ann = trial, basis
            break
    if ann is None:
        ann = annihilator_odd(seeds, ctx)
    matrices = []
    for _ in range(length):
        gamma = [[_combination(rng, ctx, seeds) for _ in range(q)] for _ in range(p)]
        delta = [[_combination(rng, ctx, ann.basis) for _ in range(p)] for _ in range(q)]
        matrices.append(
            SuperMatrix.from_blocks(
                [[ctx.zero()] * p for _ in range(p)],
                gamma,
                delta,
                _random_invertible_even_grid(rng, ctx, q),
            )
        )
    return matrices
