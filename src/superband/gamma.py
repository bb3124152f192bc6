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
    EVEN, _collection, _context_arg, _graded_arg, _odd_args, _OddSpan, annihilator_odd,
)
from .errors import ConfigError, NotInvertible, ShapeError
from .supermatrix import (
    SuperMatrix, _container_arg, _container_list, _grid_is_zero, _grid_mul, berezinian, det_even,
)

CLOSURE_MENU = ("t", "s", "t+s", "t*s")


def _require_antitriangle(m, what):
    if not _grid_is_zero(m.block_a()):
        raise ShapeError(f"{what} needs antitriangle matrices (zero upper-left block)")


class GammaSet(_OddSpan):
    """A rational span of odd elements with optional even stabilizers.

    ``span`` lists a basis of the controlling odd subspace; the vectors must
    be independent, each adding a pivot to the span's echelon form, against
    which membership is decided.  ``stabilizing_evens``
    are even elements b expected to keep the span stable (b*span inside the
    span) -- the requirement for the derived matrix families to stay closed,
    checked by :meth:`stabilizes`.
    """

    __slots__ = ("stabilizing_evens", "_ann")
    contains = _OddSpan.contains

    def __init__(self, span, stabilizing_evens=(), ctx=None):
        vectors, ctx = _odd_args(span, ctx, "span", "span vector")
        rows = linalg.echelon(v.terms for v in vectors)
        if len(rows) != len(vectors):
            raise ConfigError("span vectors must be linearly independent")
        super().__init__(ctx, vectors, rows)
        evens = _collection(stabilizing_evens, "stabilizing_evens")
        self.stabilizing_evens = tuple(_graded_arg(b, ctx, EVEN, "stabilizer") for b in evens)
        self._ann = None

    @property
    def span(self):
        return self.basis

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


def gamma_membership(m: SuperMatrix, g: GammaSet, side: str = "left") -> bool:
    """Whether the (1|1) antitriangle matrix [[0, u], [l, b]] belongs to the
    left family (u in the span, l annihilating it) or the mirrored right
    family (l in the span, u annihilating it)."""
    if not isinstance(g, GammaSet):
        raise ConfigError(f"span must be a GammaSet, got {type(g).__name__}")
    _container_arg(m, SuperMatrix, "matrix", shape=(1, 1), ctx=g.ctx)
    _require_antitriangle(m, "membership")
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
    mats = _container_list(family, SuperMatrix, "family", "family member {}")
    for m in mats:
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
    prod = _container_arg(m, SuperMatrix, "left operand") @ n
    left = prod == m
    right = prod == n
    if left and right:
        return "both"
    if left:
        return "left_zero"
    if right:
        return "right_zero"
    return "neither"


def antitriangle_product_blocks(m: SuperMatrix, n: SuperMatrix):
    """The four blocks of MN for antitriangle factors of one shape:
    G1 D2, G1 B2, B1 D2 and B1 B2 + D1 G2, in ``from_blocks`` order."""
    _container_arg(m, SuperMatrix, "left factor")
    _container_arg(n, SuperMatrix, "right factor", like=m)
    _require_antitriangle(m, "the block product")
    _require_antitriangle(n, "the block product")
    g1, d1, b1 = m.block_gamma(), m.block_delta(), m.block_b()
    g2, d2, b2 = n.block_gamma(), n.block_delta(), n.block_b()
    # B1 B2 + D1 G2 is one product of [B1 | D1] by [B2 ; G2]
    return (
        _grid_mul(g1, d2),
        _grid_mul(g1, b2),
        _grid_mul(b1, d2),
        _grid_mul([rb + rd for rb, rd in zip(b1, d1)], b2 + g2),
    )


def band_pair_components(m: SuperMatrix, n: SuperMatrix) -> dict:
    """The blockwise conditions behind MN = M for antitriangle factors.

    Returns the truth of G1 D2 = 0 ("orthogonal"), G1 B2 = G1
    ("gamma_stable"), B1 D2 = D2 ("delta_stable") and B1 B2 + D1 G2 = B1
    ("b_band").  Together with equal lower-left blocks these four are
    equivalent to MN = M; the lower-left proviso matters, since e.g. the
    zero matrix left-absorbs everything while "delta_stable" can fail.
    """
    upper_left, gamma, delta, b = antitriangle_product_blocks(m, n)
    return {
        "orthogonal": _grid_is_zero(upper_left),
        "gamma_stable": gamma == m.block_gamma(),
        "delta_stable": delta == n.block_delta(),
        "b_band": b == m.block_b(),
    }


def idempotent_strong_check(m: SuperMatrix) -> bool:
    """GB = G, BD = D and B^2 = B; for matrices whose odd blocks are
    orthogonal both ways this is exactly MM = M."""
    _container_arg(m, SuperMatrix, "matrix")
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
    det(-G1 W Dn) / det(B1 W Bn) = (-1)^p det(G1 W Dn) / det(B1 W Bn);
    either is None when the needed inverse does not exist, and
    ``ber_matches`` is None whenever one side is.  On a pairwise-strong
    chain G1 W Dn vanishes entrywise (G1 holds combinations of span vectors,
    Dn of their annihilator), so ``ber_matches`` compares 0 with 0.
    """

    __slots__ = ()


def chain_product_verify(family) -> ChainReport:
    """Multiply the chain out and compare with the closed form

        [[0, G1 W Bn], [B1 W Dn, B1 W Bn]],    W = B2 ... B(n-1),

    where W is the empty product (identity) for chains of length two.  The
    berezinian of the product is compared with the determinant ratio
    (-1)^p det(G1 W Dn)/det(B1 W Bn), the Berezinian of the closed form when
    B1, W and Bn are invertible, and 0 on pairwise-strong chains (see
    ``ChainReport``).  Pairwise-strong chains are expected to match on both
    counts; the function itself only reports.
    """
    mats = _container_list(family, SuperMatrix, "chain", "matrix {} of a chain of SuperMatrices")
    if len(mats) < 2:
        raise ConfigError("a chain needs at least two matrices")
    for m in mats:
        _require_antitriangle(m, "chain product")
    product = mats[0]
    for m in mats[1:]:
        product = product @ m

    first, last = mats[0], mats[-1]
    ctx, q = first.ctx, first.q
    word = [[ctx.one() if i == j else ctx.zero() for j in range(q)] for i in range(q)]
    for m in mats[1:-1]:
        word = _grid_mul(word, m.block_b())
    gamma_word = _grid_mul(first.block_gamma(), word)
    b_word = _grid_mul(first.block_b(), word)
    closed = SuperMatrix._antitriangle(
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
        ratio = numerator * denominator.inverse()
        ber_formula = -ratio if first.p % 2 else ratio
    except NotInvertible:
        ber_formula = None
    ber_matches = None if ber is None or ber_formula is None else ber == ber_formula
    return ChainReport(product, closed, matches, ber, ber_formula, ber_matches)


def closure_witness(family) -> str | None:
    """The first substitution phi from the menu (t, s, t+s, t*s) with
    family(t) family(s) == family(phi), or None when no candidate works."""
    # imported here, so that check-band loads neither families nor poly
    from .families import in_var, product_and_shift
    from .poly import GrassmannPoly

    product, shifted = product_and_shift(family)
    t = GrassmannPoly.variable(family.ctx, "t")
    candidates = {
        "t": family,
        "s": in_var(family, "s"),
        "t+s": shifted,
        "t*s": family.substitute("t", t * GrassmannPoly.variable(family.ctx, "s")),
    }
    for label in CLOSURE_MENU:
        if candidates[label] == product:
            return label
    return None


def closure_check(family) -> bool:
    """True when the two-parameter product lands back in the family under one
    of the menu substitutions."""
    return closure_witness(family) is not None


def random_strong_family(rng, ctx, p=1, q=1, length=3):
    """Pairwise-strong antitriangle matrices built from a random odd span.

    Upper-odd entries are rational combinations of the span vectors,
    lower-odd entries combinations of their common annihilator, so every
    mixed product of odd blocks vanishes term by term; the lower-right
    blocks are kept invertible so chain berezinians stay defined.
    """
    from .randgen import random_combination, random_invertible_even_grid, random_nonzero_odd

    seeds, ann = [_context_arg(ctx).gen(1)], None
    for _ in range(24):
        trial = [random_nonzero_odd(rng, ctx) for _ in range(rng.randint(1, 2))]
        basis = annihilator_odd(trial, ctx)
        if basis.dim:
            seeds, ann = trial, basis
            break
    if ann is None:
        ann = annihilator_odd(seeds, ctx)
    matrices = []
    for _ in range(length):
        gamma = [[random_combination(rng, ctx, seeds) for _ in range(q)]
                 for _ in range(p)]
        delta = [[random_combination(rng, ctx, ann.basis) for _ in range(p)]
                 for _ in range(q)]
        b = random_invertible_even_grid(rng, ctx, q)
        matrices.append(SuperMatrix._antitriangle(gamma, delta, b))
    return matrices
