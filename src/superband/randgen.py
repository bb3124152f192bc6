"""Seeded random generation of algebra values for the verification suites.

Everything takes an explicit ``random.Random`` so a fixed seed reproduces the
exact same sample stream; nothing here touches the global RNG state.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraContext, GrassmannElement
from .supermatrix import SuperMatrix, SuperVector, _det

#: every value random_coeff draws, keyed by (numerator, denominator); the
#: values are immutable, so each draw can share one
_COEFFS = {(a, b): Fraction(a, b) for a in range(-4, 5) for b in range(1, 4)}


def random_coeff(rng):
    return _COEFFS[rng.randint(-4, 4), rng.randint(1, 3)]


def _random_terms(rng, pool, max_terms):
    """The canonical term dict of a random sparse element over ``pool``."""
    count = rng.randint(0, max_terms)
    terms = {}
    for m in rng.sample(pool, min(count, len(pool))):
        c = random_coeff(rng)
        if c:
            terms[m] = c
    return terms


def random_element(rng, ctx: AlgebraContext, parity=None, max_terms=3, body=None):
    """Random sparse element; ``parity`` in {None, "even", "odd"}.

    ``body`` forces the scalar coefficient (use a nonzero value to make the
    result invertible).
    """
    if parity == "odd":
        pool = ctx.odd_monomials()
    elif parity == "even":
        pool = ctx.even_monomials()
    else:
        pool = ctx.basis()
    terms = _random_terms(rng, pool, max_terms)
    if body is not None:
        if parity == "odd":
            raise ValueError("cannot force a body onto an odd element")
        if body:
            terms[()] = Fraction(body)
        else:
            terms.pop((), None)
    # distinct basis monomials with nonzero Fraction coefficients: already
    # canonical, so ctx.element's checks would find nothing
    return GrassmannElement(ctx, terms)


def random_odd(rng, ctx, max_terms=3):
    return random_element(rng, ctx, parity="odd", max_terms=max_terms)


def random_nonzero_odd(rng, ctx, max_terms=3):
    while True:
        x = random_odd(rng, ctx, max_terms=max_terms)
        if x:
            return x


def random_even_invertible(rng, ctx, max_terms=2):
    body = 0
    while body == 0:
        body = rng.randint(-4, 4)
    return random_element(rng, ctx, parity="even", max_terms=max_terms, body=body)


def _body_det(grid):
    """Body of the determinant of a square grid of term dicts.

    The body map is a ring homomorphism, so this is the determinant of the
    entries' bodies: a rejection loop can judge a try from its raw draws and
    build elements for the accepted try only.
    """
    return _det([[terms.get((), 0) for terms in row] for row in grid])


def random_supermatrix(rng, ctx, p=1, q=1, invertible_b=True):
    """Random even (p|q) supermatrix; with invertible_b the body of det B is
    kept nonzero, by rejection that builds elements for the accepted try only."""
    even, odd = ctx.even_monomials(), ctx.odd_monomials()
    while True:
        rows = [
            [_random_terms(rng, even if (i < p) == (j < p) else odd, 2)
             for j in range(p + q)]
            for i in range(p + q)
        ]
        if not invertible_b or _body_det([row[p:] for row in rows[p:]]):
            return SuperMatrix(
                p, q, [[GrassmannElement(ctx, terms) for terms in row] for row in rows]
            )


def random_supervector(rng, ctx, p=1, q=1):
    even = [random_element(rng, ctx, parity="even", max_terms=2) for _ in range(p)]
    odd = [random_element(rng, ctx, parity="odd", max_terms=2) for _ in range(q)]
    return SuperVector(even, odd)
