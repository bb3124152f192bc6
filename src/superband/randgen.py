"""Seeded random generation of algebra values for the verification suites.

Everything takes an explicit ``random.Random`` so a fixed seed reproduces the
exact same sample stream; nothing here touches the global RNG state.

The draws of elements, coefficients and combinations come straight from
``rng.getrandbits`` but mirror ``random.Random`` call for call: a bounded
integer follows ``Random._randbelow`` (draw ``n.bit_length()`` bits, redraw
while the result is at least ``n``) and a subset follows the two branches of
``Random.sample``.  Their stream is the one that ``randint`` and ``sample``
would give, without their three Python frames per integer.  An invertible
even block has no such mirror: ``random_invertible_even_grid`` draws it
directly, rejecting only the entries' bodies.  ``random_combination`` is
``algebra._combination`` over ``random_coeff`` draws.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import ceil, log

from .algebra import AlgebraContext, GrassmannElement, _combination, _masks, _unchecked
from .supermatrix import SuperMatrix, SuperVector, _check_blocks, _det

#: every value random_coeff draws, as _COEFFS[a + 4][b - 1] for
#: ``randint(-4, 4)`` then ``randint(1, 3)``; the values are immutable, so
#: each draw can share one
_COEFFS = tuple(tuple(Fraction(a, b) for b in range(1, 4)) for a in range(-4, 5))


def _coeff(bits):
    """``random_coeff`` on the generator whose ``getrandbits`` is ``bits``."""
    a = bits(4)
    while a >= 9:
        a = bits(4)
    b = bits(2)
    while b == 3:
        b = bits(2)
    return _COEFFS[a][b]


def random_coeff(rng):
    return _coeff(rng.getrandbits)


def random_combination(rng, ctx, vectors):
    """The sum of ``v * random_coeff(rng)`` over the ``vectors`` of ``ctx``, in order."""
    return _combination(ctx, vectors, map(_coeff, repeat(rng.getrandbits)))


def _sample(bits, pool, k):
    """``rng.sample(pool, k)`` for 0 < k <= len(pool), drawn through ``bits``.

    A population no larger than ``sample``'s set size is drawn by swapping
    in a copy of the pool, a larger one by redrawing indices already seen.
    """
    n = len(pool)
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    picks = []
    if n <= setsize:
        pool = list(pool)
        for top in range(n, n - k, -1):
            width = top.bit_length()
            j = bits(width)
            while j >= top:
                j = bits(width)
            picks.append(pool[j])
            pool[j] = pool[top - 1]
    else:
        width = n.bit_length()
        seen = set()
        for _ in range(k):
            j = bits(width)
            while j >= n or j in seen:
                j = bits(width)
            seen.add(j)
            picks.append(pool[j])
    return picks


def _random_terms(rng, pool, max_terms):
    """The canonical term dict of a random sparse element over the monomial
    masks ``pool``: ``randint(0, max_terms)`` terms, picked by ``sample``,
    each with a ``random_coeff`` (dropped when zero)."""
    if max_terms < 0:
        raise ValueError(f"max_terms must be nonnegative, got {max_terms}")
    bits = rng.getrandbits
    span = max_terms + 1
    width = span.bit_length()
    count = bits(width)
    while count >= span:
        count = bits(width)
    count = min(count, len(pool))
    if not count:  # sample(pool, 0) draws nothing
        return {}
    terms = {}
    for m in _sample(bits, pool, count):
        if c := _coeff(bits):  # a zero coefficient drops the term
            terms[m] = c
    return terms


def random_element(rng, ctx: AlgebraContext, parity=None, max_terms=3, body=None):
    """Random sparse element; ``parity`` in {None, "even", "odd"}.

    ``body`` forces the scalar coefficient (use a nonzero value to make the
    result invertible).
    """
    pool = _masks(ctx.n, {"even": 0, "odd": 1}.get(parity))
    terms = _random_terms(rng, pool, max_terms)
    if body is not None:
        if parity == "odd":
            raise ValueError("cannot force a body onto an odd element")
        if body:
            terms[0] = Fraction(body)
        else:
            terms.pop(0, None)
    return _unchecked(GrassmannElement, ctx, terms)


def random_nonzero_odd(rng, ctx):
    while True:
        x = random_element(rng, ctx, parity="odd")
        if x:
            return x


def random_invertible_even_grid(rng, ctx, q):
    """A q x q grid of even elements whose determinant has a nonzero body.

    The bodies are ``random_coeff`` values, the whole q x q grid of them
    redrawn until its determinant is nonzero; then each entry gets a soul of
    at most one term, as ``_random_terms`` draws it over the even monomials
    other than ``()``.  The body of det B is the determinant of the bodies,
    so rejecting on the bodies alone keeps them distributed as independent
    ``random_coeff`` draws conditioned on that determinant being nonzero,
    independent of the souls, without redrawing anything else.
    """
    bits = rng.getrandbits
    while True:
        bodies = [[_coeff(bits) for _ in range(q)] for _ in range(q)]
        if _det(bodies):
            break
    souls = _masks(ctx.n, 0)[1:]
    grid = []
    for row in bodies:
        out = []
        for body in row:
            terms = {0: body} if body else {}
            terms.update(_random_terms(rng, souls, 1))
            out.append(_unchecked(GrassmannElement, ctx, terms))
        grid.append(out)
    return grid


def random_supermatrix(rng, ctx, p=1, q=1, invertible_b=True):
    """Random even (p|q) supermatrix, its entries drawn row by row; with
    invertible_b the B block is drawn last, by ``random_invertible_even_grid``."""
    _check_blocks(p, q)
    even, odd = _masks(ctx.n, 0), _masks(ctx.n, 1)
    d = p + q
    rows = [
        [_unchecked(GrassmannElement, ctx,
                    _random_terms(rng, even if (i < p) == (j < p) else odd, 2))
         for j in range(p if invertible_b and i >= p else d)]
        for i in range(d)
    ]
    if invertible_b:
        for row, b_row in zip(rows[p:], random_invertible_even_grid(rng, ctx, q)):
            row += b_row
    return SuperMatrix._graded(p, q, rows)


def random_supervector(rng, ctx, p=1, q=1):
    _check_blocks(p, q)
    rows = [[random_element(rng, ctx, parity="even" if i < p else "odd", max_terms=2)]
            for i in range(p + q)]
    return SuperVector._graded(p, q, rows)
