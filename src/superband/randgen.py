"""Seeded random generation of algebra values for the verification suites.

Everything takes an explicit ``random.Random`` so a fixed seed reproduces the
exact same sample stream; nothing here touches the global RNG state.

The draws of ``random_coeff`` and of every element's terms come straight
from ``rng.getrandbits`` but mirror ``random.Random`` call for call: a
bounded integer follows ``Random._randbelow`` (draw ``n.bit_length()`` bits,
redraw while the result is at least ``n``) and a subset follows the two
branches of ``Random.sample``.  The stream, and so every seeded output, is
the one that ``randint`` and ``sample`` would give, without their three
Python frames per integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, log

from .algebra import AlgebraContext, GrassmannElement
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
    """The sum of ``v * random_coeff(rng)`` over ``vectors``, in order."""
    bits = rng.getrandbits
    acc = ctx.zero()
    for v in vectors:
        acc = acc + v * _coeff(bits)
    return acc


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
    """The canonical term dict of a random sparse element over ``pool``:
    ``randint(0, max_terms)`` terms, picked by ``sample``, each with a
    ``random_coeff`` (dropped when zero)."""
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
        a = bits(4)  # the draws of _coeff, without a call per term
        while a >= 9:
            a = bits(4)
        b = bits(2)
        while b == 3:
            b = bits(2)
        if a != 4:  # a zero numerator drops the term
            terms[m] = _COEFFS[a][b]
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


def random_nonzero_odd(rng, ctx):
    while True:
        x = random_element(rng, ctx, parity="odd")
        if x:
            return x


def random_even_invertible(rng, ctx):
    body = 0
    while body == 0:
        body = rng.randint(-4, 4)
    return random_element(rng, ctx, parity="even", max_terms=2, body=body)


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
    _check_blocks(p, q)
    even, odd = ctx.even_monomials(), ctx.odd_monomials()
    while True:
        rows = [
            [_random_terms(rng, even if (i < p) == (j < p) else odd, 2)
             for j in range(p + q)]
            for i in range(p + q)
        ]
        if not invertible_b or _body_det([row[p:] for row in rows[p:]]):
            return SuperMatrix._graded(
                p, q, [[GrassmannElement(ctx, terms) for terms in row] for row in rows]
            )


def random_supervector(rng, ctx, p=1, q=1):
    even = [random_element(rng, ctx, parity="even", max_terms=2) for _ in range(p)]
    odd = [random_element(rng, ctx, parity="odd", max_terms=2) for _ in range(q)]
    return SuperVector(even, odd)
