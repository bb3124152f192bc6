"""The rejection samplers against a copy of the loop they replaced.

``random_supermatrix`` and ``gamma._random_invertible_even_grid`` judge each
try from its raw draws and build elements for the accepted try only.  The
oracle below is the earlier loop, kept here with its own element sampler: it
builds every try as elements and tests the body of ``det_even``.  Both must
consume the same draws and give the same matrices, so the generator state
afterwards must match too.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superband.algebra import GrassmannElement, create_algebra
from superband.gamma import _random_invertible_even_grid
from superband.randgen import random_supermatrix
from superband.supermatrix import SuperMatrix, det_even

SHAPES = ((1, 1), (1, 2), (2, 2))


def _oracle_element(rng, ctx, pool):
    count = rng.randint(0, 2)
    terms = {}
    for m in rng.sample(pool, min(count, len(pool))):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[m] = c
    return GrassmannElement(ctx, terms)


def _oracle_supermatrix(rng, ctx, p, q, invertible_b):
    while True:
        rows = []
        for i in range(p + q):
            row = []
            for j in range(p + q):
                if (i < p) == (j < p):
                    row.append(_oracle_element(rng, ctx, ctx.even_monomials()))
                else:
                    row.append(_oracle_element(rng, ctx, ctx.odd_monomials()))
            rows.append(row)
        m = SuperMatrix(p, q, rows)
        if not invertible_b:
            return m
        if det_even(m.block_b()).body() != 0:
            return m


def _oracle_grid(rng, ctx, q):
    for _ in range(40):
        grid = [
            [_oracle_element(rng, ctx, ctx.even_monomials()) for _ in range(q)]
            for _ in range(q)
        ]
        if det_even(grid).body() != 0:
            return grid
    grid = [[ctx.zero()] * q for _ in range(q)]
    for i in range(q):
        body = 0
        while body == 0:
            body = rng.randint(-4, 4)
        x = _oracle_element(rng, ctx, ctx.even_monomials())
        grid[i][i] = GrassmannElement(ctx, {**x.terms, (): Fraction(body)})
    return grid


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("invertible_b", [True, False])
def test_random_supermatrix_matches_the_element_loop(n, invertible_b):
    # an invertible B with q = 2 takes about 4^n / 10 tries, so fewer
    # matrices at the larger n keep the oracle's cost in bounds
    ctx = create_algebra(n)
    for seed in range(3 if n < 8 else 1):
        for p, q in SHAPES:
            fast = random.Random(f"{seed}:{p}{q}")
            slow = random.Random(f"{seed}:{p}{q}")
            for _ in range(3 if n < 6 else 1):
                got = random_supermatrix(fast, ctx, p, q, invertible_b=invertible_b)
                want = _oracle_supermatrix(slow, ctx, p, q, invertible_b)
                assert got == want
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", range(3, 9))
def test_invertible_even_grid_matches_the_element_loop(n):
    ctx = create_algebra(n)
    for seed in range(4):
        for q in (1, 2):
            fast = random.Random(f"grid:{seed}:{q}")
            slow = random.Random(f"grid:{seed}:{q}")
            for _ in range(5):
                assert _random_invertible_even_grid(fast, ctx, q) == _oracle_grid(
                    slow, ctx, q
                )
            assert fast.getstate() == slow.getstate()
