"""The samplers of invertible even blocks against oracles of their own.

``randgen.random_invertible_even_grid`` draws a block's bodies, redrawing
the whole grid of them until its determinant is nonzero, then one soul term
per entry at most; ``random_supermatrix`` with ``invertible_b`` draws A,
Gamma and Delta once and B last from it, and ``gamma.random_strong_family``
takes its B blocks from it.  The oracles below draw the same values through
``random.Random.randint`` and ``sample`` and judge a block by the body of
``det_even``.  Both must consume the same draws and give the same values, so
the generator state afterwards must match too.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from superband.algebra import GrassmannElement, annihilator_odd, create_algebra
from superband.gamma import random_strong_family
from superband.randgen import (
    random_element, random_invertible_even_grid, random_supermatrix,
)
from superband.supermatrix import SuperMatrix, det_even

SHAPES = ((1, 1), (1, 2), (2, 2))


def _oracle_coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _oracle_element(rng, ctx, pool, max_terms):
    count = rng.randint(0, max_terms)
    terms = {}
    for m in rng.sample(pool, min(count, len(pool))):
        c = _oracle_coeff(rng)
        if c:
            terms[m] = c
    return GrassmannElement(ctx, terms)


def _oracle_grid(rng, ctx, q):
    while True:
        bodies = [[ctx.scalar(_oracle_coeff(rng)) for _ in range(q)] for _ in range(q)]
        if det_even(bodies).body() != 0:
            break
    souls = [m for m in ctx.even_monomials() if m]
    return [[b + _oracle_element(rng, ctx, souls, 1) for b in row] for row in bodies]


def _oracle_supermatrix(rng, ctx, p, q, invertible_b):
    rows = []
    for i in range(p + q):
        row = []
        for j in range(p + q):
            if invertible_b and i >= p and j >= p:
                continue
            pool = ctx.even_monomials() if (i < p) == (j < p) else ctx.odd_monomials()
            row.append(_oracle_element(rng, ctx, pool, 2))
        rows.append(row)
    if invertible_b:
        for row, b_row in zip(rows[p:], _oracle_grid(rng, ctx, q)):
            row.extend(b_row)
    return SuperMatrix(p, q, rows)


def _oracle_nonzero_odd(rng, ctx):
    while True:
        x = _oracle_element(rng, ctx, ctx.odd_monomials(), 3)
        if x:
            return x


def _oracle_combination(rng, ctx, vectors):
    acc = ctx.zero()
    for v in vectors:
        acc = acc + v * _oracle_coeff(rng)
    return acc


def _oracle_strong_family(rng, ctx, p, q, length):
    seeds, ann = [ctx.gen(1)], None
    for _ in range(24):
        trial = [_oracle_nonzero_odd(rng, ctx) for _ in range(rng.randint(1, 2))]
        basis = annihilator_odd(trial, ctx)
        if basis.dim:
            seeds, ann = trial, basis
            break
    if ann is None:
        ann = annihilator_odd(seeds, ctx)
    family = []
    for _ in range(length):
        gamma = [[_oracle_combination(rng, ctx, seeds) for _ in range(q)]
                 for _ in range(p)]
        delta = [[_oracle_combination(rng, ctx, ann.basis) for _ in range(p)]
                 for _ in range(q)]
        zero_a = [[ctx.zero()] * p for _ in range(p)]
        family.append(SuperMatrix.from_blocks(zero_a, gamma, delta, _oracle_grid(rng, ctx, q)))
    return family


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("invertible_b", [True, False])
def test_random_supermatrix_matches_the_element_loop(n, invertible_b):
    ctx = create_algebra(n)
    for seed in range(3):
        for p, q in SHAPES:
            fast = random.Random(f"{seed}:{p}{q}")
            slow = random.Random(f"{seed}:{p}{q}")
            for _ in range(3):
                got = random_supermatrix(fast, ctx, p, q, invertible_b=invertible_b)
                want = _oracle_supermatrix(slow, ctx, p, q, invertible_b)
                assert got == want
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", range(1, 9))
def test_invertible_even_grid_matches_the_element_loop(n):
    ctx = create_algebra(n)
    for seed in range(4):
        for q in (1, 2, 3):
            fast = random.Random(f"grid:{seed}:{q}")
            slow = random.Random(f"grid:{seed}:{q}")
            for _ in range(5):
                got = random_invertible_even_grid(fast, ctx, q)
                assert got == _oracle_grid(slow, ctx, q)
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", range(1, 9))
def test_random_strong_family_matches_the_element_loop(n):
    ctx = create_algebra(n)
    for seed in range(2):
        for p, q in SHAPES:
            fast = random.Random(f"family:{seed}:{p}{q}")
            slow = random.Random(f"family:{seed}:{p}{q}")
            got = random_strong_family(fast, ctx, p, q, length=3)
            assert got == _oracle_strong_family(slow, ctx, p, q, 3)
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_every_b_block_has_an_invertible_body(n):
    ctx = create_algebra(n)
    rng = random.Random(f"bodies:{n}")
    for q in (1, 2, 3, 4):
        for _ in range(20):
            grid = random_invertible_even_grid(rng, ctx, q)
            assert det_even(grid).body() != 0
            assert all(len(x.terms) <= 2 and x.is_even() for row in grid for x in row)
        for p in (1, 2):
            m = random_supermatrix(rng, ctx, p, q)
            assert det_even(m.block_b()).body() != 0
    for p, q in SHAPES:
        for m in random_strong_family(rng, ctx, p, q, length=4):
            assert det_even(m.block_b()).body() != 0


#: SHA-256 of the printed draws of ``_draw_text(n)``, recorded before the
#: monomial pools changed representation; every draw must keep its value
DRAW_DIGESTS = {
    12: "3517f458be056af750d20fd70d91d55649bf7466e851e85a28b11a74239cd8c4",
    16: "25d5598e3f3b73424c4183dd16a1e59d2715155bbd99cdb8ab8ff443f6a256cf",
}


def _draw_text(n):
    ctx = create_algebra(n)
    out = []
    for seed in range(5):
        rng = random.Random(seed)
        for parity in (None, "even", "odd"):
            for _ in range(20):
                out.append(str(random_element(rng, ctx, parity=parity, max_terms=6)))
        for p, q in ((1, 1), (2, 1), (2, 2)):
            for _ in range(3):
                out.append(str(random_supermatrix(rng, ctx, p, q)))
    return "".join(line + "\n" for line in out)


@pytest.mark.parametrize("n", sorted(DRAW_DIGESTS))
def test_draws_past_eight_generators_keep_their_digest(n):
    # pools this large are drawn by sample's seen-set branch, which the
    # oracle tests above (n <= 8) do not all reach
    assert hashlib.sha256(_draw_text(n).encode()).hexdigest() == DRAW_DIGESTS[n]
