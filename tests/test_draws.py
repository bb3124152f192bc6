"""The getrandbits draws of ``randgen`` against the stdlib calls they mirror.

``_random_terms``, ``random_coeff`` and ``random_combination`` draw straight
from ``rng.getrandbits``.  The oracle below is the plain stdlib version
(``rng.randint`` and ``rng.sample``): both must give equal values and leave
the generator in the same state, on every branch of ``Random.sample``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superband.algebra import create_algebra
from superband.randgen import (
    _random_terms,
    _sample,
    random_coeff,
    random_combination,
    random_element,
)


def _stdlib_coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _stdlib_terms(rng, pool, max_terms):
    count = rng.randint(0, max_terms)
    terms = {}
    for m in rng.sample(pool, min(count, len(pool))):
        c = _stdlib_coeff(rng)
        if c:
            terms[m] = c
    return terms


def _pools(ctx):
    return {"all": ctx.basis(), "odd": ctx.odd_monomials(),
            "even": ctx.even_monomials()}


@pytest.mark.parametrize("n", range(1, 9))
def test_terms_match_randint_and_sample(n):
    # pools run from 1 to 256 monomials, so both branches of sample occur
    ctx = create_algebra(n)
    for name, pool in _pools(ctx).items():
        for max_terms in range(4):
            for seed in range(40):
                fast = random.Random(f"{seed}:{name}:{max_terms}")
                slow = random.Random(f"{seed}:{name}:{max_terms}")
                for _ in range(5):
                    got = _random_terms(fast, pool, max_terms)
                    want = _stdlib_terms(slow, pool, max_terms)
                    assert list(got.items()) == list(want.items())
                assert fast.getstate() == slow.getstate()


def test_both_sample_branches_occur():
    sizes = {len(pool) for n in range(1, 9) for pool in _pools(create_algebra(n)).values()}
    assert min(sizes) <= 21 < max(sizes)


@pytest.mark.parametrize("size", [1, 2, 5, 16, 21, 22, 40, 45, 46, 90, 128])
def test_sample_matches_stdlib_for_every_count(size):
    # counts above 5 enlarge sample's set size, which moves the branch point
    pool = tuple(range(size))
    for k in range(1, min(size, 12) + 1):
        for seed in range(10):
            fast = random.Random(f"{seed}:{size}:{k}")
            slow = random.Random(f"{seed}:{size}:{k}")
            assert _sample(fast.getrandbits, pool, k) == slow.sample(pool, k)
            assert fast.getstate() == slow.getstate()


def test_coefficients_and_combinations_match():
    ctx = create_algebra(4)
    vectors = [ctx.gen(1), ctx.monomial((1, 2, 3)), ctx.gen(4)]
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        assert random_coeff(fast) == _stdlib_coeff(slow)
        want = ctx.zero()
        for v in vectors:
            want = want + v * _stdlib_coeff(slow)
        assert random_combination(fast, ctx, vectors) == want
        assert fast.getstate() == slow.getstate()


def test_negative_term_count_is_refused_like_randint():
    ctx = create_algebra(3)
    with pytest.raises(ValueError):
        random.Random(0).randint(0, -1)
    with pytest.raises(ValueError):
        random_element(random.Random(0), ctx, max_terms=-1)
