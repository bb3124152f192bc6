"""The getrandbits draws of ``randgen`` against the stdlib calls they mirror.

``_random_terms``, ``random_coeff`` and ``random_combination`` draw straight
from ``rng.getrandbits``.  The oracle below is the plain stdlib version
(``rng.randint`` and ``rng.sample``): both must give equal values and leave
the generator in the same state, on every branch of ``Random.sample``.
``random_combination`` sums its scaled vectors in one term dict, so it is
also compared, dict order included, with the sum of scaled elements it
replaced and with the same sum over plain dicts of Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superband.algebra import annihilator_odd, create_algebra
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


def _combination_cases():
    """(name, ctx, vectors): disjoint, overlapping and cancelling vectors at
    n = 4, then the annihilator bases of a three-term alpha at n = 6, 8, 10."""
    ctx = create_algebra(4)
    x = ctx.gen
    yield "disjoint", ctx, [x(1), ctx.monomial((1, 2, 3)), x(4)]
    yield "overlapping", ctx, [x(1) + x(2), x(2) - x(3), ctx.monomial((1, 2, 3)) + x(3),
                               x(1) * 2 - x(2), x(3) + x(4)]
    # a vector and its negative cancel whenever their coefficients agree
    yield "cancelling", ctx, [x(1) + x(2), -x(1) - x(2), x(2), x(1) - x(2), x(1) + x(2)]
    for n in (6, 8, 10):
        ctx = create_algebra(n)
        alpha = (ctx.monomial((1, 2, 3)) + ctx.gen(4) * 2
                 - ctx.monomial((2, 5, 6)) * Fraction(1, 3))
        yield f"annihilator_n{n}", ctx, annihilator_odd([alpha], ctx).basis


def _dict_sum(rng, vectors):
    """The terms of the sum of ``v * _stdlib_coeff(rng)``, summed in a plain
    dict: a key keeps its place until its sum cancels, and a key that comes
    back goes to the end."""
    acc = {}
    for v in vectors:
        c = _stdlib_coeff(rng)
        for idx, x in v.terms.items():
            if total := acc.get(idx, 0) + c * x:
                acc[idx] = total
            else:
                acc.pop(idx, None)
    return acc


def test_coefficients_and_combinations_match():
    # the oracles are the sum of scaled elements that random_combination
    # replaced, and the same sum over plain dicts of Fractions
    for case, ctx, vectors in _combination_cases():
        for seed in range(200 if len(vectors) < 10 else 10):
            fast, slow = random.Random(seed), random.Random(seed)
            assert random_coeff(fast) == _stdlib_coeff(slow)
            want = ctx.zero()
            for v in vectors:
                want = want + v * _stdlib_coeff(slow)
            got = random_combination(fast, ctx, vectors)
            assert list(got.terms.items()) == list(want.terms.items()), case
            assert fast.getstate() == slow.getstate()
            plain = random.Random(seed)
            _stdlib_coeff(plain)
            assert list(got.terms.items()) == list(_dict_sum(plain, vectors).items()), case


def test_negative_term_count_is_refused_like_randint():
    ctx = create_algebra(3)
    with pytest.raises(ValueError):
        random.Random(0).randint(0, -1)
    with pytest.raises(ValueError):
        random_element(random.Random(0), ctx, max_terms=-1)
