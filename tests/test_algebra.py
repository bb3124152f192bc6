"""Grassmann element arithmetic against an independent sign oracle.

The oracle multiplies monomials by bubble-sorting the concatenated index word
and counting swaps, with no code shared with the library's bit-mask sign.
Expected values in the directed tests were frozen from that oracle first.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superband import algebra
from superband.algebra import (
    AlgebraContext,
    AnnihilatorBasis,
    GrassmannElement,
    _combination,
    _odd_elements,
    _ratio,
    annihilator_odd,
    create_algebra,
)
from superband.errors import ConfigError, ContextError, NotInvertible, ParityError
from superband.evolution import LaurentScalar
from superband.gamma import GammaSet
from superband.poly import GrassmannPoly
from superband.randgen import random_element, random_nonzero_odd


# ---------------------------------------------------------------------------
# oracle helpers (kept deliberately naive)
# ---------------------------------------------------------------------------

def _oracle_mul_mono(a, b):
    """Sign and sorted word for a monomial product, by bubble sort."""
    word = list(a) + list(b)
    if len(set(word)) != len(word):
        return 0, ()
    sign = 1
    for _ in range(len(word)):
        for j in range(len(word) - 1):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                sign = -sign
    return sign, tuple(word)


def _terms(x):
    """x as an {index tuple: coefficient} dict, read through sorted_terms.
    The oracles read and compare elements only through the public index
    tuples, never through the kernel's own monomial keys."""
    return dict(x.sorted_terms())


def _oracle_mul(x, y):
    """Dict-level product used as ground truth for GrassmannElement.__mul__."""
    acc = {}
    for ia, ca in x.sorted_terms():
        for ib, cb in y.sorted_terms():
            sign, key = _oracle_mul_mono(ia, ib)
            if sign == 0:
                continue
            acc[key] = acc.get(key, Fraction(0)) + sign * ca * cb
    return {k: v for k, v in acc.items() if v}


def _coordinates(x, monomials):
    """Dense coefficient vector of x over an explicit monomial list."""
    return [x.coefficient(m) for m in monomials]


def _local_rank(rows):
    """Fraction Gaussian elimination written here, independent of the library."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def contexts(draw, max_n=6):
    return create_algebra(draw(st.integers(min_value=1, max_value=max_n)))


@st.composite
def elements(draw, ctx, parity=None, max_terms=4):
    pool = ctx.basis()
    if parity == "odd":
        pool = ctx.odd_monomials()
    elif parity == "even":
        pool = ctx.even_monomials()
    monos = draw(
        st.lists(st.sampled_from(pool), max_size=max_terms, unique=True)
    )
    terms = {}
    for m in monos:
        terms[m] = draw(_coeffs)
    return ctx.element(terms)


@st.composite
def element_triples(draw):
    ctx = draw(contexts())
    return (
        draw(elements(ctx)),
        draw(elements(ctx)),
        draw(elements(ctx)),
    )


@st.composite
def odd_pairs(draw):
    ctx = draw(contexts())
    return draw(elements(ctx, parity="odd")), draw(elements(ctx, parity="odd"))


# ---------------------------------------------------------------------------
# directed cases with frozen values
# ---------------------------------------------------------------------------

class TestDirected:
    def test_product_mixes_sign(self):
        """(xi1 + xi2) * xi1*xi3 == -xi1*xi2*xi3."""
        ctx = create_algebra(3)
        x = ctx.gen(1) + ctx.gen(2)
        y = ctx.monomial((1, 3))
        assert _oracle_mul(x, y) == {(1, 2, 3): Fraction(-1)}
        assert x * y == ctx.monomial((1, 2, 3), -1)

    def test_generator_squares_vanish(self):
        ctx = create_algebra(2)
        assert (ctx.gen(1) * ctx.gen(1)).is_zero()
        assert ctx.gen(1) * ctx.gen(2) == -(ctx.gen(2) * ctx.gen(1))

    def test_inverse_of_two_plus_top(self):
        """1 / (2 + xi1*xi2) == 1/2 - xi1*xi2/4."""
        ctx = create_algebra(2)
        x = 2 + ctx.monomial((1, 2))
        y = x.inverse()
        assert y == ctx.scalar(Fraction(1, 2)) + ctx.monomial((1, 2), Fraction(-1, 4))
        assert x * y == 1

    def test_body_soul_split(self):
        ctx = create_algebra(3)
        x = ctx.scalar(Fraction(5, 3)) + ctx.gen(2) + ctx.monomial((1, 3), 2)
        body, soul = x.body_soul()
        assert body == Fraction(5, 3)
        assert soul == ctx.gen(2) + ctx.monomial((1, 3), 2)
        assert soul.body() == 0

    def test_nilpotency_examples(self):
        ctx = create_algebra(3)
        assert ctx.monomial((1, 2)).nilpotency_index() == 2
        assert ctx.gen(1).nilpotency_index() == 2
        assert ctx.zero().nilpotency_index() == 1
        assert (ctx.gen(1) + ctx.gen(2)).nilpotency_index() == 2
        assert (1 + ctx.gen(1)).nilpotency_index() is None

    def test_parities(self):
        ctx = create_algebra(3)
        assert ctx.zero().parity() == "zero"
        assert ctx.one().parity() == "even"
        assert ctx.gen(1).parity() == "odd"
        assert ctx.monomial((1, 2, 3)).parity() == "odd"
        assert (1 + ctx.gen(1)).parity() == "mixed"
        assert ctx.zero().is_even() and ctx.zero().is_odd()


class TestValidation:
    def test_generator_count_bounds(self):
        with pytest.raises(ConfigError):
            create_algebra(0)
        with pytest.raises(ConfigError):
            create_algebra(17)
        assert create_algebra(16).n == 16

    def test_monomial_index_checks(self):
        ctx = create_algebra(3)
        with pytest.raises(ConfigError):
            ctx.monomial((2, 1))
        with pytest.raises(ConfigError):
            ctx.monomial((1, 1))
        with pytest.raises(ConfigError):
            ctx.monomial((4,))
        with pytest.raises(ConfigError):
            ctx.gen(0)

    def test_constructor_checks_index_tuples(self):
        ctx = create_algebra(3)
        bad = [
            {(2, 1): 1},  # not increasing
            {(1, 1): 1},
            {(4,): 1},  # outside 1..3
            {(0, 2): 1},
            {(1, 2): 1, range(1, 3): 2},  # one monomial twice
            {(2, 1): 1, (): 0},
        ]
        for terms in bad:
            with pytest.raises(ConfigError):
                GrassmannElement(ctx, terms)
            with pytest.raises(ConfigError):
                ctx.element(terms)
        # an index must be an int, not merely equal to one
        for make in (lambda: ctx.monomial((1.0, 2)), lambda: ctx.gen(1.5), lambda: ctx.gen(2.0)):
            with pytest.raises(ConfigError):
                make()

    def test_constructor_drops_zero_coefficients(self):
        ctx = create_algebra(3)
        x = GrassmannElement(ctx, {(): 0, (1, 3): Fraction(2, 4), (2,): 0})
        assert x == ctx.element({(1, 3): Fraction(1, 2)}) == ctx.monomial((1, 3), Fraction(1, 2))
        assert x.sorted_terms() == [((1, 3), Fraction(1, 2))]
        assert GrassmannElement(ctx, {(): 0}).is_zero() and str(GrassmannElement(ctx, {})) == "0"

    def test_coefficient_checks_its_monomial(self):
        ctx = create_algebra(3)
        x = ctx.monomial((1, 2), 5) + 1
        assert x.coefficient((1, 2)) == 5 and x.coefficient(()) == 1
        assert x.coefficient([1, 3]) == 0
        # xi2*xi1 = -xi1*xi2, so a coefficient at (2, 1) would be ambiguous
        for idx in ((2, 1), (1, 1), (4,)):
            with pytest.raises(ConfigError):
                x.coefficient(idx)

    def test_context_mixing(self):
        a = create_algebra(2).gen(1)
        b = create_algebra(3).gen(1)
        with pytest.raises(ContextError):
            a * b
        with pytest.raises(ContextError):
            a + b
        assert a != b

    def test_contexts_with_equal_n_interoperate(self):
        x = create_algebra(3).gen(1)
        y = create_algebra(3).gen(2)
        assert x * y == create_algebra(3).monomial((1, 2))

    def test_one_context_per_generator_count(self):
        ctx = create_algebra(4)
        assert AlgebraContext(4) is ctx
        assert copy.copy(ctx) is ctx and copy.deepcopy(ctx) is ctx
        assert pickle.loads(pickle.dumps(ctx)) is ctx
        assert ctx == AlgebraContext(4) and ctx != create_algebra(5)
        with pytest.raises(ContextError):
            ctx.gen(1) * create_algebra(5).gen(2)


# ---------------------------------------------------------------------------
# law-style property tests
# ---------------------------------------------------------------------------

class TestRingLaws:
    @given(element_triples())
    def test_matches_oracle(self, xyz):
        """x*y agrees with the bubble-sort sign oracle."""
        x, y, _ = xyz
        assert _terms(x * y) == _oracle_mul(x, y)

    @given(element_triples())
    def test_associative(self, xyz):
        """(x*y)*z == x*(y*z)."""
        x, y, z = xyz
        assert (x * y) * z == x * (y * z)

    @given(element_triples())
    def test_distributive(self, xyz):
        """x*(y + z) == x*y + x*z."""
        x, y, z = xyz
        assert x * (y + z) == x * y + x * z

    @given(odd_pairs())
    def test_odd_anticommute(self, pair):
        """x*y + y*x == 0 for odd x, y."""
        x, y = pair
        assert (x * y + y * x).is_zero()

    @given(odd_pairs())
    def test_odd_squares_vanish(self, pair):
        """x*x == 0 for odd x."""
        x, _ = pair
        assert (x * x).is_zero()

    @given(element_triples())
    def test_grading(self, xyz):
        """parity(x*y) == parity(x) xor parity(y) for homogeneous nonzero products."""
        x, y, _ = xyz
        if x.parity() not in ("even", "odd") or y.parity() not in ("even", "odd"):
            return
        p = x * y
        if p.is_zero():
            return
        expected = "even" if x.parity() == y.parity() else "odd"
        assert p.parity() == expected

    @given(element_triples())
    def test_even_central(self, xyz):
        """Even elements commute with everything."""
        x, y, _ = xyz
        if x.is_even():
            assert x * y == y * x


class TestInverse:
    @given(
        element_triples(),
        st.integers(min_value=-5, max_value=5).filter(bool)
        | st.sampled_from([Fraction(-2, 3), Fraction(5, 7), Fraction(-4, 9)]),
    )
    def test_inverse_roundtrip(self, xyz, b):
        """x * x.inverse() == 1 whenever the body is nonzero, negative and
        fractional bodies included."""
        x = xyz[0].soul() + b
        assert x * x.inverse() == 1
        assert x.inverse() * x == 1

    @given(element_triples())
    def test_soulful_not_invertible(self, xyz):
        x = xyz[0].soul()
        with pytest.raises(NotInvertible):
            x.inverse()

    @given(element_triples())
    def test_soul_nilpotency_bounded(self, xyz):
        """soul**(n+1) == 0 in an n-generator algebra."""
        x = xyz[0].soul()
        k = x.nilpotency_index()
        assert k is not None and k <= x.ctx.n + 1
        assert (x ** k).is_zero()
        if k > 1:
            assert not (x ** (k - 1)).is_zero()


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------

class TestAnnihilator:
    def test_single_generator_n2(self):
        """Ann(xi1) in two generators is spanned by xi1 alone."""
        ctx = create_algebra(2)
        ann = annihilator_odd([ctx.gen(1)])
        assert [b for b in ann.basis] == [ctx.gen(1)]

    def test_single_generator_n3(self):
        """Ann(xi1) in three generators is span{xi1, xi1*xi2*xi3}."""
        ctx = create_algebra(3)
        ann = annihilator_odd([ctx.gen(1)])
        assert list(ann.basis) == [ctx.gen(1), ctx.monomial((1, 2, 3))]

    def test_zero_generator_gives_whole_odd_part(self):
        ctx = create_algebra(3)
        ann = annihilator_odd([ctx.zero()], ctx=ctx)
        assert ann.dim == len(ctx.odd_monomials())
        ann2 = annihilator_odd([], ctx=ctx)
        assert ann2.dim == ann.dim

    def test_requires_odd_generators(self):
        ctx = create_algebra(3)
        with pytest.raises(ParityError):
            annihilator_odd([ctx.one()])
        with pytest.raises(ConfigError):
            annihilator_odd([])

    def test_membership(self):
        ctx = create_algebra(3)
        ann = annihilator_odd([ctx.gen(1)])
        assert ann.contains(ctx.gen(1))
        assert ann.contains(ctx.monomial((1, 2, 3), Fraction(5, 2)))
        assert not ann.contains(ctx.gen(2))
        assert ann.contains(ctx.zero())
        with pytest.raises(ParityError):
            ann.contains(ctx.one())

    @given(st.data())
    @settings(max_examples=60)
    def test_sound_and_complete(self, data):
        """Every basis vector kills every generator; dimension matches the
        rank count done by a test-local elimination."""
        ctx = data.draw(contexts(max_n=5))
        gens = [
            data.draw(elements(ctx, parity="odd", max_terms=3)) for _ in range(2)
        ]
        ann = annihilator_odd(gens, ctx=ctx)
        for b in ann.basis:
            for g in gens:
                assert (b * g).is_zero()
        # completeness: dim == #odd monomials - rank of the constraint map
        odd = ctx.odd_monomials()
        full = ctx.basis()
        rows = []
        for g in gens:
            images = [ctx.monomial(m) * g for m in odd]
            for target in full:
                rows.append([im.coefficient(target) for im in images])
        expected_dim = len(odd) - _local_rank(rows)
        assert ann.dim == expected_dim
        # independence of the returned basis
        if ann.dim:
            coords = [_coordinates(b, odd) for b in ann.basis]
            assert _local_rank(coords) == ann.dim

    def test_membership_agrees_with_rank_test(self):
        """contains() subtracts each basis vector at its free monomial; the
        test-local elimination must give the same verdict."""
        rng = random.Random(4156)
        verdicts = set()
        for n in (4, 5, 6):
            ctx = create_algebra(n)
            odd = ctx.odd_monomials()
            for _ in range(12):
                gens = [random_nonzero_odd(rng, ctx) for _ in range(rng.randint(1, 2))]
                ann = annihilator_odd(gens, ctx)
                span = [_coordinates(b, odd) for b in ann.basis]
                member = ctx.zero()
                for b in ann.basis:
                    member = member + b * rng.randint(-2, 2)
                candidates = [member] + [
                    random_element(rng, ctx, parity="odd", max_terms=4) for _ in range(4)
                ]
                # equal to a member on every free monomial, off it elsewhere
                candidates += [
                    member + ctx.monomial(m, rng.choice([-1, 2]))
                    for m in rng.sample(odd, 3)
                    if m not in ann.free
                ]
                for x in candidates:
                    coords = _coordinates(x, odd)
                    held = ann.contains(x)
                    assert held == (_local_rank(span + [coords]) == len(span))
                    verdicts.add(held)
        assert verdicts == {True, False}

    def test_span_membership_helper(self):
        ctx = create_algebra(3)
        v = ctx.gen(1) + ctx.gen(2)
        assert GammaSet([v]).contains(2 * v)
        assert not GammaSet([v]).contains(ctx.gen(3))
        assert GammaSet([], ctx=ctx).contains(ctx.zero())

    def test_membership_refuses_a_non_element(self):
        ctx = create_algebra(3)
        ann = annihilator_odd([ctx.gen(1)])
        span = GammaSet([ctx.gen(1)])
        for bad in (3, None, Fraction(1, 2), "xi1"):
            with pytest.raises(ConfigError):
                ann.contains(bad)
            with pytest.raises(ConfigError):
                span.contains(bad)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_odd_element_lies_in_its_own_annihilator(self, data):
        """An odd a squares to zero, so its annihilator is never empty."""
        ctx = data.draw(contexts(max_n=8))
        a = data.draw(elements(ctx, parity="odd").filter(bool))
        assert annihilator_odd([a]).contains(a)

    @given(st.data())
    @settings(max_examples=60)
    def test_gamma_span_agrees_with_rank_test(self, data):
        """A GammaSet accepts exactly the independent vector lists, and its
        membership verdict matches the test-local elimination."""
        ctx = create_algebra(data.draw(st.integers(min_value=3, max_value=6)))
        odd = ctx.odd_monomials()
        vectors = [
            data.draw(elements(ctx, parity="odd", max_terms=3))
            for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
        ]
        # a combination of earlier vectors makes the list dependent
        if data.draw(st.booleans()):
            vectors.append(
                sum((v * data.draw(_coeffs) for v in vectors), ctx.zero())
            )
        coords = [_coordinates(v, odd) for v in vectors]
        if _local_rank(coords) < len(vectors):
            with pytest.raises(ConfigError):
                GammaSet(vectors)
            return
        g = GammaSet(vectors)
        candidates = [
            sum((v * data.draw(_coeffs) for v in vectors), ctx.zero()),
            data.draw(elements(ctx, parity="odd", max_terms=3)),
        ]
        for x in candidates:
            expected = _local_rank(coords + [_coordinates(x, odd)]) == len(vectors)
            assert g.contains(x) == expected


def _inversion_product(a, b):
    """Sign and merged tuple of a * b for index sets, by counting the pairs
    (i in a, j in b) with i > j that interleaving b into a must swap."""
    if set(a) & set(b):
        return 0, ()
    swaps = sum(1 for i in a for j in b if i > j)
    return (-1) ** swaps, tuple(sorted(a + b))


class TestMonomialProducts:
    """Monomial products, which ``algebra`` forms from bit masks, against
    oracles that share no code with that path."""

    def test_every_pair_up_to_n6(self):
        for n in range(1, 7):
            ctx = create_algebra(n)
            basis = ctx.basis()
            for a in basis:
                x = ctx.monomial(a)
                for b in basis:
                    sign, merged = _oracle_mul_mono(a, b)
                    want = {merged: Fraction(sign)} if sign else {}
                    assert _terms(x * ctx.monomial(b)) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_index_sets_up_to_n16(self, data):
        ctx = data.draw(contexts(max_n=16))
        index_sets = st.sets(st.integers(min_value=1, max_value=ctx.n)).map(sorted).map(tuple)
        a, b = data.draw(index_sets), data.draw(index_sets)
        sign, merged = _inversion_product(a, b)
        want = {merged: Fraction(sign)} if sign else {}
        assert _terms(ctx.monomial(a) * ctx.monomial(b)) == want

    def test_random_elements_n10_to_n16(self):
        rng = random.Random(1016)
        for n in range(10, 17):
            ctx = create_algebra(n)
            for _ in range(40):
                x = random_element(rng, ctx, max_terms=6)
                y = random_element(rng, ctx, max_terms=6)
                assert _terms(x * y) == _oracle_mul(x, y)


class TestRatio:
    """``_ratio`` builds coefficients by setting Fraction's slots; the public
    ``Fraction(n, d)`` constructor is its oracle."""

    _ints = st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-(2**200), max_value=2**200),
    )

    def test_fraction_slots_are_the_ones_set(self):
        # a Python that renames these slots must fail here, not compute wrongly
        assert Fraction.__slots__ == ("_numerator", "_denominator")

    @given(_ints, _ints.map(lambda d: abs(d) + 1))
    def test_equals_public_constructor(self, n, d):
        got, want = _ratio(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got == want and hash(got) == hash(want)
        assert str(got) == str(want)

    def test_integers_keep_equality_and_hash(self):
        assert _ratio(4, 2) == 2 and hash(_ratio(4, 2)) == hash(2)
        assert _ratio(0, 7) == 0 and _ratio(0, 7).denominator == 1
        assert _ratio(-6, 4) == Fraction(-3, 2)
        big = 2**100 + 1
        assert _ratio(3 * big, 3) == big and hash(_ratio(3 * big, 3)) == hash(big)
        x = _ratio(-6, 4)
        assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x


def _oracle_sum(x, y, sign=1):
    """Dict-level x + sign*y over Fraction, the ground truth for + and -."""
    acc = _terms(x)
    for key, c in y.sorted_terms():
        acc[key] = acc.get(key, Fraction(0)) + sign * c
    return {k: v for k, v in acc.items() if v}


class TestSumOracle:
    @given(element_triples())
    def test_add_sub_neg_match_fraction_sums(self, xyz):
        x, y, _ = xyz
        assert _terms(x + y) == _oracle_sum(x, y)
        assert _terms(x - y) == _oracle_sum(x, y, -1)
        assert _terms(-x) == _oracle_sum(x.ctx.zero(), x, -1)
        for c in _terms(x + y).values():
            assert type(c) is Fraction

    @given(element_triples())
    def test_identities_match_the_oracles(self, xyz):
        x, _, _ = xyz
        ctx = x.ctx
        for zero in (ctx.zero(), 0, Fraction(0)):
            assert _terms(x + zero) == _terms(zero + x) == _oracle_sum(x, ctx.zero())
        for one in (ctx.one(), 1, ctx.scalar(Fraction(2, 2))):
            assert _terms(x * one) == _terms(one * x) == _oracle_mul(x, ctx.one())
        assert _terms(x * ctx.zero()) == _terms(ctx.zero() * x) == {}


class TestRationalOperands:
    """An int or Fraction operand scales an element without a scalar
    element built for it; the result must be the product with that scalar
    element, coefficients kept as Fractions."""

    RATIONALS = (0, 1, -1, 3, Fraction(-2, 3))

    def test_rational_products_match_scalar_element_products(self):
        rng = random.Random(11)
        ctx = create_algebra(4)
        xs = [ctx.zero(), ctx.scalar(Fraction(5, 2))]
        xs += [random_element(rng, ctx, max_terms=6) for _ in range(60)]
        for x in xs:
            for r in self.RATIONALS:
                want = _terms(x * ctx.scalar(r))
                assert want == _oracle_mul(x, ctx.scalar(r))
                pairs = [(x * r, want), (r * x, want)]
                if r:
                    pairs.append((x / r, _terms(x * ctx.scalar(1 / Fraction(r)))))
                else:
                    assert x * r is r * x is ctx.zero()
                for got, expect in pairs:
                    assert _terms(got) == expect
                    assert all(type(c) is Fraction for c in _terms(got).values())


class TestDivision:
    def test_division_is_the_product_with_the_inverse(self):
        """``x / y`` is ``x * y.inverse()`` for a rational or element y, so a
        divisor whose body is zero, 0 included, is NotInvertible, and one of
        no ring type a TypeError."""
        ctx = create_algebra(3)
        x = ctx.gen(1) + ctx.monomial((2, 3), Fraction(5, 2))
        y = 2 + ctx.monomial((1, 2))
        assert x / 2 == x * Fraction(1, 2)
        assert x / Fraction(1, 3) == x * 3
        assert x / y == x * y.inverse()
        for divisor in (0, Fraction(0), ctx.zero(), ctx.gen(2)):
            with pytest.raises(NotInvertible):
                x / divisor
        with pytest.raises(TypeError):
            x / "x"

    def test_reflected_division_is_the_product_with_the_inverse(self):
        """``r / x`` for a rational r is ``r * x.inverse()``, by the same rule."""
        ctx = create_algebra(3)
        x = 2 + ctx.monomial((1, 2))
        assert 2 / x == x.inverse() * 2
        assert Fraction(1, 2) / x == x.inverse() * Fraction(1, 2)
        assert 2 / ctx.scalar(4) == Fraction(1, 2)
        for divisor in (ctx.zero(), ctx.gen(2), ctx.monomial((1, 2))):
            with pytest.raises(NotInvertible):
                2 / divisor
        with pytest.raises(TypeError):
            "x" / x


class TestOddBuilders:
    def test_odd_elements_are_the_odd_monomials_in_order(self):
        for n in (1, 4, 7):
            ctx = create_algebra(n)
            assert _odd_elements(ctx) == tuple(map(ctx.monomial, ctx.odd_monomials()))
            assert _odd_elements(ctx) is _odd_elements(ctx)

    def test_combination_sums_and_draws_one_coefficient_per_vector(self):
        ctx = create_algebra(4)
        rng = random.Random(3)
        vectors = [random_nonzero_odd(rng, ctx) for _ in range(6)]
        coeffs = [2, 0, Fraction(-1, 3), 1, -3, Fraction(5, 2)]
        drawn = iter(coeffs + [7])
        combo = _combination(ctx, vectors, drawn)
        assert combo == sum((v * c for v, c in zip(vectors, coeffs)), ctx.zero())
        assert next(drawn) == 7
        assert _combination(ctx, [], iter(coeffs)).is_zero()
        # a sum that cancels leaves no zero coefficient behind
        assert _combination(ctx, vectors[:1] * 2, [1, -1]).terms == {}


class TestHashAgreesWithEquality:
    def test_constants_hash_like_what_they_equal(self):
        ctx = create_algebra(3)
        half = Fraction(1, 2)
        for value in (0, 2, half, -7):
            elem = ctx.scalar(value)
            # a scalar element equals its rational, a constant poly or Laurent
            # scalar equals its element: equal values must hash alike
            for x in (elem, GrassmannPoly.constant(elem), LaurentScalar.constant(elem)):
                assert x == value
                assert hash(x) == hash(value)
                assert len({x, value}) == 1
        xi = ctx.gen(1) + ctx.monomial((1, 2, 3), half)
        for x in (GrassmannPoly.constant(xi), LaurentScalar.constant(xi)):
            assert x == xi
            assert hash(x) == hash(xi)
            assert len({x, xi}) == 1
        # non-constant values keep distinct hashes from their coefficients
        assert GrassmannPoly.term(xi, t=1) != xi
        assert len({GrassmannPoly.term(xi, t=1), LaurentScalar.term(xi, iz=1), xi}) == 3

    def test_constants_of_both_kinds_are_equal(self):
        ctx = create_algebra(3)
        # each constant equals its element, so == stays transitive across
        # the two polynomial kinds; non-constant values stay apart
        for elem in (ctx.gen(1), ctx.zero(), ctx.scalar(Fraction(-3, 2))):
            poly, laurent = GrassmannPoly.constant(elem), LaurentScalar.constant(elem)
            assert poly == laurent and laurent == poly
            assert not poly != laurent and not laurent != poly
            assert hash(poly) == hash(laurent) == hash(elem)
            assert len({poly, laurent, elem}) == 1
        xi = ctx.gen(1)
        assert GrassmannPoly.constant(xi) != LaurentScalar.constant(ctx.gen(2))
        assert GrassmannPoly.term(xi, t=1) != LaurentScalar.term(xi, iz=1)
        assert LaurentScalar.term(xi, iz=1) != GrassmannPoly.term(xi, t=1)
        assert GrassmannPoly.constant(xi) != LaurentScalar.term(xi, iz=1)


class TestEqualityAcrossAlgebras:
    @staticmethod
    def _values(ctx):
        """Zero, one and a generator as element, constant poly and Laurent scalar."""
        out = []
        for elem in (ctx.zero(), ctx.one(), ctx.gen(1)):
            out += [elem, GrassmannPoly.constant(elem), LaurentScalar.constant(elem)]
        return out

    def test_values_of_different_algebras_are_unequal(self):
        small, large = create_algebra(3), create_algebra(4)
        for x in self._values(small):
            for y in self._values(large):
                # == is total: False both ways, never a ContextError
                assert not x == y and not y == x, (x, y)
                assert x != y and y != x, (x, y)

    def test_same_algebra_counterparts_stay_equal(self):
        ctx = create_algebra(3)
        values = self._values(ctx)
        for i in range(0, len(values), 3):
            elem, poly, laurent = values[i:i + 3]
            assert elem == poly and poly == elem
            assert elem == laurent and laurent == elem


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
