"""GrassmannPoly and LaurentScalar arithmetic; GrassmannPoly calculus and
substitution."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superband.algebra import GrassmannElement, create_algebra
from superband.errors import ConfigError, ContextError, ParityError
from superband.poly import MAX_VAR_DEGREE, GrassmannPoly, LaurentScalar
from superband.randgen import random_element


def _random_poly(rng, ctx, max_deg=3):
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        c = random_element(rng, ctx, max_terms=2)
        if not c.is_zero():
            coeffs[key] = c
    return sum(
        (GrassmannPoly.term(c, t=k[0], s=k[1]) for k, c in coeffs.items()),
        GrassmannPoly.zero(ctx),
    )


class TestBasics:
    def test_canonical_zero_dropping(self):
        ctx = create_algebra(2)
        t = GrassmannPoly.variable(ctx, "t")
        assert (t - t).is_zero()
        assert GrassmannPoly.constant(ctx.zero()).is_zero()

    def test_unknown_variable(self):
        ctx = create_algebra(2)
        with pytest.raises(ConfigError):
            GrassmannPoly.variable(ctx, "x")

    def test_parameters_commute(self):
        ctx = create_algebra(2)
        t = GrassmannPoly.variable(ctx, "t")
        s = GrassmannPoly.variable(ctx, "s")
        xi = GrassmannPoly.constant(ctx.gen(1))
        assert t * s == s * t
        assert t * xi == xi * t

    def test_degree_cap(self):
        ctx = create_algebra(1)
        with pytest.raises(ConfigError):
            GrassmannPoly.term(ctx.one(), t=MAX_VAR_DEGREE + 1)
        half = GrassmannPoly.term(ctx.one(), t=5)
        with pytest.raises(ConfigError):
            half * half

    def test_parity_views(self):
        ctx = create_algebra(2)
        even = GrassmannPoly.term(ctx.one(), t=2)
        odd = GrassmannPoly.term(ctx.gen(1), t=1)
        assert even.is_even() and not even.is_odd()
        assert odd.is_odd() and not odd.is_even()
        assert GrassmannPoly.zero(ctx).is_even()

    def test_str_and_repr(self):
        ctx = create_algebra(3)
        p = (
            GrassmannPoly.term(ctx.gen(1), t=2, s=1)
            + GrassmannPoly.term(ctx.scalar(-1), s=3)
            + GrassmannPoly.constant(ctx.scalar(2))
            + GrassmannPoly.term(ctx.gen(2), t=1)
        )
        assert str(p) == "(2) + (-1)*s^3 + (xi2)*t + (xi1)*t^2*s"
        assert repr(p) == f"<poly {p}>"
        assert str(GrassmannPoly.zero(ctx)) == "0"
        assert repr(GrassmannPoly.zero(ctx)) == "<poly 0>"


class TestConstructor:
    def test_zero_coefficients_are_dropped(self):
        ctx = create_algebra(3)
        p = GrassmannPoly(ctx, {(0, 0): ctx.zero(), (1, 0): ctx.gen(1)})
        assert list(p.terms) == [(1, 0)]
        assert GrassmannPoly(ctx, {(0, 0): ctx.zero()}) == GrassmannPoly.zero(ctx)

    @pytest.mark.parametrize("key", [
        (MAX_VAR_DEGREE + 3, 0), (0, MAX_VAR_DEGREE + 1), (-1, 0), (1.5, 0),
        (1,), (0, 0, 0), "ts",
    ])
    def test_bad_keys_refused(self, key):
        ctx = create_algebra(3)
        with pytest.raises(ConfigError):
            GrassmannPoly(ctx, {key: ctx.one()})

    def test_bad_coefficients_refused(self):
        ctx = create_algebra(3)
        with pytest.raises(ConfigError):
            GrassmannPoly(ctx, {(0, 0): 1})
        with pytest.raises(ContextError):
            GrassmannPoly(ctx, {(0, 0): create_algebra(4).one()})

    def test_exponents_by_position_or_keyword(self):
        ctx = create_algebra(2)
        p = GrassmannPoly.term(ctx.gen(1), 2, s=1)
        assert p == GrassmannPoly.term(ctx.gen(1), t=2, s=1)
        assert p.coefficient(2, 1) == p.coefficient(s=1, t=2) == ctx.gen(1)
        assert p.coefficient() == ctx.zero()
        for args, named in (((1, 2, 3), {}), ((1,), {"t": 1}), ((), {"iz": 1})):
            with pytest.raises(TypeError):
                GrassmannPoly.term(ctx.one(), *args, **named)


class TestRingLaws:
    def test_associative_distributive(self):
        rng = random.Random(3)
        for _ in range(50):
            ctx = create_algebra(rng.randint(1, 4))
            x, y, z = (_random_poly(rng, ctx, max_deg=2) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_power(self):
        ctx = create_algebra(1)
        t = GrassmannPoly.variable(ctx, "t")
        s = GrassmannPoly.variable(ctx, "s")
        assert (t + s) ** 2 == t * t + 2 * t * s + s * s
        assert (t + s) ** 0 == 1


def _element_values(ctx):
    """(x, y, unit, a square-nonzero cube-zero value) in GrassmannElement."""
    x = 2 + ctx.gen(1) + ctx.monomial((1, 2), Fraction(1, 3))
    y = ctx.gen(2) - ctx.monomial((3,), Fraction(1, 2))
    nil = ctx.gen(1) + ctx.monomial((2, 3))
    return x, y, ctx.one(), nil


def _kind_values(cls, first, second):
    """The same four values in a kind whose variables have the keys
    ``first`` and ``second``, with the element parts as coefficients."""
    def values(ctx):
        x, y, one, _ = _element_values(ctx)
        return (
            cls(ctx, {(0, 0): x, first: y}),
            cls(ctx, {second: x - y}),
            cls.constant(one),
            cls(ctx, {first: ctx.gen(1), second: ctx.monomial((2, 3))}),
        )
    return values


_KINDS = {
    GrassmannElement: _element_values,
    GrassmannPoly: _kind_values(GrassmannPoly, (1, 0), (0, 2)),
    LaurentScalar: _kind_values(LaurentScalar, (1, 0), (0, -1)),
}


@pytest.mark.parametrize("cls", list(_KINDS), ids=lambda cls: cls.__name__)
class TestSharedBase:
    """What the base of GrassmannElement and SparsePoly gives each kind:
    immutability, pickling, subtraction, reflected products and powers."""

    def test_immutable_and_pickled(self, cls):
        x, _, _, _ = _KINDS[cls](create_algebra(3))
        for name, value in (("ctx", None), ("terms", {})):
            with pytest.raises(AttributeError, match=cls.__name__):
                setattr(x, name, value)
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is cls and back == x and back.ctx is x.ctx

    def test_subtraction_is_adding_the_negative(self, cls):
        x, y, _, _ = _KINDS[cls](create_algebra(3))
        assert x - y == x + (-y)
        assert y - x == y + (-x)
        assert (x - x).is_zero() and not x - x and x
        assert (x - y).sorted_terms() == (x + (-y)).sorted_terms()

    @pytest.mark.parametrize("r", [0, 3, -2, Fraction(-3, 2), Fraction(0)])
    def test_rational_on_the_left(self, cls, r):
        x, _, one, _ = _KINDS[cls](create_algebra(3))
        for got, want in ((r - x, -x + r), (r * x, x * r)):
            assert type(got) is cls and got == want
        assert r * x + (1 - r) * x == x
        assert r * one - r == 0
        with pytest.raises(TypeError):
            "r" - x
        with pytest.raises(TypeError):
            [r] * x

    def test_element_on_the_left_keeps_its_side(self, cls):
        ctx = create_algebra(3)
        x, _, one, _ = _KINDS[cls](ctx)
        e = ctx.gen(3)
        assert e * x == (one * e) * x != x * e
        assert e - x == (one * e) - x

    def test_powers(self, cls):
        x, _, one, nil = _KINDS[cls](create_algebra(3))
        assert type(x ** 0) is cls and x ** 0 == one and nil ** 0 == one
        assert x ** 3 == x * x * x
        assert nil ** 2 == nil * nil and nil ** 2
        for k in 3, 4, 9:
            got = nil ** k
            assert type(got) is cls and got.is_zero()
        with pytest.raises(ConfigError):
            x ** -1


def _oracle_product(left, right):
    """The product of two ``sorted_terms()`` lists by the schoolbook rule:
    every pair of terms multiplies its coefficients in order and adds its
    exponent pairs; the nonzero sums come back as a sorted term list.  It
    shares no code with the polynomial classes."""
    sums = {}
    for (a1, b1), c in left:
        for (a2, b2), d in right:
            key = (a1 + a2, b1 + b2)
            sums[key] = sums[key] + c * d if key in sums else c * d
    return sorted((key, c) for key, c in sums.items() if not c.is_zero())


class TestProductOracle:
    KINDS = (
        (GrassmannPoly, range(0, 5)),
        (LaurentScalar, range(-3, 4)),
    )

    @staticmethod
    def _random(rng, ctx, cls, exponents):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            key = (rng.choice(exponents), rng.choice(exponents))
            terms[key] = random_element(rng, ctx, max_terms=3)
        return cls(ctx, terms)

    @pytest.mark.parametrize("cls, exponents", KINDS)
    def test_random_products(self, cls, exponents):
        rng = random.Random(20)
        zeros = 0
        for _ in range(150):
            ctx = create_algebra(rng.randint(1, 4))
            x, y = (self._random(rng, ctx, cls, exponents) for _ in range(2))
            product = x * y
            assert type(product) is cls
            assert product.sorted_terms() == _oracle_product(
                x.sorted_terms(), y.sorted_terms()
            )
            zeros += product.is_zero()
        assert zeros  # the sample includes empty and cancelling products

    @pytest.mark.parametrize("cls, exponents", KINDS)
    def test_products_that_cancel(self, cls, exponents):
        ctx = create_algebra(3)
        a, b = ctx.gen(1), ctx.gen(2)
        # (xi1 + xi2)(xi1 + xi2) t: two nonzero term products cancel
        x = cls(ctx, {(0, 0): a + b})
        y = cls(ctx, {(1, 0): a, (0, 1): b, (1, 1): b})
        z = cls(ctx, {(1, 0): a + b})
        assert _oracle_product(x.sorted_terms(), z.sorted_terms()) == []
        assert (x * z).is_zero() and (x * z).terms == {}
        assert (x * y).sorted_terms() == _oracle_product(
            x.sorted_terms(), y.sorted_terms()
        )
        # an odd coefficient times itself vanishes in every term
        odd = cls(ctx, {(1, 2): a, (2, 0): a})
        assert (odd * odd).is_zero()

    def test_degree_cap_on_products(self):
        ctx = create_algebra(3)
        high = GrassmannPoly.term(ctx.one(), t=MAX_VAR_DEGREE - 2)
        assert (high * GrassmannPoly.term(ctx.one(), t=2)).coefficient(
            t=MAX_VAR_DEGREE
        ) == ctx.one()
        for t, s in ((3, 0), (0, MAX_VAR_DEGREE + 1)):
            with pytest.raises(ConfigError):
                high * GrassmannPoly.term(ctx.gen(1), t=t, s=s)
        with pytest.raises(ConfigError):
            GrassmannPoly.term(ctx.one(), s=5) ** 2
        # Laurent exponents have no cap
        big = LaurentScalar.term(ctx.one(), iz=MAX_VAR_DEGREE, iw=-MAX_VAR_DEGREE)
        assert (big * big).coefficient(2 * MAX_VAR_DEGREE, -2 * MAX_VAR_DEGREE) == ctx.one()


def _oracle_sum(left, right):
    """The sum of two ``sorted_terms()`` lists, term by term, sharing no code
    with the polynomial classes."""
    sums = dict(left)
    for key, c in right:
        sums[key] = sums[key] + c if key in sums else c
    return sorted((key, c) for key, c in sums.items() if not c.is_zero())


@st.composite
def _kind_and_value(draw):
    """A polynomial kind and one of its values over 1..4 generators, with
    coefficients that include zero-body, odd and scalar elements."""
    cls, exponents = draw(st.sampled_from(TestProductOracle.KINDS))
    ctx = create_algebra(draw(st.integers(min_value=1, max_value=4)))
    terms = {}
    for key in draw(st.lists(st.tuples(*[st.sampled_from(exponents)] * 2), max_size=4)):
        monos = draw(st.lists(st.sampled_from(ctx.basis()), max_size=3, unique=True))
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        terms[key] = ctx.element({m: draw(coeffs) for m in monos})
    return cls, cls(ctx, terms)


class TestIdentityOperands:
    """Adding zero and multiplying by one give what the schoolbook oracles
    give, whether the zero or one is a value of the kind, an element or an
    int, and whether it is the shared constant ``ctx.one()`` or a new one."""

    @given(_kind_and_value())
    def test_add_zero(self, kind_value):
        cls, x = kind_value
        zeros = (cls.zero(x.ctx), x.ctx.zero(), 0, cls(x.ctx, {}))
        want = _oracle_sum(x.sorted_terms(), [])
        for zero in zeros:
            for got in (x + zero, zero + x):
                assert type(got) is cls and got.sorted_terms() == want

    @given(_kind_and_value())
    def test_multiply_by_one(self, kind_value):
        cls, x = kind_value
        ctx = x.ctx
        ones = (
            cls.constant(ctx.one()),
            cls.constant(ctx.scalar(1)),
            ctx.one(),
            1,
        )
        want = _oracle_product(x.sorted_terms(), [((0, 0), ctx.one())])
        for one in ones:
            for got in (x * one, one * x):
                assert type(got) is cls and got.sorted_terms() == want
        zero = cls.zero(ctx)
        assert (x * zero).terms == (zero * x).terms == {}


class TestCalculus:
    def test_derivative_power_rule(self):
        ctx = create_algebra(1)
        cube = GrassmannPoly.term(ctx.gen(1), t=3)
        assert cube.derivative("t") == GrassmannPoly.term(3 * ctx.gen(1), t=2)
        assert cube.derivative("s").is_zero()

    def test_integrate_then_derive(self):
        rng = random.Random(5)
        for _ in range(40):
            ctx = create_algebra(rng.randint(1, 4))
            x = _random_poly(rng, ctx, max_deg=3)
            assert x.integrate("t").derivative("t") == x
            assert x.integrate("s").derivative("s") == x

    def test_integral_has_no_constant(self):
        ctx = create_algebra(1)
        one = GrassmannPoly.constant(ctx.one())
        assert one.integrate("t") == GrassmannPoly.variable(ctx, "t")


class TestSubstitution:
    def test_binomial_expansion(self):
        ctx = create_algebra(1)
        t = GrassmannPoly.variable(ctx, "t")
        s = GrassmannPoly.variable(ctx, "s")
        sq = GrassmannPoly.term(ctx.one(), t=2)
        assert sq.substitute("t", t + s) == t * t + 2 * t * s + s * s

    def test_rename(self):
        ctx = create_algebra(1)
        t = GrassmannPoly.variable(ctx, "t")
        s = GrassmannPoly.variable(ctx, "s")
        assert t.rename("t", "s") == s
        with pytest.raises(ConfigError):
            (t + s).rename("t", "s")

    def test_scaling_substitution(self):
        ctx = create_algebra(1)
        sq = GrassmannPoly.term(ctx.one(), t=2)
        half_t = GrassmannPoly.term(ctx.scalar(Fraction(1, 2)), t=1)
        assert sq.substitute("t", half_t) == GrassmannPoly.term(
            ctx.scalar(Fraction(1, 4)), t=2
        )


class TestEval:
    def test_nilpotent_time(self):
        """alpha*t at t = xi2*xi3 gives the triple product."""
        ctx = create_algebra(3)
        at = GrassmannPoly.term(ctx.gen(1), t=1)
        value = at.eval_at({"t": ctx.monomial((2, 3))})
        assert value == ctx.monomial((1, 2, 3))

    def test_rational_time(self):
        ctx = create_algebra(2)
        x = GrassmannPoly.term(ctx.gen(1), t=2) + GrassmannPoly.constant(ctx.one())
        assert x.eval_at({"t": Fraction(1, 2)}) == 1 + ctx.gen(1) * Fraction(1, 4)

    def test_missing_assignment(self):
        ctx = create_algebra(1)
        t = GrassmannPoly.variable(ctx, "t")
        with pytest.raises(ConfigError):
            t.eval_at({})
        with pytest.raises(ConfigError):
            t.eval_at({"t": 1, "x": 2})

    def test_first_missing_parameter_is_named_under_every_hash_seed(self):
        """With t and s both missing, the message names t, whatever order a
        set of the names would iterate in."""
        code = (
            "from superband.algebra import create_algebra\n"
            "from superband.errors import ConfigError\n"
            "from superband.poly import GrassmannPoly\n"
            "ctx = create_algebra(1)\n"
            "ts = GrassmannPoly.variable(ctx, 't') * GrassmannPoly.variable(ctx, 's')\n"
            "try:\n"
            "    ts.eval_at({})\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=env, check=True,
            ).stdout
            assert "no value supplied" in out and "'t'" in out, (seed, out)

    def test_odd_time_rejected(self):
        ctx = create_algebra(1)
        t = GrassmannPoly.variable(ctx, "t")
        with pytest.raises(ParityError):
            t.eval_at({"t": ctx.gen(1)})


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
