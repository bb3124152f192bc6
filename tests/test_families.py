"""Laws of the named one-parameter families and the multiplication table.

Each docstring states the law being checked.  Laws are exercised over a fixed
list of directed alphas plus a seeded random sweep of odd elements, since
every law is claimed for arbitrary odd alpha (equivalently alpha^2 = 0).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superband.algebra import create_algebra
from superband.analysis import components_of, random_band_components
from superband.errors import ConfigError, ParityError
from superband.families import (
    ParamSuperMatrix,
    cayley_table_verify,
    commutator,
    differential_sequence,
    functional_residual,
    generator_of,
    in_var,
    intertwiner_check,
    inverse_relations_check,
    make_family,
    match_named_form,
    matrix_exp_nilpotent,
    nilpotent_time_commute_check,
    rectangular_band_element,
    smoothing,
    standard_operands,
)
from superband.evolution import LaurentMatrix, laplace
from superband.gamma import chain_product_verify, random_strong_family
from superband.poly import GrassmannPoly, LaurentScalar
from superband.randgen import random_element, random_nonzero_odd
from superband.suites import _random_antitriangle
from superband.supermatrix import SuperMatrix, classify_reduction


def _alphas():
    """Directed odd elements plus a seeded random sweep."""
    out = []
    ctx3 = create_algebra(3)
    out.append(ctx3.gen(1))
    out.append(ctx3.gen(1) + 2 * ctx3.gen(2))
    out.append(ctx3.monomial((1, 2, 3)) + ctx3.gen(2) * Fraction(1, 2))
    rng = random.Random(101)
    for _ in range(8):
        ctx = create_algebra(rng.randint(2, 6))
        out.append(random_nonzero_odd(rng, ctx))
    return out


def _tvar(ctx):
    return GrassmannPoly.variable(ctx, "t")


def _svar(ctx):
    return GrassmannPoly.variable(ctx, "s")


class TestConstruction:
    def test_frozen_shapes(self):
        ctx = create_algebra(2)
        xi = ctx.gen(1)
        p = make_family("P", xi)
        assert p.rows[0][0].is_zero()
        assert p.rows[0][1] == GrassmannPoly.term(xi, t=1)
        assert p.rows[1][0] == GrassmannPoly.constant(xi)
        assert p.rows[1][1] == GrassmannPoly.constant(ctx.one())
        t_fam = make_family("T", xi)
        assert t_fam.rows[0][0] == GrassmannPoly.constant(ctx.one())
        assert t_fam.rows[1][0].is_zero()

    def test_alpha_must_be_odd(self):
        ctx = create_algebra(2)
        with pytest.raises(ParityError):
            make_family("P", ctx.one())

    def test_unknown_kind(self):
        ctx = create_algebra(2)
        with pytest.raises(ConfigError):
            make_family("W", ctx.gen(1))

    def test_eval_at_nilpotent_time(self):
        """P at t = xi2*xi3 has upper-right xi1*xi2*xi3."""
        ctx = create_algebra(3)
        p = make_family("P", ctx.gen(1))
        m = p.eval_at({"t": ctx.monomial((2, 3))})
        assert m.rows[0][1] == ctx.monomial((1, 2, 3))


class TestBandLaws:
    def test_left_zero(self):
        """P(t) P(s) == P(t)."""
        for alpha in _alphas():
            p = make_family("P", alpha)
            assert p @ in_var(p, "s") == p

    def test_right_zero(self):
        """Q(t) Q(s) == Q(s)."""
        for alpha in _alphas():
            q = make_family("Q", alpha)
            assert q @ in_var(q, "s") == in_var(q, "s")

    def test_idempotent_at_every_time(self):
        """P(t)^2 == P(t) and Q(t)^2 == Q(t)."""
        for alpha in _alphas():
            for kind in ("P", "Q"):
                f = make_family(kind, alpha)
                assert f @ f == f

    def test_rectangular_band(self):
        """M(a, b) M(c, d) == M(a, d) for M(a, b) = P(a) Q(b).

        Entries are affine in each argument, so formal outer arguments plus
        two rational values for each inner argument prove the law.
        """
        for alpha in _alphas():
            ctx = alpha.ctx
            p, q = make_family("P", alpha), make_family("Q", alpha)
            assert p @ in_var(q, "s") == rectangular_band_element(
                alpha, _tvar(ctx), _svar(ctx)
            )
            target = rectangular_band_element(alpha, _tvar(ctx), _svar(ctx))
            for inner_b in (0, 1, Fraction(-2, 3)):
                for inner_c in (0, 1, 5):
                    left = rectangular_band_element(alpha, _tvar(ctx), inner_b)
                    right = rectangular_band_element(alpha, inner_c, _svar(ctx))
                    assert left @ right == target


class TestIdempotentE:
    def test_qp_gives_e(self):
        """Q(t) P(s) == E."""
        for alpha in _alphas():
            q = make_family("Q", alpha)
            p = make_family("P", alpha)
            assert q @ in_var(p, "s") == make_family("E", alpha)

    def test_e_absorbs(self):
        """P(t) E == P(t), E P(t) == E, Q(t) E == E, E Q(t) == Q(t)."""
        for alpha in _alphas():
            p = make_family("P", alpha)
            q = make_family("Q", alpha)
            e = make_family("E", alpha)
            assert p @ e == p
            assert e @ p == e
            assert q @ e == e
            assert e @ q == q

    def test_e_is_p1_q1(self):
        """P(1) == Q(1) == E, and E is idempotent."""
        for alpha in _alphas():
            ctx = alpha.ctx
            one = GrassmannPoly.constant(ctx.one())
            e = make_family("E", alpha)
            assert make_family("P", alpha).substitute("t", one) == e
            assert make_family("Q", alpha).substitute("t", one) == e
            assert e @ e == e


class TestGeneratorA:
    def test_difference_is_generator(self):
        """P(t) - P(s) == A*(t - s)."""
        for alpha in _alphas():
            ctx = alpha.ctx
            p = make_family("P", alpha)
            a = make_family("A", alpha)
            assert p - in_var(p, "s") == a.scale(_tvar(ctx) - _svar(ctx))

    def test_affine_form(self):
        """P(t) == P(0) + A*t."""
        for alpha in _alphas():
            ctx = alpha.ctx
            p = make_family("P", alpha)
            p0 = ParamSuperMatrix.from_supermatrix(p.eval_at({"t": 0}))
            assert p == p0 + make_family("A", alpha).scale(_tvar(ctx))

    def test_annihilation(self):
        """P(t) A == Z, A P(t) == A, A A == Z."""
        for alpha in _alphas():
            p = make_family("P", alpha)
            a = make_family("A", alpha)
            z = make_family("Z", alpha)
            assert p @ a == z
            assert a @ p == a
            assert a @ a == z

    def test_derivative_equation(self):
        """F' == A F for F in {P, T}."""
        for alpha in _alphas():
            a = make_family("A", alpha)
            for kind in ("P", "T"):
                f = make_family(kind, alpha)
                assert f.derivative("t") == a @ f

    def test_generator_of(self):
        """generator_of(P) == generator_of(T) == A; generator_of(Z) == 0."""
        for alpha in _alphas():
            a0 = make_family("A", alpha).eval_at({"t": 0})
            assert generator_of(make_family("P", alpha)) == a0
            assert generator_of(make_family("T", alpha)) == a0
            assert generator_of(make_family("Z", alpha)).is_zero()


class TestPowersAndCommutators:
    def test_inverse_relations(self):
        """P T P == P, T P T == P(2t), T^n P == P((n+1)t), P^n T == P,
        plus the Y laws."""
        for alpha in _alphas():
            report = inverse_relations_check(alpha)
            failed = [k for k, v in report.items() if v is not True]
            assert not failed, failed

    def test_commutators(self):
        """[T(t), P(s)] == A*t and [P(t), P(s)] == A*(t-s)."""
        for alpha in _alphas():
            ctx = alpha.ctx
            p = make_family("P", alpha)
            t_fam = make_family("T", alpha)
            a = make_family("A", alpha)
            assert commutator(t_fam, in_var(p, "s")) == a.scale(_tvar(ctx))
            assert commutator(p, in_var(p, "s")) == a.scale(_tvar(ctx) - _svar(ctx))

    def test_nilpotent_time_commute(self):
        """T and P commute exactly at times annihilating alpha."""
        ctx = create_algebra(3)
        alpha = ctx.gen(1)
        p = make_family("P", alpha)
        t_fam = make_family("T", alpha)
        pair = (t_fam, in_var(p, "s"))
        assert nilpotent_time_commute_check(*pair, ctx.monomial((1, 2)), alpha)
        assert nilpotent_time_commute_check(*pair, 0, alpha)
        assert not nilpotent_time_commute_check(*pair, 1, alpha)
        assert not nilpotent_time_commute_check(*pair, ctx.monomial((2, 3)), alpha)
        with pytest.raises(ParityError):
            nilpotent_time_commute_check(*pair, ctx.gen(2), alpha)


class TestFunctionalEquation:
    def test_residual_of_p(self):
        """P(t+s) - P(t)P(s) == P'(t) * s == A*s."""
        for alpha in _alphas():
            ctx = alpha.ctx
            p = make_family("P", alpha)
            residual = functional_residual(p)
            assert residual == make_family("A", alpha).scale(_svar(ctx))
            assert residual == p.derivative("t").scale(_svar(ctx))

    def test_residual_of_t(self):
        """T satisfies the exponential law exactly."""
        for alpha in _alphas():
            assert functional_residual(make_family("T", alpha)).is_zero()

    def test_residual_of_constant_idempotent(self):
        """E(t+s) - E E == Z."""
        for alpha in _alphas():
            assert functional_residual(make_family("E", alpha)).is_zero()


class TestCayleyTable:
    def test_closure_and_known_discrepancies(self):
        """All 49 products match named forms; direct computation contradicts
        the stored reference exactly in the three P/Y mixed cells."""
        for alpha in _alphas():
            report = cayley_table_verify(alpha)
            assert report.all_matched
            assert set(report.discrepancies) == {
                ("P(t)", "Y(t)", "Y(0)", "P(t)"),
                ("P(s)", "Y(t)", "Y(0)", "P(s)"),
                ("Y(t)", "P(s)", "A*t", "A*s"),
            }

    def test_spot_checked_cells(self):
        """Row T(t): T(t)P(t) == P(2t), T(t)T(s) == T(t+s), T(t)Y(t) == Y(t)."""
        alpha = create_algebra(2).gen(1)
        report = cayley_table_verify(alpha)
        assert report.computed[("T(t)", "P(t)")] == "P(2t)"
        assert report.computed[("T(t)", "T(s)")] == "T(t+s)"
        assert report.computed[("T(t)", "Y(t)")] == "Y(t)"
        assert report.computed[("Y(t)", "P(t)")] == "A*t"
        assert report.computed[("P(t)", "Y(t)")] == "Y(0)"

    def test_subtable_associativity(self):
        """The {P(t), P(s), A, Z} sub-table is associative at the label level."""
        alpha = create_algebra(3).gen(1) + create_algebra(3).gen(2)
        operands = standard_operands(alpha)
        sub = {k: operands[k] for k in ("P(t)", "P(s)", "A", "Z")}

        def law(x, y):
            label = match_named_form(sub[x] @ sub[y], alpha)
            assert label in sub, f"{x}*{y} left the sub-table: {label}"
            return label

        for x in sub:
            for y in sub:
                for z in sub:
                    assert law(law(x, y), z) == law(x, law(y, z))


class TestSmoothing:
    def test_frozen_values(self):
        """Smoothing P gives [[0, alpha t^2/2], [alpha t, t]]; smoothing T
        gives [[t, alpha t^2/2], [0, t]]."""
        ctx = create_algebra(2)
        alpha = ctx.gen(1)
        vp = smoothing(make_family("P", alpha))
        assert vp.rows[0][1] == GrassmannPoly.term(alpha * Fraction(1, 2), t=2)
        assert vp.rows[1][0] == GrassmannPoly.term(alpha, t=1)
        assert vp.rows[1][1] == GrassmannPoly.term(ctx.one(), t=1)
        assert vp.rows[0][0].is_zero()
        vt = smoothing(make_family("T", alpha))
        assert vt.rows[0][0] == GrassmannPoly.term(ctx.one(), t=1)
        assert vt.rows[0][1] == GrassmannPoly.term(alpha * Fraction(1, 2), t=2)

    def test_trapezoid_form(self):
        """For affine families, the smoothing equals (t/2)(F(t) + F(0))."""
        for alpha in _alphas():
            ctx = alpha.ctx
            half_t = GrassmannPoly.term(ctx.scalar(Fraction(1, 2)), t=1)
            for kind in ("P", "T", "Y", "A", "Z"):
                f = make_family(kind, alpha)
                f0 = ParamSuperMatrix.from_supermatrix(f.eval_at({"t": 0}))
                assert smoothing(f) == (f + f0).scale(half_t)


class TestDifferentialSequence:
    def test_chain(self):
        """S_0 == P, d/dt S_k == S_{k-1}, d/dt S_0 == A, S_1 == smoothing(P)."""
        for alpha in _alphas()[:6]:
            seq = differential_sequence(alpha, 5)
            p = make_family("P", alpha)
            assert seq[0] == p
            assert seq[1] == smoothing(p)
            a_const = ParamSuperMatrix.from_supermatrix(generator_of(p))
            assert seq[0].derivative("t") == a_const
            assert a_const.derivative("t").is_zero()
            for k in range(1, len(seq)):
                assert seq[k].derivative("t") == seq[k - 1]

    def test_bounds(self):
        alpha = create_algebra(2).gen(1)
        with pytest.raises(ConfigError):
            differential_sequence(alpha, 0)
        with pytest.raises(ConfigError):
            differential_sequence(alpha, 9)
        # the top of the range stays under the degree cap
        assert len(differential_sequence(alpha, 8)) == 9


class TestIntertwiners:
    def test_directed(self):
        ctx = create_algebra(3)
        report = intertwiner_check(
            ctx.gen(2), ctx.gen(3), ctx.scalar(2), ctx.scalar(3), ctx.gen(1)
        )
        assert report["tu"] and report["ut"] and report["u_squared"]

    def test_random_sweep(self):
        """T(t) U == U P(t), Ustar T(t) == P(t) Ustar, U^2 == sigma*rho*A."""
        rng = random.Random(103)
        for _ in range(15):
            ctx = create_algebra(rng.randint(3, 6))
            alpha = random_nonzero_odd(rng, ctx)
            sigma = random_nonzero_odd(rng, ctx)
            rho = random_nonzero_odd(rng, ctx)
            u = random_element(rng, ctx, parity="even", max_terms=2)
            v = random_element(rng, ctx, parity="even", max_terms=2)
            report = intertwiner_check(sigma, rho, u, v, alpha)
            assert report["tu"] and report["ut"] and report["u_squared"]

    def test_parity_guards(self):
        ctx = create_algebra(2)
        with pytest.raises(ParityError):
            intertwiner_check(ctx.one(), ctx.gen(1), ctx.one(), ctx.one(), ctx.gen(1))
        with pytest.raises(ParityError):
            intertwiner_check(ctx.gen(1), ctx.gen(2), ctx.gen(1), ctx.one(), ctx.gen(1))


class TestExponentialFamily:
    def test_t_is_exp_of_generator(self):
        """T == exp(A t), computed as a terminating series."""
        for alpha in _alphas():
            t_fam = make_family("T", alpha)
            assert matrix_exp_nilpotent(generator_of(t_fam)) == t_fam

    def test_exp_never_in_band(self):
        """Every eval of T is even-reduced with unit body in the corner;
        every eval of P is odd-reduced - the families never meet."""
        for alpha in _alphas()[:6]:
            t_fam = make_family("T", alpha)
            p = make_family("P", alpha)
            for tau in (0, 1, Fraction(3, 2)):
                t_val = t_fam.eval_at({"t": tau})
                p_val = p.eval_at({"t": tau})
                assert classify_reduction(t_val) == "even_reduced"
                assert classify_reduction(p_val) == "odd_reduced"
                assert t_val.rows[0][0].body() == 1
                assert p_val.rows[0][0].body() == 0

    def test_exp_requires_nilpotent(self):
        ctx = create_algebra(2)
        with pytest.raises(ConfigError):
            matrix_exp_nilpotent(SuperMatrix.identity(ctx, 1, 1))

    @pytest.mark.parametrize("pairs", [7, 8])
    def test_exp_up_to_the_degree_cap(self, pairs):
        """A = [[e, 1], [0, e]] with e a sum of ``pairs`` products xi xi has
        A^k != 0 up to k = pairs + 1: the series stops below t^9 for 7 pairs,
        where it equals sum A^k t^k / k! summed here, and is refused for 8."""
        ctx = create_algebra(2 * pairs)
        e = sum((ctx.monomial((2 * i + 1, 2 * i + 2)) for i in range(pairs)), ctx.zero())
        zero = ctx.zero()
        a = [[e, ctx.one()], [zero, e]]
        zeros = [[zero, zero], [zero, zero]]
        m = SuperMatrix.from_blocks(a, zeros, zeros, zeros)
        if pairs == 8:
            with pytest.raises(ConfigError):
                matrix_exp_nilpotent(m)
            return
        want = ParamSuperMatrix.identity(ctx, 2, 2)
        power = SuperMatrix.identity(ctx, 2, 2)
        factorial = 1
        for k in range(1, 9):
            power = power @ m
            factorial *= k
            weight = GrassmannPoly.term(ctx.scalar(Fraction(1, factorial)), t=k)
            want = want + ParamSuperMatrix.from_supermatrix(power).scale(weight)
        assert not power.is_zero() and (power @ m).is_zero()  # A^8 != 0 = A^9
        assert matrix_exp_nilpotent(m) == want


_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _graded_elements(draw, ctx, odd):
    pool = ctx.odd_monomials() if odd else ctx.even_monomials()
    monos = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
    return ctx.element({m: draw(_coeffs) for m in monos})


@st.composite
def _graded_polys(draw, ctx, odd, t_only=False):
    """A polynomial in t and s (or in t alone) of degree at most 2 in each,
    with coefficients of one parity."""
    exponents = st.tuples(st.integers(0, 2), st.just(0) if t_only else st.integers(0, 2))
    keys = draw(st.lists(exponents, max_size=3, unique=True))
    return GrassmannPoly(ctx, {k: draw(_graded_elements(ctx, odd)) for k in keys})


def _shape(draw):
    ctx = create_algebra(draw(st.integers(1, 5)))
    return ctx, draw(st.integers(1, 2)), draw(st.integers(1, 2))


def _odd_places(p, q):
    """For each place of a (p|q) grid, whether its entries are odd."""
    d = p + q
    return [[(i < p) != (j < p) for j in range(d)] for i in range(d)]


@st.composite
def _families(draw, t_only=False):
    """A random (p|q) family at n <= 5 with p, q <= 2, built through the
    validating constructor."""
    ctx, p, q = _shape(draw)
    return ParamSuperMatrix(p, q, [
        [draw(_graded_polys(ctx, odd, t_only)) for odd in row] for row in _odd_places(p, q)
    ])


@st.composite
def _constants(draw):
    """A random (p|q) SuperMatrix at n <= 5, built through the validating
    constructor."""
    ctx, p, q = _shape(draw)
    return SuperMatrix(p, q, [
        [draw(_graded_elements(ctx, odd)) for odd in row] for row in _odd_places(p, q)
    ])


def _entrywise(cls, m, f):
    """The matrix of f(x) for each entry x of m, through the validating
    constructor of ``cls``."""
    return cls(m.p, m.q, [[f(x) for x in row] for row in m.rows])


def _laplace_entry(x):
    """t^m -> m!/z^(m+1), term by term."""
    out = LaurentScalar.zero(x.ctx)
    for (m, _), c in x.terms.items():
        out = out + LaurentScalar.term(c * factorial(m), iz=m + 1)
    return out


class TestEntrywiseOracle:
    """Every entrywise map of a graded matrix, which skips the grading
    check, against the matrix built entry by entry through the validating
    constructor: substitute and eval_at (which also share one conversion
    and one table of powers across the entries), derivative, smoothing,
    rename, scale, negation, from_supermatrix, laplace and components_of."""

    @given(_families(), st.sampled_from("ts"), st.booleans(), st.data())
    def test_substitute(self, family, var, odd, data):
        r = data.draw(_graded_polys(family.ctx, odd))
        rows = [[x.substitute(var, r) for x in row] for row in family.rows]
        try:
            want = ParamSuperMatrix(family.p, family.q, rows)
        except ParityError:
            # an odd replacement can break the grading, and must still say so
            with pytest.raises(ParityError):
                family.substitute(var, r)
            return
        got = family.substitute(var, r)
        assert got == want and got.ctx is family.ctx

    @given(_families(), st.data())
    def test_eval_at(self, family, data):
        ctx = family.ctx
        values = st.integers(-3, 3) | _coeffs | _graded_elements(ctx, odd=False)
        assignment = {var: data.draw(values) for var in ("t", "s")}
        want = SuperMatrix(
            family.p, family.q, [[x.eval_at(assignment) for x in row] for row in family.rows]
        )
        got = family.eval_at(assignment)
        assert got == want and got.ctx is ctx

    @settings(max_examples=40)
    @given(_families(), st.sampled_from("ts"))
    def test_derivative(self, family, var):
        want = _entrywise(ParamSuperMatrix, family, lambda x: x.derivative(var))
        assert family.derivative(var) == want

    @settings(max_examples=40)
    @given(_families(t_only=True))
    def test_smoothing(self, family):
        want = _entrywise(ParamSuperMatrix, family, lambda x: x.integrate("t"))
        assert smoothing(family) == want

    @settings(max_examples=40)
    @given(_families(t_only=True))
    def test_rename(self, family):
        want = _entrywise(ParamSuperMatrix, family, lambda x: x.rename("t", "s"))
        assert family.rename("t", "s") == want

    @settings(max_examples=40)
    @given(_families(), st.data())
    def test_scale(self, family, data):
        factor = data.draw(_graded_polys(family.ctx, odd=False))
        want = _entrywise(ParamSuperMatrix, family, lambda x: factor * x)
        assert family.scale(factor) == want

    @settings(max_examples=40)
    @given(_families())
    def test_negation(self, family):
        assert -family == _entrywise(ParamSuperMatrix, family, lambda x: -x)

    @settings(max_examples=40)
    @given(_constants())
    def test_from_supermatrix(self, m):
        for cls in (SuperMatrix, ParamSuperMatrix, LaurentMatrix):
            got = cls.from_supermatrix(m)
            assert got == _entrywise(cls, m, cls._entry._lift) and got.ctx is m.ctx

    @settings(max_examples=40)
    @given(_families(t_only=True))
    def test_laplace(self, family):
        assert laplace(family) == _entrywise(LaurentMatrix, family, _laplace_entry)

    @settings(max_examples=40)
    @given(_families(t_only=True))
    def test_components_of(self, family):
        degree = max(x.degree("t") for row in family.rows for x in row)
        want = tuple(_entrywise(SuperMatrix, family, lambda x: x.coefficient(t=m))
                     for m in range(degree + 1))
        assert components_of(family).components == want

    def test_antitriangle_builders_are_graded(self):
        """The unchecked antitriangle matrices pass the validating constructor
        and have a zero upper-left block."""
        rng = random.Random(47)
        for _ in range(30):
            ctx = create_algebra(rng.randint(2, 5))
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            chain = random_strong_family(rng, ctx, p, q, length=rng.randint(2, 4))
            built = [_random_antitriangle(rng, ctx, p, q),
                     chain_product_verify(chain).closed_form,
                     *chain,
                     *random_band_components(rng, ctx, p, q, degree=2).components]
            for m in built:
                assert SuperMatrix(m.p, m.q, m.rows) == m
                assert all(x.is_zero() for row in m.block_a() for x in row)

    def test_eval_at_refusals_match_the_entries(self):
        """A missing parameter, an unknown one and an odd value are refused
        with the error of GrassmannPoly.eval_at."""
        ctx = create_algebra(2)
        p = make_family("P", ctx.gen(1))
        entry = p.rows[0][1]
        for assignment, error in (
            ({}, ConfigError),
            ({"s": 1}, ConfigError),
            ({"t": 1, "x": 2}, ConfigError),
            ({"t": ctx.gen(2)}, ParityError),
        ):
            with pytest.raises(error) as want:
                entry.eval_at(assignment)
            with pytest.raises(error, match=re.escape(str(want.value))):
                p.eval_at(assignment)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
