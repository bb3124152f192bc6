"""Component systems of polynomial families and the equivalence of their
band, functional, and differential descriptions."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superband.algebra import create_algebra
from superband.analysis import (
    ComponentList,
    EquivalenceReport,
    band_component_system_check,
    components_of,
    derivative_tail,
    equivalence_report,
    equivalence_sides,
    n_differential_defect,
    n_functional_residual,
    random_band_components,
)
from superband.errors import ConfigError, ShapeError
from superband.families import ParamSuperMatrix, make_family
from superband.poly import GrassmannPoly
from superband.randgen import random_supermatrix
from superband.supermatrix import SuperMatrix


def _ctx3():
    return create_algebra(3)


def _p_components(ctx):
    alpha = ctx.gen(1)
    return [
        make_family("P", alpha).eval_at({"t": 0}),
        make_family("A", alpha).eval_at({}),
    ]


def _power_family(ctx):
    """K(t) = K0 + K2 t^2 with the degree-one idempotent components."""
    k0, a = _p_components(ctx)
    t2 = GrassmannPoly.term(ctx.one(), t=2)
    return (
        ParamSuperMatrix.from_supermatrix(k0)
        + ParamSuperMatrix.from_supermatrix(a).scale(t2)
    )


class TestComponents:
    def test_idempotent_family_splits(self):
        ctx = _ctx3()
        c = components_of(make_family("P", ctx.gen(1)))
        assert list(c) == _p_components(ctx)
        assert c.degree == 1
        assert c.generator() == _p_components(ctx)[1]

    def test_exponential_family_splits(self):
        ctx = _ctx3()
        c = components_of(make_family("T", ctx.gen(1)))
        assert c[0] == SuperMatrix.identity(ctx, 1, 1)
        assert c[1] == make_family("A", ctx.gen(1)).eval_at({})

    def test_zero_family(self):
        ctx = _ctx3()
        c = components_of(ParamSuperMatrix.zero(ctx, 1, 1))
        assert c.degree == 0
        assert c[0].is_zero()
        assert c.generator().is_zero()

    def test_family_round_trip(self):
        ctx = _ctx3()
        for fam in (
            make_family("P", ctx.gen(1)),
            make_family("T", ctx.gen(2)),
            _power_family(ctx),
        ):
            assert components_of(fam).family("t") == fam

    def test_guards(self):
        ctx = _ctx3()
        with pytest.raises(ConfigError):
            components_of(make_family("P", ctx.gen(1)).rename("t", "s"))
        with pytest.raises(ConfigError):
            ComponentList([])
        with pytest.raises(ShapeError):
            ComponentList([SuperMatrix.zero(ctx, 1, 1), SuperMatrix.zero(ctx, 1, 2)])
        with pytest.raises(ConfigError):
            ComponentList([SuperMatrix.zero(ctx, 1, 1)] * 10)


class TestBandSystem:
    def test_idempotent_components_hold(self):
        report = band_component_system_check(_p_components(_ctx3()))
        assert report.holds and report.failures == ()

    def test_exponential_components_fail_orthogonality(self):
        """I·A = A ≠ Z is the single broken relation for the components
        of the exponential family."""
        ctx = _ctx3()
        c = [SuperMatrix.identity(ctx, 1, 1), make_family("A", ctx.gen(1)).eval_at({})]
        report = band_component_system_check(c)
        assert not report.holds
        assert report.failures == (("k0_ki", (1,)),)

    def test_power_type_components_hold(self):
        ctx = _ctx3()
        k0, a = _p_components(ctx)
        report = band_component_system_check([k0, SuperMatrix.zero(ctx, 1, 1), a])
        assert report.holds

    def test_system_iff_symbolic_band_law(self):
        """The relation list and K(t)K(s) = K(t) agree on every instance."""
        rng = random.Random(71)
        for _ in range(10):
            ctx = create_algebra(rng.randint(3, 4))
            p, q = rng.choice(((1, 1), (2, 2)))
            c = random_band_components(rng, ctx, p, q, degree=rng.randint(1, 3))
            fam = c.family("t")
            assert band_component_system_check(c).holds
            assert fam @ fam.rename("t", "s") == fam
        for _ in range(10):
            ctx = create_algebra(rng.randint(3, 4))
            c = ComponentList(
                [random_supermatrix(rng, ctx), random_supermatrix(rng, ctx)]
            )
            fam = c.family("t")
            symbolic = fam @ fam.rename("t", "s") == fam
            assert band_component_system_check(c).holds == symbolic


class TestFunctionalEquation:
    def test_degree_one_residual_is_generator_times_s(self):
        ctx = _ctx3()
        report = n_functional_residual(_p_components(ctx))
        expected = ParamSuperMatrix.from_supermatrix(
            _p_components(ctx)[1]
        ).scale(GrassmannPoly.variable(ctx, "s"))
        assert report.residual == expected
        assert report.taylor_form == expected
        assert report.matches

    def test_power_type_residual(self):
        """K0 + A t² leaves the residual 2Ats + As²."""
        ctx = _ctx3()
        k0, a = _p_components(ctx)
        report = n_functional_residual([k0, SuperMatrix.zero(ctx, 1, 1), a])
        lift = ParamSuperMatrix.from_supermatrix(a)
        expected = lift.scale(GrassmannPoly.term(ctx.scalar(2), t=1, s=1)) + lift.scale(
            GrassmannPoly.term(ctx.one(), s=2)
        )
        assert report.residual == expected
        assert report.matches

    def test_zero_family(self):
        ctx = _ctx3()
        report = n_functional_residual([SuperMatrix.zero(ctx, 1, 1)])
        assert report.residual.is_zero() and report.matches

    def test_non_band_components_do_not_match(self):
        """The exponential family obeys the plain semigroup law instead, so
        its raw residual vanishes while the Taylor tail does not."""
        ctx = _ctx3()
        c = [SuperMatrix.identity(ctx, 1, 1), make_family("A", ctx.gen(1)).eval_at({})]
        report = n_functional_residual(c)
        assert report.residual.is_zero()
        assert not report.taylor_form.is_zero()
        assert not report.matches

    def test_random_band_components_match(self):
        rng = random.Random(72)
        for degree in (1, 2, 3, 4):
            for p, q in ((1, 1), (2, 2)):
                ctx = create_algebra(rng.randint(3, 4))
                c = random_band_components(rng, ctx, p, q, degree=degree)
                assert n_functional_residual(c).matches


class TestDifferentialEquation:
    def test_degree_one_defect_vanishes(self):
        assert n_differential_defect(_p_components(_ctx3())).is_zero()

    def test_power_type_defect_is_the_tail(self):
        ctx = _ctx3()
        k0, a = _p_components(ctx)
        c = [k0, SuperMatrix.zero(ctx, 1, 1), a]
        defect = n_differential_defect(c)
        expected = ParamSuperMatrix.from_supermatrix(a).scale(
            GrassmannPoly.term(ctx.scalar(2), t=1)
        )
        assert defect == expected
        assert defect == derivative_tail(c)

    def test_exponential_solves_the_bare_equation(self):
        ctx = _ctx3()
        c = [SuperMatrix.identity(ctx, 1, 1), make_family("A", ctx.gen(1)).eval_at({})]
        assert n_differential_defect(c).is_zero()

    def test_random_band_defect_equals_tail(self):
        rng = random.Random(73)
        for degree in (2, 3, 4):
            ctx = create_algebra(rng.randint(3, 4))
            c = random_band_components(rng, ctx, 1, 1, degree=degree)
            assert n_differential_defect(c) == derivative_tail(c)


class TestEquivalence:
    def test_idempotent_family_all_true(self):
        report = equivalence_report(make_family("P", _ctx3().gen(1)))
        assert report.band and report.functional and report.differential
        assert report.differential_eq_only and report.k0_idempotent
        assert report.k0_orthogonal and report.k1_square_zero and report.k1_absorbs
        assert report.agree

    def test_exponential_family_all_false(self):
        """The bare differential equation holds for the exponential family;
        orthogonality of K0 to the generator is what fails."""
        report = equivalence_report(make_family("T", _ctx3().gen(1)))
        assert not report.band and not report.functional and not report.differential
        assert report.differential_eq_only
        assert report.k0_idempotent and not report.k0_orthogonal
        assert report.k1_square_zero and report.k1_absorbs
        assert report.agree

    def test_zero_family_all_true(self):
        ctx = _ctx3()
        report = equivalence_report(ParamSuperMatrix.zero(ctx, 1, 1))
        assert report.band and report.functional and report.differential

    def test_degree_restriction(self):
        ctx = _ctx3()
        with pytest.raises(ShapeError):
            equivalence_report(_power_family(ctx))
        components, sides = equivalence_sides(_power_family(ctx))
        assert components.degree == 2
        report = EquivalenceReport.from_sides(sides)
        assert report.band and not report.functional
        assert not report.agree

    def test_three_statements_agree_on_random_linear_families(self):
        rng = random.Random(74)
        for _ in range(30):
            ctx = create_algebra(rng.randint(3, 4))
            p, q = rng.choice(((1, 1), (2, 2)))
            if rng.random() < 0.4:
                fam = random_band_components(rng, ctx, p, q, degree=1).family("t")
            else:
                k0 = random_supermatrix(rng, ctx, p, q)
                k1 = random_supermatrix(rng, ctx, p, q)
                fam = ParamSuperMatrix.from_supermatrix(k0) + ParamSuperMatrix.from_supermatrix(
                    k1
                ).scale(GrassmannPoly.variable(ctx, "t"))
            assert equivalence_report(fam).agree

    def test_two_parameter_rejected(self):
        ctx = _ctx3()
        with pytest.raises(ConfigError):
            equivalence_report(make_family("P", ctx.gen(1)).rename("t", "s"))


class TestCoefficientOracle:
    """``family``, the Taylor form and ``derivative_tail`` build sum r K t^e s^f
    straight from the coefficient matrices; the oracle is the scale-and-add
    sum written here: each K lifted, scaled by r t^e s^f, then added."""

    @staticmethod
    def _scale_and_add(ctx, p, q, terms):
        acc = ParamSuperMatrix.zero(ctx, p, q)
        for k, r, e, f in terms:
            weight = GrassmannPoly.term(ctx.scalar(r), t=e, s=f)
            acc = acc + ParamSuperMatrix.from_supermatrix(k).scale(weight)
        return acc

    @given(
        st.integers(min_value=1, max_value=5),
        st.sampled_from([(1, 1), (1, 2), (2, 2)]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scale_and_add(self, n, shape, degree, seed):
        ctx = create_algebra(n)
        p, q = shape
        rng = random.Random(seed)
        mats = [random_supermatrix(rng, ctx, p, q, invertible_b=False)
                for _ in range(degree + 1)]
        c = ComponentList(mats)

        def oracle(terms):
            return self._scale_and_add(ctx, p, q, terms)

        assert c.family("t") == oracle([(k, 1, m, 0) for m, k in enumerate(mats)])
        assert c.family("s") == oracle([(k, 1, 0, m) for m, k in enumerate(mats)])
        assert n_functional_residual(c).taylor_form == oracle(
            [(mats[l], comb(l, m), l - m, m)
             for m in range(1, degree + 1) for l in range(m, degree + 1)]
        )
        assert derivative_tail(c) == oracle(
            [(mats[m], m, m - 1, 0) for m in range(2, degree + 1)]
        )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
