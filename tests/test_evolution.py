"""Orbits of the named families, the moving-time classification, and the
formal resolvent identities checked in exact Laurent arithmetic."""

import random

import pytest

from superband.algebra import create_algebra
from superband.analysis import random_band_components
from superband.errors import ConfigError, ContextError, ParityError, ShapeError
from superband.evolution import (
    LaurentMatrix,
    LaurentScalar,
    cauchy_defect,
    commutativity_obstruction,
    laplace,
    moving_time_check,
    orbit,
    resolvent_defect,
    resolvent_tail,
)
from superband.families import ParamSuperMatrix, generator_of, make_family
from superband.poly import GrassmannPoly
from superband.randgen import random_element, random_nonzero_odd, random_supermatrix
from superband.supermatrix import SuperMatrix, SuperVector


def _ctx(n=3):
    return create_algebra(n)


def _vec(ctx, even, odd):
    return SuperVector([even], [odd])


def _random_poly_family(rng, ctx, p, q, degree):
    fam = ParamSuperMatrix.zero(ctx, p, q)
    for m in range(degree + 1):
        tm = GrassmannPoly.term(ctx.one(), t=m)
        step = random_supermatrix(rng, ctx, p, q, invertible_b=False)
        fam = fam + ParamSuperMatrix.from_supermatrix(step).scale(tm)
    return fam


class TestOrbits:
    def test_idempotent_orbit_form(self):
        """P moves the even coordinate as α ϰ₀ t and freezes α x₀ + ϰ₀."""
        ctx = _ctx()
        alpha, k0 = ctx.gen(1), ctx.gen(2)
        x0e = ctx.scalar(2) + ctx.gen(2) * ctx.gen(3)
        x = orbit(make_family("P", alpha), _vec(ctx, x0e, k0))
        assert x.even[0] == GrassmannPoly.term(alpha * k0, t=1)
        assert x.odd[0] == GrassmannPoly.constant(alpha * x0e + k0)

    def test_translation_orbit_form(self):
        """T drifts the even coordinate from x₀ and leaves ϰ₀ untouched."""
        ctx = _ctx()
        alpha, k0 = ctx.gen(1), ctx.gen(2)
        x0e = ctx.scalar(-3)
        x = orbit(make_family("T", alpha), _vec(ctx, x0e, k0))
        assert x.even[0] == (
            GrassmannPoly.constant(x0e) + GrassmannPoly.term(alpha * k0, t=1)
        )
        assert x.odd[0] == GrassmannPoly.constant(k0)

    def test_orbits_coincide_iff_even_start_vanishes(self):
        ctx = _ctx()
        alpha, k0 = ctx.gen(1), ctx.gen(2)
        p, t = make_family("P", alpha), make_family("T", alpha)
        start = _vec(ctx, ctx.zero(), k0)
        assert orbit(p, start) == orbit(t, start)
        moved = _vec(ctx, ctx.one(), k0)
        assert orbit(p, moved) != orbit(t, moved)

    def test_odd_coordinate_is_constant(self):
        ctx = _ctx()
        start = _vec(ctx, ctx.scalar(5), ctx.gen(3))
        for kind in ("P", "T"):
            x = orbit(make_family(kind, ctx.gen(1)), start)
            assert x.odd[0].degree("t") == 0

    def test_even_velocity_is_constant(self):
        ctx = _ctx()
        alpha, k0 = ctx.gen(1), ctx.gen(2)
        x = orbit(make_family("P", alpha), _vec(ctx, ctx.one(), k0))
        v = x.derivative("t")
        assert v.even[0] == GrassmannPoly.constant(alpha * k0)
        assert v.odd[0].is_zero()

    def test_shape_and_context_guards(self):
        ctx = _ctx()
        fam = make_family("P", ctx.gen(1))
        with pytest.raises(ShapeError):
            orbit(ParamSuperMatrix.identity(ctx, 2, 2), _vec(ctx, ctx.one(), ctx.gen(1)))
        with pytest.raises(ShapeError):
            orbit(fam, SuperVector([ctx.one(), ctx.one()], [ctx.gen(1)]))
        other = create_algebra(4)
        with pytest.raises(ContextError):
            orbit(fam, _vec(other, other.one(), other.gen(1)))


class TestCauchy:
    def test_idempotent_orbit_solves_equation(self):
        ctx = _ctx()
        start = _vec(ctx, ctx.scalar(2), ctx.gen(2))
        assert cauchy_defect(make_family("P", ctx.gen(1)), start).is_zero()

    def test_translation_orbit_solves_equation(self):
        ctx = _ctx()
        start = _vec(ctx, ctx.one() + ctx.gen(1) * ctx.gen(2), ctx.gen(3))
        assert cauchy_defect(make_family("T", ctx.gen(1)), start).is_zero()

    def test_mirror_family_fails_equation(self):
        """Q's orbit odd coordinate grows linearly while its generator, acting
        on the orbit, returns zero — the defect survives."""
        ctx = _ctx()
        d = cauchy_defect(make_family("Q", ctx.gen(1)), _vec(ctx, ctx.one(), ctx.gen(2)))
        assert not d.is_zero()
        assert d.odd[0] == GrassmannPoly.constant(ctx.gen(1))

    def test_random_orbits_solve_equation(self):
        rng = random.Random("superband-evolution-cauchy")
        for _ in range(25):
            ctx = create_algebra(rng.choice([2, 3, 4]))
            alpha = random_nonzero_odd(rng, ctx)
            start = _vec(
                ctx,
                random_element(rng, ctx, parity="even"),
                random_element(rng, ctx, parity="odd"),
            )
            for kind in ("P", "T", "E", "Z"):
                assert cauchy_defect(make_family(kind, alpha), start).is_zero()


class TestMovingTime:
    def test_translation_family_is_translational(self):
        ctx = _ctx()
        assert moving_time_check(make_family("T", ctx.gen(1))) == "translational"

    def test_idempotent_family_is_moving_time(self):
        ctx = _ctx()
        assert moving_time_check(make_family("P", ctx.gen(1))) == "moving_time"

    def test_degenerate_families_report_translational(self):
        """Z and the constant idempotent satisfy both laws; the additive one
        wins."""
        ctx = _ctx()
        assert moving_time_check(make_family("Z", ctx.gen(1))) == "translational"
        assert moving_time_check(make_family("E", ctx.gen(1))) == "translational"

    def test_one_sidedness(self):
        """Q obeys the mirrored absorption law, which has no name here."""
        ctx = _ctx()
        assert moving_time_check(make_family("Q", ctx.gen(1))) == "neither"
        assert moving_time_check(make_family("Y", ctx.gen(1))) == "neither"

    def test_rejects_second_parameter(self):
        ctx = _ctx()
        with pytest.raises(ConfigError):
            moving_time_check(make_family("P", ctx.gen(1)).rename("t", "s"))


class TestCommutativityObstruction:
    def test_independent_directions_obstruct(self):
        ctx = _ctx()
        got = commutativity_obstruction(_vec(ctx, ctx.one(), ctx.gen(2)), ctx.gen(1))
        assert got == ctx.gen(1) * ctx.gen(2)
        assert not got.is_zero()

    def test_parallel_direction_vanishes(self):
        ctx = _ctx()
        x0 = _vec(ctx, ctx.scalar(7), ctx.gen(1))
        assert commutativity_obstruction(x0, ctx.gen(1)).is_zero()

    def test_zero_direction_vanishes(self):
        ctx = _ctx()
        x0 = _vec(ctx, ctx.one(), ctx.gen(2))
        assert commutativity_obstruction(x0, ctx.zero()).is_zero()

    def test_reduces_to_direction_times_start(self):
        """α² = 0 kills the even part, so only α ϰ₀ remains."""
        rng = random.Random("superband-evolution-obstruction")
        for _ in range(20):
            ctx = create_algebra(rng.choice([2, 3, 4]))
            alpha = random_nonzero_odd(rng, ctx)
            x0 = _vec(
                ctx,
                random_element(rng, ctx, parity="even"),
                random_element(rng, ctx, parity="odd"),
            )
            got = commutativity_obstruction(x0, alpha)
            assert got == alpha * x0.odd[0]
            assert got.is_even()

    def test_guards(self):
        ctx = _ctx()
        x0 = _vec(ctx, ctx.one(), ctx.gen(2))
        with pytest.raises(ParityError):
            commutativity_obstruction(x0, ctx.one())
        with pytest.raises(ShapeError):
            commutativity_obstruction(
                SuperVector([ctx.one(), ctx.one()], [ctx.gen(1)]), ctx.gen(1)
            )
        other = create_algebra(4)
        with pytest.raises(ContextError):
            commutativity_obstruction(x0, other.gen(1))


class TestLaplace:
    def test_idempotent_family_transform(self):
        ctx = _ctx()
        alpha = ctx.gen(1)
        r = laplace(make_family("P", alpha))
        assert r.rows[0][0].is_zero()
        assert r.rows[0][1] == LaurentScalar.term(alpha, iz=2)
        assert r.rows[1][0] == LaurentScalar.term(alpha, iz=1)
        assert r.rows[1][1] == LaurentScalar.term(ctx.one(), iz=1)

    def test_translation_family_transform(self):
        ctx = _ctx()
        alpha = ctx.gen(1)
        r = laplace(make_family("T", alpha))
        assert r.rows[0][0] == LaurentScalar.term(ctx.one(), iz=1)
        assert r.rows[0][1] == LaurentScalar.term(alpha, iz=2)
        assert r.rows[1][0].is_zero()
        assert r.rows[1][1] == LaurentScalar.term(ctx.one(), iz=1)

    def test_factorial_rule(self):
        ctx = _ctx()
        cubic = ParamSuperMatrix.identity(ctx, 1, 1).scale(
            GrassmannPoly.term(ctx.one(), t=3)
        )
        r = laplace(cubic)
        assert r.rows[0][0] == LaurentScalar.term(ctx.scalar(6), iz=4)
        assert r.rows[1][1] == LaurentScalar.term(ctx.scalar(6), iz=4)

    def test_additivity(self):
        rng = random.Random("superband-evolution-laplace")
        for _ in range(10):
            ctx = create_algebra(rng.choice([2, 3]))
            p, q = rng.choice([(1, 1), (2, 1)])
            f = _random_poly_family(rng, ctx, p, q, rng.randint(0, 3))
            g = _random_poly_family(rng, ctx, p, q, rng.randint(0, 3))
            assert laplace(f + g) == laplace(f) + laplace(g)

    def test_zero_family(self):
        ctx = _ctx()
        assert laplace(ParamSuperMatrix.zero(ctx, 1, 2)).is_zero()

    def test_rejects_second_parameter(self):
        ctx = _ctx()
        with pytest.raises(ConfigError):
            laplace(make_family("P", ctx.gen(1)).rename("t", "s"))


class TestResolventIdentities:
    def _idempotent_tail(self, ctx, alpha):
        factor = LaurentScalar(ctx, {(1, 1): ctx.one(), (0, 2): -ctx.one()})
        gen = generator_of(make_family("P", alpha))
        return LaurentMatrix.from_supermatrix(gen).scale(factor)

    def test_translation_resolvent_is_exact(self):
        ctx = _ctx()
        d = resolvent_defect(laplace(make_family("T", ctx.gen(1))))
        assert d.is_zero()

    def test_idempotent_resolvent_tail(self):
        """The defect of P's resolvent is (w−z)/(zw²) times the generator,
        concentrated in the upper-right entry."""
        ctx = _ctx()
        alpha = ctx.gen(1)
        d = resolvent_defect(laplace(make_family("P", alpha)))
        assert d == self._idempotent_tail(ctx, alpha)
        assert d.rows[0][1].coefficient(1, 1) == alpha
        assert d.rows[0][1].coefficient(0, 2) == -alpha
        assert d.rows[1][0].is_zero()
        assert d.rows[1][1].is_zero()

    def test_mirror_resolvent_tail(self):
        """Q's tail sits in the lower-left entry with the factor (w−z)/(z²w)."""
        ctx = _ctx()
        alpha = ctx.gen(1)
        d = resolvent_defect(laplace(make_family("Q", alpha)))
        factor = LaurentScalar(ctx, {(2, 0): ctx.one(), (1, 1): -ctx.one()})
        gen = generator_of(make_family("Q", alpha))
        assert d == LaurentMatrix.from_supermatrix(gen).scale(factor)

    def test_constant_idempotent_is_exact(self):
        ctx = _ctx()
        d = resolvent_defect(laplace(make_family("E", ctx.gen(1))))
        assert d.is_zero()

    def test_random_directions(self):
        rng = random.Random("superband-evolution-resolvent")
        for _ in range(20):
            ctx = create_algebra(rng.randint(2, 6))
            alpha = random_nonzero_odd(rng, ctx)
            assert resolvent_defect(laplace(make_family("T", alpha))).is_zero()
            d = resolvent_defect(laplace(make_family("P", alpha)))
            assert d == self._idempotent_tail(ctx, alpha)

    def test_zero_resolvent(self):
        ctx = _ctx()
        assert resolvent_defect(LaurentMatrix.zero(ctx, 1, 1)).is_zero()

    def test_rejects_bivariate_input(self):
        ctx = _ctx()
        r = laplace(make_family("P", ctx.gen(1)))
        with pytest.raises(ConfigError):
            resolvent_defect(r.rename("z", "w"))

    def test_band_family_defect_is_the_tail_at_every_degree(self):
        """sum j! K_j (1/(z^j w) - 1/w^(j+1)) is the defect of band families
        of degree 1-4; at degree one it is P's tail, and T, which breaks the
        band law, leaves another defect."""
        rng = random.Random("superband-evolution-tail")
        ctx = create_algebra(5)
        for degree in (1, 2, 3, 4):
            for p, q in ((1, 1), (2, 1), (1, 2)):
                fam = random_band_components(rng, ctx, p, q, degree=degree).family("t")
                assert resolvent_defect(laplace(fam)) == resolvent_tail(fam)
        alpha = ctx.gen(1)
        assert resolvent_tail(make_family("P", alpha)) == self._idempotent_tail(ctx, alpha)
        t_fam = make_family("T", alpha)
        assert resolvent_defect(laplace(t_fam)) != resolvent_tail(t_fam)


class TestLaurentScalars:
    def test_zero_terms_dropped(self):
        ctx = _ctx()
        s = LaurentScalar(ctx, {(1, 0): ctx.zero(), (2, 0): ctx.one()})
        assert list(s.terms) == [(2, 0)]
        assert LaurentScalar.term(ctx.zero(), iz=5).is_zero()

    def test_addition_merges_and_cancels(self):
        ctx = _ctx()
        a = LaurentScalar.term(ctx.one(), iz=1)
        b = LaurentScalar.term(ctx.scalar(2), iz=1) + LaurentScalar.term(ctx.one(), iw=1)
        assert (a + b).coefficient(1, 0) == ctx.scalar(3)
        assert (a - a).is_zero()

    def test_multiplication_adds_inverse_exponents(self):
        ctx = _ctx()
        inv_z = LaurentScalar.term(ctx.one(), iz=1)
        assert inv_z * inv_z == LaurentScalar.term(ctx.one(), iz=2)
        w_minus_z = LaurentScalar(ctx, {(0, -1): ctx.one(), (-1, 0): -ctx.one()})
        sq = w_minus_z * w_minus_z
        assert sq == LaurentScalar(
            ctx,
            {(0, -2): ctx.one(), (-1, -1): ctx.scalar(-2), (-2, 0): ctx.one()},
        )

    def test_variable_times_inverse_is_constant(self):
        ctx = _ctx()
        z = LaurentScalar.term(ctx.one(), iz=-1)
        inv_z = LaurentScalar.term(ctx.one(), iz=1)
        assert z * inv_z == LaurentScalar.constant(ctx.one())

    def test_rename_merges_exponents(self):
        ctx = _ctx()
        s = LaurentScalar.term(ctx.one(), iz=1, iw=2)
        assert s.rename("z", "w") == LaurentScalar.term(ctx.one(), iw=3)
        both = LaurentScalar(ctx, {(1, 0): ctx.one(), (0, 1): -ctx.one()})
        assert both.rename("z", "w").is_zero()

    def test_coercion(self):
        ctx = _ctx()
        s = LaurentScalar.term(ctx.one(), iz=1)
        assert s + ctx.one() == LaurentScalar(
            ctx, {(1, 0): ctx.one(), (0, 0): ctx.one()}
        )
        assert s * 3 == LaurentScalar.term(ctx.scalar(3), iz=1)
        assert 2 * s == LaurentScalar.term(ctx.scalar(2), iz=1)

    def test_parity(self):
        ctx = _ctx()
        assert LaurentScalar.term(ctx.gen(1), iz=1).is_odd()
        assert LaurentScalar.term(ctx.one(), iz=1).is_even()
        mixed = LaurentScalar(ctx, {(1, 0): ctx.one(), (2, 0): ctx.gen(1)})
        assert not mixed.is_even()
        assert not mixed.is_odd()
        assert LaurentScalar.zero(ctx).is_even()
        assert LaurentScalar.zero(ctx).is_odd()

    def test_guards(self):
        ctx = _ctx()
        with pytest.raises(ConfigError):
            LaurentScalar(ctx, {(1.5, 0): ctx.one()})
        other = create_algebra(4)
        with pytest.raises(ContextError):
            LaurentScalar(ctx, {(0, 0): other.one()})
        with pytest.raises(ConfigError):
            LaurentScalar.term(ctx.one()).rename("z", "u")


    def test_immutable(self):
        ctx = _ctx()
        x = LaurentScalar.term(ctx.gen(1), iz=1)
        with pytest.raises(AttributeError):
            x.ctx = None
        with pytest.raises(AttributeError):
            x.terms = {}
        assert x == LaurentScalar.term(ctx.gen(1), iz=1)

    def test_reflected_subtraction_and_powers(self):
        ctx = _ctx()
        e = ctx.gen(1)
        inv_z = LaurentScalar.term(e, iz=1)
        assert 1 - inv_z == LaurentScalar(ctx, {(0, 0): ctx.one(), (1, 0): -e})
        assert ctx.one() - inv_z == 1 - inv_z
        w_minus_z = LaurentScalar(ctx, {(0, -1): ctx.one(), (-1, 0): -ctx.one()})
        assert w_minus_z ** 0 == LaurentScalar.constant(ctx.one())
        assert w_minus_z ** 3 == w_minus_z * w_minus_z * w_minus_z
        assert inv_z ** 2 == 0  # an odd coefficient squares to zero
        with pytest.raises(ConfigError):
            inv_z ** -1

    def test_equality_with_foreign_types_is_not_implemented(self):
        ctx = _ctx()
        x = LaurentScalar.term(ctx.one(), iz=1)
        assert x.__eq__("1/z") is NotImplemented
        assert x.__eq__(None) is NotImplemented
        assert x != "1/z"

    def test_repr_of_every_exponent_sign(self):
        ctx = _ctx()
        x = LaurentScalar(ctx, {
            (0, -1): ctx.one(),
            (-2, 0): ctx.scalar(-2),
            (1, 2): ctx.gen(1) + ctx.gen(2) * ctx.gen(3),
            (0, 0): ctx.scalar(3),
            (2, -3): ctx.gen(2),
        })
        assert repr(x) == (
            "(-2)*z^2 + (1)*w + (3) + (xi1 + xi2*xi3)/z/w^2 + (xi2)/z^2*w^3"
        )
        assert str(x) == repr(x)
        assert repr(LaurentScalar.zero(ctx)) == "0"


class TestLaurentMatrices:
    def test_grading_enforced(self):
        ctx = _ctx()
        z = LaurentScalar.zero(ctx)
        ev = LaurentScalar.term(ctx.one(), iz=1)
        od = LaurentScalar.term(ctx.gen(1), iz=1)
        LaurentMatrix(1, 1, [[ev, od], [od, ev]])
        with pytest.raises(ParityError):
            LaurentMatrix(1, 1, [[ev, ev], [od, ev]])
        with pytest.raises(ParityError):
            LaurentMatrix(1, 1, [[od, od], [od, ev]])
        with pytest.raises(ShapeError):
            LaurentMatrix(1, 1, [[ev, od]])
        assert LaurentMatrix(1, 1, [[z, z], [z, z]]).is_zero()

    def test_product_mixes_entries(self):
        ctx = _ctx()
        alpha = ctx.gen(1)
        r = laplace(make_family("P", alpha))
        sq = r @ r
        assert sq.rows[0][1] == LaurentScalar.term(alpha, iz=3)
        assert sq.rows[1][1] == LaurentScalar.term(ctx.one(), iz=2)

    def test_scale_parity_guard(self):
        ctx = _ctx()
        r = laplace(make_family("T", ctx.gen(1)))
        with pytest.raises(ParityError):
            r.scale(LaurentScalar.term(ctx.gen(1), iz=1))
        scaled = r.scale(ctx.scalar(2))
        assert scaled.rows[0][0] == LaurentScalar.term(ctx.scalar(2), iz=1)

    def test_rename_moves_every_entry(self):
        ctx = _ctx()
        r = laplace(make_family("P", ctx.gen(1)))
        rw = r.rename("z", "w")
        assert rw.rows[0][1] == LaurentScalar.term(ctx.gen(1), iw=2)
        assert rw.rows[1][1] == LaurentScalar.term(ctx.one(), iw=1)

    def test_from_supermatrix_and_subtraction(self):
        ctx = _ctx()
        m = SuperMatrix.identity(ctx, 1, 1)
        lm = LaurentMatrix.from_supermatrix(m)
        assert (lm - lm).is_zero()
        assert lm.rows[0][0] == LaurentScalar.constant(ctx.one())

    def test_shape_and_context_guards(self):
        ctx = _ctx()
        a = LaurentMatrix.zero(ctx, 1, 1)
        b = LaurentMatrix.zero(ctx, 2, 1)
        with pytest.raises(ShapeError):
            a + b
        other = create_algebra(4)
        with pytest.raises(ContextError):
            a + LaurentMatrix.zero(other, 1, 1)
