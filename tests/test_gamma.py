"""Span-controlled antitriangle families: membership, strongness, band pairs,
chain products and closure."""

import random
from fractions import Fraction

import pytest

from superband.algebra import annihilator_odd, create_algebra
from superband.errors import ConfigError, ContextError, ParityError, ShapeError
from superband.families import ParamSuperMatrix, make_family
from superband.gamma import (
    GammaSet,
    band_pair_check,
    band_pair_components,
    chain_product_verify,
    closure_check,
    closure_witness,
    gamma_membership,
    idempotent_strong_check,
    random_strong_family,
    strong_gamma_check,
)
from superband.poly import GrassmannPoly
from superband.randgen import random_invertible_even_grid
from superband.supermatrix import SuperMatrix, berezinian


def _m11(ctx, upper, lower, corner):
    """(1|1) antitriangle matrix [[0, upper], [lower, corner]]."""
    return SuperMatrix(1, 1, [[ctx.zero(), upper], [lower, corner]])


def _p_at(alpha, tau):
    return make_family("P", alpha).eval_at({"t": tau})


def _q_at(alpha, tau):
    return make_family("Q", alpha).eval_at({"t": tau})


class TestGammaSet:
    def test_contains_span_members(self):
        ctx = create_algebra(3)
        g = GammaSet([ctx.gen(1)])
        assert g.contains(ctx.gen(1) * Fraction(2, 3))
        assert g.contains(ctx.zero())
        assert not g.contains(ctx.gen(2))

    def test_annihilator_matches_direct_kernel(self):
        ctx = create_algebra(3)
        g = GammaSet([ctx.gen(1)])
        direct = annihilator_odd([ctx.gen(1)], ctx)
        assert g.annihilator().basis == direct.basis
        assert g.annihilator() is g.annihilator()  # cached

    def test_span_must_be_independent(self):
        ctx = create_algebra(2)
        with pytest.raises(ConfigError):
            GammaSet([ctx.gen(1), ctx.gen(1) * 2])
        with pytest.raises(ConfigError):
            GammaSet([ctx.zero()])

    def test_empty_span_needs_ctx(self):
        ctx = create_algebra(2)
        with pytest.raises(ConfigError):
            GammaSet([])
        g = GammaSet([], ctx=ctx)
        assert g.dim == 0
        assert g.annihilator().dim == len(ctx.odd_monomials())

    def test_parity_guards(self):
        ctx = create_algebra(3)
        with pytest.raises(ParityError):
            GammaSet([ctx.one()])
        with pytest.raises(ParityError):
            GammaSet([ctx.gen(1)], stabilizing_evens=[ctx.gen(2)])

    def test_stabilizes(self):
        """b*span stays inside the span only when the span is big enough."""
        ctx = create_algebra(3)
        blob = ctx.one() + ctx.monomial((2, 3))
        assert GammaSet([ctx.gen(1)], stabilizing_evens=[ctx.scalar(3)]).stabilizes()
        assert not GammaSet([ctx.gen(1)], stabilizing_evens=[blob]).stabilizes()
        wide = GammaSet([ctx.gen(1), ctx.monomial((1, 2, 3))], stabilizing_evens=[blob])
        assert wide.stabilizes()


class TestMembership:
    def test_left_family(self):
        ctx = create_algebra(2)
        g = GammaSet([ctx.gen(1)])
        inside = _m11(ctx, ctx.gen(1), ctx.gen(1), ctx.one())
        outside = _m11(ctx, ctx.gen(2), ctx.gen(1), ctx.one())
        assert gamma_membership(inside, g, "left")
        assert not gamma_membership(outside, g, "left")

    def test_right_family_is_the_mirror(self):
        ctx = create_algebra(3)
        g = GammaSet([ctx.gen(1)])
        m = _m11(ctx, ctx.monomial((1, 2, 3)), ctx.gen(1), ctx.one())
        assert gamma_membership(m, g, "right")
        assert not gamma_membership(m, g, "left")

    def test_whole_odd_part_span(self):
        ctx = create_algebra(2)
        g = GammaSet([ctx.monomial(m) for m in ctx.odd_monomials()])
        m = _m11(ctx, ctx.gen(1) - ctx.gen(2), ctx.zero(), ctx.one())
        assert gamma_membership(m, g, "left")

    def test_guards(self):
        ctx = create_algebra(2)
        g = GammaSet([ctx.gen(1)])
        with pytest.raises(ShapeError):
            gamma_membership(SuperMatrix.identity(ctx, 1, 2), g, "left")
        with pytest.raises(ShapeError):
            gamma_membership(SuperMatrix.identity(ctx, 1, 1), g, "left")
        with pytest.raises(ConfigError):
            gamma_membership(_m11(ctx, ctx.gen(1), ctx.gen(1), ctx.one()), g, "up")
        other = create_algebra(3)
        with pytest.raises(ContextError):
            gamma_membership(_m11(other, other.gen(1), other.gen(1), other.one()), g)


class TestStrongCheck:
    def test_idempotent_family_pair_is_strong(self):
        """αt·α = 0 and α·αt = 0, so two members of the same family pass."""
        ctx = create_algebra(3)
        report = strong_gamma_check([_p_at(ctx.gen(1), 2), _p_at(ctx.gen(1), 5)])
        assert report.is_strong
        assert report.semigroup_failures == ()
        assert report.strong_failures == ()

    def test_independent_generators_fail_both_ways(self):
        ctx = create_algebra(2)
        report = strong_gamma_check([_m11(ctx, ctx.gen(1), ctx.gen(2), ctx.one())])
        assert not report.is_strong
        assert (0, 0) in report.semigroup_failures
        assert (0, 0) in report.strong_failures

    def test_empty_family_is_vacuously_strong(self):
        assert strong_gamma_check([]).is_strong

    def test_random_families_strong_by_construction(self):
        rng = random.Random(41)
        for p, q in ((1, 1), (1, 2), (2, 2)):
            for _ in range(6):
                ctx = create_algebra(rng.randint(3, 5))
                family = random_strong_family(rng, ctx, p, q, length=4)
                assert strong_gamma_check(family).is_strong

    def test_strong_product_keeps_the_corner_zero(self):
        rng = random.Random(42)
        for _ in range(10):
            ctx = create_algebra(4)
            m, n = random_strong_family(rng, ctx, 2, 2, length=2)
            corner = (m @ n).block_a()
            assert all(x.is_zero() for row in corner for x in row)

    def test_guards(self):
        ctx = create_algebra(2)
        with pytest.raises(ShapeError):
            strong_gamma_check(
                [_m11(ctx, ctx.gen(1), ctx.gen(1), ctx.one()), SuperMatrix.zero(ctx, 1, 2)]
            )
        with pytest.raises(ShapeError):
            strong_gamma_check([SuperMatrix.identity(ctx, 1, 1)])


class TestBandPairs:
    def test_idempotent_family_is_left_zero(self):
        ctx = create_algebra(3)
        assert band_pair_check(_p_at(ctx.gen(1), 2), _p_at(ctx.gen(1), 5)) == "left_zero"

    def test_mirror_family_is_right_zero(self):
        ctx = create_algebra(3)
        assert band_pair_check(_q_at(ctx.gen(1), 2), _q_at(ctx.gen(1), 5)) == "right_zero"

    def test_unit_idempotent_is_both(self):
        ctx = create_algebra(3)
        e = make_family("E", ctx.gen(1)).eval_at({})
        assert band_pair_check(e, e) == "both"

    def test_nilpotent_pair_is_neither(self):
        ctx = create_algebra(3)
        y = make_family("Y", ctx.gen(1))
        assert band_pair_check(y.eval_at({"t": 2}), y.eval_at({"t": 3})) == "neither"

    def test_components_all_hold_for_the_idempotent_family(self):
        ctx = create_algebra(3)
        flags = band_pair_components(_p_at(ctx.gen(1), 2), _p_at(ctx.gen(1), 5))
        assert all(flags.values())

    def test_components_with_shared_lower_block_match_multiplication(self):
        """With equal lower-left blocks the four flags are exactly MN = M."""
        rng = random.Random(43)
        seen_left = 0
        for _ in range(40):
            ctx = create_algebra(rng.randint(3, 4))
            m, n = random_strong_family(rng, ctx, 1, 1, length=2)
            if m.block_delta() != n.block_delta():
                n = SuperMatrix.from_blocks(
                    n.block_a(), n.block_gamma(), m.block_delta(), n.block_b()
                )
            flags = band_pair_components(m, n)
            is_left = band_pair_check(m, n) in ("left_zero", "both")
            assert all(flags.values()) == is_left
            seen_left += is_left
        ctx = create_algebra(3)
        pairs = [(_p_at(ctx.gen(1), 1), _p_at(ctx.gen(1), 7))]
        for m, n in pairs:
            assert all(band_pair_components(m, n).values())
            assert band_pair_check(m, n) == "left_zero"

    def test_zero_absorbs_but_one_component_fails(self):
        """Z·M = Z is a left-zero pair whose lower-left blocks differ, so the
        component route needs the shared-lower-block proviso."""
        ctx = create_algebra(2)
        z = SuperMatrix.zero(ctx, 1, 1)
        m = _m11(ctx, ctx.gen(1), ctx.gen(2), ctx.one())
        assert band_pair_check(z, m) == "left_zero"
        flags = band_pair_components(z, m)
        assert not flags["delta_stable"]
        assert flags["orthogonal"] and flags["gamma_stable"]

    def test_shape_guard(self):
        ctx = create_algebra(2)
        with pytest.raises(ShapeError):
            band_pair_check(SuperMatrix.zero(ctx, 1, 1), SuperMatrix.zero(ctx, 1, 2))
        with pytest.raises(ShapeError):
            band_pair_components(
                SuperMatrix.identity(ctx, 1, 1), SuperMatrix.zero(ctx, 1, 1)
            )


class TestIdempotentStrong:
    def test_directed_values(self):
        ctx = create_algebra(3)
        alpha = ctx.gen(1)
        assert idempotent_strong_check(make_family("E", alpha).eval_at({}))
        assert not idempotent_strong_check(make_family("Y", alpha).eval_at({"t": 1}))
        assert idempotent_strong_check(SuperMatrix.zero(ctx, 1, 1))
        for tau in (0, 2, Fraction(-1, 3)):
            assert idempotent_strong_check(_p_at(alpha, tau))

    def test_component_route_equals_direct_square_when_strong(self):
        rng = random.Random(44)
        for p, q in ((1, 1), (2, 2)):
            for _ in range(8):
                ctx = create_algebra(4)
                (m,) = random_strong_family(rng, ctx, p, q, length=1)
                assert idempotent_strong_check(m) == (m @ m == m)
                eye = [
                    [ctx.one() if i == j else ctx.zero() for j in range(q)]
                    for i in range(q)
                ]
                unit_b = SuperMatrix.from_blocks(
                    m.block_a(), m.block_gamma(), m.block_delta(), eye
                )
                assert idempotent_strong_check(unit_b)
                assert unit_b @ unit_b == unit_b

    def test_antitriangle_guard(self):
        ctx = create_algebra(2)
        with pytest.raises(ShapeError):
            idempotent_strong_check(SuperMatrix.identity(ctx, 1, 1))


class TestChains:
    def test_idempotent_chain_collapses_to_first(self):
        ctx = create_algebra(3)
        alpha = ctx.gen(1)
        report = chain_product_verify([_p_at(alpha, 1), _p_at(alpha, 2), _p_at(alpha, 3)])
        assert report.product == _p_at(alpha, 1)
        assert report.matches_closed_form
        assert report.ber == 0 and report.ber_formula == 0
        assert report.ber_matches is True

    def test_pair_reduces_to_the_two_factor_form(self):
        rng = random.Random(45)
        ctx = create_algebra(4)
        m, n = random_strong_family(rng, ctx, 1, 2, length=2)
        report = chain_product_verify([m, n])
        expected = SuperMatrix.from_blocks(
            [[ctx.zero()]],
            [
                [
                    m.rows[0][1] * n.block_b()[0][0] + m.rows[0][2] * n.block_b()[1][0],
                    m.rows[0][1] * n.block_b()[0][1] + m.rows[0][2] * n.block_b()[1][1],
                ]
            ],
            [
                [m.block_b()[0][0] * n.block_delta()[0][0] + m.block_b()[0][1] * n.block_delta()[1][0]],
                [m.block_b()[1][0] * n.block_delta()[0][0] + m.block_b()[1][1] * n.block_delta()[1][0]],
            ],
            [
                [
                    m.block_b()[i][0] * n.block_b()[0][j] + m.block_b()[i][1] * n.block_b()[1][j]
                    for j in range(2)
                ]
                for i in range(2)
            ],
        )
        assert report.closed_form == expected
        assert report.matches_closed_form

    def test_random_chains_match_in_all_shapes(self):
        rng = random.Random(46)
        for p, q in ((1, 1), (1, 2), (2, 2)):
            for length in (2, 3, 4, 5):
                ctx = create_algebra(rng.randint(3, 4))
                family = random_strong_family(rng, ctx, p, q, length=length)
                report = chain_product_verify(family)
                assert report.matches_closed_form
                assert report.ber_matches is True

    def test_bodyless_corner_leaves_ber_undefined(self):
        ctx = create_algebra(3)
        m = _m11(ctx, ctx.gen(1), ctx.gen(1), ctx.monomial((2, 3)))
        report = chain_product_verify([m, m])
        assert report.matches_closed_form
        assert report.ber is None and report.ber_formula is None
        assert report.ber_matches is None
        assert report.product.rows[0][1] == ctx.monomial((1, 2, 3))

    def test_ber_ratio_has_the_sign_of_det_minus_g(self):
        """At p = 2 the Berezinian of [[0, G1], [Dn, 1]] is det(-G1 Dn),
        which equals +det(G1 Dn): G1 = (xi1, xi2), Dn = (xi3 xi4), B = 1."""
        ctx = create_algebra(4)
        zero, one = ctx.zero(), ctx.one()
        first = SuperMatrix(2, 1, [[zero, zero, ctx.gen(1)], [zero, zero, ctx.gen(2)],
                                   [zero, zero, one]])
        last = SuperMatrix(2, 1, [[zero, zero, zero], [zero, zero, zero],
                                  [ctx.gen(3), ctx.gen(4), one]])
        report = chain_product_verify([first, last])
        want = ctx.monomial((1, 2, 3, 4)) * -2
        assert berezinian(report.closed_form) == want
        assert report.ber_formula == want

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_ber_ratio_is_the_berezinian_of_the_closed_form(self, p):
        """On chains that are not strong, with degree-one odd entries, the
        ratio is the Berezinian of the closed form and can be nonzero."""
        rng = random.Random(f"chain-ber:{p}")
        ctx = create_algebra(2 * p)

        def odd():
            return sum((ctx.gen(i) * rng.randint(-3, 3) for i in range(1, ctx.n + 1)),
                       ctx.zero())

        nonzero = 0
        for q in (1, 2):
            for length in (2, 3):
                chain = [
                    SuperMatrix._antitriangle(
                        [[odd() for _ in range(q)] for _ in range(p)],
                        [[odd() for _ in range(p)] for _ in range(q)],
                        random_invertible_even_grid(rng, ctx, q),
                    )
                    for _ in range(length)
                ]
                report = chain_product_verify(chain)
                assert report.ber_formula is not None
                assert berezinian(report.closed_form) == report.ber_formula
                nonzero += not report.ber_formula.is_zero()
        assert nonzero

    def test_chain_needs_two_matrices(self):
        ctx = create_algebra(2)
        with pytest.raises(ConfigError):
            chain_product_verify([SuperMatrix.zero(ctx, 1, 1)])

    def test_chain_of_polynomial_matrices_is_refused(self):
        family = make_family("P", create_algebra(2).gen(1))
        with pytest.raises(ShapeError, match="SuperMatrices"):
            chain_product_verify([family, family])


class TestClosure:
    def test_menu_witnesses(self):
        """Left-zero closes at t, the mirror at s, the exponential at t+s."""
        ctx = create_algebra(3)
        alpha = ctx.gen(1)
        assert closure_witness(make_family("P", alpha)) == "t"
        assert closure_witness(make_family("Q", alpha)) == "s"
        assert closure_witness(make_family("T", alpha)) == "t+s"
        assert closure_check(make_family("E", alpha))

    def test_nilpotent_family_does_not_close(self):
        ctx = create_algebra(3)
        assert closure_witness(make_family("Y", ctx.gen(1))) is None
        assert not closure_check(make_family("Y", ctx.gen(1)))

    def test_counterexample_family(self):
        """[[0, α], [α, t]] squares to [[0, αs], [αt, ts]] - outside itself."""
        ctx = create_algebra(3)
        alpha = GrassmannPoly.constant(ctx.gen(1))
        t = GrassmannPoly.variable(ctx, "t")
        r = ParamSuperMatrix(1, 1, [[GrassmannPoly.zero(ctx), alpha], [alpha, t]])
        assert closure_witness(r) is None
        assert not closure_check(r)

    def test_two_parameter_input_rejected(self):
        ctx = create_algebra(2)
        with pytest.raises(ConfigError):
            closure_witness(make_family("P", ctx.gen(1)).rename("t", "s"))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
