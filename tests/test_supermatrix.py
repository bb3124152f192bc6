"""Supermatrix grading, supertrace, and Berezinian checks.

Directed values were computed by hand from the 2x2 block formulas before the
implementation existed; the randomized classes check the structural laws.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superband import serialize
from superband.algebra import create_algebra
from superband.errors import ConfigError, ContextError, NotInvertible, ParityError, ShapeError
from superband.randgen import (
    random_element,
    random_supermatrix,
    random_supervector,
)
from superband.evolution import LaurentMatrix
from superband.families import ParamSuperMatrix, ParamSuperVector
from superband.poly import GrassmannPoly, LaurentScalar
from superband.supermatrix import (
    SuperMatrix,
    SuperVector,
    _grid_mul,
    ber_parts,
    berezinian,
    classify_reduction,
    det_even,
    even_inverse,
    supertrace,
)


def _m11(ctx, a, alpha, beta, b):
    return SuperMatrix(1, 1, [[a, alpha], [beta, b]])


class TestConstruction:
    def test_parity_enforced(self):
        ctx = create_algebra(2)
        z, one, xi1 = ctx.zero(), ctx.one(), ctx.gen(1)
        with pytest.raises(ParityError):
            _m11(ctx, xi1, xi1, xi1, one)  # odd entry in the A block
        with pytest.raises(ParityError):
            _m11(ctx, one, one, xi1, one)  # even entry in the Gamma block
        _m11(ctx, z, xi1, xi1, one)  # fine

    def test_shape_enforced(self):
        ctx = create_algebra(2)
        z = ctx.zero()
        with pytest.raises(ShapeError):
            SuperMatrix(1, 1, [[z, z]])
        with pytest.raises(ShapeError):
            SuperMatrix(0, 2, [[z, z], [z, z]])

    @pytest.mark.parametrize("cls", [SuperMatrix, ParamSuperMatrix, LaurentMatrix])
    @pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (0, 0)])
    def test_zero_and_identity_refuse_empty_blocks(self, cls, p, q):
        ctx = create_algebra(2)
        for build in (cls.zero, cls.identity):
            with pytest.raises(ShapeError, match="block sizes must be at least 1"):
                build(ctx, p, q)

    def test_context_enforced(self):
        a = create_algebra(2)
        b = create_algebra(3)
        with pytest.raises(ContextError):
            SuperMatrix(1, 1, [[a.zero(), a.gen(1)], [b.gen(1), b.one()]])

    def test_vector_parity(self):
        ctx = create_algebra(2)
        with pytest.raises(ParityError):
            SuperVector([ctx.gen(1)], [ctx.gen(2)])
        v = SuperVector([ctx.one()], [ctx.gen(1)])
        assert v.p == v.q == 1


class TestSupertrace:
    def test_band_projector_supertrace(self):
        """str [[0, 0], [xi1, 1]] == -1."""
        ctx = create_algebra(1)
        m = _m11(ctx, ctx.zero(), ctx.zero(), ctx.gen(1), ctx.one())
        assert supertrace(m) == -1

    def test_cyclic(self):
        """str(MN) == str(NM) for random even supermatrices."""
        rng = random.Random(7)
        for _ in range(50):
            ctx = create_algebra(rng.randint(2, 5))
            p, q = rng.choice([(1, 1), (1, 2), (2, 2)])
            m = random_supermatrix(rng, ctx, p, q, invertible_b=False)
            n = random_supermatrix(rng, ctx, p, q, invertible_b=False)
            assert supertrace(m @ n) == supertrace(n @ m)


class TestDeterminant:
    def test_nilpotent_determinant(self):
        """det [[0, xi1*xi2], [xi1*xi2, 1]] == 0."""
        ctx = create_algebra(2)
        top = ctx.monomial((1, 2))
        assert det_even([[ctx.zero(), top], [top, ctx.one()]]).is_zero()

    def test_size_cap(self):
        ctx = create_algebra(1)
        one = ctx.one()
        grid = [[one] * 7 for _ in range(7)]
        with pytest.raises(ShapeError):
            det_even(grid)

    def test_parity_guard(self):
        ctx = create_algebra(1)
        with pytest.raises(ParityError):
            det_even([[ctx.gen(1)]])

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(40):
            ctx = create_algebra(rng.randint(2, 5))
            size = rng.randint(1, 3)
            x = [
                [random_element(rng, ctx, parity="even", max_terms=2) for _ in range(size)]
                for _ in range(size)
            ]
            y = [
                [random_element(rng, ctx, parity="even", max_terms=2) for _ in range(size)]
                for _ in range(size)
            ]
            prod = [
                [
                    sum((x[i][k] * y[k][j] for k in range(size)), ctx.zero())
                    for j in range(size)
                ]
                for i in range(size)
            ]
            assert det_even(prod) == det_even(x) * det_even(y)

    def test_even_inverse(self):
        rng = random.Random(13)
        for _ in range(30):
            ctx = create_algebra(rng.randint(2, 5))
            size = rng.randint(1, 3)
            while True:
                b = [
                    [random_element(rng, ctx, parity="even", max_terms=2) for _ in range(size)]
                    for _ in range(size)
                ]
                if det_even(b).body() != 0:
                    break
            inv = even_inverse(b)
            prod = [
                [
                    sum((b[i][k] * inv[k][j] for k in range(size)), ctx.zero())
                    for j in range(size)
                ]
                for i in range(size)
            ]
            for i in range(size):
                for j in range(size):
                    assert prod[i][j] == (1 if i == j else 0)


class TestBerezinian:
    def test_odd_reduced_value(self):
        """Ber [[0, xi1], [xi2, 1]] == xi2*xi1 == -xi1*xi2, and it squares to 0."""
        ctx = create_algebra(2)
        m = _m11(ctx, ctx.zero(), ctx.gen(1), ctx.gen(2), ctx.one())
        ber = berezinian(m)
        assert ber == ctx.monomial((1, 2), -1)
        assert (ber * ber).is_zero()

    def test_parts_sum(self):
        """ber_parts [[1, xi1], [xi2, 1]] == (1, -xi1*xi2), summing to Ber."""
        ctx = create_algebra(2)
        m = _m11(ctx, ctx.one(), ctx.gen(1), ctx.gen(2), ctx.one())
        even_part, odd_part = ber_parts(m)
        assert even_part == 1
        assert odd_part == ctx.monomial((1, 2), -1)
        assert even_part + odd_part == berezinian(m)

    def test_matches_rational_formula(self):
        """For (1|1), the Schur form equals a/b + beta*alpha/b^2 exactly."""
        rng = random.Random(17)
        for _ in range(100):
            ctx = create_algebra(rng.randint(2, 6))
            m = random_supermatrix(rng, ctx, 1, 1)
            a, alpha = m.rows[0]
            beta, b = m.rows[1]
            expected = a * b.inverse() + beta * alpha * b.inverse() ** 2
            assert berezinian(m) == expected

    def test_additive_split(self):
        """Ber M == Ber(even-reduced part) + Ber(odd-reduced part) at (1|1)."""
        rng = random.Random(19)
        for _ in range(100):
            ctx = create_algebra(rng.randint(2, 6))
            m = random_supermatrix(rng, ctx, 1, 1)
            a, alpha = m.rows[0]
            beta, b = m.rows[1]
            z = ctx.zero()
            even_red = _m11(ctx, a, alpha, z, b)
            odd_red = _m11(ctx, z, alpha, beta, b)
            assert berezinian(m) == berezinian(even_red) + berezinian(odd_red)
            assert ber_parts(m) == (berezinian(even_red), berezinian(odd_red))

    def test_needs_invertible_b(self):
        ctx = create_algebra(2)
        m = _m11(ctx, ctx.one(), ctx.zero(), ctx.zero(), ctx.monomial((1, 2)))
        with pytest.raises(NotInvertible):
            berezinian(m)

    def test_shape_guard_for_parts(self):
        ctx = create_algebra(2)
        m = SuperMatrix.identity(ctx, 1, 2)
        with pytest.raises(ShapeError):
            ber_parts(m)

    def test_multiplicative_when_invertible(self):
        """Ber(MN) == Ber(M) Ber(N) for invertible random (1|1) matrices."""
        rng = random.Random(23)
        for _ in range(60):
            ctx = create_algebra(rng.randint(2, 5))
            m = random_supermatrix(rng, ctx, 1, 1)
            n = random_supermatrix(rng, ctx, 1, 1)
            if m.rows[0][0].body() == 0 or n.rows[0][0].body() == 0:
                continue  # keep both factors genuinely invertible
            assert berezinian(m @ n) == berezinian(m) * berezinian(n)


class TestGradingClosure:
    def test_products_stay_graded(self):
        """Products, sums and differences of even supermatrices, which skip
        the grading check, pass the validating constructor."""
        rng = random.Random(29)
        for _ in range(100):
            ctx = create_algebra(rng.randint(2, 5))
            p, q = rng.choice([(1, 1), (1, 2), (2, 2)])
            m = random_supermatrix(rng, ctx, p, q, invertible_b=False)
            n = random_supermatrix(rng, ctx, p, q, invertible_b=False)
            for r in (m @ n, m + n, m - n):
                assert type(r)(r.p, r.q, r.rows) == r

    def test_apply_preserves_parity(self):
        rng = random.Random(31)
        for _ in range(60):
            ctx = create_algebra(rng.randint(2, 5))
            p, q = rng.choice([(1, 1), (2, 2)])
            m = random_supermatrix(rng, ctx, p, q, invertible_b=False)
            v = random_supervector(rng, ctx, p, q)
            out = m.apply(v)
            assert out.p == p and out.q == q

    def test_identity_apply(self):
        ctx = create_algebra(3)
        v = SuperVector([ctx.one() + ctx.monomial((1, 2))], [ctx.gen(3)])
        assert SuperMatrix.identity(ctx, 1, 1).apply(v) == v


class TestVectorsGradedByConstruction:
    """Vectors that ``apply``, ``-``, ``derivative`` and ``random_supervector``
    build skip the grading check; each equals its coordinates passed through
    the validating constructor."""

    @staticmethod
    def _checked(v):
        again = type(v)(v.even, v.odd)
        assert again == v and again.rows == v.rows
        return again

    def test_built_vectors_pass_the_constructor(self):
        rng = random.Random(30)
        for _ in range(40):
            ctx = create_algebra(rng.randint(2, 5))
            p, q = rng.choice([(1, 1), (1, 2), (2, 2)])
            m = random_supermatrix(rng, ctx, p, q, invertible_b=False)
            lifted = ParamSuperMatrix.from_supermatrix(m)
            fam = lifted.scale(GrassmannPoly.variable(ctx, "t")) + lifted
            v = self._checked(random_supervector(rng, ctx, p, q))
            w = random_supervector(rng, ctx, p, q)
            orbit = self._checked(fam.apply(v))  # a constant vector
            for built in (m.apply(v), v - w, fam.apply(orbit), orbit - fam.apply(w),
                          orbit.derivative("t")):
                self._checked(built)

    def test_rows_are_the_column_grid(self):
        ctx = create_algebra(3)
        e1, e2, o1 = ctx.one(), ctx.monomial((1, 2)), ctx.gen(3)
        v = SuperVector([e1, e2], [o1])
        assert v.rows == ((e1,), (e2,), (o1,))
        assert (v.p, v.q, v.even, v.odd) == (2, 1, (e1, e2), (o1,))
        with pytest.raises(AttributeError):
            v.even = (e1,)

    @pytest.mark.parametrize("vec", [SuperVector, ParamSuperVector])
    def test_refusals_keep_their_messages(self, vec):
        ctx = create_algebra(2)
        one, xi1, xi2 = (vec._entry._lift(x) for x in (ctx.one(), ctx.gen(1), ctx.gen(2)))
        slots = "^a supervector needs at least one even and one odd slot$"
        with pytest.raises(ShapeError, match=slots):
            vec([], [xi1])
        with pytest.raises(ParityError, match="^an even slot holds a non-even value "):
            vec([xi1], [xi2])
        with pytest.raises(ParityError, match="^an odd slot holds a non-odd value "):
            vec([one], [one])


class TestClassify:
    def test_shapes(self):
        ctx = create_algebra(2)
        z, one, xi1, xi2 = ctx.zero(), ctx.one(), ctx.gen(1), ctx.gen(2)
        assert classify_reduction(_m11(ctx, z, xi1, xi2, one)) == "odd_reduced"
        assert classify_reduction(_m11(ctx, one, xi1, z, one)) == "even_reduced"
        assert classify_reduction(_m11(ctx, one, xi1, xi2, one)) == "general"
        # both A and Delta zero: odd_reduced wins
        assert classify_reduction(_m11(ctx, z, xi1, z, one)) == "odd_reduced"
        assert classify_reduction(SuperMatrix.zero(ctx, 1, 1)) == "odd_reduced"


class TestKindsStayApart:
    """The three graded-matrix classes share one base but never mix."""

    @staticmethod
    def _kinds(ctx):
        m = SuperMatrix.identity(ctx, 1, 1)
        return {
            SuperMatrix: m,
            ParamSuperMatrix: ParamSuperMatrix.from_supermatrix(m),
            LaurentMatrix: LaurentMatrix.from_supermatrix(m),
        }

    def test_mixed_arithmetic_raises_and_equality_is_false(self):
        kinds = self._kinds(create_algebra(2))
        for a in kinds.values():
            for b in kinds.values():
                if type(a) is type(b):
                    assert a + b == a.scale(2) and a @ b == a
                    continue
                with pytest.raises(ShapeError):
                    a + b
                with pytest.raises(ShapeError):
                    a - b
                with pytest.raises(ShapeError):
                    a @ b
                if type(b) is not SuperMatrix:
                    # a constant element lifts into every ring; other entries do
                    # not, and a factor is a value, so that is a ConfigError
                    with pytest.raises(ConfigError):
                        a.scale(b.rows[0][0])
                assert a != b
                assert not a == b

    def test_left_factor_of_no_ring_type_is_a_type_error(self):
        """``*`` with a left factor of no ring type is Python's TypeError;
        a rational or an element lifts into the entry ring and scales."""
        ctx = create_algebra(2)
        for m in self._kinds(ctx).values():
            for x in ("x", None, 1.5):
                with pytest.raises(TypeError):
                    x * m
            assert 2 * m == m.scale(2) == m + m
            assert ctx.one() * m == m

    def test_foreign_entries_raise_shape_error(self):
        ctx = create_algebra(2)
        kinds = self._kinds(ctx)
        for cls in kinds:
            with pytest.raises(ShapeError):
                cls(1, 1, [[1, 2], [3, 4]])
        # each kind takes only its own entry ring
        for cls in kinds:
            for other in kinds.values():
                if type(other) is not cls:
                    with pytest.raises(ShapeError):
                        cls(1, 1, other.rows)
        for vec in (SuperVector, ParamSuperVector):
            with pytest.raises(ShapeError):
                vec([1], [2])

    def test_each_kind_keeps_its_own_form(self):
        kinds = self._kinds(create_algebra(2))
        for cls, m in kinds.items():
            back = serialize.load_value(serialize.to_obj(m))
            assert type(back) is cls
            assert back == m
        # only the bare-term-list forms carry "n", and only Laurent terms "iz"
        assert set(serialize.to_obj(kinds[SuperMatrix])) == {"p", "q", "rows"}
        for cls in (ParamSuperMatrix, LaurentMatrix):
            assert set(serialize.to_obj(kinds[cls])) == {"n", "p", "q", "rows"}
        assert "iz" in serialize.dumps(kinds[LaurentMatrix])
        assert "iz" not in serialize.dumps(kinds[ParamSuperMatrix])


def _oracle_grid_mul(x, y):
    """Every x[i][k] * y[k][j] summed with +, zeros and ones included."""
    out = []
    for i in range(len(x)):
        row = []
        for j in range(len(y[0])):
            acc = x[i][0] * y[0][j]
            for k in range(1, len(y)):
                acc = acc + x[i][k] * y[k][j]
            row.append(acc)
        out.append(row)
    return out


#: the entries of SuperMatrix (elements), ParamSuperMatrix and LaurentMatrix,
#: with the exponents the polynomial test entries use (GrassmannPoly products
#: of these stay under the degree cap)
_ENTRY_KINDS = ((None, None), (GrassmannPoly, range(0, 3)), (LaurentScalar, range(-2, 3)))


@st.composite
def _entries(draw, ctx, kind, exponents):
    """Zero, the shared one, a fresh one, or a sparse value of the kind."""
    def element():
        monos = draw(st.lists(st.sampled_from(ctx.basis()), max_size=3, unique=True))
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        return ctx.element({m: draw(coeffs) for m in monos})

    pick = draw(st.sampled_from(("zero", "one", "fresh one", "value", "value")))
    if kind is None:
        if pick == "value":
            return element()
        return {"zero": ctx.zero(), "one": ctx.one(), "fresh one": ctx.scalar(1)}[pick]
    if pick == "zero":
        return kind.zero(ctx)
    if pick == "one":
        return kind.constant(ctx.one())
    if pick == "fresh one":
        return kind.constant(ctx.scalar(1))
    keys = draw(st.lists(st.tuples(*[st.sampled_from(exponents)] * 2), max_size=3))
    return kind(ctx, {key: element() for key in keys})


@st.composite
def _grid_pairs(draw):
    kind, exponents = draw(st.sampled_from(_ENTRY_KINDS))
    ctx = create_algebra(draw(st.integers(min_value=1, max_value=4)))
    rows, inner, cols = (draw(st.integers(min_value=1, max_value=3)) for _ in range(3))

    def grid(height, width):
        return [[draw(_entries(ctx, kind, exponents)) for _ in range(width)]
                for _ in range(height)]

    return grid(rows, inner), grid(inner, cols)


class TestGridMulOracle:
    """``_grid_mul`` skips the pairs with a zero entry; the plain triple loop
    over every pair is its oracle, down to the kind of each zero."""

    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for row, expected in zip(got, want):
            assert [type(v) for v in row] == [type(v) for v in expected]
            assert row == expected

    @given(_grid_pairs())
    def test_matches_the_triple_loop(self, pair):
        x, y = pair
        self._same(_grid_mul(x, y), _oracle_grid_mul(x, y))

    @given(st.data())
    def test_polynomial_rows_times_constant_column(self, data):
        ctx = create_algebra(data.draw(st.integers(min_value=1, max_value=4)))
        size = data.draw(st.integers(min_value=1, max_value=3))
        x = [[data.draw(_entries(ctx, GrassmannPoly, range(0, 3))) for _ in range(size)]
             for _ in range(size)]
        column = [[data.draw(_entries(ctx, None, None))] for _ in range(size)]
        got = _grid_mul(x, column)
        self._same(got, _oracle_grid_mul(x, column))
        assert all(type(v) is GrassmannPoly for v, in got)

    def test_apply_of_a_zero_vector_keeps_the_polynomial_kind(self):
        ctx = create_algebra(2)
        m = ParamSuperMatrix.from_supermatrix(SuperMatrix.identity(ctx, 1, 1))
        out = m.apply(SuperVector([ctx.zero()], [ctx.zero()]))
        assert type(out) is ParamSuperVector
        assert all(type(v) is GrassmannPoly and v.is_zero() for v in out.even + out.odd)
        v = SuperVector([ctx.one()], [ctx.gen(1)])
        assert m.apply(v) == ParamSuperVector(
            [GrassmannPoly.constant(ctx.one())], [GrassmannPoly.constant(ctx.gen(1))]
        )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
