"""Canonical JSON round-trips and the strictness of the parser."""

import copy
import json
import pickle
import random
import subprocess
import sys

from fractions import Fraction

import pytest

from superband.algebra import GrassmannElement, create_algebra
from superband.errors import ConfigError, ParityError, ParseError, ShapeError
from superband.evolution import LaurentMatrix, LaurentScalar, laplace, orbit
from superband.families import (
    CayleyReport,
    ParamSuperMatrix,
    ParamSuperVector,
    make_family,
)
from superband.poly import GrassmannPoly
from superband.randgen import (
    random_element,
    random_supermatrix,
    random_supervector,
)
from superband.serialize import (
    dump_element,
    dumps,
    load_element,
    load_value,
    loads,
    parse_input,
    to_obj,
)
from superband.supermatrix import SuperMatrix, SuperVector


def _ctx(n=3):
    return create_algebra(n)


def _random_poly_family(rng, ctx, p, q, degree):
    fam = ParamSuperMatrix.zero(ctx, p, q)
    for m in range(degree + 1):
        tm = GrassmannPoly.term(ctx.one(), t=m)
        step = random_supermatrix(rng, ctx, p, q, invertible_b=False)
        fam = fam + ParamSuperMatrix.from_supermatrix(step).scale(tm)
    return fam


#: the top-level keys of each graded container and term-list kind
KEYS = {
    SuperMatrix: {"p", "q", "rows"},
    SuperVector: {"even", "odd"},
    ParamSuperMatrix: {"n", "p", "q", "rows"},
    ParamSuperVector: {"even", "n", "odd"},
    LaurentMatrix: {"n", "p", "q", "rows"},
    GrassmannPoly: {"n", "poly"},
    LaurentScalar: {"laurent", "n"},
}


def _samples(ctx):
    """A value of each kind in KEYS, with nonzero, mixed-parity coefficients."""
    alpha = ctx.gen(1) + ctx.monomial((1, 2, 3), Fraction(-1, 2))
    x0 = SuperVector([ctx.scalar(2) + ctx.monomial((1, 2))], [ctx.gen(3)])
    return {
        SuperMatrix: random_supermatrix(random.Random(11), ctx, 2, 1),
        SuperVector: x0,
        ParamSuperMatrix: make_family("P", alpha),
        ParamSuperVector: orbit(make_family("P", alpha), x0),
        LaurentMatrix: laplace(make_family("T", alpha)),
        GrassmannPoly: GrassmannPoly.term(alpha, t=2, s=1)
        + GrassmannPoly.term(ctx.scalar(3)),
        LaurentScalar: LaurentScalar.term(alpha, iz=-1, iw=2)
        + LaurentScalar.constant(ctx.one()),
    }


class TestElements:
    def test_directed_form(self):
        ctx = _ctx()
        x = ctx.scalar(-0.5) * ctx.gen(1) * ctx.gen(2)
        assert dump_element(x) == {
            "n": 3,
            "terms": [{"c": "-1/2", "idx": [1, 2]}],
        }

    def test_round_trip(self):
        ctx = _ctx()
        x = ctx.one() + ctx.gen(1) + ctx.scalar(-2) * ctx.gen(2) * ctx.gen(3)
        assert load_element(dump_element(x)) == x
        assert load_element(dump_element(ctx.zero())) == ctx.zero()

    def test_terms_come_out_sorted(self):
        ctx = _ctx()
        x = ctx.gen(3) + ctx.gen(1) + ctx.monomial((1, 2))
        dumped = dump_element(x)
        assert [t["idx"] for t in dumped["terms"]] == [[1], [1, 2], [3]]

    def test_zero_coefficients_are_dropped(self):
        got = load_element(
            {"n": 2, "terms": [{"c": "0", "idx": [1]}, {"c": "2", "idx": [2]}]}
        )
        ctx = create_algebra(2)
        assert got == ctx.scalar(2) * ctx.gen(2)

    def test_rejects_unsorted_monomial(self):
        with pytest.raises(ParseError):
            load_element({"n": 3, "terms": [{"c": "1", "idx": [2, 1]}]})
        with pytest.raises(ParseError):
            load_element({"n": 3, "terms": [{"c": "1", "idx": [1, 1]}]})

    def test_rejects_duplicate_or_unsorted_terms(self):
        with pytest.raises(ParseError):
            load_element(
                {
                    "n": 3,
                    "terms": [{"c": "1", "idx": [1]}, {"c": "2", "idx": [1]}],
                }
            )
        with pytest.raises(ParseError):
            load_element(
                {
                    "n": 3,
                    "terms": [{"c": "1", "idx": [2]}, {"c": "2", "idx": [1]}],
                }
            )

    def test_rejects_bad_rationals(self):
        # only the form dumps writes, -?digits(/digits)?, is read: no spaces,
        # signs, underscores, decimals, exponents or non-ASCII digits
        for bad in ("1/0", "pi", 0.5, None, "", "1.5", " 1", "1 ", "+1", "1_000",
                    "1e5", "1e4000000", "1/-2", "-1/+2", "--1", "1/2/3", "\u0661"):
            with pytest.raises(ParseError):
                load_element({"n": 3, "terms": [{"c": bad, "idx": [1]}]})

    def test_rejects_bad_indices_and_counts(self):
        with pytest.raises(ParseError):
            load_element({"n": 3, "terms": [{"c": "1", "idx": [4]}]})
        with pytest.raises(ParseError):
            load_element({"n": 0, "terms": []})
        with pytest.raises(ParseError):
            load_element({"n": 17, "terms": []})

    def test_rejects_wrong_key_sets(self):
        with pytest.raises(ParseError):
            load_element({"n": 3})
        with pytest.raises(ParseError):
            load_element({"n": 3, "terms": [], "extra": 1})
        with pytest.raises(ParseError):
            load_element({"n": 3, "terms": [{"c": "1"}]})


class TestMatrices:
    def test_round_trip(self):
        rng = random.Random("superband-serialize-matrix")
        for _ in range(20):
            ctx = create_algebra(rng.choice([2, 3, 4]))
            p, q = rng.choice([(1, 1), (2, 1), (1, 2)])
            m = random_supermatrix(rng, ctx, p, q, invertible_b=False)
            assert load_value(to_obj(m)) == m

    def test_parity_violation_uses_module_error(self):
        ctx = _ctx()
        elem = dump_element(ctx.gen(1))
        zero = dump_element(ctx.zero())
        rows = [[elem, zero], [zero, zero]]
        with pytest.raises(ParityError):
            load_value({"p": 1, "q": 1, "rows": rows})

    def test_shape_violation_uses_module_error(self):
        ctx = _ctx()
        zero = dump_element(ctx.zero())
        with pytest.raises(ShapeError):
            load_value({"p": 1, "q": 1, "rows": [[zero, zero]]})

    def test_rejects_bad_block_sizes(self):
        ctx = _ctx()
        zero = dump_element(ctx.zero())
        with pytest.raises(ParseError):
            load_value({"p": 0, "q": 1, "rows": [[zero]]})


class TestSupervectors:
    def test_round_trip(self):
        rng = random.Random("superband-serialize-vector")
        for _ in range(20):
            ctx = create_algebra(rng.choice([2, 3]))
            p, q = rng.choice([(1, 1), (2, 2)])
            v = random_supervector(rng, ctx, p, q)
            assert load_value(dump_element(v.even[0])) == v.even[0]
            got = load_value(
                {
                    "even": [dump_element(x) for x in v.even],
                    "odd": [dump_element(x) for x in v.odd],
                }
            )
            assert got == v

    def test_empty_slot_list_uses_module_error(self):
        with pytest.raises(ShapeError):
            load_value({"even": [], "odd": []})


class TestParamMatrices:
    def test_round_trip_named_families(self):
        ctx = _ctx()
        for kind in ("P", "Q", "Y", "E", "T", "A", "Z"):
            fam = make_family(kind, ctx.gen(1))
            assert load_value(to_obj(fam)) == fam

    def test_round_trip_random(self):
        rng = random.Random("superband-serialize-param")
        for _ in range(15):
            ctx = create_algebra(rng.choice([2, 3]))
            p, q = rng.choice([(1, 1), (2, 1)])
            fam = _random_poly_family(rng, ctx, p, q, rng.randint(0, 3))
            assert load_value(to_obj(fam)) == fam

    def test_zero_family_keeps_its_algebra(self):
        ctx = create_algebra(5)
        fam = ParamSuperMatrix.zero(ctx, 1, 1)
        got = load_value(to_obj(fam))
        assert got == fam
        assert got.ctx.n == 5

    def test_poly_strictness(self):
        ctx = _ctx()
        elem = dump_element(ctx.one())
        for bad in (
            [{"c": elem, "s": 0, "t": 1}, {"c": elem, "s": 0, "t": 0}],
            [{"c": elem, "s": 0, "t": 10}],
            [{"c": elem, "t": 0}],
        ):
            with pytest.raises(ParseError):
                load_value({"n": 3, "poly": bad})
        two_t = GrassmannPoly.term(ctx.scalar(2), t=1)
        assert load_value(to_obj(two_t)) == two_t

    def test_param_supervector_round_trip(self):
        ctx = _ctx()
        from superband.evolution import orbit

        x = orbit(
            make_family("P", ctx.gen(1)),
            SuperVector([ctx.one()], [ctx.gen(2)]),
        )
        assert set(to_obj(x)) == {"even", "n", "odd"}
        assert load_value(to_obj(x)) == x


class TestLaurent:
    def test_round_trip_resolvents(self):
        ctx = _ctx()
        for kind in ("P", "T", "E"):
            r = laplace(make_family(kind, ctx.gen(1)))
            back = load_value(to_obj(r))
            assert type(back) is LaurentMatrix
            assert back == r

    def test_negative_exponents_round_trip(self):
        ctx = _ctx()
        s = LaurentScalar(ctx, {(0, -1): ctx.one(), (-1, 0): -ctx.one()})
        r = LaurentMatrix.zero(ctx, 1, 1)
        rows = [list(row) for row in r.rows]
        rows[0][0] = s
        m = LaurentMatrix(1, 1, rows)
        assert load_value(to_obj(m)) == m

    def test_zero_laurent_matrix_sniffs_as_parametric(self):
        """An all-zero grid has no Laurent term to betray its kind, so the
        shared canonical form resolves to the parametric reading."""
        ctx = _ctx()
        obj = to_obj(LaurentMatrix.zero(ctx, 1, 1))
        got = load_value(obj)
        assert isinstance(got, ParamSuperMatrix)
        assert got.is_zero()

    def test_laurent_strictness(self):
        ctx = _ctx()
        elem = dump_element(ctx.one())
        bad = {
            "n": 3,
            "p": 1,
            "q": 1,
            "rows": [
                [
                    [{"c": elem, "iw": 0, "iz": 2}, {"c": elem, "iw": 0, "iz": 1}],
                    [],
                ],
                [[], []],
            ],
        }
        with pytest.raises(ParseError):
            load_value(bad)


class TestDispatch:
    def test_dumps_is_deterministic(self):
        rng1 = random.Random("superband-serialize-det")
        rng2 = random.Random("superband-serialize-det")
        ctx = _ctx()
        a = random_element(rng1, ctx)
        b = random_element(rng2, ctx)
        assert dumps(a) == dumps(b)
        assert dumps(make_family("P", ctx.gen(1))) == dumps(
            make_family("P", ctx.gen(1))
        )

    def test_dumps_output_is_compact_sorted_json(self):
        ctx = _ctx()
        text = dumps(ctx.gen(2))
        assert text == '{"n":3,"terms":[{"c":"1","idx":[2]}]}'
        assert json.loads(text) == dump_element(ctx.gen(2))

    def test_loads_round_trip(self):
        ctx = _ctx()
        values = [
            ctx.one() + ctx.gen(1),
            random_supermatrix(random.Random(7), ctx),
            make_family("T", ctx.gen(1)),
            laplace(make_family("P", ctx.gen(1))),
        ]
        for v in values:
            assert loads(dumps(v)) == v

    def test_loads_reports_byte_offset(self):
        with pytest.raises(ParseError) as err:
            loads('{"n": 3, "terms": ')
        assert err.value.offset is not None
        assert err.value.offset > 0

    def test_load_value_rejects_unknown_shapes(self):
        with pytest.raises(ParseError):
            load_value({"foo": 1})
        with pytest.raises(ParseError):
            load_value([1, 2, 3])

    def test_copy_and_pickle_round_trip_every_value_type(self):
        ctx = _ctx()
        alpha = ctx.gen(1) + ctx.monomial((1, 2, 3), Fraction(-1, 2))
        x0 = SuperVector([ctx.scalar(2) + ctx.monomial((1, 2))], [ctx.gen(3)])
        resolvent = laplace(make_family("T", alpha))
        values = [
            alpha,
            random_supermatrix(random.Random(11), ctx),
            x0,
            make_family("P", alpha),
            orbit(make_family("P", alpha), x0),
            resolvent,
            resolvent.rows[0][1],
            LaurentScalar.constant(ctx.one()),
            LaurentScalar.zero(ctx),
            GrassmannPoly.constant(ctx.one()),
            GrassmannPoly.term(alpha, t=2, s=1) + GrassmannPoly.term(ctx.scalar(3)),
            GrassmannPoly.zero(ctx),
        ]
        # one value of each serializable type, the merged matrix classes included
        assert set(map(type, values)) == {GrassmannElement, *KEYS}
        for v in values:
            for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert type(twin) is type(v)
                assert twin == v
                assert dumps(twin) == dumps(v)
            back = loads(dumps(v))
            assert type(back) is type(v)
            assert back == v

    def test_polynomials_on_their_own_are_tagged(self):
        ctx = _ctx()
        assert dumps(GrassmannPoly.zero(ctx)) == '{"n":3,"poly":[]}'
        assert dumps(LaurentScalar.term(ctx.gen(1), iz=-1)) == (
            '{"laurent":[{"c":{"n":3,"terms":[{"c":"1","idx":[1]}]},"iw":0,"iz":-1}],'
            '"n":3}'
        )
        with pytest.raises(ParseError):
            load_value({"n": 3, "poly": [{"c": dump_element(ctx.one()), "t": 0}]})
        with pytest.raises(ParseError):
            load_value({"n": 3, "laurent": {}})

    @pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
    def test_every_kind_round_trips(self, cls):
        ctx = create_algebra(4)
        value = _samples(ctx)[cls]
        assert type(value) is cls
        obj = to_obj(value)
        assert set(obj) == KEYS[cls]
        back = load_value(json.loads(dumps(value)))
        assert type(back) is cls
        assert back == value
        assert back.ctx.n == 4
        assert to_obj(back) == obj

    @pytest.mark.parametrize("value", (object(), CayleyReport(*range(6))))
    def test_unserializable_values_raise_config_error(self, value):
        with pytest.raises(ConfigError, match="cannot serialize"):
            to_obj(value)
        with pytest.raises(ConfigError):
            dumps(value)

    def test_parse_input_reads_files(self, tmp_path):
        ctx = _ctx()
        fam = make_family("P", ctx.gen(1))
        path = tmp_path / "family.json"
        path.write_text(dumps(fam), encoding="utf-8")
        assert parse_input(path) == fam

    def test_a_path_that_is_no_name_is_refused_and_stdin_stays_open(self):
        # open(0) would read this process's stdin and then close fd 0
        code = (
            "import os\n"
            "from superband.errors import ConfigError\n"
            "from superband.serialize import parse_input, read_json\n"
            "for read in read_json, parse_input:\n"
            "    try:\n"
            "        read(0)\n"
            "    except ConfigError as exc:\n"
            "        print(exc)\n"
            "os.fstat(0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["path must be a str or os.PathLike, got int"] * 2
