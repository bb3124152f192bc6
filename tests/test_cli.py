"""End-to-end tests for the ``superband`` command line tool."""

import json
import subprocess
import sys
import time

import pytest

from superband.algebra import create_algebra
from superband.cli import main, parse_alpha
from superband.errors import ParseError
from superband.evolution import laplace, orbit as orbit_of
from superband.families import ParamSuperMatrix, make_family
from superband.poly import GrassmannPoly
from superband.serialize import dumps, load_value, to_obj
from superband.supermatrix import SuperMatrix, SuperVector


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("SUPERBAND_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj) if not isinstance(obj, (dict, list)) else json.dumps(obj))
    return str(path)


class TestAlphaParser:
    def test_single_generator(self):
        ctx = create_algebra(4)
        assert parse_alpha("xi1", ctx) == ctx.gen(1)

    def test_mixed_sum(self):
        """2ξ₁ + ½ξ₂ξ₃ parses with coefficients and products."""
        ctx = create_algebra(4)
        expected = ctx.monomial((1,), 2) + ctx.monomial((2, 3), "1/2")
        assert parse_alpha("2 xi1 + 1/2 xi2*xi3", ctx) == expected

    def test_leading_minus(self):
        ctx = create_algebra(3)
        assert parse_alpha("-xi2", ctx) == -ctx.gen(2)

    def test_whitespace_product(self):
        ctx = create_algebra(3)
        assert parse_alpha("xi1 xi2", ctx) == ctx.monomial((1, 2))

    def test_product_reorders_with_sign(self):
        """ξ₂ξ₁ = −ξ₁ξ₂."""
        ctx = create_algebra(3)
        assert parse_alpha("xi2*xi1", ctx) == -ctx.monomial((1, 2))

    def test_doubled_signs_cancel(self):
        ctx = create_algebra(3)
        assert parse_alpha("- - xi1", ctx) == ctx.gen(1)

    def test_scalar_term(self):
        ctx = create_algebra(3)
        assert parse_alpha("3/4", ctx) == ctx.scalar("3/4")

    def test_repeated_generator_collapses(self):
        ctx = create_algebra(3)
        assert parse_alpha("xi1 xi1", ctx).is_zero()

    @pytest.mark.parametrize(
        "bad", ["", "  ", "xi", "2.5", "xi1 +", "1/0", "xi0", "foo", "xi1 & xi2"]
    )
    def test_rejects_malformed(self, bad):
        ctx = create_algebra(4)
        with pytest.raises(ParseError):
            parse_alpha(bad, ctx)

    def test_rejects_out_of_range_generator(self):
        ctx = create_algebra(2)
        with pytest.raises(ParseError):
            parse_alpha("xi3", ctx)

    @pytest.mark.parametrize("bad", ["xi\u0661 + xi2", "\u0662 xi2", "1/\u0663 xi1"])
    def test_rejects_non_ascii_digits(self, bad, capsys):
        """Indices and coefficients are ASCII digits only: an Arabic-Indic
        digit is refused, not read as its value."""
        ctx = create_algebra(3)
        with pytest.raises(ParseError):
            parse_alpha(bad, ctx)
        code, out, err = run_cli(capsys, "annihilator", "--alpha", bad, "--generators", "3")
        assert (code, out) == (2, "") and err.startswith("superband: ")


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--samples", "24", "--seed", "11"
        )
        assert code == 0
        assert "result: pass" in out

    def test_single_suite_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "gamma", "--samples", "24", "--seed", "3"
        )
        assert code == 0
        assert "[gamma]" in out
        assert "mmn: pass" in out

    def test_json_is_deterministic(self, capsys):
        args = (
            "verify", "--suite", "families", "--samples", "16",
            "--seed", "42", "--format", "json",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["passed"] is True
        assert report["config"]["seed"] == 42

    def test_supermatrix_suite_at_sixteen_generators_is_fast(self):
        # B is drawn invertible directly; a loop that redrew whole matrices
        # until det B had a body needed tens of thousands of tries per sample
        command = [
            sys.executable, "-m", "superband.cli", "verify", "--suite",
            "supermatrix", "--generators", "16", "--samples", "20",
        ]
        started = time.perf_counter()
        done = subprocess.run(command, capture_output=True, check=True, text=True)
        elapsed = time.perf_counter() - started
        assert done.stdout.endswith("result: pass (4 checks)\n")
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERBAND_SEED", "99")
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "algebra", "--samples", "8",
            "--seed", "5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 99

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERBAND_SEED", "pi")
        code, _, err = run_cli(capsys, "verify", "--samples", "8")
        assert code == 2
        assert "SUPERBAND_SEED" in err

    def test_bad_generator_count_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--generators", "40")
        assert code == 2
        assert "generators" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "nonsense")
        assert exc.value.code == 2

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "algebra", "--samples", "8",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert "result: pass" in target.read_text()


class TestTable:
    def test_text_marks_reference_disagreements(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--alpha", "xi1")
        assert code == 0
        assert "Y(0)*" in out
        assert "result: pass" in out

    def test_json_shape_and_discrepancies(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--alpha", "xi1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["labels"]) == 7
        assert all(len(row) == 7 for row in report["labels"])
        assert len(report["matrices"]) == 7
        assert report["passed"] is True
        assert report["unmatched"] == []
        found = {
            (d["row"], d["column"], d["computed"], d["reference"])
            for d in report["discrepancies"]
        }
        assert found == {
            ("P(t)", "Y(t)", "Y(0)", "P(t)"),
            ("P(s)", "Y(t)", "Y(0)", "P(s)"),
            ("Y(t)", "P(s)", "A*t", "A*s"),
        }

    def test_json_matrices_round_trip(self, capsys):
        """Raw product cells decode back to the actual matrix products."""
        code, out, _ = run_cli(
            capsys, "table", "--alpha", "xi2", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        ctx = create_algebra(4)
        alpha = ctx.gen(2)
        p = make_family("P", alpha)
        cell = load_value(report["matrices"][0][0])
        assert cell == p @ p

    def test_compound_alpha(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--alpha", "xi1 + xi2*xi3*xi4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestCheckBand:
    def _pair_path(self, tmp_path, first, second):
        return write_json(
            tmp_path, "pair.json", {"first": to_obj(first), "second": to_obj(second)}
        )

    def test_left_absorbing_pair(self, capsys, tmp_path):
        """P(1)·P(2) = P(1): relation left_zero with all four conditions."""
        ctx = create_algebra(4)
        p = make_family("P", ctx.gen(1))
        path = self._pair_path(tmp_path, p.eval_at({"t": 1}), p.eval_at({"t": 2}))
        code, out, _ = run_cli(capsys, "check-band", "--in", path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["relation"] == "left_zero"
        assert report["component_conditions"] == {
            "orthogonal": True,
            "gamma_stable": True,
            "delta_stable": True,
            "b_band": True,
        }
        assert report["consistent"] is True

    def test_neither_pair(self, capsys, tmp_path):
        """Y(1)·P(1) = A reproduces neither factor."""
        ctx = create_algebra(4)
        alpha = ctx.gen(1)
        y = make_family("Y", alpha)
        p = make_family("P", alpha)
        path = self._pair_path(tmp_path, y.eval_at({"t": 1}), p.eval_at({"t": 1}))
        code, out, _ = run_cli(capsys, "check-band", "--in", path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["relation"] == "neither"
        assert report["component_conditions"]["delta_stable"] is False
        assert report["consistent"] is True

    def test_text_report(self, capsys, tmp_path):
        ctx = create_algebra(3)
        p = make_family("P", ctx.gen(1))
        path = self._pair_path(tmp_path, p.eval_at({"t": 1}), p.eval_at({"t": 3}))
        code, out, _ = run_cli(capsys, "check-band", "--in", path)
        assert code == 0
        assert "relation: left_zero" in out
        assert "orthogonal: yes" in out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "check-band", "--in", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert err

    def test_wrong_keys_are_usage_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", {"first": {"n": 3, "terms": []}})
        code, _, err = run_cli(capsys, "check-band", "--in", path)
        assert code == 2
        assert "first" in err

    def test_non_matrix_operand_is_usage_error(self, capsys, tmp_path):
        elem = {"n": 3, "terms": [{"c": "1", "idx": [1]}]}
        path = write_json(tmp_path, "bad.json", {"first": elem, "second": elem})
        code, _, err = run_cli(capsys, "check-band", "--in", path)
        assert code == 2
        assert "supermatr" in err

    def test_in_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "check-band")
        assert exc.value.code == 2


#: files the JSON decoder refuses without a syntax error
UNREADABLE = {
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "latin1": b'{"n": 3, "terms": [], "x": "caf\xe9"}',
    "long_int": b'{"n": ' + b"9" * 5000 + b', "terms": []}',
}


@pytest.mark.parametrize("content", sorted(UNREADABLE))
@pytest.mark.parametrize("flag", ("check-band --in", "analyze --family"))
def test_unreadable_file_is_usage_error(capsys, tmp_path, flag, content):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[content])
    code, out, err = run_cli(capsys, *flag.split(), str(path))
    assert (code, out) == (2, "")
    assert err.startswith("superband: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha", ("9" * 5000 + " xi1", "xi" + "1" * 5000))
def test_overlong_alpha_integer_is_usage_error(capsys, alpha):
    """Integers past int()'s digit limit are refused, not a traceback."""
    code, out, err = run_cli(capsys, "annihilator", "--alpha", alpha, "--generators", "4")
    assert (code, out) == (2, "")
    assert err.startswith("superband: ") and err.count("\n") == 1
    assert len(err) < 200


class TestAnalyze:
    def test_band_family_agrees(self, capsys, tmp_path):
        ctx = create_algebra(4)
        fam = make_family("P", ctx.gen(1))
        path = write_json(tmp_path, "fam.json", fam)
        code, out, _ = run_cli(
            capsys, "analyze", "--family", path, "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["agree"] is True
        assert report["relations"]["band"] is True
        assert report["counterexamples"] == {}

    def test_non_band_family_still_agrees(self, capsys, tmp_path):
        """I + A·t fails all three descriptions at once, so they still agree —
        and the band counterexample matrix is exactly A·s."""
        ctx = create_algebra(4)
        alpha = ctx.gen(1)
        a_const = make_family("A", alpha).eval_at({"t": 0})
        fam = ParamSuperMatrix.from_supermatrix(
            SuperMatrix.identity(ctx, 1, 1)
        ) + ParamSuperMatrix.from_supermatrix(a_const).scale(
            GrassmannPoly.variable(ctx, "t")
        )
        path = write_json(tmp_path, "fam.json", fam)
        code, out, _ = run_cli(
            capsys, "analyze", "--family", path, "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["agree"] is True
        assert report["relations"]["band"] is False
        assert report["relations"]["functional"] is False
        assert report["relations"]["differential"] is False
        band_defect = load_value(report["counterexamples"]["band"])
        expected = ParamSuperMatrix.from_supermatrix(a_const).scale(
            GrassmannPoly.variable(ctx, "s")
        )
        assert band_defect == expected

    def test_components_report_failure_exits_one(self, capsys, tmp_path):
        ctx = create_algebra(4)
        alpha = ctx.gen(1)
        a_const = make_family("A", alpha).eval_at({"t": 0})
        fam = ParamSuperMatrix.from_supermatrix(
            SuperMatrix.identity(ctx, 1, 1)
        ) + ParamSuperMatrix.from_supermatrix(a_const).scale(
            GrassmannPoly.variable(ctx, "t")
        )
        path = write_json(tmp_path, "fam.json", fam)
        code, out, _ = run_cli(
            capsys, "analyze", "--family", path, "--report", "components",
            "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["holds"] is False
        assert {"relation": "k0_ki", "indices": [1]} in report["failures"]

    def test_components_report_pass(self, capsys, tmp_path):
        ctx = create_algebra(3)
        fam = make_family("P", ctx.gen(1))
        path = write_json(tmp_path, "fam.json", fam)
        code, out, _ = run_cli(
            capsys, "analyze", "--family", path, "--report", "components"
        )
        assert code == 0
        assert "holds" in out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_product_past_the_digit_limit_is_usage_error(self, capsys, tmp_path, fmt):
        """K(t)K(s) squares a 3,000-digit constant past Python's int-to-str
        digit limit; printing it is refused with one error line and exit 2."""
        ctx = create_algebra(2)
        big = ctx.scalar(int("7" * 3000))
        fam = ParamSuperMatrix.from_supermatrix(
            SuperMatrix(1, 1, [[big, ctx.zero()], [ctx.zero(), ctx.one()]])
        )
        path = write_json(tmp_path, "fam.json", fam)
        code, out, err = run_cli(capsys, "analyze", "--family", path, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("superband: ") and err.count("\n") == 1
        assert f"{sys.get_int_max_str_digits()} digits" in err and "Traceback" not in err

    def test_malformed_family_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", "--family", str(path))
        assert code == 2
        assert err


class TestResolvent:
    def test_rra_on_moving_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "resolvent", "--family", "P", "--alpha", "xi1",
            "--check", "rra", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["check"] == {"label": "rra", "passed": True}
        assert report["defect_zero"] is False
        assert "expected_tail" in report

    def test_rrt_on_translation_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "resolvent", "--family", "T", "--check", "rrt",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["check"] == {"label": "rrt", "passed": True}
        assert report["defect_zero"] is True

    def test_rrt_fails_on_moving_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "resolvent", "--family", "P", "--check", "rrt"
        )
        assert code == 1
        assert "rrt: FAIL" in out

    def test_resolvent_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "resolvent", "--family", "T", "--alpha", "xi2",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        ctx = create_algebra(4)
        expected = laplace(make_family("T", ctx.gen(2)))
        assert load_value(report["resolvent"]) == expected

    def test_family_from_file(self, capsys, tmp_path):
        ctx = create_algebra(4)
        fam = make_family("P", ctx.gen(1))
        path = write_json(tmp_path, "fam.json", fam)
        code, out, _ = run_cli(
            capsys, "resolvent", "--family", path, "--check", "rra",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["check"]["passed"] is True

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "resolvent", "--family", "P", "--check", "bogus")
        assert exc.value.code == 2


class TestOrbit:
    def _x0_path(self, tmp_path, ctx):
        return write_json(
            tmp_path, "x0.json", SuperVector([ctx.one()], [ctx.gen(2)])
        )

    def test_translation_orbit(self, capsys, tmp_path):
        ctx = create_algebra(4)
        path = self._x0_path(tmp_path, ctx)
        code, out, _ = run_cli(
            capsys, "orbit", "--x0", path, "--family", "T", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["defect_zero"] is True
        assert report["law"] == "translational"
        fam = make_family("T", ctx.gen(1))
        x0 = SuperVector([ctx.one()], [ctx.gen(2)])
        assert load_value(report["orbit"]) == orbit_of(fam, x0)

    def test_moving_family_orbit(self, capsys, tmp_path):
        ctx = create_algebra(4)
        path = self._x0_path(tmp_path, ctx)
        code, out, _ = run_cli(capsys, "orbit", "--x0", path, "--family", "P")
        assert code == 0
        assert "product law: moving_time" in out

    def test_mirror_family_breaks_the_equation(self, capsys, tmp_path):
        """Q obeys only the mirrored absorption law; its orbit leaves a
        nonzero defect, reported through exit status 1."""
        ctx = create_algebra(4)
        path = self._x0_path(tmp_path, ctx)
        code, out, _ = run_cli(
            capsys, "orbit", "--x0", path, "--family", "Q", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["defect_zero"] is False
        assert report["law"] == "neither"

    def test_family_file_with_matching_algebra(self, capsys, tmp_path):
        ctx = create_algebra(4)
        x0_path = self._x0_path(tmp_path, ctx)
        fam_path = write_json(tmp_path, "fam.json", make_family("T", ctx.gen(3)))
        code, out, _ = run_cli(
            capsys, "orbit", "--x0", x0_path, "--family", fam_path,
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["defect_zero"] is True

    def test_exponent_coefficient_is_usage_error(self, capsys, tmp_path):
        """A coefficient outside -?digits(/digits)? is refused before any
        arithmetic, not expanded and then failed on printing."""
        ctx = create_algebra(2)
        x0 = to_obj(SuperVector([ctx.one()], [ctx.gen(1)]))
        x0["even"][0]["terms"][0]["c"] = "1e5000"
        path = write_json(tmp_path, "x0.json", x0)
        code, out, err = run_cli(
            capsys, "orbit", "--x0", path, "--family", "P", "--generators", "2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("superband: ") and err.count("\n") == 1
        assert "1e5000" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_coefficient_past_the_digit_limit_is_usage_error(self, capsys, tmp_path, fmt):
        """A coefficient the parser accepts can grow past Python's int-to-str
        digit limit; printing it is refused with one error line and exit 2."""
        ctx = create_algebra(2)
        x0 = to_obj(SuperVector([ctx.one()], [ctx.gen(1)]))
        x0["even"][0]["terms"][0]["c"] = "9" * 4300
        path = write_json(tmp_path, "x0.json", x0)
        code, out, err = run_cli(
            capsys, "orbit", "--x0", path, "--family", "P", "--generators", "2",
            "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert err.startswith("superband: ") and err.count("\n") == 1
        assert f"{sys.get_int_max_str_digits()} digits" in err and "Traceback" not in err

    def test_wrong_x0_type_is_usage_error(self, capsys, tmp_path):
        ctx = create_algebra(3)
        path = write_json(
            tmp_path, "x0.json", make_family("T", ctx.gen(1)).eval_at({"t": 0})
        )
        code, _, err = run_cli(capsys, "orbit", "--x0", path, "--family", "T")
        assert code == 2
        assert "supervector" in err

    @pytest.mark.parametrize(
        "command", ["orbit", "resolvent", "table", "annihilator", "verify"]
    )
    def test_generators_past_the_limit_is_usage_error(self, capsys, tmp_path, command):
        """Every subcommand reads --generators and refuses 17 the same way."""
        argv = {
            "orbit": ["--x0", self._x0_path(tmp_path, create_algebra(4)), "--family", "P"],
            "resolvent": ["--family", "P"],
            "annihilator": ["--alpha", "xi1"],
        }.get(command, [])
        code, out, err = run_cli(capsys, command, *argv, "--generators", "17")
        assert (code, out) == (2, "")
        assert err == (
            "superband: number of generators must be an integer in 1..16, got 17\n"
        )

    def test_named_family_over_other_generator_count_is_usage_error(self, capsys, tmp_path):
        """A named family is built over --generators, so an x0 of another
        algebra is refused, as it is for a family file."""
        path = self._x0_path(tmp_path, create_algebra(4))
        code, out, err = run_cli(
            capsys, "orbit", "--x0", path, "--family", "P", "--generators", "3"
        )
        assert (code, out) == (2, "")
        assert err == "superband: vector from a different algebra\n"

    @pytest.mark.parametrize("command", ["orbit", "resolvent"])
    @pytest.mark.parametrize("flags, message", [
        (("--generators", "17"), "number of generators must be an integer in 1..16, got 17"),
        (("--alpha", "xi1 xi2"), "family parameter alpha must be odd or zero, got xi1*xi2"),
    ], ids=["generators", "alpha"])
    def test_flags_are_checked_with_a_family_path(self, capsys, tmp_path, command, flags,
                                                   message):
        """--generators and --alpha are checked when --family is a path, as
        they are for a named family."""
        ctx = create_algebra(4)
        fam = write_json(tmp_path, "fam.json", make_family("P", ctx.gen(1)))
        x0 = ["--x0", self._x0_path(tmp_path, ctx)] if command == "orbit" else []
        code, out, err = run_cli(capsys, command, *x0, "--family", fam, *flags)
        assert (code, out, err) == (2, "", f"superband: {message}\n")


class TestAnnihilator:
    def test_single_generator(self, capsys):
        code, out, _ = run_cli(
            capsys, "annihilator", "--alpha", "xi1", "--generators", "3",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 2
        ctx = create_algebra(3)
        basis = [load_value(b) for b in report["basis"]]
        assert basis == [ctx.gen(1), ctx.monomial((1, 2, 3))]

    def test_text_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "annihilator", "--alpha", "xi1", "--generators", "3"
        )
        assert code == 0
        assert "dimension: 2" in out
        assert "xi1*xi2*xi3" in out

    def test_alpha_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "annihilator", "--generators", "3")
        assert exc.value.code == 2

    def test_even_alpha_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "annihilator", "--alpha", "1 + xi1*xi2", "--generators", "3"
        )
        assert code == 2
        assert err


class TestParserPlumbing:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "frobnicate")
        assert exc.value.code == 2

    def test_json_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "table", "--alpha", "xi1", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["passed"] is True
