import contextlib
import io
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelsweep import AffineParams, PrecisionConfig, beta_direct
from abelsweep.cli import main
from abelsweep.scalars import format_scalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "matrix", "--b", "2", "--s", "1", "--N", "3")
        assert code == 0 and out

    def test_root_of_unity_is_domain_error(self, capsys):
        code, _, err = run(capsys, "solve", "--b", "1", "--s", "1", "--N", "3")
        assert code == 2
        assert "root of unity" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--N", "2"),
            ("sweep", "--Ns", "1:2"),
            ("affine", "--n", "2", "--method", "system"),
        ],
    )
    def test_root_of_unity_checked_up_to_the_size(self, capsys, argv):
        # a size-2 system of b = -1 divides by 1 - b**2: every command solving it
        # refuses it with the same line
        code, out, err = run(capsys, *argv, "--b", "-1", "--s", "1", "--precision", "exact")
        assert (code, out) == (2, "")
        assert err == "domain error: base -1 is a root of unity: b**2 == 1\n"

    def test_zero_shift_is_domain_error(self, capsys):
        code, _, err = run(capsys, "solve", "--b", "2", "--s", "0", "--N", "3")
        assert code == 2
        assert "nonzero" in err

    def test_singular_system_is_domain_error(self, capsys, tmp_path):
        series = tmp_path / "ident.json"
        series.write_text(json.dumps({"center": 0, "coeffs": [0, 1, 0, 0]}))
        code, _, err = run(
            capsys, "solve", "--series", str(series), "--N", "3", "--precision", "exact"
        )
        assert code == 2
        assert "singular" in err

    @pytest.mark.parametrize("precision", ["bits:128", "bits:64", "machine"])
    def test_singular_message_is_one_line_in_every_float_mode(self, capsys, precision):
        # exact mode solves this system: the float modes refuse it by their pivot threshold
        argv = ("solve", "--b", "2", "--s", "1e-30", "--N", "12", "--precision", precision)
        assert run(capsys, *argv) == (
            2, "", "domain error: truncated system of size N=12 is singular\n"
        )

    def test_bad_flag_is_config_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--nope", "3")
        assert code == 1

    def test_bad_literal_is_config_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--b", "zebra", "--s", "1", "--N", "2")
        assert code == 1

    def test_missing_file_is_io_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--series", "/nonexistent.json", "--N", "2")
        assert code == 1


class TestMatrix:
    def test_paper_display_values(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--b", "2", "--s", "1", "--N", "4", "--precision", "exact"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows[0] == ["1", "1", "1", "1", "1"]
        assert rows[1] == ["0", "2", "4", "6", "8"]
        assert rows[3] == ["0", "0", "0", "8", "32"]

    def test_identity_pattern_allowed(self, capsys):
        # dumping the matrix never divides by 1 - b**k, so b=1 is fine here
        code, out, _ = run(
            capsys, "matrix", "--b", "1", "--s", "1", "--N", "3", "--precision", "exact"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows == [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]]

    def test_system_dump(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--b", "2", "--s", "1", "--N", "2",
            "--system", "--precision", "exact",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows == [["1", "1", "1"], ["1", "4", "0"]]

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--b", "2", "--s", "1", "--N", "2",
            "--precision", "exact", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"N": 2, "rows": [["1", "1", "1"], ["0", "2", "4"]]}


class TestSolveAndAffine:
    def test_affine_all_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "affine", "--b", "2", "--s", "1", "--n", "2", "--method", "all"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows[0] == ["1", "4/3", "4/3", "4/3"]
        assert rows[1] == ["2", "-1/3", "-1/3", "-1/3"]

    def test_affine_json(self, capsys):
        code, out, _ = run(
            capsys, "affine", "--b", "2", "--s", "1", "--n", "2", "--format", "json"
        )
        assert code == 0
        column = ["4/3", "-1/3"]
        assert json.loads(out) == {
            "n": 2,
            "coefficients": {"direct": column, "recurrence": column, "system": column},
        }

    @pytest.mark.parametrize(
        "precision,cfg",
        [
            ("bits:64", PrecisionConfig("bigfloat", bits=64)),
            ("machine", PrecisionConfig("machine")),
        ],
    )
    def test_affine_closed_forms_round_the_exact_value_once(self, capsys, precision, cfg):
        # the alternating sums cancel from terms near 2**60 to O(1), which
        # float arithmetic at 53 or 64 bits would not survive
        code, out, _ = run(
            capsys, "affine", "--b", "1/3", "--s", "1", "--n", "60",
            "--method", "all", "--precision", precision,
        )
        assert code == 0
        p = AffineParams(F(1, 3), F(1))
        for m, line in enumerate(out.strip().split("\n")[1:], start=1):
            want = format_scalar(cfg.scalar(beta_direct(p, 60, m)), cfg.dps)
            assert line.split(",")[1:3] == [want, want], m

    def test_solve_exact_json(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--b", "2", "--s", "1", "--N", "2",
            "--precision", "exact", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == ["4/3", "-1/3"]

    def test_series_file_input(self, capsys, tmp_path):
        series = tmp_path / "f.json"
        series.write_text(json.dumps({"center": 0, "coeffs": ["1", "2"]}))
        code, out, _ = run(
            capsys, "solve", "--series", str(series), "--N", "2", "--precision", "exact"
        )
        assert code == 0
        assert out.strip().split("\n")[1:] == ["1,4/3", "2,-1/3"]


class TestSweep:
    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--b", "2", "--s", "1", "--Ns", "1:6", "--precision", "exact"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["Ns"] == [1, 2, 3, 4, 5, 6]
        assert doc["coefficients"]["1"]["values"][:2] == ["1", "4/3"]
        assert "verdict" in doc["coefficients"]["1"]
        assert doc["config"]["window"] == 3

    def test_json_schema_sparse_Ns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--b", "2", "--s", "1", "--Ns", "1,2,4", "--precision", "exact"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["Ns"] == [1, 2, 4]
        assert set(doc["coefficients"]) == {"1", "2", "3", "4"}
        # index 3 only exists for N=4
        assert len(doc["coefficients"]["3"]["values"]) == 1
        assert doc["coefficients"]["1"]["verdict"]["kind"] in ("stabilized", "drifting")
        assert doc["config"]["mode"] == "exact"

    @pytest.mark.parametrize(
        "argv, want",
        [
            # coefficients 15 and 17 alternate in sign with steps that grow
            # over the last window: the window's view, not a limit, so drifting
            ("explore-exp --N-max 24", {"15": "drifting", "17": "drifting"}),
            ("sweep --b 9/10 --s 1 --Ns 1:24", {"1": "stabilized", "24": "drifting"}),
        ],
    )
    def test_verdict_kinds_agree_in_every_precision(self, capsys, argv, want):
        kinds = {}
        for precision in ("exact", "bits:256", "bits:64", "machine"):
            code, out, _ = run(capsys, *argv.split(), "--precision", precision)
            assert code == 0
            coefficients = json.loads(out)["coefficients"]
            kinds[precision] = {n: c["verdict"]["kind"] for n, c in coefficients.items()}
        assert all(k == kinds["exact"] for k in kinds.values())
        assert {n: kinds["exact"][n] for n in want} == want

    def test_csv_long_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--b", "2", "--s", "1", "--Ns", "1,2,3",
            "--precision", "exact", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,N,value,verdict"
        assert lines[1].startswith("1,1,1,")

    def test_stabilized_verdict_carries_limit_and_last_delta(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--b", "2", "--s", "1", "--Ns", "1:32", "--precision", "exact",
            "--tol-abs", "1e-3", "--tol-rel", "1e-3",
        )
        assert code == 0
        entry = json.loads(out)["coefficients"]["1"]
        verdict = entry["verdict"]
        assert list(verdict) == ["kind", "limit", "last_delta"]
        assert verdict["kind"] == "stabilized"
        limit, last_delta = F(verdict["limit"]), F(verdict["last_delta"])
        assert verdict["limit"] == entry["values"][-1]
        assert abs(limit - F(1.0 / math.log(2))) < F(1, 10**3)
        assert 0 < last_delta <= F(1, 10**3) * (1 + abs(limit))

    def test_singular_verdict_lists_the_failed_Ns(self, capsys, tmp_path):
        series = tmp_path / "ident.json"
        series.write_text(json.dumps({"coeffs": [0, 1, 0]}))
        code, out, _ = run(capsys, "sweep", "--series", str(series), "--Ns", "1:3")
        assert code == 0
        coefficients = json.loads(out)["coefficients"]
        for n in (1, 2, 3):
            assert coefficients[str(n)] == {
                "values": [None] * (4 - n),
                "verdict": {"kind": "singular-at", "Ns": list(range(n, 4))},
            }


class TestReports:
    def test_logapprox_columns(self, capsys):
        code, out, _ = run(
            capsys, "logapprox", "--b", "1/2", "--n", "20", "--xs", "0.5,0.25"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,x,approx,reference_log,abs_error"
        assert len(lines) == 3

    def test_log_table_refuses_the_base_before_the_point(self, capsys):
        # log_poly's root-of-unity check runs before reference_log's domain check
        assert run(capsys, "logapprox", "--b", "1", "--n", "5", "--xs", "0.5") == (
            2, "", "domain error: base 1 is a root of unity: b**1 == 1\n"
        )

    def test_invariance_json(self, capsys):
        code, out, _ = run(
            capsys,
            "invariance", "--b", "1/2", "--s1", "1", "--s2", "2",
            "--n", "50", "--xs", "0.3,0.5,0.7",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(float(doc["median_gap"]) - 1) < 1e-2

    def test_invariance_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "invariance", "--b", "1/2", "--s1", "1", "--s2", "2",
            "--n", "50", "--xs", "0.3,0.5", "--format", "csv",
        )
        assert code == 0
        header, *lines = out.strip().split("\n")
        assert header == "x,gap"
        assert [line.split(",")[0] for line in lines] == ["3/10", "1/2"]
        for line in lines:
            assert abs(float(line.split(",")[1]) - 1) < 1e-2

    def test_iterate_triples(self, capsys):
        code, out, _ = run(
            capsys, "iterate", "--b", "2", "--s", "1", "--t", "1", "--z", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,z,value"
        t, z, v = lines[1].split(",")
        assert (t, z) == ("1", "3")
        assert abs(float(v) - 6) < 1e-6

    def test_iterate_polynomial_readme_example(self, capsys):
        for precision in ("bits:128", "machine"):
            code, out, _ = run(
                capsys,
                "iterate", "--b", "1/2", "--s", "1", "--n", "200",
                "--bracket", "-0.95:0.95", "--t", "1", "--z", "0.3", "--precision", precision,
            )
            assert code == 0
            t, z, v = out.strip().split("\n")[1].split(",")
            assert (t, z) == ("1", "3/10")
            # closed form b**t * (z + s) - s
            assert abs(float(v) - (-0.35)) < 1e-3

    def test_iterate_bracket_miss_names_the_reachable_range(self, capsys):
        code, out, err = run(
            capsys,
            "iterate", "--b", "2", "--s", "1", "--n", "30",
            "--bracket=0:5", "--t", "1/2", "--z", "1",
        )
        assert code == 2 and not out
        assert err.startswith("domain error:") and len(err.strip().split("\n")) == 1
        # t, z and the bracket, not t + abel(z), which holds P_n's free constant
        assert "[0.0, 5.0] for t=0.5 at z=1.0" in err
        assert "reaches t in [" in err and "6.76" not in err

    def test_iterate_bracket_miss_far_outside_prints_the_width(self, capsys):
        # P_200 at z/s + 1 = 2.5, outside its disk |y - 1| < 1: abel(z) is near
        # -1.65e35, so both ends of the reach print alike to 6 digits, floats too
        for precision in ((), ("--precision", "machine")):
            code, out, err = run(
                capsys,
                "iterate", "--b", "1/2", "--s", "1", "--n", "200",
                "--bracket", "-0.95:0.95", "--t", "1", "--z", "1.5", *precision,
            )
            assert code == 2 and not out and len(err.strip().split("\n")) == 1
            assert "reaches t in [-1.65292e+35, -1.65292e+35]" in err
            assert err.endswith(", an interval of width 5.28536\n")
            # |abel(0.95) - abel(-0.95)| = log2(1.95/0.05), up to P_n's error
            width = float(err.rsplit("an interval of width ", 1)[1])
            assert abs(width - math.log2(39)) < 1e-4

    def test_iterate_exact_log_iterates_b_x_for_every_s(self, capsys):
        # without --n the map is b*x and s only fixes the Abel function's
        # constant; with --n it is b*(x+s) - s. Unifying them is a change of output
        for s in ("1", "3", "1/7"):
            code, out, _ = run(capsys, "iterate", "--b", "2", "--s", s, "--t", "1/2", "--z", "1")
            assert (code, out) == (0, "t,z,value\n1/2,1,1.414213562345499\n")
        code, out, _ = run(capsys, "iterate", "--b", "1/2", "--s", "1", "--t", "1", "--z", "0.3")
        assert (code, out) == (0, "t,z,value\n1,3/10,0.1499999999975407\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--b", "-2", "--s", "1", "--t", "1", "--z", "3"),
            ("--b", "2", "--s", "-1", "--t", "1", "--z", "3"),
            ("--b", "2", "--s", "1", "--t", "1", "--z", "-1"),
            ("--b", "2", "--s", "1", "--t", "1", "--z", "-1", "--precision", "machine"),
        ],
    )
    def test_iterate_complex_log_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "iterate", *argv)
        assert code == 2 and not out
        assert len(err.strip().split("\n")) == 1
        assert err.startswith("domain error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--b", "2", "--s", "1", "--t", "1/2", "--z", "1"),
            ("--b", "1/2", "--s", "1", "--n", "20", "--bracket", "-0.9:0.9",
             "--t", "1", "--z", "3/10"),
        ],
        ids=["exact-log", "polynomial"],
    )
    def test_iterate_exact_precision_refused(self, capsys, argv):
        code, out, err = run(capsys, "iterate", *argv, "--precision", "exact")
        assert code == 1 and not out
        assert err == (
            "error: fractional iteration finds roots to a tolerance and has no exact mode;"
            " use bigfloat or machine precision\n"
        )

    def test_iterate_polynomial_requires_bracket(self, capsys):
        code, _, err = run(
            capsys,
            "iterate", "--b", "1/2", "--s", "1", "--t", "1", "--z", "0.3", "--n", "50",
        )
        assert code == 1
        assert "bracket" in err


class TestScalarConversions:
    """Commands where two scalar types met or a value left its domain."""

    @pytest.mark.parametrize(
        "argv,want",
        [
            (("logapprox", "--b", "1/2", "--n", "20", "--xs", "1/2,1/4,1/8,1/16,1/32",
              "--precision", "exact"), 0),
            (("affine", "--b", "2", "--s", "1", "--n", "6", "--method", "all",
              "--precision", "bits:64"), 0),
            (("explore-bgt1", "--b", "2", "--n", "20", "--format", "json"), 0),
            (("solve", "--b", "1e400", "--s", "1", "--N", "3", "--precision", "machine"), 1),
            (("iterate", "--b", "2", "--s", "1", "--t", "1", "--z", "1e400",
              "--precision", "machine"), 1),
            (("solve", "--series", "{text_series}", "--N", "2", "--precision", "machine"), 1),
            (("solve", "--series", "{number_series}", "--N", "2"), 1),
            (("logapprox", "--b", "0", "--n", "20", "--xs", "1/2"), 2),
            (("logapprox", "--b", "-2", "--n", "20", "--xs", "1/2"), 2),
            (("logapprox", "--b", "1/2", "--n", "20", "--xs", "-1/2"), 2),
            (("explore-bgt1", "--xs", "0"), 2),
            (("explore-exp", "--s", "800", "--N-max", "3", "--precision", "machine"), 1),
            (("explore-exp", "--N-max", "180", "--precision", "machine"), 1),
            (("sweep", "--b", "2", "--s", "1", "--Ns", "1:4", "--window", "0"), 1),
            (("sweep", "--b", "2", "--s", "1", "--Ns", "1:4", "--tol-abs", "nan"), 1),
            (("sweep", "--b", "2", "--s", "1", "--Ns", "1:4", "--tol-rel", "inf"), 1),
            (("explore-exp", "--N-max", "4", "--tol-abs", "-1e-9"), 1),
            (("explore-exp", "--N-max", "0"), 1),
            (("sweep", "--b", "2", "--s", "1", "--Ns", "3:1"), 1),
            (("logapprox", "--b", "1/2", "--n", "400", "--xs", "0.1,0.25,0.5,0.75,0.9",
              "--precision", "exact"), 0),
            (("explore-exp", "--s", "709", "--N-max", "3", "--precision", "machine"), 1),
            (("explore-exp", "--s", "50", "--N-max", "40", "--precision", "machine"), 1),
            (("solve", "--b", "1e100", "--s", "1", "--N", "4", "--precision", "machine"), 1),
            (("invariance", "--b", "1/2", "--s1", "1", "--s2", "2", "--xs", ""), 1),
            (("logapprox", "--b", "1/2", "--n", "5", "--xs", ""), 1),
            (("iterate", "--b", "2", "--s", "1", "--t", "", "--z", "1"), 1),
            (("explore-bgt1", "--xs", ""), 1),
            (("solve", "--b", "2", "--s", "1", "--N", "2", "--precision", "foo"), 1),
            (("explore-bgt1", "--b", "1/2"), 1),
            (("iterate", "--b", "1/2", "--s", "1e400", "--n", "20", "--bracket", "-0.9:0.9",
              "--t", "1", "--z", "0.3"), 2),
            (("iterate", "--b", "1/2", "--s", "1e-400", "--n", "20", "--bracket", "-0.9:0.9",
              "--t", "1", "--z", "0.3"), 2),
            (("iterate", "--b", "1/2", "--s", "1e-400", "--n", "12", "--bracket", "1e-400:1",
              "--t", "1e-400", "--z", "1e-400"), 1),
            (("iterate", "--b", "1/2", "--s", "1", "--n", "12", "--bracket", "-0.9:0.9",
              "--t", "1", "--z", "0.3", "--tol", "1e-400"), 1),
            (("iterate", "--b", "2", "--s", "1", "--t", "1/2", "--z", "1", "--tol", "inf"), 1),
            (("iterate", "--b", "2", "--s", "1", "--t", "1/2", "--z", "1", "--tol", "1e400"), 1),
            (("iterate", "--b", "2", "--s", "1", "--t", "1/2", "--z", "1", "--tol", "x"), 1),
            (("iterate", "--b", "2", "--s", "1", "--t", "1/2", "--z", "1", "--bracket", "1"), 1),
            (("sweep", "--b", "2", "--s", "1", "--Ns", "1:2:3:4"), 1),
            # b = -1 has b**k == 1 first at k = 2: a size-1 sweep and a matrix dump pass
            (("sweep", "--b", "-1", "--s", "1", "--Ns", "1"), 0),
            (("matrix", "--b", "-1", "--s", "1", "--N", "2", "--system"), 0),
            # the size is checked, not the base at a size that solves nothing
            (("solve", "--b", "1", "--s", "1", "--N", "0"), 1),
        ],
    )
    def test_exit_code_and_one_line(self, capsys, tmp_path, argv, want):
        text_series = tmp_path / "text.json"
        text_series.write_text(json.dumps({"center": 0, "coeffs": ["1e400", "2"]}))
        number_series = tmp_path / "number.json"
        number_series.write_text('{"center": 0, "coeffs": [1e400, 2]}')
        argv = [a.format(text_series=text_series, number_series=number_series) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == want
        assert "Traceback" not in err
        assert len(err.splitlines()) <= 1 and len(err) <= 200
        if want == 1 and "machine" in argv:
            assert "machine precision" in err
        for bad in ("inf", "nan", "j)"):
            assert bad not in out

    @pytest.mark.parametrize(
        "argv,err",
        [
            ("explore-exp --N-max 5 --s 700 --precision machine",
             "error: the coefficients of f**2 in the Bell matrix built at N=5"
             " are outside the float range of machine precision\n"),
            ("sweep --b 1e300 --s 1 --Ns 1:6 --precision machine",
             "error: the coefficients of f**2 in the Bell matrix built at N=6"
             " are outside the float range of machine precision\n"),
            ("explore-exp --N-max 180 --precision machine",
             "error: the coefficients e**s/m! (s=0.0, m <= 179)"
             " are outside the float range of machine precision\n"),
            ("explore-exp --N-max 4 --s 710.1 --precision machine",
             "error: the coefficients e**s/m! (s=710.1, m <= 3)"
             " are outside the float range of machine precision\n"),
        ],
    )
    def test_overflow_names_the_power_and_the_size_built(self, capsys, argv, err):
        # a sweep builds one Bell matrix, at its largest N
        assert run(capsys, *argv.split()) == (1, "", err)

    @pytest.mark.parametrize(
        "argv,bad",
        [
            ("iterate --b 1/2 --s 1e-400 --n 12 --bracket 1e-400:1 --t 1e-400 --z 1e-400",
             "bad --bracket '1e-400:1'"),
            ("iterate --b 1/2 --s 1 --n 12 --bracket=-0.9:0.9 --t 1 --z 0.3 --tol 1e-400",
             "argument --tol: bad literal '1e-400'"),
            ("sweep --b 2 --s 1 --Ns 1:4 --tol-abs 1e-400", "argument --tol-abs: bad literal '1e-400'"),
            ("explore-exp --N-max 4 --tol-rel -1e-999", "argument --tol-rel: bad literal '-1e-999'"),
            ("solve --b 1e-400 --s 1 --N 3 --precision machine", "bad --b '1.0e-400'"),
            ("sweep --b 2 --s -1e-330 --Ns 1:4 --precision machine", "bad --s '-1.0e-330'"),
            ("explore-exp --s 1e-400 --N-max 3 --precision machine", "bad --s '1.0e-400'"),
            ("iterate --b 2 --s 1 --t 1e-400 --z 1 --precision machine", "bad --t '1.0e-400'"),
            ("iterate --b 2 --s 1 --t 1 --z 1/2,1e-400 --precision machine", "bad --z '1.0e-400'"),
        ],
    )
    def test_nonzero_literal_rounding_to_zero_is_refused(self, capsys, argv, bad):
        want = f"usage error: {bad}: a nonzero value rounds to 0.0 in machine precision\n"
        assert run(capsys, *argv.split()) == (1, "", want)

    @pytest.mark.parametrize(
        "argv,row",
        [
            ("affine --b 2 --s 1e300 --n 2 --method direct --precision machine", "2,-0.0"),
            ("logapprox --b 1/2 --n 20 --xs 1/2 --precision machine", "20,1/2,1.0,1.0,0.0"),
            ("logapprox --b 1/2 --n 100 --xs 1 --precision machine", "100,1,0.0,0.0,0.0"),
            ("iterate --b 2 --s 1 --t 1e-400 --z 1", None),
        ],
    )
    def test_computed_values_and_bigfloat_literals_keep_their_rounding(self, capsys, argv, row):
        # 0.0 is the correct rounding of a tiny computed value; bigfloat holds 1e-400
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and not err
        assert row is None or out.splitlines()[-1] == row

    def test_lattice_identity_command(self, capsys):
        # README criterion 4: P_n(b**m) = sum_{i<m} 1 - (1 - b**i)**n, exactly
        code, out, _ = run(
            capsys, "logapprox", "--b", "1/2", "--n", "20",
            "--xs", "1/2,1/4,1/8,1/16,1/32", "--precision", "exact",
        )
        assert code == 0
        b = F(1, 2)
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [F(x) for _, x, _, _, _ in rows] == [b**m for m in range(1, 6)]
        for m, (_, _, approx, _, _) in enumerate(rows, start=1):
            assert F(approx) == sum(1 - (1 - b**i) ** 20 for i in range(m))

    def test_affine_bigfloat_recurrence_matches_direct(self, capsys):
        code, out, _ = run(
            capsys, "affine", "--b", "2", "--s", "1", "--n", "6",
            "--method", "all", "--precision", "bits:64",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            _, direct, recurrence, _ = (F(v) for v in line.split(","))
            assert abs(recurrence - direct) <= F(1, 2**60) * abs(direct)

    @pytest.mark.parametrize(
        "argv",
        [
            ("logapprox", "--b", "1/2", "--n", "20,30", "--xs", "0.3,0.7"),
            ("explore-bgt1", "--b", "2", "--n", "20"),
        ],
    )
    def test_log_table_json_is_records(self, capsys, argv):
        code, csv_out, _ = run(capsys, *argv)
        code2, json_out, _ = run(capsys, *argv, "--format", "json")
        assert code == code2 == 0
        header, *lines = csv_out.strip().split("\n")
        records = json.loads(json_out)
        assert isinstance(records, list) and len(records) == len(lines)
        keys = ["n", "x", "approx", "reference_log", "abs_error"]
        assert header.split(",") == keys
        for record, line in zip(records, lines):
            assert list(record) == keys
            assert list(record.values()) == line.split(",")


class TestOneCheckPerPrecondition:
    """Each precondition is checked in one place, so every mode and method says the same."""

    def test_explore_exp_nonpositive_size_same_message_in_every_mode(self, capsys):
        errs = set()
        for precision in ("exact", "machine", "bits:64"):
            code, out, err = run(capsys, "explore-exp", "--Ns", "0", "--precision", precision)
            assert code == 1 and not out
            errs.add(err)
        assert errs == {"error: need at least one positive truncation size\n"}

    @pytest.mark.parametrize("method", ["direct", "recurrence", "system", "all"])
    def test_affine_nonpositive_n_refused_by_every_method(self, capsys, method):
        code, out, err = run(
            capsys, "affine", "--b", "2", "--s", "1", "--n", "0", "--method", method
        )
        assert code == 1 and not out
        assert err == "error: need at least one positive truncation size\n"

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (("solve", "--b", "2", "--s", "1", "--N", "2", "--precision", "bits:10"),
             "bad --precision 'bits:10': bigfloat mode needs at least 24 mantissa bits"),
            (("iterate", "--b", "1/2", "--s", "1", "--n", "20", "--bracket", "a:b",
              "--t", "1", "--z", "0.3"),
             "bad --bracket 'a:b': Invalid literal for Fraction: 'a'"),
            (("iterate", "--b", "1/2", "--s", "1", "--n", "20", "--bracket=-1e400:1",
              "--t", "1", "--z", "0.3"),
             "bad --bracket '-1e400:1': a value is outside the float range of machine precision"),
            (("sweep", "--Ns", "a:b"),
             "bad range 'a:b': invalid literal for int() with base 10: 'a'"),
        ],
    )
    def test_argument_errors_name_the_literal_and_the_reason(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == f"usage error: {reason}\n"

    @pytest.mark.parametrize("precision", ["exact", "machine", "bits:64"])
    def test_root_of_unity_prints_the_base_as_a_number(self, capsys, precision):
        code, _, err = run(
            capsys, "solve", "--b", "1", "--s", "1", "--N", "3", "--precision", precision
        )
        assert code == 2
        assert err.startswith("domain error: base 1") and "Fraction" not in err and "mpf" not in err


class TestNegativeLiterals:
    @pytest.mark.parametrize(
        "argv,option",
        [
            (("explore-exp", "--N-max", "8", "--s", "-1/2"), "--s"),
            (("sweep", "--b", "2", "--s", "-1/2", "--Ns", "1:8", "--precision", "exact"), "--s"),
            (
                ("iterate", "--b", "1/2", "--s", "1", "--n", "200",
                 "--bracket", "-0.95:0.95", "--t", "1", "--z", "0.3"),
                "--bracket",
            ),
        ],
    )
    def test_separate_value_reads_like_attached_one(self, capsys, argv, option):
        i = argv.index(option)
        attached = argv[:i] + (f"{option}={argv[i + 1]}",) + argv[i + 2:]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *attached)
        assert code1 == code2 == 0
        assert out1 == out2


class TestExploratory:
    def test_explore_exp_runs_clean(self, capsys):
        code, out, _ = run(
            capsys, "explore-exp", "--Ns", "1:8", "--precision", "bits:256"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["Ns"] == list(range(1, 9))
        for entry in doc["coefficients"].values():
            assert entry["verdict"]["kind"] != "singular-at"
        # the 1x1 truncation of the exponential system solves to exactly 1
        assert float(doc["coefficients"]["1"]["values"][0]) == 1.0

    def test_explore_exp_n_max(self, capsys):
        code, out, _ = run(capsys, "explore-exp", "--N-max", "5")
        assert code == 0
        assert json.loads(out)["Ns"] == [1, 2, 3, 4, 5]

    def test_explore_exp_flag_conflict(self, capsys):
        code, _, err = run(capsys, "explore-exp", "--N-max", "5", "--Ns", "1:3")
        assert code == 1 and "exactly one" in err

    def test_domain_error_precedes_later_points(self, capsys):
        # each point is evaluated next to its reference log, in order: the
        # domain error at -0.7 comes before 1e400's float-range error
        assert run(capsys, *"logapprox --b 1/2 --n 5 --xs -0.7,1e400 --precision machine".split()) == (
            2, "", "domain error: the real logarithm needs x > 0, got x=-0.7\n"
        )

    def test_explore_bgt1_reports_errors(self, capsys):
        code, out, _ = run(capsys, "explore-bgt1", "--b", "2", "--n", "50")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,x,approx,reference_log,abs_error"
        assert len(lines) > 5


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--b", "2", "--s", "1", "--Ns", "1:8"),
            ("logapprox", "--b", "1/2", "--n", "60", "--xs", "0.3,0.7"),
            ("matrix", "--b", "3", "--s", "2", "--N", "5"),
            ("explore-exp", "--Ns", "1:6"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _, _ = run(
            capsys,
            "matrix", "--b", "2", "--s", "1", "--N", "3", "--out", str(target),
        )
        code2, out, _ = run(capsys, "matrix", "--b", "2", "--s", "1", "--N", "3")
        assert code == code2 == 0
        assert target.read_text() == out


# Literal pools for the argv property test, as (well-formed, malformed)
# pairs. Well-formed literals include zero, negatives, p/q and values outside
# the float range; malformed ones nan, inf, empty and unparsable tokens.
# Sizes stay small (N <= 4, n <= 12) so that each command runs in
# milliseconds.
_NUMBER = (["1", "2", "-1", "1/2", "-3/4", "3/10", "0", "1e400", "1e-400"],
           ["nan", "inf", "", "x", "1/0"])
_LIST = (["3/10", "0.3,0.5", "1", "-1/2,2", "0", "1e400", "1e-400,1/2"],
         ["nan", "", "x", "1,,2"])
_SIZE = (["1", "2", "4", "0", "-1"], ["", "x", "1.5"])
_DEGREE = (["1", "5", "12", "0", "-1"], ["", "x"])
# affine's exact system solve takes seconds at n=12 when b or s is 1e-400
_AFFINE_DEGREE = (["1", "3", "5", "0", "-1"], ["", "x"])
_SIZES = (["1:4", "1,2,4", "4", "2:4", "0", "3:1", "2,1", "-1:2"],
          ["1:4:0", "1:2:3:4", "", "a:b", "1:"])
_DEGREES = (["5", "5,12", "12", "0", "-1", "12:1"], ["1:12:0", "", "a:b"])
_BRACKET = (["-0.9:0.9", "0:5", "1:0", "-1e400:1", "1e-400:1"], ["a:b", "1", "nan:1", ":"])
_TOL = (["1e-9", "1e-3", "0", "-1", "1e400"], ["nan", "inf", "x"])
_WINDOW = (["1", "3", "0", "-1"], ["x"])
_COMMON = {"--precision": (["machine", "exact", "bits:64", "bits:10"], ["bits:x", "foo", ""]),
           "--format": (["csv", "json"], ["xml"])}
_STAB = {"--tol-abs": _TOL, "--tol-rel": _TOL, "--window": _WINDOW}
_FLAG = None

#: per subcommand: its required options, its optional ones, and the
#: options never left out because their default size is above the cap
_GRAMMAR = {
    "matrix": ({"--N": _SIZE}, {"--b": _NUMBER, "--s": _NUMBER, "--system": _FLAG}, ()),
    "solve": ({"--N": _SIZE}, {"--b": _NUMBER, "--s": _NUMBER}, ()),
    "sweep": ({"--Ns": _SIZES}, {"--b": _NUMBER, "--s": _NUMBER, **_STAB}, ()),
    "affine": (
        {"--b": _NUMBER, "--s": _NUMBER, "--n": _AFFINE_DEGREE},
        {"--method": (["direct", "recurrence", "system", "all"], ["x"])},
        (),
    ),
    "logapprox": ({"--b": _NUMBER, "--n": _DEGREES, "--xs": _LIST}, {}, ()),
    "invariance": (
        {"--b": _NUMBER, "--s1": _NUMBER, "--s2": _NUMBER, "--xs": _LIST},
        {"--n": _DEGREE},
        ("--n",),
    ),
    "iterate": (
        {"--b": _NUMBER, "--s": _NUMBER, "--t": _LIST, "--z": _LIST},
        {"--n": _DEGREE, "--bracket": _BRACKET, "--tol": _TOL},
        (),
    ),
    "explore-exp": ({}, {"--s": _NUMBER, "--Ns": _SIZES, "--N-max": _SIZE, **_STAB}, ()),
    "explore-bgt1": ({}, {"--b": _NUMBER, "--n": _DEGREES, "--xs": _LIST}, ("--n",)),
}


@st.composite
def _argv(draw):
    """A subcommand and its options; each option is left out or malformed one time in sixteen.

    An optional option is also left out one time in two otherwise, and an
    option may be written as "--opt value" or "--opt=value".
    """
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional, always = _GRAMMAR[command]
    argv = [command]
    for option, pools in {**required, **optional, **_COMMON}.items():
        roll = draw(st.integers(0, 15))  # hypothesis favours 0: make it the common case
        left_out = roll == 15 or (option not in required and roll % 2 == 1)
        if left_out and option not in always:
            continue
        if pools is _FLAG:
            argv.append(option)
            continue
        value = draw(st.sampled_from(pools[roll == 14]))
        argv += [option, value] if draw(st.booleans()) else [f"{option}={value}"]
    return argv


class TestArgvProperty:
    """Any argv ends in exit code 0, 1 or 2 and at most one stderr line, never a traceback."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(argv=_argv())
    def test_exit_code_one_line_and_finite_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1
        if code:
            assert out.getvalue() == ""
        else:
            text = out.getvalue().lower()
            assert "inf" not in text and "nan" not in text
