"""Command-line behavior: outputs, exit codes, and report determinism."""

import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fockcalc
from fockcalc.cli import build_parser, main
from fockcalc.gamma import _MAX_SITE

PHI_JSON = '{"terms":[{"set":[],"coef":[2,0]},{"set":[0,2],"coef":[3,0]}]}'


@pytest.fixture()
def phi_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(PHI_JSON)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLambdaCommand:
    def test_subset_weight(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "[1,3]")
        assert code == 0
        assert float(out) == 8.0

    def test_truncated_sum(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--sum", "--p", "2", "--n", "4")
        assert code == 0
        assert float(out) == pytest.approx(2.951388888888889, rel=1e-13)

    def test_series_bound(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--bound", "--p", "2")
        assert code == 0
        assert float(out) == pytest.approx(5.180668317897116, abs=1e-6)

    def test_negative_entry_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lambda", "[0,-1]")
        assert code == 2
        assert "error" in err

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "lambda")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--sum", "--bound", "--p", "2", "--n", "3"], ("--sum", "--bound")),
            (["[1,3]", "--sum", "--p", "2", "--n", "3"], ("subset", "--sum")),
            (["--bound", "[1,3]", "--p", "2"], ("subset", "--bound")),
            (["[1,3]", "--n", "4"], ("--n", "--sum")),
            (["--bound", "--p", "2", "--n", "3"], ("--n", "--sum")),
            (["[1,3]", "--p", "2"], ("--p", "subset")),
        ],
    )
    def test_conflicting_options_are_usage_errors(self, capsys, argv, named):
        try:
            code = main(["lambda", *argv])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert all(name in err for name in named), err

    def test_overflowing_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lambda", "--bound", "--p", "1.0000001")
        assert code == 2
        assert err == "error: the weight-sum bound overflows a double at --p 1.0000001\n"


class TestNormCommand:
    def test_plain_norm(self, capsys, phi_file):
        code, out, _ = run_cli(capsys, "norm", phi_file, "--p", "0")
        assert code == 0
        assert float(out) == pytest.approx(13**0.5)

    def test_dual_norm(self, capsys, phi_file):
        # weight({0,2}) = 1 * 3, so the level-1 dual norm is sqrt(4 + 9/9)
        code, out, _ = run_cli(capsys, "norm", phi_file, "--p", "1", "--dual")
        assert code == 0
        assert float(out) == pytest.approx(5**0.5)

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(PHI_JSON))
        code, out, _ = run_cli(capsys, "norm", "-", "--p", "0")
        assert code == 0
        assert float(out) == pytest.approx(13**0.5)

    def test_schema_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"terms":[{"set":[2,0],"coef":[1,0]}]}')
        code, _, err = run_cli(capsys, "norm", str(bad))
        assert code == 2

    def test_nan_coefficient_is_schema_error(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"terms":[{"set":[0],"coef":[NaN,0]}]}')
        code, out, err = run_cli(capsys, "norm", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_overflowing_norm_is_usage_error(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"terms": [{"set": list(range(60)), "coef": [1, 0]}]}))
        code, _, err = run_cli(capsys, "norm", str(big), "--p", "10")
        assert code == 2
        assert err.startswith("error: ")


    def test_directory_is_file_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "norm", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Is a directory" in err
        assert len(err.splitlines()) == 1

    def test_huge_coefficient_norm_is_exact(self, capsys, tmp_path):
        doc = tmp_path / "huge.json"
        doc.write_text('{"terms":[{"set":[0],"coef":[1e300,0]}]}')
        for extra in ((), ("--dual", "--p", "3")):
            code, out, _ = run_cli(capsys, "norm", str(doc), *extra)
            assert code == 0
            assert float(out) == 1e300


class TestApplyCommand:
    def test_site_round_trip(self, capsys, phi_file):
        # Whitespace around a whole step is read.
        for pipeline in ("annihilate:2,create:2", " annihilate:2 , create:2"):
            code, out, _ = run_cli(capsys, "apply", phi_file, "--pipeline", pipeline)
            assert code == 0
            assert json.loads(out) == {"terms": [{"set": [0, 2], "coef": [3.0, 0.0]}]}

    def test_expect(self, capsys, phi_file):
        code, out, _ = run_cli(capsys, "apply", phi_file, "--pipeline", "expect")
        assert code == 0
        assert json.loads(out) == {"terms": [{"set": [], "coef": [2.0, 0.0]}]}

    def test_condexp_drops_high_terms(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"terms":[{"set":[0,2],"coef":[3,0]}]}')
        code, out, _ = run_cli(capsys, "apply", str(f), "--pipeline", "condexp:1")
        assert code == 0
        assert json.loads(out) == {"terms": []}

    def test_bad_tag_is_usage_error(self, capsys, phi_file):
        # The kind is named first, and a site is ASCII -?[0-9]+.
        for pipeline, message in (
            ("explode:3", "unknown operator kind 'explode'"),
            ("explode", "unknown operator kind 'explode'"),
            ("explode:99999999999", "unknown operator kind 'explode'"),
            ("create:1_0", "bad site '1_0' in 'create:1_0'"),
            ("annihilate: 2", "bad site ' 2' in 'annihilate: 2'"),
            ("condexp:+1", "bad site '+1' in 'condexp:+1'"),
            ("create:\uff12", "bad site '\uff12' in 'create:\uff12'"),
        ):
            code, out, err = run_cli(capsys, "apply", phi_file, "--pipeline", pipeline)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_create_at_far_site(self, capsys, phi_file):
        code, out, _ = run_cli(capsys, "apply", phi_file, "--pipeline", "create:100000000")
        assert code == 0
        assert [t["set"] for t in json.loads(out)["terms"]] == [
            [100000000],
            [0, 2, 100000000],
        ]


class TestDecomposeCommand:
    def test_report_shape(self, capsys, phi_file):
        code, out, _ = run_cli(capsys, "decompose", phi_file, "--q", "0", "--q", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["termination_index"] == 2
        assert {r["q"] for r in obj["residuals"]} == {0.0, 1.0}


class TestCovCommand:
    def test_self_covariance(self, capsys, phi_file):
        code, out, _ = run_cli(capsys, "cov", phi_file, phi_file, "--p", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["lhs"] == [9.0, 0.0]
        assert obj["gap"] == 0.0

    @pytest.mark.parametrize("level", [[], ["--p", "0"], ["--p", "1"]])
    def test_overflowing_pairing_names_both_files(self, capsys, tmp_path, level):
        doc, other = tmp_path / "huge.json", tmp_path / "other.json"
        doc.write_text('{"terms":[{"set":[],"coef":[1e300,0]},{"set":[1],"coef":[1e300,0]}]}')
        other.write_text('{"terms":[{"set":[1],"coef":[2e154,0]}]}')
        code, out, err = run_cli(capsys, "cov", str(doc), str(other), *level)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: the covariance of {doc} and {other} overflows a double: "
            "their shared coefficients are too large\n"
        )

    def test_overflowing_pairing_writes_no_report(self, capsys, tmp_path):
        doc, report = tmp_path / "huge.json", tmp_path / "report.json"
        doc.write_text('{"terms":[{"set":[1],"coef":[1e300,0]}]}')
        code, out, err = run_cli(capsys, "cov", str(doc), str(doc), "--out", str(report))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the covariance of {doc} and {doc} overflows a double")
        assert not report.exists()

    def test_overflowing_site_entry_is_named_when_the_covariance_fits(self, capsys, tmp_path):
        # The covariance is 1e-300, but the entries at sites 0 and 1 are
        # +-1e400, which the per-site table of the report must hold.
        doc, other = tmp_path / "c1.json", tmp_path / "c2.json"
        for path, sign in ((doc, 1), (other, -1)):
            path.write_text(json.dumps({"terms": [
                {"set": [0], "coef": [1e200, 0]},
                {"set": [1], "coef": [sign * 1e200, 0]},
                {"set": [2], "coef": [1e-150, 0]},
            ]}))
        assert fockcalc.cov_p(
            fockcalc.parse_document(doc.read_text()),
            fockcalc.parse_document(other.read_text()), 0.0,
        ) == complex(1e-300, 0)
        code, out, err = run_cli(capsys, "cov", str(doc), str(other))
        assert (code, out) == (2, "")
        assert err == (
            f"error: the per-site table of the covariance of {doc} and {other} "
            "overflows a double at site 0, although the covariance fits\n"
        )
        code, out, err = run_cli(capsys, "cov", str(doc), str(other), "--p", "-1")
        assert (code, out) == (2, "")
        assert err == (
            "error: --p -1.0 is too low for these functionals: "
            "their weighted covariance terms overflow a double\n"
        )

    def test_coefficient_past_the_modulus_range_names_both_files(self, capsys, tmp_path):
        # |c| is 2.4e308, beyond the double range although both parts are not.
        doc = tmp_path / "huge.json"
        doc.write_text('{"terms":[{"set":[1],"coef":[1.7e308,1.7e308]}]}')
        code, out, err = run_cli(capsys, "cov", str(doc), str(doc))
        assert (code, out) == (2, "")
        assert err == (
            f"error: the covariance of {doc} and {doc} overflows a double: "
            "their shared coefficients are too large\n"
        )

    def test_weight_beyond_the_double_range_is_computed(self, capsys, tmp_path):
        # The weight 171! overflows a double; at level 0 its power is 1.
        doc = tmp_path / "wide.json"
        doc.write_text(json.dumps({"terms": [{"set": list(range(171)), "coef": [1, 0]}]}))
        assert run_cli(capsys, "norm", str(doc), "--dual") == (0, "1.0\n", "")
        code, out, err = run_cli(capsys, "cov", str(doc), str(doc), "--p", "0")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["lhs"] == [1.0, 0.0]
        assert report["gap"] == 0.0

    @pytest.mark.parametrize("level", ["0", "1"])
    def test_cancelling_pairings_are_computed(self, capsys, tmp_path, level):
        # The two terms' magnitudes sum past the double range; the terms do not.
        doc, other = tmp_path / "plus.json", tmp_path / "minus.json"
        doc.write_text('{"terms":[{"set":[1],"coef":[1e154,0]},{"set":[2],"coef":[1e154,0]}]}')
        other.write_text('{"terms":[{"set":[1],"coef":[1e154,0]},{"set":[2],"coef":[-1e154,0]}]}')
        code, out, err = run_cli(capsys, "cov", str(doc), str(other), "--p", level)
        assert (code, err) == (0, "")
        report = json.loads(out)
        expected = 1e308 * (2.0 ** -(2 * int(level)) - 3.0 ** -(2 * int(level)))
        assert report["lhs"][0] == pytest.approx(expected, abs=0.0)
        assert report["rhs"][0] == pytest.approx(expected, abs=0.0)

    def test_terms_cancelling_past_the_range_are_computed(self, capsys, tmp_path):
        # Cov is exactly 1e308, but the terms pass the double range before the
        # last one cancels, in the direct fsum and in the per-site sum alike.
        doc, other = tmp_path / "a.json", tmp_path / "b.json"
        doc.write_text(json.dumps({"terms": [
            {"set": [k], "coef": [1e154, 0]} for k in range(3)
        ]}))
        other.write_text(json.dumps({"terms": [
            {"set": [k], "coef": [c, 0]} for k, c in enumerate([1e154, 1e154, -1e154])
        ]}))
        code, out, err = run_cli(capsys, "cov", str(doc), str(other))
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["lhs"] == report["rhs"] == [1e308, 0.0]

    def test_terms_cancelling_far_below_the_largest_are_computed(self, capsys, tmp_path):
        # {1} and {0, 1} pair to 1e400 and -1e400 at one site, so every per-site
        # entry fits; Cov is what {2} adds, about 2**-2300 of the largest term.
        from fractions import Fraction

        doc, other = tmp_path / "a.json", tmp_path / "b.json"
        for path, sign in ((doc, 1), (other, -1)):
            path.write_text(json.dumps({"terms": [
                {"set": [1], "coef": [1e200, 0]},
                {"set": [0, 1], "coef": [sign * 1e200, 0]},
                {"set": [2], "coef": [1e-150, 0]},
            ]}))
        code, out, err = run_cli(capsys, "cov", str(doc), str(other))
        assert (code, err) == (0, "")
        report = json.loads(out)
        exact = float(Fraction(1e-150) ** 2)
        assert report["lhs"] == report["rhs"] == [exact, 0.0]
        assert report["gap"] == 0.0

    def test_underflowing_weight_powers_keep_the_covariance(self, capsys, tmp_path):
        # 10! ** -60 underflows a double; times c * conj(c) = 1e300 it does not.
        from fockcalc import SubsetIndex, make_functional, var_p

        doc = tmp_path / "u.json"
        doc.write_text('{"terms":[{"set":[0,1,2,3,4,5,6,7,8,9],"coef":[1e150,0]}]}')
        code, out, err = run_cli(capsys, "cov", str(doc), str(doc), "--p", "30")
        assert (code, err) == (0, "")
        variance = var_p(make_functional([(SubsetIndex(range(10)), 1e150)]), 30.0)
        assert json.loads(out)["lhs"][0] == pytest.approx(variance, rel=1e-15, abs=0.0)
        assert variance > 0.0

    def test_site_zero_term_does_not_hide_an_overflow(self, capsys, tmp_path):
        # weight({0}) is 1, so its term's level factor stays finite at any level.
        doc = tmp_path / "doc.json"
        doc.write_text('{"terms":[{"set":[0],"coef":[1,0]},{"set":[1],"coef":[2,0]}]}')
        code, out, err = run_cli(capsys, "cov", str(doc), str(doc), "--p=-1e308")
        assert (code, out) == (2, "")
        assert err.startswith("error: --p -1e+308 is too low for these functionals")

    @pytest.mark.parametrize("level", ["0", "-3"])
    def test_empty_functional_has_zero_covariance(self, capsys, tmp_path, level):
        doc = tmp_path / "empty.json"
        doc.write_text('{"terms":[]}')
        code, out, _ = run_cli(capsys, "cov", str(doc), str(doc), f"--p={level}")
        assert code == 0
        assert json.loads(out) == {
            "lhs": [0.0, 0.0], "rhs": [0.0, 0.0], "per_k": {}, "gap": 0.0
        }


class TestDecomposeHugeCoefficient:
    def test_residuals_stay_finite(self, capsys, tmp_path):
        doc = tmp_path / "huge.json"
        doc.write_text('{"terms":[{"set":[0],"coef":[1e300,0]},{"set":[1],"coef":[1e300,0]}]}')
        code, out, _ = run_cli(capsys, "decompose", str(doc), "--q", "0")
        assert code == 0
        residuals = json.loads(out)["residuals"]
        assert residuals == [
            {"n": 0, "q": 0.0, "residual": 1e300},
            {"n": 1, "q": 0.0, "residual": 0.0},
        ]


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "car", "--trials", "20", "--seed", "5",
            "--out", str(out_file),
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["pass"] is True
        assert report["checks"][0]["check"] == "car"

    def test_zero_tolerance_flags_rounding(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "bounds", "--trials", "10", "--seed", "0",
            "--tolerance", "0",
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_tolerance_reaches_only_the_rounded_records(self, capsys):
        # The exact records are scored at 0.0 whatever --tolerance says, the
        # pathwise ones at BRIDGE_TOLERANCE; at 0 only the rounded ones fail.
        exact = {"car": 0.0, "commutation": 0.0, "clark": 0.0, "orthonormality": 0.0}
        pathwise = {"clark_ocone_pathwise": 1e-10, "intertwining": 1e-10}
        for tolerance, failing in (("1", []), ("0", ["bounds", "covariance", "plancherel"])):
            code, out, _ = run_cli(
                capsys, "verify", "--suite", "all", "--trials", "40", "--tolerance", tolerance
            )
            assert code == (1 if failing else 0)
            checks = json.loads(out)["checks"]
            rounded = dict.fromkeys(["bounds", "covariance", "plancherel"], float(tolerance))
            assert {c["check"]: c["tolerance"] for c in checks} == {**exact, **pathwise, **rounded}
            assert [c["check"] for c in checks if not c["pass"]] == failing

    def test_threads_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_defaults_come_from_the_suite_config(self, capsys):
        from dataclasses import asdict

        from fockcalc.suite import SuiteConfig

        code, out, _ = run_cli(capsys, "verify", "--suite", "car", "--trials", "2")
        assert code == 0
        defaults = asdict(SuiteConfig(suite="car", trials=2))
        assert json.loads(out)["config"] == {**defaults, "p_grid": list(defaults["p_grid"])}

    def test_unknown_suite_rejected_by_the_config(self):
        from fockcalc import ConfigError
        from fockcalc.suite import SUITE_NAMES, SuiteConfig

        with pytest.raises(ConfigError) as info:
            SuiteConfig(suite="nope")
        assert str(info.value) == f"unknown suite 'nope'; choose from {SUITE_NAMES}"

    @pytest.mark.parametrize("support_max", [0, 10])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected_by_the_config(self, value, support_max):
        # A level with no magnitude is refused as non-finite, before the range checks.
        from fockcalc import ConfigError
        from fockcalc.suite import SuiteConfig

        with pytest.raises(ConfigError) as info:
            SuiteConfig(p_grid=(0.0, value), support_max=support_max)
        assert str(info.value) == f"p must be a finite number, got {value!r}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_is_the_concatenation_of_its_parts(self, seed):
        from fockcalc.suite import SUITE_NAMES, SuiteConfig, run_suite

        whole = run_suite(SuiteConfig(suite="all", trials=20, seed=seed))
        parts = [
            check
            for name in SUITE_NAMES[:-1]
            for check in run_suite(SuiteConfig(suite=name, trials=20, seed=seed))["checks"]
        ]
        assert whole["checks"] == parts

    def test_unsampleable_support_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "car", "--trials", "2", "--support-max", "70"
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "option, value, limit",
        [("--support-max", "62", "0..61"), ("--support-max", "-1", "0..61"),
         ("--max-terms", "0", ">= 1"),
         ("--tolerance", "nan", ">= 0"), ("--tolerance", "inf", ">= 0"),
         ("--tolerance", "-1", ">= 0"),
         ("--p", "1000", "296.002"), ("--p", "-1000", "296.002"), ("--p", "nan", "a finite number"),
         ("--trials", "0", ">= 1"), ("--horizon", "0", "1..16"), ("--horizon", "17", "1..16")],
    )
    def test_option_out_of_range_names_option_and_limit(self, capsys, option, value, limit):
        code, out, err = run_cli(capsys, "verify", "--suite", "car", "--trials", "2", option, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {option} must ")
        assert limit in err and f"got {value}" in err

    @pytest.mark.parametrize(
        "suite, limit", [("clark", "-40.443"), ("covariance", "-20.0977")]
    )
    def test_negative_p_limit_of_dual_suites(self, capsys, monkeypatch, suite, limit):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--trials", "3", f"--p={limit}")
        assert code == 0
        assert json.loads(out)["pass"] is True

        import fockcalc.suite as suite_module

        def no_corpus(*args, **kwargs):
            raise AssertionError("a corpus was drawn before the config was checked")

        monkeypatch.setattr(suite_module, "random_functionals", no_corpus)
        past = limit + "1"
        for chosen in (suite, "all"):
            code, out, err = run_cli(
                capsys, "verify", "--suite", chosen, "--trials", "2", f"--p={past}"
            )
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: --p must be at least {limit} for the {suite} suite ")
            assert f"got {past}" in err

    def test_overflowing_bound_ceiling_rejected_before_any_trial(self, capsys, monkeypatch):
        import fockcalc.suite as suite

        def no_corpus(*args, **kwargs):
            raise AssertionError("a corpus was drawn before the config was checked")

        monkeypatch.setattr(suite, "random_functionals", no_corpus)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "bounds", "--trials", "1", "--p", "1000"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --p must be at most 296.002 ") and "got 1000.0" in err
        code, _, err = run_cli(
            capsys, "verify", "--suite", "bounds", "--trials", "1", "--p", "inf",
            "--support-max", "0",
        )
        assert code == 2
        assert err == "error: --p must be a finite number, got inf\n"

    def test_repeat_runs_identical_modulo_timestamp(self, capsys):
        reports = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "verify", "--suite", "commutation", "--trials", "10", "--seed", "4"
            )
            assert code == 0
            r = json.loads(out)
            r.pop("created")
            reports.append(r)
        assert reports[0] == reports[1]


class TestBridgeCommand:
    def test_checks_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "bridge", "--horizon", "6", "--trials", "20", "--seed", "6"
        )
        assert code == 0
        report = json.loads(out)
        names = {c["check"] for c in report["checks"]}
        assert names == {"orthonormality", "clark_ocone_pathwise", "intertwining", "plancherel"}

    def test_single_site_restriction(self, capsys):
        code, out, _ = run_cli(
            capsys, "bridge", "--horizon", "5", "--trials", "10", "--seed", "6", "--k", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["k"] == 2

    def test_eval_exhaustive_with_csv(self, capsys, phi_file, tmp_path):
        csv_path = tmp_path / "obs.csv"
        code, out, _ = run_cli(
            capsys, "bridge", "--horizon", "4", "--eval", phi_file, "--csv", str(csv_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["expectation"] == [2.0, 0.0]
        assert csv_path.read_text().startswith("path_index,re,im")

    def test_eval_sampled_mc(self, capsys, phi_file):
        code, out, _ = run_cli(
            capsys, "bridge", "--horizon", "4", "--eval", phi_file,
            "--mode", "sampled", "--paths", "2000", "--seed", "13",
        )
        assert code == 0
        payload = json.loads(out)
        mean = complex(*payload["mean"])
        assert abs(mean - 2.0) <= 5 * payload["stderr"]

    def test_eval_sampled_error_past_the_squared_range(self, capsys, tmp_path):
        doc = tmp_path / "big.json"
        doc.write_text('{"terms":[{"set":[0],"coef":[1e300,0]},{"set":[3,9],"coef":[1e-300,2]}]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "bridge", "--horizon", "10", "--eval", str(doc),
                "--mode", "sampled", "--paths", "100",
            )
        assert (code, err) == (0, "")
        assert 1e299 < json.loads(out)["stderr"] < 1e300

    def test_eval_sampled_error_of_subnormal_values(self, capsys, tmp_path):
        # Every squared deviation underflows a double; the error itself does not.
        from fockcalc.bridge import build_space, evaluate
        from fockcalc.serialization import parse_document

        text = '{"terms":[{"set":[0],"coef":[5e-324,0]},{"set":[1,2],"coef":[-5e-324,1e-320]}]}'
        doc = tmp_path / "tiny.json"
        doc.write_text(text)
        code, out, err = run_cli(
            capsys, "bridge", "--horizon", "3", "--eval", str(doc),
            "--mode", "sampled", "--paths", "5",
        )
        assert (code, err) == (0, "")
        values = evaluate(parse_document(text), build_space(3, "sampled", M=5, seed=0)).values
        # Exactly, in units of the smallest subnormal.
        units = [(Fraction(v.real) * 2**1074, Fraction(v.imag) * 2**1074) for v in values]
        mean = [sum(part) / 5 for part in zip(*units)]
        spread = sum((re - mean[0]) ** 2 + (im - mean[1]) ** 2 for re, im in units)
        expected = math.sqrt(spread / 20) * 2.0**-537 * 2.0**-537
        assert json.loads(out)["stderr"] == pytest.approx(expected, rel=1e-3, abs=0.0)
        assert expected > 0.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--eval", "PHI", "--k", "2"], "--k cannot be used with --eval"),
            (["--eval", "PHI", "--trials", "3", "--mode", "sampled", "--paths", "10"],
             "--trials cannot be used with --eval"),
            (["--eval", "PHI", "--paths", "10"],
             "--paths without --mode sampled cannot be used with --eval"),
            (["--eval", "PHI", "--seed", "7"],
             "--seed without --mode sampled cannot be used with --eval"),
            (["--trials", "3", "--mode", "sampled", "--paths", "10"],
             "--paths, --mode sampled cannot be used without --eval"),
            (["--trials", "3", "--csv", "CSV"], "--csv cannot be used without --eval"),
            (["--k", "1", "--mode", "sampled"], "--mode sampled cannot be used without --eval"),
        ],
    )
    def test_an_option_the_form_would_not_read_is_refused(
        self, capsys, phi_file, tmp_path, argv, message
    ):
        csv_path = tmp_path / "obs.csv"
        argv = [{"PHI": phi_file, "CSV": str(csv_path)}.get(arg, arg) for arg in argv]
        code, out, err = run_cli(capsys, "bridge", "--horizon", "4", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not csv_path.exists()

    def test_checks_keep_their_defaults(self, capsys, monkeypatch):
        import fockcalc.suite as suite

        configs = []
        monkeypatch.setattr(suite, "run_suite", lambda cfg: configs.append(cfg) or {"pass": True})
        assert run_cli(capsys, "bridge")[0] == 0
        assert (configs[0].horizon, configs[0].trials, configs[0].seed) == (8, 200, 0)

    @pytest.mark.parametrize(
        "mode, first",
        [(["--mode", "exhaustive"], 1), (["--mode", "sampled", "--paths", "8", "--seed", "15"], 5)],
    )
    def test_eval_overflow_is_typed_and_writes_nothing(self, capsys, tmp_path, mode, first):
        # Both terms add +1e308 exactly on the paths whose coordinate 0 is +1;
        # with seed 15 the first sampled one is path 5.
        doc = tmp_path / "huge.json"
        doc.write_text('{"terms":[{"set":[],"coef":[1e308,0]},{"set":[0],"coef":[1e308,0]}]}')
        csv_path = tmp_path / "obs.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "bridge", "--horizon", "2", "--eval", str(doc), "--csv", str(csv_path), *mode,
            )
        assert code == 2
        assert out == ""
        assert err == f"error: the realized value at path index {first} is not a finite number\n"
        assert not csv_path.exists()


class TestCorpusCap:
    """A corpus that may hold more than 2**22 terms, counting min(max_terms,
    2**(support_max + 1)) per functional, is refused before any draw."""

    @pytest.fixture()
    def draws(self, plant):
        # Records each corpus size asked for and returns the constant 1 instead
        # of drawing anything.
        import fockcalc.corpus as corpus
        import fockcalc.suite  # noqa: F401  (its binding is planted too)

        calls = []

        def record(count, seed, **shape):
            calls.append(count)
            return [fockcalc.basis_element(fockcalc.SubsetIndex([]))]

        plant(corpus, "random_functionals", record)
        return calls

    @pytest.mark.parametrize(
        "suite, most, support_max, horizon, where",
        [("car", 2**18, 3, 8, "at support_max 3 and max_terms 24 (a corpus of 1 *"),
         ("covariance", 2**17, 3, 8, "at support_max 3 and max_terms 24 (a corpus of 2 *"),
         ("all", 2**17, 3, 8, "at support_max 3 and max_terms 24 (a corpus of 2 *"),
         ("bridge", 2**18, 10, 4, "for the bridge suite at horizon 4 and max_terms 24"),
         ("all", 174762, 0, 8, "for the bridge suite at horizon 8 and max_terms 24")],
    )
    def test_config_at_the_cap_is_accepted(self, suite, most, support_max, horizon, where):
        from fockcalc import ConfigError
        from fockcalc.suite import SuiteConfig

        shape = dict(suite=suite, support_max=support_max, horizon=horizon)
        assert SuiteConfig(trials=most, **shape).trials == most
        with pytest.raises(ConfigError) as info:
            SuiteConfig(trials=most + 1, **shape)
        assert str(info.value).startswith(f"trials must be at most {most} {where}")

    @pytest.mark.parametrize(
        "argv, most",
        [(["verify", "--suite", "car", "--trials", "100000000", "--support-max", "3"], 2**18),
         (["verify", "--suite", "car", "--support-max", "61", "--max-terms", "100000000"], 0),
         (["bridge", "--k", "0", "--horizon", "4", "--trials", "100000000"], 2**18),
         (["bridge", "--k", "0", "--horizon", "8", "--trials", "174763"], 174762)],
    )
    def test_oversized_corpus_exits_2_before_the_draw(self, capsys, draws, argv, most):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, draws) == (2, "", [])
        assert err.startswith(f"error: --trials must be at most {most} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--suite", "car", "--trials", str(2**18), "--support-max", "3"],
         ["bridge", "--k", "0", "--horizon", "4", "--trials", str(2**18)]],
    )
    def test_corpus_at_the_cap_is_drawn(self, capsys, draws, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert (code, draws) == (0, [2**18])


class TestSiteCap:
    """A site past the cap is refused where it is parsed, before any mask is built."""

    @pytest.mark.parametrize("tag", ["create", "annihilate", "condexp"])
    @pytest.mark.parametrize("excess", [1, 10**21])
    def test_pipeline_site(self, capsys, phi_file, tag, excess):
        site = _MAX_SITE + excess
        code, out, err = run_cli(capsys, "apply", phi_file, "--pipeline", f"expect,{tag}:{site}")
        assert (code, out) == (2, "")
        assert err == f"error: {tag}: site {site} exceeds the site cap {_MAX_SITE}\n"

    def test_document_site(self, capsys, tmp_path):
        far = tmp_path / "far.json"
        far.write_text(json.dumps({"terms": [{"set": [0, _MAX_SITE + 1], "coef": [1, 0]}]}))
        code, out, err = run_cli(capsys, "norm", str(far))
        assert (code, out) == (2, "")
        assert err == (
            f"error: terms[0].set[1]: site {_MAX_SITE + 1} exceeds the site cap {_MAX_SITE}\n"
        )

    def test_lambda_subset_site(self, capsys):
        code, out, err = run_cli(capsys, "lambda", f"[{_MAX_SITE + 1}]")
        assert (code, out) == (2, "")
        assert err == f"error: subset[0]: site {_MAX_SITE + 1} exceeds the site cap {_MAX_SITE}\n"

    def test_dense_tables_of_a_site_at_the_cap_are_refused(self, capsys, tmp_path, monkeypatch):
        # Both tables hold a row per site up to the top one (decompose: one
        # per site and distinct level), far past their cap of 2**20 rows.
        # The row count is known from the documents and the levels, so no
        # operator runs.
        import fockcalc.cli as cli

        def must_not_run(*args):
            raise AssertionError("an operator ran before the row cap was checked")

        monkeypatch.setattr(cli, "decompose", must_not_run)
        monkeypatch.setattr(cli, "cov_identity", must_not_run)
        far = tmp_path / "far.json"
        far.write_text(json.dumps({"terms": [
            {"set": [_MAX_SITE], "coef": [1, 0]}, {"set": [0, _MAX_SITE], "coef": [1, 2]},
        ]}))
        rows = _MAX_SITE + 1
        for argv, table in (
            (["decompose", str(far)], f"decompose residual table has {3 * rows}"),
            # -0.0 and 0.0 are one level, as in decompose's own table.
            (["decompose", str(far), "--q", "0", "--q", "-0.0"],
             f"decompose residual table has {rows}"),
            (["cov", str(far), str(far)], f"cov per_k table has {rows}"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: the {table} rows, past the cap of {2**20}\n"

    def test_the_cap_itself_parses(self):
        from fockcalc.operators import parse_pipeline
        from fockcalc.serialization import parse_subset

        assert _MAX_SITE > 10**8
        assert [site for _, site in parse_pipeline(f"create:{_MAX_SITE}")] == [_MAX_SITE]
        assert parse_subset([_MAX_SITE]).elements == (_MAX_SITE,)


class TestExitCodes:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"fockcalc {fockcalc.__version__}\n"
        assert fockcalc.__version__ == "0.1.0"

    def test_internal_error_has_its_own_code(self, capsys, monkeypatch, phi_file):
        import fockcalc.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(cli, "norm_p", broken)
        code, out, err = run_cli(capsys, "norm", phi_file)
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: invariant broken\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, option",
        [
            (["lambda", "--sum", "--n", "3"], "--p"),
            (["norm", "PHI"], "--p"),
            (["decompose", "PHI", "--q", "1"], "--q"),
            (["cov", "PHI", "PHI"], "--p"),
            (["verify", "--suite", "car", "--trials", "2", "--p", "1"], "--p"),
            (["verify", "--suite", "bounds", "--support-max", "0"], "--p"),
        ],
    )
    def test_non_finite_level_names_its_option(
        self, capsys, monkeypatch, phi_file, command, option, value
    ):
        import fockcalc.cli as cli

        # The level is rejected before any functional is read or config built.
        def unread(*args, **kwargs):
            raise AssertionError("input read before the level check")

        monkeypatch.setattr(cli, "_load_functional", unread)
        monkeypatch.setattr(cli, "_suite_config", unread)
        argv = [phi_file if arg == "PHI" else arg for arg in command]
        code, out, err = run_cli(capsys, *argv, f"{option}={value}")
        assert code == 2
        assert out == ""
        assert err == f"error: {option} must be a finite number, got {float(value)!r}\n"

    @pytest.mark.parametrize("value", ["1e308", "-1e308", str(2**70)])
    @pytest.mark.parametrize(
        "command, option",
        [
            (["lambda", "--sum", "--n", "3"], "--p"),
            (["lambda", "--bound"], "--p"),
            (["norm", "PHI"], "--p"),
            (["norm", "PHI", "--dual"], "--p"),
            (["decompose", "PHI"], "--q"),
            (["cov", "PHI", "PHI"], "--p"),
        ],
    )
    def test_extreme_finite_level_is_computed_or_names_its_option(
        self, capsys, phi_file, command, option, value
    ):
        argv = [phi_file if arg == "PHI" else arg for arg in command]
        code, out, err = run_cli(capsys, *argv, f"{option}={value}")
        assert code in (0, 2)
        assert "math range error" not in out + err
        assert "cannot convert float infinity" not in out + err
        if code == 0:
            assert err == ""

            def non_finite(constant):
                raise AssertionError(f"{constant} in the output")

            # A bare number or a report; a printed inf or nan is no JSON at all.
            json.loads(out, parse_constant=non_finite)
        else:
            assert out == ""
            assert err.startswith("error: ") and option in err
            assert err.count("\n") == 1

    def test_overflowing_cov_level_fails_before_the_report(self, capsys, phi_file):
        # The one shared term 9 * 3 ** -2p is 1.66e308 here, just below the maximum.
        code, out, _ = run_cli(capsys, "cov", phi_file, phi_file, "--p=-322")
        assert code == 0
        assert json.loads(out)["lhs"][0] == pytest.approx(9 * 3.0**644)
        code, out, err = run_cli(capsys, "cov", phi_file, phi_file, "--p=-323")
        assert code == 2
        assert out == ""
        assert err == (
            "error: --p -323.0 is too low for these functionals: "
            "their weighted covariance terms overflow a double\n"
        )

    def test_finite_covariance_near_the_maximum_is_computed(self, capsys, tmp_path):
        doc = tmp_path / "e.json"
        doc.write_text('{"terms":[{"set":[1],"coef":[1.2e154,0]}]}')
        code, out, err = run_cli(capsys, "cov", str(doc), str(doc))
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["lhs"][0] == pytest.approx(1.44e308)
        assert report["gap"] == 0.0

    def test_covariance_past_the_weight_power_range_is_computed(self, capsys, tmp_path):
        # 3 ** 838 overflows a double; times the squared coefficient 1e-400 it does not.
        doc = tmp_path / "tiny.json"
        doc.write_text('{"terms":[{"set":[0,2],"coef":[1e-200,0]}]}')
        code, out, err = run_cli(capsys, "norm", str(doc), "--dual", "--p=-419")
        assert (code, err) == (0, "")
        norm = float(out)
        code, out, err = run_cli(capsys, "cov", str(doc), str(doc), "--p=-419")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["lhs"][0] == pytest.approx(norm**2)
        assert report["rhs"] == report["lhs"]
        assert report["gap"] == 0.0


_PART = st.one_of(
    st.just(0.0), st.floats(1e-320, 1.7e308), st.floats(-1.7e308, -1e-320)
)
_DOCUMENTS = st.lists(
    st.fixed_dictionaries({
        "set": st.lists(st.integers(0, 400), max_size=200, unique=True).map(sorted),
        "coef": st.tuples(_PART, _PART).map(list),
    }),
    max_size=4,
    unique_by=lambda term: frozenset(term["set"]),
).map(lambda terms: {"terms": terms})
_LEVELS = st.one_of(st.floats(0.0, 1e308), st.floats(-1e308, 0.0))
# Sites up to 1e8, for the documents of ``apply`` and the subsets of ``lambda``.
_FAR_SITES = st.one_of(st.integers(0, 64), st.integers(0, 10**8))
_FAR_DOCUMENTS = st.lists(
    st.fixed_dictionaries({
        "set": st.lists(_FAR_SITES, max_size=6, unique=True).map(sorted),
        "coef": st.tuples(_PART, _PART).map(list),
    }),
    max_size=4,
    unique_by=lambda term: frozenset(term["set"]),
).map(lambda terms: {"terms": terms})
_PIPELINES = st.lists(
    st.one_of(
        st.just("expect"),
        st.tuples(
            st.sampled_from(["annihilate", "create", "condexp"]),
            st.one_of(_FAR_SITES, st.integers(-2, -1)),
        ).map(lambda tag: f"{tag[0]}:{tag[1]}"),
    ),
    min_size=1,
    max_size=4,
).map(",".join)
# The levels at which the suites' ceiling (1 + support_max) ** |p| leaves the
# double range, at the default and at the largest support_max, their
# neighbours, and the edges of the lambda forms' ranges.
_SUITE_LIMITS = [math.log(sys.float_info.max) / math.log(1 + s) for s in (10, 61)]
_EDGE_LEVELS = st.one_of(
    _LEVELS,
    st.sampled_from(_SUITE_LIMITS).flatmap(
        lambda p: st.sampled_from([p, math.nextafter(p, math.inf), -p, 1e4 * p])
    ),
    st.sampled_from([0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), 1e308]),
)
# Documents on the sites of horizon 4, for the exhaustive path evaluation.
_PATH_DOCUMENTS = st.lists(
    st.fixed_dictionaries({
        "set": st.lists(st.integers(0, 3), max_size=4, unique=True).map(sorted),
        "coef": st.tuples(_PART, _PART).map(list),
    }),
    max_size=6,
    unique_by=lambda term: frozenset(term["set"]),
).map(lambda terms: {"terms": terms})



class TestExtremeDocuments:
    """Extreme but valid input computes or fails as a usage error (exit 2)."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_DOCUMENTS, _DOCUMENTS, _LEVELS)
    def test_computes_or_fails_with_one_error_line(self, capsys, tmp_path, doc, other, level):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(doc))
        second.write_text(json.dumps(other))
        for argv in (
            ["norm", str(first), f"--p={level!r}"],
            ["norm", str(first), "--dual", f"--p={level!r}"],
            ["cov", str(first), str(second), f"--p={level!r}"],
            ["decompose", str(first), f"--q={level!r}"],
        ):
            self.assert_computes_or_fails(capsys, argv)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_FAR_DOCUMENTS, _PIPELINES)
    def test_apply_computes_or_fails_with_one_error_line(self, capsys, tmp_path, doc, pipeline):
        first = tmp_path / "first.json"
        first.write_text(json.dumps(doc))
        self.assert_computes_or_fails(capsys, ["apply", str(first), f"--pipeline={pipeline}"])

    # --n draws windows up to 16 and 25, one past the cap; the sum is an
    # n-factor product, so a window costs n steps.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(_FAR_SITES, max_size=8, unique=True).map(sorted),
        _EDGE_LEVELS,
        st.one_of(st.integers(0, 16), st.just(25)),
    )
    def test_lambda_computes_or_fails_with_one_error_line(self, capsys, subset, level, n):
        for argv in (
            ["lambda", json.dumps(subset)],
            ["lambda", "--sum", f"--p={level!r}", "--n", str(n)],
            ["lambda", "--bound", f"--p={level!r}"],
        ):
            self.assert_computes_or_fails(capsys, argv)

    @staticmethod
    def assert_computes_or_fails(capsys, argv):
        # Exit 0 with a finite JSON result, or exit 2 with one error line.
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), (argv, err)
        if code == 0:
            assert err == ""

            def non_finite(constant):
                raise AssertionError(f"{constant} in the output of {argv}")

            json.loads(out, parse_constant=non_finite)
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_PATH_DOCUMENTS)
    def test_path_evaluation_is_finite_or_names_the_path(self, capsys, tmp_path, doc):
        first = tmp_path / "first.json"
        first.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "bridge", "--eval", str(first), "--horizon", "4")
        assert code in (0, 2), err
        if code == 0:
            assert err == ""

            def non_finite(constant):
                raise AssertionError(f"{constant} in the expectation of {doc}")

            report = json.loads(out, parse_constant=non_finite)
            assert report["paths"] == 16
        else:
            assert out == ""
            assert re.fullmatch(
                r"error: the realized value at path index \d+ is not a finite number\n", err
            ), err

    @pytest.mark.parametrize("coef", [[1e308, 0.0], [1.7e308, -1.7e308], [-1.7e308, 1e-320]])
    def test_expectation_of_values_summing_past_the_range(self, capsys, tmp_path, coef):
        # Every path holds the constant, whose 16 copies sum past the double range.
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({"terms": [{"set": [], "coef": coef}]}))
        code, out, err = run_cli(capsys, "bridge", "--eval", str(doc), "--horizon", "4")
        assert (code, err) == (0, "")
        assert json.loads(out)["expectation"] == pytest.approx(coef, rel=1e-15)


def _exact_pairings(doc, other):
    # The centered covariance at level 0 and its per-site pairings, as Fractions.
    c = {frozenset(t["set"]): Fraction(t["coef"][0]) for t in doc["terms"]}
    d = {frozenset(t["set"]): Fraction(t["coef"][0]) for t in other["terms"]}
    per_site = {}
    for sigma in c.keys() & d.keys() - {frozenset()}:
        per_site[max(sigma)] = per_site.get(max(sigma), 0) + c[sigma] * d[sigma]
    return sum(per_site.values(), Fraction(0)), list(per_site.values())


def _fits(value):
    try:
        float(value)
    except OverflowError:
        return False
    return True


_EXACT_COEF = st.tuples(st.sampled_from([-1, 1]), st.integers(1, 7), st.integers(505, 512)).map(
    lambda t: [float(t[0] * t[1] * 2**t[2]), 0.0]
)
# Two documents on the same sets, so that every term meets a partner.
_CANCELLING = st.lists(
    st.tuples(st.lists(st.integers(0, 5), max_size=3, unique=True).map(sorted),
              _EXACT_COEF, _EXACT_COEF),
    max_size=8,
    unique_by=lambda term: tuple(term[0]),
).map(lambda terms: tuple(
    {"terms": [{"set": t[0], "coef": t[i]} for t in terms]} for i in (1, 2)
))


class TestCancellingPairs:
    """Every product and sum of these coefficients is exact, so a Fraction is the oracle."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_CANCELLING)
    def test_cov_is_computed_exactly_when_it_fits(self, capsys, tmp_path, docs):
        doc, other = docs
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(doc))
        second.write_text(json.dumps(other))
        cov, per_site = _exact_pairings(doc, other)
        code, out, err = run_cli(capsys, "cov", str(first), str(second))
        assert code == (0 if all(map(_fits, [cov, *per_site])) else 2), err
        if code == 0:
            report = json.loads(out)
            assert report["lhs"] == report["rhs"] == [float(cov), 0.0]


class TestIntegerOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lambda", "--sum", "--p", "2", "--n", "-1"], "--n must be >= 0, got -1"),
            (["lambda", "--sum", "--p", "2", "--n", "30"], "--n 30 exceeds the hard cap 24"),
            (["bridge", "--horizon", "0"], "--horizon must be >= 1, got 0"),
            (["bridge", "--horizon", "0", "--eval", "PHI"], "--horizon must be >= 1, got 0"),
            (["bridge", "--horizon", "3", "--trials", "0"], "--trials must be >= 1, got 0"),
            (["bridge", "--eval", "PHI", "--mode", "sampled"],
             "--mode sampled needs --paths >= 1, got None"),
            (["bridge", "--eval", "PHI", "--mode", "sampled", "--paths", "0"],
             "--mode sampled needs --paths >= 1, got 0"),
            (["bridge", "--horizon", "8", "--k", "-1"],
             "--k must lie in 0..7 (below --horizon), got -1"),
            (["bridge", "--horizon", "8", "--k", "8"],
             "--k must lie in 0..7 (below --horizon), got 8"),
            (["bridge", "--eval", "PHI", "--horizon", "3", "--mode", "sampled",
              "--paths", "1000000000000", "--seed", "1"],
             "sampled path count 1000000000000 exceeds cap 1048576"),
            (["lambda", "--sum", "--n", "3"], "lambda --sum needs --p and --n"),
            (["lambda", "--bound"], "lambda --bound needs --p"),
            (["lambda", "[1,"], "subset must be a JSON array: Expecting value"),
        ],
    )
    def test_out_of_range_value_names_its_option(self, capsys, phi_file, argv, message):
        argv = [phi_file if arg == "PHI" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestNegativeLevels:
    """A level option takes every negative number that float() reads, written
    apart from the option as well as joined to it by "="."""

    COMMANDS = [
        (["norm", "PHI"], "--p"),
        (["norm", "PHI", "--dual"], "--p"),
        (["decompose", "PHI"], "--q"),
        (["cov", "PHI", "PHI"], "--p"),
        (["verify", "--suite", "car", "--trials", "2"], "--p"),
    ]

    @staticmethod
    def _run(capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        if argv[0] == "verify":
            out = json.loads(out)
            out.pop("created")
        return code, out, err

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5e-1", "-1E-1", "-1e-1", "-1.", "-.5",
                                       "-1_0e-2", "-1e+0"])
    @pytest.mark.parametrize("command, option", COMMANDS)
    def test_apart_reads_as_joined(self, capsys, phi_file, command, option, value):
        argv = [phi_file if arg == "PHI" else arg for arg in command]
        apart = self._run(capsys, argv + [option, value])
        assert apart == self._run(capsys, argv + [f"{option}={value}"])
        assert apart[0] == 0 and apart[2] == ""

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-INF"])
    @pytest.mark.parametrize("command, option", COMMANDS)
    def test_non_finite_keeps_its_message(self, capsys, phi_file, command, option, value):
        argv = [phi_file if arg == "PHI" else arg for arg in command]
        code, out, err = run_cli(capsys, *argv, option, value)
        assert (code, out) == (2, "")
        assert run_cli(capsys, *argv, f"{option}={value}") == (code, out, err)
        assert err == f"error: {option} must be a finite number, got {float(value)!r}\n"

    def test_an_option_is_still_an_option(self, capsys, phi_file):
        with pytest.raises(SystemExit) as exc:
            main(["norm", phi_file, "--p", "--dual"])
        assert exc.value.code == 2
        assert "argument --p: expected one argument" in capsys.readouterr().err


class TestParserReuse:
    """``main`` reuses one parser; no call may leak options into the next."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_decompose_q_grid_resets(self, capsys, phi_file):
        code, out, _ = run_cli(capsys, "decompose", phi_file, "--q", "2")
        assert code == 0
        assert {r["q"] for r in json.loads(out)["residuals"]} == {2.0}
        code, out, _ = run_cli(capsys, "decompose", phi_file)
        assert code == 0
        assert {r["q"] for r in json.loads(out)["residuals"]} == {0.0, 1.0, 2.0}

    def test_verify_p_grid_resets(self, capsys):
        argv = ["verify", "--suite", "car", "--trials", "2"]
        code, out, _ = run_cli(capsys, *argv, "--p", "1")
        assert code == 0
        assert json.loads(out)["config"]["p_grid"] == [1.0]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["config"]["p_grid"] == [0.0, 1.0, 2.0]

    def test_usage_error_leaves_no_trace(self, capsys, phi_file):
        code, expected, _ = run_cli(capsys, "apply", phi_file, "--pipeline", "expect")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["apply", phi_file, "--pipeline", "expect", "--out"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, "apply", phi_file, "--pipeline", "expect")
        assert (code, out, err) == (0, expected, "")


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fockcalc.cli", "lambda", "[1,3]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == 8.0
