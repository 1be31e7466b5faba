"""Command-line entry point: exit codes, JSON artifacts, file handling."""

import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import addlaws
from addlaws import characters, examples
from addlaws.cli import (EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE,
                         _build_parser, main)
from addlaws.characters import WindowedChar
from addlaws.core import EPS
from addlaws.examples import example2, m3, np4

from helpers import swapped_semilattice

#: SHA-256 of the exit codes and stdout of the report-examples runs in
#: test_report_examples_byte_identical.
REPORT_EXAMPLES_DIGEST = ("5f7c9998b644dad97d9890f3402b09e9"
                          "e00c538f9844ad7af2f46634a8f450f1")

#: SHA-256 of the exit codes, stdout and stderr of the chars, rho and
#: additive runs in test_character_commands_byte_identical.
CHARACTER_COMMANDS_DIGEST = ("dfd9af85ca537b3a1d16a5e5a5d28487"
                             "2bca8dec1d100f79988d5c4833e2f873")

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

#: The arguments of every `$ addlaws ...` line of README.md.
README_COMMANDS = [line.removeprefix("$ addlaws ")
                   for line in README.splitlines()
                   if line.startswith("$ addlaws ")]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = None
    for line in out.out.splitlines():
        if line.startswith("{"):
            payload = json.loads(line)
    return code, payload, out


def write_pair(tmp_path, name, f, g):
    path = tmp_path / name
    path.write_text(json.dumps({"f": f, "g": g}))
    return str(path)


def test_exit_codes_are_distinct():
    assert (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET) == (0, 1, 2, 3)


def test_check_accepts_a_solution(capsys, tmp_path):
    fg = write_pair(tmp_path, "fg.json",
                    {"e": [0.5, 0], "a": [0.5, 0]},
                    {"e": [0.5, 0], "a": [0.5, 0]})
    code, payload, out = run(capsys, "check", "-s", "Z2", "-e", "cos-sub",
                             "--fn", fg)
    assert code == EXIT_OK
    assert payload["ok"] is True and payload["residual"] <= 1e-9
    assert payload["tolerance"] == 1e-9
    assert "(ok)" in out.out


def test_check_flags_a_non_solution(capsys, tmp_path):
    fg = write_pair(tmp_path, "fg.json",
                    {"e": [1, 0], "a": [1, 0]}, {"e": [1, 0], "a": [1, 0]})
    code, payload, _ = run(capsys, "check", "-s", "Z2", "-e", "cos-sub",
                           "--fn", fg)
    assert code == EXIT_FAIL
    assert payload["ok"] is False and payload["residual"] == 1.0


def test_check_accepts_literal_equations(capsys, tmp_path):
    fg = write_pair(tmp_path, "fg.json",
                    {"e": [0, 0], "a": [0, 0]}, {"e": [1, 0], "a": [1, 0]})
    code, payload, _ = run(capsys, "check", "-s", "Z2", "-e",
                           "f(x y) = f(x)*g(y)", "--fn", fg)
    assert code == EXIT_OK and payload["ok"] is True


def test_check_refuses_a_function_the_pair_file_does_not_bind(capsys,
                                                              tmp_path):
    fg = write_pair(tmp_path, "fg.json",
                    {"e": [0, 0], "a": [0, 0]}, {"e": [1, 0], "a": [1, 0]})
    code = main(["check", "-s", "Z2", "-e", "h(x) = f(x)", "--fn", fg])
    out = capsys.readouterr()
    assert code == EXIT_FAIL and out.out == ""
    assert out.err == ("error: --fn binds only f and g; the equation also "
                       "uses h\n")


def test_check_reports_a_non_decimal_digit_at_its_position(capsys,
                                                          tmp_path):
    fg = write_pair(tmp_path, "fg.json",
                    {"e": [0, 0], "a": [0, 0]}, {"e": [1, 0], "a": [1, 0]})
    code = main(["check", "-s", "Z2", "-e", "f(x) = ²*f(x)", "--fn", fg])
    out = capsys.readouterr()
    assert code == EXIT_FAIL and out.out == ""
    assert out.err == "error: unexpected character '²' (at position 7)\n"


@pytest.mark.parametrize("alpha,residual", [(["--alpha", "2"], 3.0),
                                             ([], 2.0)], ids=["2", "default"])
def test_check_binds_alpha(capsys, tmp_path, alpha, residual):
    fg = write_pair(tmp_path, "fg.json", {"e": 1, "a": 0}, {"e": 1, "a": 1})
    code, payload, out = run(capsys, "check", "-s", "Z2", "-e", "alpha-sym",
                             "--fn", fg, *alpha)
    assert code == EXIT_FAIL and payload["residual"] == residual
    assert out.out.startswith(f"residual {residual:g} (too large)\n")


def test_chars_lists_both_z2_characters(capsys):
    code, payload, out = run(capsys, "chars", "-s", "Z2")
    assert code == EXIT_OK
    assert payload["count"] == 2 and len(payload["characters"]) == 2
    assert "2 non-zero multiplicative function(s)" in out.out


def test_additive_dimension_zero_on_finite(capsys):
    code, payload, _ = run(capsys, "additive", "-s", "Z2", "--char", "0")
    assert code == EXIT_OK
    assert payload["dimension"] == 0


def test_sigma_leaving_the_domain_is_an_error_line(capsys, tmp_path):
    path = tmp_path / "sl4.json"
    path.write_text(swapped_semilattice().to_json())
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"chi": 2, "A": {"coeffs": []},
                                  "rho": {"free": []}}))
    # A chi that sigma moves off S \ I is never even, so construct, which
    # builds no A on a finite carrier, refuses it by the record's clause.
    for argv, message in (
            (["additive", "-s", str(path), "--char", "1"],
             "error: automorphism does not preserve S \\ I; "
             "parity constraint needs an even character\n"),
            (["construct", "-s", str(path), "-e", "sine-add", "--case", "5",
              "--params", str(params)],
             "error: sine-add/5: chi* = chi fails for chi\n")):
        code = main(argv)
        out = capsys.readouterr()
        assert code == EXIT_FAIL and out.err == message, argv


def test_construct_piecewise_case_from_a_params_file(capsys, tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(m3().to_json())
    params = tmp_path / "p.json"
    argv = ["construct", "-s", str(path), "-e", "sine-add", "--case", "5",
            "--params", str(params)]
    params.write_text(json.dumps({"chi": 0, "A": {"coeffs": []},
                                  "rho": {"free": [1]}}))
    code, payload, _ = run(capsys, *argv)
    assert code == EXIT_OK and payload["residual"] == 0
    params.write_text(json.dumps({"chi": 0, "A": {"coeffs": []},
                                  "rho": {"free": []}}))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_FAIL
    assert "rho.free must give 1 value(s)" in err
    # A is 0 on a finite carrier: no A coefficient is taken.
    params.write_text(json.dumps({"chi": 0, "A": {"coeffs": [1]},
                                  "rho": {"free": [1]}}))
    code = main(argv)
    assert code == EXIT_FAIL and capsys.readouterr().err == (
        "error: A.coeffs must give 0 value(s) for this character's "
        "additive basis\n")


def test_construct_odd_piecewise_case_from_a_params_file(capsys, tmp_path):
    """alpha-skew/6 takes odd A and rho: its record's menu kind, not the
    even default, sets the parity the params file is read with."""
    path = tmp_path / "np4.json"
    path.write_text(np4().to_json())
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"alpha": 1, "c": 2, "chi": 0,
                                  "A": {"coeffs": []},
                                  "rho": {"free": [1]}}))
    code, payload, _ = run(capsys, "construct", "-s", str(path), "-e",
                           "alpha-skew", "--case", "6", "--params",
                           str(params))
    assert code == EXIT_OK and payload["residual"] == 0
    f = payload["f"]
    assert f["p"] == [3.0, 0.0] and f["q"] == [-3.0, 0.0]


def test_rho_space_via_semigroup_file(capsys, tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(m3().to_json())
    code, even, _ = run(capsys, "rho", "-s", str(path), "--char", "0",
                        "--parity", "even")
    assert code == EXIT_OK and even["dimension"] == 1
    code, odd, _ = run(capsys, "rho", "-s", str(path), "--char", "0",
                       "--parity", "odd")
    assert code == EXIT_OK and odd["dimension"] == 0


def test_construct_reads_a_free_table(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"free": {"0": 0, "a": 1, "b": [0, 1]}}))
    code, payload, out = run(capsys, "construct", "-s", "N3", "-e",
                             "sine-add", "--case", "2", "--params",
                             str(params))
    assert code == EXIT_OK
    assert out.out.startswith("sine-add/2: residual 0\n")
    assert payload["f"] == {"0": [0, 0], "a": [1, 0], "b": [0, 1]}
    assert payload["g"] == {"0": [0, 0], "a": [0, 0], "b": [0, 0]}


def test_construct_two_character_mixture(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"delta": 2, "chi1": 1, "chi2": 0}))
    code, payload, _ = run(capsys, "construct", "-s", "Z2", "-e", "cos-sub",
                           "--case", "4", "--params", str(params))
    assert code == EXIT_OK
    assert payload["case"] == "cos-sub/4" and payload["ok"] is True
    assert abs(payload["f"]["a"][0] + 0.8) <= 1e-9
    assert abs(payload["g"]["a"][0] + 0.6) <= 1e-9


def test_construct_rejects_forbidden_constants(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"delta": [0, 1], "chi1": 1, "chi2": 0}))
    code = main(["construct", "-s", "Z2", "-e", "cos-sub", "--case", "4",
                 "--params", str(params)])
    err = capsys.readouterr().err
    assert code == EXIT_FAIL
    assert "error:" in err and "delta" in err


def test_classify_round_trips_from_files(capsys, tmp_path):
    fg = write_pair(tmp_path, "fg.json",
                    {"0": [0, 0], "a": [0, 1], "b": [0, 1]},
                    {"0": [0, 0], "a": [1, 0], "b": [1, 0]})
    code, payload, _ = run(capsys, "classify", "-s", "N3", "-e", "cos-sub",
                           "--fn", fg)
    assert code == EXIT_OK
    assert payload["case"] == 2
    assert payload["constants"]["c"] == [0.0, 1.0]


def test_classify_prints_an_unclassified_pair(capsys, tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(m3().to_json())
    fg = write_pair(tmp_path, "fg.json", {"1": 1e-4, "p": 1, "0": 0},
                    {"1": 1, "p": 0, "0": 0})
    code, payload, out = run(capsys, "classify", "-s", str(path), "-e",
                             "sine-add", "--fn", fg, "--tol", "1e-3")
    assert code == EXIT_FAIL
    assert out.out.splitlines()[0] == (
        "unclassified: no case of the classification matched")
    assert payload["unclassified"] is True


@pytest.mark.parametrize("argv,refusal", [
    (["construct", "--case", "1", "--params", "p.json"],
     "construct needs a built-in equation id"),
    (["classify", "--fn", "fg.json"],
     "classification covers the built-in ids"),
    (["oracle"], "oracle scans the built-in ids"),
], ids=["construct", "classify", "oracle"])
def test_commands_refuse_a_literal_equation(capsys, argv, refusal):
    code = main([*argv, "-s", "Z2", "-e", "f(x) = g(x)"])
    out = capsys.readouterr()
    assert code == EXIT_FAIL and out.out == ""
    assert out.err == (f"error: {refusal} (alpha-skew, alpha-sym, "
                       "cos-sine-g, cos-sub, sine-add), got 'f(x) = g(x)'\n")


@pytest.mark.parametrize("equation,alpha", [
    ("alpha-sym", "0"), ("alpha-skew", "0"), ("alpha-sym", "1e-12")])
def test_classify_zero_alpha_is_a_typed_error(capsys, tmp_path, equation,
                                              alpha):
    fg = write_pair(tmp_path, "fg.json",
                    {"e": [0, 0], "a": [0, 0]}, {"e": [0, 0], "a": [0, 0]})
    code = main(["classify", "-s", "Z2", "-e", equation, "--alpha", alpha,
                 "--fn", fg])
    out = capsys.readouterr()
    assert code == EXIT_FAIL
    assert out.err == "error: alpha must be non-zero\n" and out.out == ""


@pytest.mark.parametrize("command", ["check", "classify"])
@pytest.mark.parametrize("side", ["f", "g"])
def test_pair_file_tables_must_be_objects(capsys, tmp_path, command, side):
    tables = {"f": {"e": [0, 0], "a": [0, 0]},
              "g": {"e": [1, 0], "a": [1, 0]}}
    tables[side] = [0, 0]
    fg = write_pair(tmp_path, "fg.json", tables["f"], tables["g"])
    code = main([command, "-s", "Z2", "-e", "cos-sub", "--fn", fg])
    out = capsys.readouterr()
    assert code == EXIT_FAIL
    assert out.err == f"error: {fg}: field '{side}' must be an object\n"


@pytest.mark.parametrize("argv,shown", [
    (["check", "-s", "Z2", "-e", "cos-sub", "--fn", "nan.json"],
     "f['e'] must be finite, got 'nan'"),
    (["check", "-s", "Z2", "-e", "alpha-sym", "--fn", "fg.json",
      "--alpha", "inf"], "alpha must be finite, got 'inf'"),
    (["check", "-s", "Z2", "-e", "cos-sub", "--fn", "fg.json",
      "--alpha", "nan"], "alpha must be finite, got 'nan'"),
    (["construct", "-s", "Z2", "-e", "sine-add", "--case", "3",
      "--params", "params.json"], "alpha must be finite, got 'nan'"),
    (["classify", "-s", "Z2", "-e", "cos-sub", "--fn", "nan.json"],
     "f['e'] must be finite, got 'nan'"),
    (["classify", "-s", "Z2", "-e", "alpha-skew", "--fn", "fg.json",
      "--alpha", "1+nanj"], "alpha must be finite, got '1+nanj'"),
    (["oracle", "-s", "Z2", "--alphabet", "0,1,-1,inf,-inf"],
     "alphabet entry must be finite, got 'inf'"),
], ids=["check-fn", "check-alpha", "check-unused-alpha", "construct-params",
        "classify-fn", "classify-alpha", "oracle-alphabet"])
def test_non_finite_numbers_are_refused(capsys, tmp_path, monkeypatch, argv,
                                        shown):
    monkeypatch.chdir(tmp_path)
    write_pair(tmp_path, "fg.json", {"e": [0, 0], "a": [0, 0]},
               {"e": [0, 0], "a": [0, 0]})
    write_pair(tmp_path, "nan.json", {"e": "nan", "a": 0}, {"e": 1, "a": 1})
    (tmp_path / "params.json").write_text(
        json.dumps({"chi": 1, "alpha": "nan"}))
    code = main(argv)
    out = capsys.readouterr()
    assert code == EXIT_FAIL and out.out == ""
    assert out.err == f"error: {shown}\n"


@pytest.mark.parametrize("argv,shown", [
    (["classify", "-s", "Z2", "-e", "cos-sub", "--fn", "bool.json"],
     "f['e']: cannot read True as a complex number"),
    (["check", "-s", "Z2", "-e", "cos-sub", "--fn", "pair.json"],
     "g['a']: cannot read [1, False] as a complex number"),
    (["construct", "-s", "Z2", "-e", "cos-sub", "--case", "3",
      "--params", "alpha.json"],
     "alpha: cannot read True as a complex number"),
    (["construct", "-s", "Z2", "-e", "cos-sub", "--case", "3",
      "--params", "chi.json"], "chi must be a character index"),
], ids=["classify-fn", "check-fn-pair", "construct-alpha", "construct-chi"])
def test_json_booleans_are_not_numbers(capsys, tmp_path, monkeypatch, argv,
                                       shown):
    monkeypatch.chdir(tmp_path)
    write_pair(tmp_path, "bool.json", {"e": True, "a": False},
               {"e": 1, "a": 1})
    write_pair(tmp_path, "pair.json", {"e": 1, "a": 1},
               {"e": 1, "a": [1, False]})
    (tmp_path / "alpha.json").write_text(json.dumps({"chi": 1,
                                                      "alpha": True}))
    (tmp_path / "chi.json").write_text(json.dumps({"chi": True, "alpha": 1}))
    code = main(argv)
    out = capsys.readouterr()
    assert code == EXIT_FAIL and out.out == ""
    assert out.err.startswith(f"error: {shown}")


@pytest.mark.parametrize("params,field,what", [
    ({"free": [1, 0]}, "free", "an object"),
    ({"chi": 0, "A": [1]}, "A", "an object"),
    ({"chi": 0, "rho": [1]}, "rho", "an object"),
    ({"chi": 0, "A": {"coeffs": 1}}, "A.coeffs", "an array"),
    ({"chi": 0, "rho": {"free": 1}}, "rho.free", "an array"),
])
def test_params_file_fields_are_type_checked(capsys, tmp_path, params, field,
                                             what):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    code = main(["construct", "-s", "Z2", "-e", "sine-add", "--case", "5",
                 "--params", str(path)])
    out = capsys.readouterr()
    assert code == EXIT_FAIL
    assert out.err == f"error: {path}: field '{field}' must be {what}\n"


def test_classify_unknown_semigroup(capsys, tmp_path):
    fg = write_pair(tmp_path, "fg.json", {"e": [0, 0]}, {"e": [0, 0]})
    code = main(["classify", "-s", "Q8", "-e", "cos-sub", "--fn", fg])
    err = capsys.readouterr().err
    assert code == EXIT_FAIL and "error:" in err


def test_a_bundled_name_builds_only_its_carrier(capsys):
    """Resolving Z2 builds Z2 alone: the windowed example 2, a ~0.4 s
    build, stays unbuilt.  The refusal of an unknown name still lists
    every bundled name, the keys of example_semigroups()."""
    examples.example2.cache_clear()
    code, _, _ = run(capsys, "chars", "-s", "Z2")
    assert code == EXIT_OK
    assert examples.example2.cache_info().currsize == 0
    assert list(examples.BUNDLED) == list(examples.example_semigroups())
    code = main(["chars", "-s", "Q8"])
    assert code == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: no bundled semigroup or file 'Q8' (bundled: Example1, "
        "Example2, N3, Z1, Z2, Z2xZ2, Z3)\n")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "-s", "Z2"])
    assert e.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as e:
        main(["report-examples", "--example", "3"])
    assert e.value.code == EXIT_USAGE


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_no_option_carries_over_between_calls(capsys):
    """The one parser parses every call into a fresh namespace: a scan of
    one equation leaves the next scan at all five, and values given once
    do not become defaults."""
    code, payload, _ = run(capsys, "oracle", "-s", "Z1", "-e", "cos-sub")
    assert code == EXIT_OK and list(payload["equations"]) == ["cos-sub"]
    code, payload, _ = run(capsys, "oracle", "-s", "Z1")
    assert code == EXIT_OK and len(payload["equations"]) == 5
    parse = _build_parser().parse_args
    assert parse(["oracle", "-s", "Z1", "--alpha", "2"]).alpha == "2"
    assert parse(["oracle", "-s", "Z1"]).alpha is None
    assert parse(["report-examples", "--example", "2",
                  "--seed", "5"]).seed == 5
    assert parse(["report-examples", "--example", "2"]).seed == 0


@pytest.mark.parametrize("argv", [
    ["check", "-s", "Z2"],
    ["report-examples", "--example", "3"],
    ["report-examples", "--example", "2", "--pairs", "0"],
    ["frobnicate"],
], ids=["missing", "choice", "type", "command"])
def test_usage_errors_match_a_fresh_parser(capsys, argv):
    """Each call on the one parser exits 2 with the stderr of a parser
    built for that call alone."""
    with pytest.raises(SystemExit) as e:
        _build_parser.__wrapped__().parse_args(argv)
    assert e.value.code == EXIT_USAGE
    fresh = capsys.readouterr().err
    assert fresh.startswith("usage: addlaws")
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == EXIT_USAGE
        assert capsys.readouterr().err == fresh


@pytest.mark.parametrize("pairs,fragment", [
    ("0", "must be at least 1, got 0"),
    ("-3", "must be at least 1, got -3"),
    ("many", "expected an integer, got 'many'"),
])
def test_report_examples_needs_at_least_one_pair(capsys, pairs, fragment):
    with pytest.raises(SystemExit) as e:
        main(["report-examples", "--example", "2", "--pairs", pairs])
    assert e.value.code == EXIT_USAGE
    assert f"argument --pairs: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("window,fragment", [
    ("1", "must be at least 2, got 1"),
    ("0", "must be at least 2, got 0"),
    ("-4", "must be at least 2, got -4"),
    ("wide", "expected an integer, got 'wide'"),
])
def test_report_examples_needs_a_window_of_at_least_two(capsys, window,
                                                        fragment):
    # Example 1's window runs from 2 up, so a bound below 2 leaves it
    # empty: a usage error, not a failed run.
    with pytest.raises(SystemExit) as e:
        main(["report-examples", "--example", "1", "--window", window])
    assert e.value.code == EXIT_USAGE
    assert f"argument --window: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("budget,fragment", [
    ("0", "must be at least 1, got 0"),
    ("-5", "must be at least 1, got -5"),
])
def test_oracle_needs_a_budget_of_at_least_one(capsys, budget, fragment):
    # A budget below 1 is a bad flag value (exit 2), not a scan that ran
    # past its budget (exit 3).
    with pytest.raises(SystemExit) as e:
        main(["oracle", "-s", "Z2", "--budget", budget])
    assert e.value.code == EXIT_USAGE
    assert f"argument --budget: {fragment}" in capsys.readouterr().err


def test_report_examples_takes_the_smallest_window(capsys):
    code, payload, _ = run(capsys, "report-examples", "--example", "1",
                           "--window", "2")
    assert code == EXIT_OK and payload["window"] == [2, 2]


def test_python_dash_m_addlaws_runs_the_cli(capsys):
    src = str(Path(addlaws.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    got = subprocess.run([sys.executable, "-m", "addlaws", "chars", "-s",
                          "Z1"], capture_output=True, text=True, env=env,
                         timeout=120)
    assert main(["chars", "-s", "Z1"]) == got.returncode == EXIT_OK
    assert got.stdout == capsys.readouterr().out
    assert got.stdout.startswith("1 non-zero multiplicative function(s)")


def test_oracle_clean_scan_and_artifact(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code = main(["oracle", "-s", "Z2", "-e", "cos-sub",
                 "--output", str(out1)])
    assert code == EXIT_OK
    assert "0 unclassified" in capsys.readouterr().out
    code = main(["oracle", "-s", "Z2", "-e", "cos-sub",
                 "--output", str(out2)])
    assert code == EXIT_OK
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    assert payload["equations"]["cos-sub"]["unclassified"] == []


def test_oracle_respects_budget(capsys):
    code = main(["oracle", "-s", "Z2", "--budget", "10"])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET and "budget" in err


@pytest.mark.parametrize("argv,fragment", [
    (["--alphabet", ","], "alphabet must not be empty"),
    (["--alphabet", "0,1,1,-1"], "alphabet entries must be distinct"),
    (["--alphabet", "1,-1"], "alphabet must contain 0"),
    (["--alphabet", "0,1,2"], "alphabet is not closed under negation"),
    (["--alpha", "0", "-e", "alpha-sym"], "alpha must be non-zero"),
    (["--tol", "-1"], "tolerance must be finite and at least 0, got -1.0"),
    (["--tol", "nan"], "tolerance must be finite and at least 0, got nan"),
    (["--alpha", "nan"], "alpha must be finite"),
    (["--alpha", "inf", "-e", "alpha-sym"], "alpha must be finite"),
    (["--alpha", "nan", "-e", "cos-sub"], "alpha must be finite"),
], ids=["empty", "duplicate", "no-zero", "not-negation-closed",
        "zero-alpha", "negative-tol", "nan-tol", "nan-alpha",
        "inf-alpha-sym", "nan-alpha-cos-sub"])
def test_oracle_bad_input_is_a_typed_error(capsys, argv, fragment):
    code = main(["oracle", "-s", "Z2", *argv])
    out = capsys.readouterr()
    assert code == EXIT_FAIL
    assert out.err.startswith("error: ") and fragment in out.err
    assert out.out == ""


@pytest.mark.parametrize("tol,shown", [("-1", "-1.0"), ("nan", "nan")],
                         ids=["negative", "nan"])
@pytest.mark.parametrize("argv", [
    ["check", "-s", "Z2", "-e", "cos-sub", "--fn", "fg.json"],
    ["chars", "-s", "Z2"],
    ["additive", "-s", "Z2", "--char", "0"],
    ["rho", "-s", "Z2", "--char", "0"],
    ["construct", "-s", "Z2", "-e", "cos-sub", "--case", "1",
     "--params", "params.json"],
    ["classify", "-s", "Z2", "-e", "cos-sub", "--fn", "fg.json"],
    ["oracle", "-s", "Z2"],
    ["report-examples", "--example", "2"],
], ids=lambda argv: argv[0])
def test_every_subcommand_refuses_a_bad_tolerance(capsys, argv, tol, shown):
    code = main([*argv, "--tol", tol])
    out = capsys.readouterr()
    assert code == EXIT_FAIL and out.out == ""
    assert out.err == (f"error: tolerance must be finite and at least 0, "
                       f"got {shown}\n")


def test_oracle_custom_alphabet(capsys):
    code, payload, _ = run(capsys, "oracle", "-s", "Z1", "-e", "sine-add",
                           "--alphabet", "0,1,-1")
    assert code == EXIT_OK
    assert payload["equations"]["sine-add"]["solutions"] == 3


def test_report_example_2(capsys):
    code, payload, _ = run(capsys, "report-examples", "--example", "2",
                           "--pairs", "400")
    assert code == EXIT_OK
    assert payload["ok"] is True


def test_report_example_1(capsys):
    code, payload, _ = run(capsys, "report-examples", "--example", "1",
                           "--window", "80")
    assert code == EXIT_OK
    assert payload["ok"] is True
    assert payload["end_to_end"]["residual"] <= 1e-9


def test_report_example_1_gathers_the_conditions_once(capsys, monkeypatch):
    # construct checks conditions (I) and (II) on the report's (rho, chi,
    # W), one relation gather each; the report does not check them again.
    calls = []
    gather = characters._relations

    def counted(chi):
        calls.append(chi.semigroup.name)
        return gather(chi)
    monkeypatch.setattr(characters, "_relations", counted)
    code, payload, _ = run(capsys, "report-examples", "--example", "1",
                           "--window", "16")
    assert code == EXIT_OK
    assert payload["rho_condition_I"] is True
    assert payload["end_to_end"]["condition_II"] is True
    assert calls == ["Example1", "Example1"]


def test_report_example_1_refuses_a_rho_failing_condition_I(capsys,
                                                            monkeypatch):
    # rho(22) = rho(11 * 2) must equal chi(11) rho(2) = rho(2); moving it
    # by 2 EPS breaks (I) only, as 22 is past the window and no sigma
    # image of a window point.
    W = examples.example1(window_max=16)
    family = W.extras["rho_family"]

    def bent(c, parity="even"):
        rho = family(c, parity)
        return dataclasses.replace(rho, formula=lambda n: rho.formula(n) + (
            2 * EPS if n == 22 else 0))
    monkeypatch.setitem(W.extras, "rho_family", bent)
    code = main(["report-examples", "--example", "1", "--window", "16"])
    out = capsys.readouterr()
    assert code == EXIT_FAIL
    assert out.err == "error: condition (I) fails\n" and out.out == ""


def test_report_example_2_keeps_a_nan_character(capsys, monkeypatch):
    # A plain max dropped a NaN that was not the first value, so this
    # character passed with both residuals 0.0.
    W = example2()
    chi = W.extras["chars"]["chi_sgn"]
    bad = W.window[500]
    monkeypatch.setitem(W.extras["chars"], "chi_sgn", WindowedChar(
        W, lambda u: math.nan if u == bad else chi(u), chi.in_ideal,
        chi.in_ideal_square, chi.in_prime_part))
    code, payload, _ = run(capsys, "report-examples", "--example", "2",
                           "--pairs", "200")
    assert code == EXIT_FAIL and payload["ok"] is False
    assert math.isnan(payload["characters"]["chi_sgn"]["even_residual"])


def test_report_examples_byte_identical(capsys):
    """Exit codes and stdout of report-examples hash to a pinned digest.

    The other report tests check only `ok` and the end-to-end residual, so
    without this a change that moved a windowed residual's digits would go
    unnoticed.  Example 1 runs at windows 2, 16, 38 and 80, example 2 at 1
    and 400 pairs with seeds 0 and 7.
    """
    runs = [("--example", "1", "--window", str(w)) for w in (2, 16, 38, 80)]
    runs += [("--example", "2", "--pairs", str(p), "--seed", str(s))
             for p in (1, 400) for s in (0, 7)]
    digest = hashlib.sha256()
    for argv in runs:
        code = main(["report-examples", *argv])
        out = capsys.readouterr().out
        digest.update(f"{' '.join(argv)} -> {code}\n{out}".encode())
    assert digest.hexdigest() == REPORT_EXAMPLES_DIGEST


def test_character_commands_byte_identical(capsys, tmp_path):
    """Exit codes and output of `chars`, and of `rho` and `additive` for
    every character index and both parities, hash to a pinned digest: on
    the five bundled finite carriers by name and on M3 and NP4 read from
    files.  No other test reads the orbit multipliers `rho` prints."""
    carriers = ["Z1", "Z2", "Z3", "Z2xZ2", "N3"]
    for S in (m3(), np4()):
        path = tmp_path / f"{S.name}.json"
        path.write_text(S.to_json())
        carriers.append(str(path))
    digest = hashlib.sha256()

    def record(label, argv):
        code = main(argv)
        out = capsys.readouterr()
        digest.update(f"{label} -> {code}\n{out.out}{out.err}".encode())
        return code, out.out
    for carrier in carriers:
        name = Path(carrier).stem
        code, out = record(f"chars {name}", ["chars", "-s", carrier])
        assert code == EXIT_OK
        for k in range(json.loads(out.splitlines()[-1])["count"]):
            for parity in ("even", "odd"):
                for command in ("rho", "additive"):
                    record(f"{command} {name} {k} {parity}",
                           [command, "-s", carrier, "--char", str(k),
                            "--parity", parity])
    assert digest.hexdigest() == CHARACTER_COMMANDS_DIGEST


@pytest.mark.parametrize("command", README_COMMANDS,
                         ids=lambda command: command.split()[0])
def test_readme_command_parses(command):
    """The README's example commands parse; none is run."""
    try:
        _build_parser().parse_args(shlex.split(command, comments=True))
    except SystemExit:
        pytest.fail(f"README command does not parse: addlaws {command}")


def test_readme_python_example_prints_its_comment(capsys):
    """The README's Python block runs and prints the line its closing
    `# ` comment shows."""
    block = README.split("```python\n", 1)[1].split("```", 1)[0]
    code, comment = block.rstrip("\n").rsplit("\n", 1)
    exec(code, {})
    assert capsys.readouterr().out == comment.removeprefix("# ") + "\n"
