"""Command-line entry point: exit codes, JSON artifacts, file handling."""

import hashlib
import json

import pytest

from addlaws.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from addlaws.examples import m3

#: SHA-256 of the exit codes and stdout of the report-examples runs in
#: test_report_examples_byte_identical.
REPORT_EXAMPLES_DIGEST = ("5f7c9998b644dad97d9890f3402b09e9"
                          "e00c538f9844ad7af2f46634a8f450f1")


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


def test_chars_lists_both_z2_characters(capsys):
    code, payload, out = run(capsys, "chars", "-s", "Z2")
    assert code == EXIT_OK
    assert payload["count"] == 2 and len(payload["characters"]) == 2
    assert "2 non-zero multiplicative function(s)" in out.out


def test_additive_dimension_zero_on_finite(capsys):
    code, payload, _ = run(capsys, "additive", "-s", "Z2", "--char", "0")
    assert code == EXIT_OK
    assert payload["dimension"] == 0


def test_rho_space_via_semigroup_file(capsys, tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(m3().to_json())
    code, even, _ = run(capsys, "rho", "-s", str(path), "--char", "0",
                        "--parity", "even")
    assert code == EXIT_OK and even["dimension"] == 1
    code, odd, _ = run(capsys, "rho", "-s", str(path), "--char", "0",
                       "--parity", "odd")
    assert code == EXIT_OK and odd["dimension"] == 0


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


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "-s", "Z2"])
    assert e.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as e:
        main(["report-examples", "--example", "3"])
    assert e.value.code == EXIT_USAGE


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
