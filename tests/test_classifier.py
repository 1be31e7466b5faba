"""Round-tripping solutions back to their cases, dependence analysis,
the pinned classify outcomes, and the documented alias folds."""

import dataclasses
import hashlib
import importlib
import random

import numpy as np
import pytest

from addlaws.classify import (ALIASES, ClassifiedSolution, NotASolutionError,
                              Unclassified, alias_equivalent, classify,
                              linear_dependence, reduce_alpha_sym)
from addlaws.core import FiniteSemigroup, FnTable, cnum, fn, stable_json
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.families import CaseId, CaseParams, admissible_params, \
    all_case_ids, construct
from addlaws.examples import n3, z2, z2xz2, z3
from addlaws.oracle import grid_solutions

from helpers import TOL

# import_module, because the package re-exports a function named classify
# that shadows the submodule attribute of the same name.
classify_mod = importlib.import_module("addlaws.classify")

ALPHA_EQS = ("alpha-sym", "alpha-skew")

#: SHA-256 of the per-pair classify outcomes of
#: test_classify_outcomes_byte_identical, recorded before the walks'
#: character check moved into the classification session.
CLASSIFY_OUTCOME_DIGEST = ("c425532ee0edc37dbf44d54cf4e1af62"
                           "7503bc0f0a1dd2d087be16ed40413877")


def test_linear_dependence_prefers_f_of_g():
    S = z2()
    v = linear_dependence(fn(S, [2, 4], "f"), fn(S, [1, 2], "g"))
    assert v.kind == "f-of-g" and abs(v.coefficient - 2) <= TOL
    v = linear_dependence(fn(S, [0, 2], "f"), fn(S, [1, 0], "g"))
    assert v.kind == "independent" and v.coefficient is None
    v = linear_dependence(fn(S, [0, 0], "f"), fn(S, [0, 0], "g"))
    assert v.kind == "both-zero"


def _vdot_fit(num, den):
    """The one-table least-squares fit, written with np.vdot."""
    nn = complex(np.vdot(den, den))
    lam = complex(np.vdot(den, num) / nn)
    return nn, lam, float(np.max(np.abs(num - lam * den)))


def _stacks(n, rows=400):
    rng = np.random.default_rng(n)
    grid = np.array([0, 1, -1, 1j, -1j, 0.5, -0.5, 2, -2])
    num = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    den = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    num[::3] = grid[rng.integers(0, 9, (len(num[::3]), n))]
    den[::3] = grid[rng.integers(0, 9, (len(den[::3]), n))]
    den[1::3] = num[1::3] * (0.5 - 2j) + 1e-12 * den[1::3]
    den[::3][:, 0] = 1                         # no all-zero grid row
    return num, den


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_fit_and_ratio_give_the_one_table_floats(n):
    """_fit on a stack, some of its rows, or one row gives np.vdot's
    floats, compared with ==."""
    num, den = _stacks(n)
    want = [(i, *_vdot_fit(a, b)) for i, (a, b) in enumerate(zip(num, den))]
    assert classify_mod._fit(num, den, range(len(num))) == want
    assert classify_mod._fit(num, den, [5, 17, 230]) == \
        [want[5], want[17], want[230]]
    for a, b, (_, *w) in zip(num[:40], den[:40], want):
        assert classify_mod._fit(a[None], b[None], [0]) == [(0, *w)]
    tol = 1e-9
    stacked = classify_mod._ratio(num, den, tol)
    assert stacked == [None if abs(nn) <= tol or miss > tol else lam
                       for _, nn, lam, miss in want]
    assert any(lam is not None for lam in stacked)
    assert stacked[:40] == [classify_mod._ratio(a[None], b[None], tol)[0]
                            for a, b in zip(num[:40], den[:40])]


def test_stacked_dependence_equals_linear_dependence_row_by_row():
    S = z3()
    rng = np.random.default_rng(5)
    grid = np.array([0, 1, -1, 0.5, -0.5, 2j])
    f = grid[rng.integers(0, 6, (300, 3))]
    g = grid[rng.integers(0, 6, (300, 3))]
    g[::4] = f[::4] * (1 - 1j)
    f[1::5] = g[1::5] * 0.5
    f[2::7] = 0
    f[3::11] = g[3::11] = 0
    got = classify_mod._dependence(f, g, TOL)
    want = [linear_dependence(fn(S, a, "f"), fn(S, b, "g"))
            for a, b in zip(f, g)]
    assert got == want
    assert {v.kind for v in got} == {"both-zero", "f-of-g", "g-of-f",
                                     "independent"}


def test_classify_degenerate_pair_on_null_carrier():
    S = n3()
    g = fn(S, [0, 1, 1], "g")
    f = fn(S, [0, 1j, 1j], "f")
    hit = classify("cos-sub", f, g, S)
    assert isinstance(hit, ClassifiedSolution)
    assert hit.case == CaseId("cos-sub", 2)
    assert abs(hit.params.c - 1j) <= TOL
    assert hit.residual <= TOL


def test_classify_single_character_scalings(chars):
    S = z2()
    one = chars["Z2"][1]
    hit = classify("cos-sine-g", fn(S, [1, 1], "f"), fn(S, [1, 1], "g"), S)
    assert hit.case == CaseId("cos-sine-g", 4)
    assert abs(hit.params.beta - 1.0) <= TOL
    hit = classify("alpha-skew", fn(S, [1, -1], "f"), fn(S, [1, -1], "g"), S,
                   alpha=1.0)
    assert hit.case == CaseId("alpha-skew", 1)


def test_a_hit_ends_the_candidate_stream(chars, monkeypatch):
    """The walk's candidates are extracted lazily: once cos-sine-g/4 hits,
    the /7 and /6 candidates behind it are never built."""
    S = z2()
    f, g = construct(CaseId("cos-sine-g", 4),
                     CaseParams(chi=chars["Z2"][1], beta=1.0), S)
    session = classify_mod._Session("cos-sine-g", f, g, S, chars["Z2"], TOL)
    stream = session.candidates(classify_mod._classify_cos_sine_g)
    assert [str(case) for case, _ in stream] == [
        "cos-sine-g/4", "cos-sine-g/7", "cos-sine-g/6"]
    calls = {"construct": 0, "_extract_piece": 0}
    for name in calls:
        def counted(*args, _real=getattr(classify_mod, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(classify_mod, name, counted)
    hit = classify("cos-sine-g", f, g, S, chars=chars["Z2"])
    assert hit.case == CaseId("cos-sine-g", 4)
    assert calls == {"construct": 1, "_extract_piece": 0}


def test_classify_rejects_non_solutions():
    S = z2()
    with pytest.raises(NotASolutionError, match="does not solve"):
        classify("cos-sub", fn(S, [1, 1], "f"), fn(S, [1, 1], "g"), S)


def test_classify_rejects_a_nan_residual():
    # A NaN residual compares False against the tolerance either way round,
    # so it must be refused rather than passed on to the case walk.
    S = z2()
    with pytest.raises(NotASolutionError, match="residual nan"):
        classify("sine-add", fn(S, [np.nan, 0], "f"), fn(S, [1, 1], "g"), S)


def test_classify_argument_errors(ex1):
    S = z2()
    f = fn(S, [0, 0], "f")
    with pytest.raises(KeyError):
        classify("tan-add", f, f, S)
    with pytest.raises(ValueError, match="alpha"):
        classify("alpha-sym", f, f, S, alpha=0.0)
    with pytest.raises(TypeError, match="windowed"):
        classify("cos-sub", lambda x: 0, lambda x: 0, ex1)


@pytest.mark.parametrize("tol", [-1.0, float("inf"), float("nan")],
                         ids=["negative", "inf", "nan"])
def test_library_refuses_a_bad_tolerance(tol):
    # With tol = inf this non-solution came back as cos-sub/1, the zero
    # pair (classify_rows settled it as case 1); with -1 or nan the check
    # that refuses it said "residual 0".
    S = z2()
    f, g = fn(S, [0, 0]), fn(S, [1, 1])
    shown = f"tolerance must be finite and at least 0, got {tol!r}"
    for call in (lambda: classify("cos-sub", f, g, S, tol=tol),
                 lambda: classify_mod.classify_rows(
                     "cos-sub", f.values[None], g.values[None], S, tol=tol),
                 lambda: linear_dependence(f, g, tol)):
        with pytest.raises(ValueError) as err:
            call()
        assert err.type is ValueError and str(err.value) == shown


def test_unclassified_diagnostics_have_full_dump(chars):
    # Starving the classifier of characters forces the diagnostic path.
    S = z2()
    f, g = construct(CaseId("cos-sub", 3),
                     CaseParams(chi=chars["Z2"][1], alpha=0.0), S)
    out = classify("cos-sub", f, g, S, chars=[])
    assert isinstance(out, Unclassified)
    d = out.to_json_dict()
    assert d["unclassified"] is True
    assert set(d) >= {"equation", "reason", "f", "g", "equation_residual",
                      "attempts"}
    assert d["equation_residual"] <= TOL


def test_sigma_override_rebuilds_the_carrier(chars):
    # The second-coordinate sign character solves the multiplicative
    # specialization only on the Klein group with sigma = id.
    S = z2xz2()
    T = FiniteSemigroup("Z2xZ2-id", S.elements, S.table, np.arange(4))
    chi = chars["Z2xZ2"][1]
    hit = classify("cos-sub", fn(T, [0, 0, 0, 0], "f"),
                   fn(T, chi.values, "g"), T)
    assert hit.case == CaseId("cos-sub", 3)
    with pytest.raises(NotASolutionError):
        classify("cos-sub", fn(S, [0, 0, 0, 0], "f"), fn(S, chi.values, "g"),
                 S)


def test_alias_alpha_zero_folds_into_scaled_character(chars):
    S = z2()
    f, g = construct(CaseId("cos-sub", 3),
                     CaseParams(chi=chars["Z2"][1], alpha=0.0), S)
    hit = classify("cos-sub", f, g, S)
    assert hit.case == CaseId("cos-sub", 3)
    assert abs(hit.params.alpha) <= TOL


def test_alias_delta_one_fold_keeps_case_number(chars):
    S = z2()
    f, g = construct(CaseId("cos-sub", 4),
                     CaseParams(chi1=chars["Z2"][1], chi2=chars["Z2"][0],
                                delta=1.0), S)
    hit = classify("cos-sub", f, g, S)
    assert hit.case == CaseId("cos-sub", 4)
    assert alias_equivalent(CaseId("cos-sub", 4), hit.case)


def test_alias_branch_fold(chars):
    S = z2xz2()
    chi = chars["Z2xZ2"][2]
    f, g = construct(CaseId("cos-sine-g", 8, "conj"), CaseParams(chi=chi), S)
    hit = classify("cos-sine-g", f, g, S)
    assert hit.case.case == 8
    assert alias_equivalent(CaseId("cos-sine-g", 8, "conj"), hit.case)
    assert not alias_equivalent(CaseId("cos-sine-g", 8, "conj"),
                                CaseId("cos-sine-g", 4))


def test_alias_equivalence_keeps_branches_apart():
    # Only the folds listed in ALIASES are equivalences: two branches of a
    # case are otherwise different solutions, and a fold has a direction.
    for eq in ("cos-sine-g", "alpha-sym"):
        assert alias_equivalent(CaseId(eq, 8, "conj"), CaseId(eq, 8, "chi"))
        assert not alias_equivalent(CaseId(eq, 8, "chi"),
                                    CaseId(eq, 8, "conj"))
    for a, b in (("+", "-"), ("-", "+")):
        assert not alias_equivalent(CaseId("cos-sub", 5, a),
                                    CaseId("cos-sub", 5, b))
    assert alias_equivalent(CaseId("cos-sub", 5, "-"),
                            CaseId("cos-sub", 5, "-"))


def test_alias_conjugate_pair_swap(chars):
    # Swapping chi for chi* negates f but keeps the case id; classification
    # reports whichever character reproduces the tables.
    S = z2xz2()
    for chi in (chars["Z2xZ2"][1], chars["Z2xZ2"][2]):
        f, g = construct(CaseId("cos-sub", 6), CaseParams(chi=chi), S)
        hit = classify("cos-sub", f, g, S)
        assert hit.case == CaseId("cos-sub", 6)
        assert hit.residual <= TOL


def test_alias_table_documents_folds():
    assert any("alpha = 0" in v for v in ALIASES.values())
    assert "cos-sub/6@conj" in ALIASES


def test_reduce_alpha_sym(chars):
    S = z2xz2()
    chi = chars["Z2xZ2"][2]
    # reduce_alpha_sym hands back -F/2 for F = f/alpha - g, which is the
    # cos-sine-g partner of the pair.
    F = reduce_alpha_sym(fn(S, -chi.conj, "f"), fn(S, chi.values, "g"), 1.0)
    assert np.allclose(F.values, (chi.values + chi.conj) / 2, atol=TOL)
    zero = fn(S, np.zeros(4), "f")
    assert reduce_alpha_sym(zero, zero, 2.0).is_zero()


def test_round_trip_over_all_available_cases(carriers, chars):
    for name, S in carriers.items():
        for eq in BUILTIN_EQUATIONS:
            for case in all_case_ids(eq):
                m = admissible_params(case, S, chars[name])
                if not m.available:
                    continue
                rng = random.Random(31)
                for _ in range(2):
                    p = m.sample(rng)
                    f, g = construct(case, p, S)
                    alpha = p.alpha if eq in ALPHA_EQS else None
                    hit = classify(eq, f, g, S, alpha=alpha,
                                   chars=chars[name])
                    assert isinstance(hit, ClassifiedSolution), \
                        (name, str(case), getattr(hit, "reason", None))
                    assert alias_equivalent(case, hit.case), \
                        (name, str(case), str(hit.case))
                    assert hit.residual <= TOL


def test_classified_payload_shape(chars):
    S = z2()
    f, g = construct(CaseId("cos-sub", 3),
                     CaseParams(chi=chars["Z2"][1], alpha=2.0), S)
    d = classify("cos-sub", f, g, S).to_json_dict()
    assert d["equation"] == "cos-sub" and d["case"] == 3
    assert d["constants"]["alpha"] == [2.0, 0.0]


def _outcome(eq, f, g, S, alpha, chars, tol) -> list:
    """classify's answer as JSON data: a hit with its constants and every
    parameter's values, an Unclassified dump with its attempt log, or the
    error's type and message."""
    try:
        hit = classify(eq, f, g, S, alpha=alpha, chars=chars, tol=tol)
    except ValueError as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(hit, Unclassified):
        return ["unclassified", hit.to_json_dict()]
    params = {}
    for field in dataclasses.fields(hit.params):
        value = getattr(hit.params, field.name)
        if value is None:
            continue
        if isinstance(value, (int, float, complex)):
            params[field.name] = cnum(value)
            continue
        params[field.name] = [cnum(z) for z in value.values]
        if hasattr(value, "parity"):
            params[field.name] += [value.parity, sorted(value.domain)]
    return ["hit", hit.to_json_dict(), params]


def _spread(rows, k: int) -> list:
    """At most k of the rows, evenly spaced, first and last included."""
    rows = np.asarray(rows)
    if len(rows) <= k:
        return rows.tolist()
    return rows[np.linspace(0, len(rows) - 1, k).round().astype(int)].tolist()


def test_classify_outcomes_byte_identical(carriers, chars):
    """Per-pair classify answers, logs and errors hash to a pinned digest.

    Coverage reports settle most rows in classify_rows, so they say little
    about classify's own answers.  Here every carrier and equation gives
    evenly spaced grid solutions plus those classify_rows leaves to
    classify; each pair is classified as it is, swapped, with f and with g
    perturbed at one element, and (alpha equations) with alpha recovered
    by least squares, each at three tolerances.
    """
    digest = hashlib.sha256()
    for name in ("Z1", "Z2", "Z3", "N3", "M3", "NP4", "Z2xZ2"):
        S, cs = carriers[name], chars[name]
        for eq in BUILTIN_EQUATIONS:
            alpha = 1.0 if eq in ALPHA_EQS else None
            sols = grid_solutions(eq, S, alpha=alpha)
            left = np.flatnonzero(classify_mod.classify_rows(
                eq, sols.f, sols.g, S, alpha=alpha, chars=cs) == 0)
            for i in sorted(set(_spread(range(len(sols)), 16))
                            | set(_spread(left, 16))):
                fv, gv = sols.f[i], sols.g[i]
                bump = np.zeros(S.n)
                bump[i % S.n] = 1e-4
                variants = [(fv, gv, alpha), (gv, fv, alpha),
                            (fv + bump, gv, alpha),
                            (fv, gv - 500 * bump, alpha)]
                if alpha is not None:
                    variants.append((fv, gv, None))
                for a, b, al in variants:
                    f = FnTable(S, values=a, label="f")
                    g = FnTable(S, values=b, label="g")
                    for tol in (1e-9, 1e-3, 0.3):
                        digest.update(stable_json(
                            [name, eq, i, tol,
                             _outcome(eq, f, g, S, al, cs, tol)]).encode())
    assert digest.hexdigest() == CLASSIFY_OUTCOME_DIGEST
