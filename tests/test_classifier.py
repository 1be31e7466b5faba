"""Round-tripping solutions back to their cases, dependence analysis,
character extraction, and the documented alias folds."""

import importlib
import random

import numpy as np
import pytest

from addlaws.classify import (ALIASES, ClassifiedSolution, NotASolutionError,
                              Unclassified, alias_equivalent, classify,
                              extract_character, linear_dependence,
                              reduce_alpha_sym)
from addlaws.core import fn
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.families import CaseId, CaseParams, admissible_params, \
    all_case_ids, construct
from addlaws.examples import n3, z2, z2xz2, z3

from helpers import TOL

# import_module, because the package re-exports a function named classify
# that shadows the submodule attribute of the same name.
classify_mod = importlib.import_module("addlaws.classify")

ALPHA_EQS = ("alpha-sym", "alpha-skew")


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


def test_extract_character():
    S = z2()
    chi = extract_character(fn(S, [0.5, 0.5], "h"), 2.0, S)
    assert chi is not None and np.allclose(chi.values, [1, 1])
    assert extract_character(fn(S, [1, 2], "h"), 1.0, S) is None
    with pytest.raises(ValueError, match="beta"):
        extract_character(fn(S, [1, 1], "h"), 0.0, S)
    # A non-even candidate is rejected even though it is multiplicative.
    T = z3()
    omega = np.exp(2j * np.pi / 3)
    assert extract_character(fn(T, [1, omega, omega ** 2], "h"), 1.0, T) is None
    # ... but accepted under an automorphism override that makes it even.
    chi = extract_character(fn(T, [1, omega, omega ** 2], "h"), 1.0, T,
                            sigma=np.arange(3))
    assert chi is not None


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
    # specialization only when sigma is overridden to the identity.
    S = z2xz2()
    chi = chars["Z2xZ2"][1]
    f = fn(S, [0, 0, 0, 0], "f")
    g = fn(S, chi.values, "g")
    hit = classify("cos-sub", f, g, S, sigma=np.arange(4))
    assert hit.case == CaseId("cos-sub", 3)
    with pytest.raises(NotASolutionError):
        classify("cos-sub", f, g, S)


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
