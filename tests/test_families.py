"""Constructors for the solution cases: frozen tables, constraint
enforcement, parameter menus, and structural properties."""

import dataclasses
import functools
import hashlib
import itertools
import random
import re

import numpy as np
import pytest

from addlaws import families
from addlaws.core import (FiniteSemigroup, WindowedSemigroup, cnum, fn,
                          stable_json)
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.families import (BRANCHES, CASE_COUNTS, CASES, CaseId,
                              CaseParams, ConstraintError, admissible_params,
                              all_case_ids, construct, construct_rows)
from addlaws.characters import (AdditiveFn, MultChar, RhoFn, WindowedChar,
                                enumerate_characters, rho_space)
from addlaws.examples import example1, example2, m3, n3, np4, z2, z3, z2xz2
from addlaws.oracle import fuzz_constructors

from helpers import TOL, equation_residual

ALPHA_EQS = ("alpha-sym", "alpha-skew")

#: Each case with a constant whose record names a set, with that constant.
SET_CONSTANTS = [(case, const) for eq, specs in CASES.items()
                 for case in all_case_ids(eq)
                 for const in specs[case.case - 1].constants if const.values]

RATIO_CASES = {("cos-sub", 2), ("alpha-skew", 4), ("alpha-skew", 5)}

#: SHA-256 of every menu, seeded draw, constructed table and fuzz report
#: below, recorded before the per-case tables were folded into one registry
#: and pinned again when finite piecewise cases stopped taking A: each
#: record lost A's keys and the unavailable note its "A or ", and nothing
#: else moved (CHANGES.md gives the per-record proof).
CASE_OUTPUT_DIGEST = ("12145c7d5befedb29984aed3165ba145"
                      "4ea103f034042d5e2e7b07a6da5705f5")


def _param_record(params: CaseParams) -> dict:
    out = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if value is None:
            continue
        if isinstance(value, (int, float, complex)):
            out[f.name] = cnum(value)
            continue
        out[f.name] = [cnum(z) for z in value.values]
        if hasattr(value, "parity"):
            out[f.name + ".parity"] = value.parity
            out[f.name + ".domain"] = sorted(value.domain)
    return out


def test_case_outputs_byte_identical(carriers, chars):
    """Menus, seeded draws, constructed pairs and fuzz reports hash to the
    digest pinned before the case registry refactor."""
    digest = hashlib.sha256()
    for name in ("Z1", "Z2", "Z3", "Z2xZ2", "N3", "M3", "NP4"):
        S = carriers[name]
        for eq in BUILTIN_EQUATIONS:
            for case in all_case_ids(eq):
                menu = admissible_params(case, S, chars[name])
                digest.update(stable_json([name, str(case), menu.describe(),
                                           menu.constants]).encode())
                for seed in range(5):
                    params = menu.sample(random.Random(seed))
                    if params is None:
                        digest.update(b"None")
                        continue
                    f, g = construct(case, params, S)
                    digest.update(stable_json(
                        [_param_record(params),
                         [cnum(z) for z in f.values],
                         [cnum(z) for z in g.values]]).encode())
    for eq in BUILTIN_EQUATIONS:
        digest.update(stable_json(fuzz_constructors(eq, n=40, seed=0))
                      .encode())
    assert digest.hexdigest() == CASE_OUTPUT_DIGEST


def test_case_registry_shape():
    assert CASE_COUNTS == {"cos-sub": 6, "sine-add": 5, "cos-sine-g": 8,
                           "alpha-sym": 8, "alpha-skew": 6}
    assert [str(c) for c in all_case_ids("cos-sub")] == [
        "cos-sub/1", "cos-sub/2", "cos-sub/3", "cos-sub/4",
        "cos-sub/5+", "cos-sub/5-", "cos-sub/6"]
    assert len(all_case_ids("cos-sine-g")) == 9      # case 8 has two branches
    assert len(all_case_ids("alpha-sym")) == 9
    assert len(all_case_ids("sine-add")) == 5
    assert len(all_case_ids("alpha-skew")) == 6
    assert BRANCHES[("cos-sub", 5)] == ("+", "-")


@pytest.mark.parametrize("args,fragment", [
    (("cos-sub", 0), "cases 1..6"),
    (("cos-sub", 9), "cases 1..6"),
    (("sine-add", 2, "+"), "takes no branch"),
    (("cos-sub", 5), "needs a branch"),
    (("cos-sine-g", 8, "up"), "needs a branch"),
])
def test_case_id_validation(args, fragment):
    with pytest.raises(ValueError, match=fragment):
        CaseId(*args)


def test_two_character_mixture_table(chars):
    # delta = 2 mixing the constant character with the sign character.
    S = z2()
    f, g = construct(CaseId("cos-sub", 4),
                     CaseParams(chi1=chars["Z2"][1], chi2=chars["Z2"][0],
                                delta=2.0), S)
    assert np.allclose(f.values, [0.0, -0.8], atol=TOL)
    assert np.allclose(g.values, [1.0, -0.6], atol=TOL)
    assert equation_residual("cos-sub", f, g, S) <= TOL


def test_scaled_difference_table(chars):
    S = z2()
    f, g = construct(CaseId("sine-add", 4),
                     CaseParams(chi1=chars["Z2"][1], chi2=chars["Z2"][0],
                                c=1.0), S)
    assert np.allclose(f.values, [0.0, 2.0], atol=TOL)
    assert np.allclose(g.values, [1.0, 0.0], atol=TOL)
    assert equation_residual("sine-add", f, g, S) <= TOL


def test_conjugate_branch_table(chars):
    # On the coordinate-swap carrier the first-coordinate sign character
    # chi satisfies chi* != chi; the conj branch pairs -chi with chi*.
    S = z2xz2()
    chi = chars["Z2xZ2"][2]
    assert np.allclose(chi.values, [1, 1, -1, -1], atol=TOL)
    f, g = construct(CaseId("alpha-sym", 8, "conj"),
                     CaseParams(chi=chi, alpha=1.0), S)
    assert np.allclose(f.values, -chi.values, atol=TOL)
    assert np.allclose(g.values, chi.conj, atol=TOL)
    assert equation_residual("alpha-sym", f, g, S, alpha=1.0) <= TOL


def test_conjugate_pair_table(chars):
    # f = -i(chi - chi*)/2 and g = (chi + chi*)/2 for a non-even chi.
    S = z2xz2()
    chi = chars["Z2xZ2"][2]
    f, g = construct(CaseId("cos-sub", 6), CaseParams(chi=chi), S)
    assert np.allclose(f.values, [0, -1j, 1j, 0], atol=TOL)
    assert np.allclose(g.values, [1, 0, 0, -1], atol=TOL)
    assert equation_residual("cos-sub", f, g, S) <= TOL


def test_cos_sub_1_is_the_zero_pair():
    f, g = construct(CaseId("cos-sub", 1), CaseParams(), z2())
    assert f.is_zero() and g.is_zero()


@pytest.mark.parametrize("case,params_fn,fragment", [
    (CaseId("cos-sub", 4),
     lambda c: CaseParams(chi1=c["Z2"][1], chi2=c["Z2"][0], delta=1j),
     r"delta in \{0, i, -i\}"),
    (CaseId("cos-sub", 4),
     lambda c: CaseParams(chi1=c["Z2"][1], chi2=c["Z2"][1], delta=2.0),
     "chi1 = chi2"),
    (CaseId("cos-sub", 3),
     lambda c: CaseParams(chi=c["Z2"][1], alpha=1j),
     r"alpha in \{i, -i\}"),
    (CaseId("cos-sub", 6),
     lambda c: CaseParams(chi=c["Z2"][1]),
     r"chi\* != chi fails"),
    (CaseId("cos-sine-g", 4),
     lambda c: CaseParams(chi=c["Z2"][1], beta=0.5),
     r"beta in \{0, 1/2\}"),
    (CaseId("cos-sub", 4),
     lambda c: CaseParams(chi1=c["Z2"][1], delta=2.0),
     "requires fields"),
    (CaseId("cos-sub", 3),
     lambda c: CaseParams(chi=c["Z2"][1], alpha=1.0, delta=2.0),
     "requires fields"),
])
def test_constraint_violations_on_z2(case, params_fn, fragment, chars):
    with pytest.raises(ConstraintError, match=fragment):
        construct(case, params_fn(chars), z2())


def test_constraint_violations_elsewhere(chars):
    S = z2xz2()
    with pytest.raises(ConstraintError, match=r"chi\* = chi fails"):
        construct(CaseId("cos-sub", 3),
                  CaseParams(chi=chars["Z2xZ2"][1], alpha=1.0), S)
    N = n3()
    with pytest.raises(ConstraintError, match=r"c not in \{i, -i\}"):
        construct(CaseId("cos-sub", 2),
                  CaseParams(free=fn(N, [0, 1, 1]), c=1.0), N)
    with pytest.raises(ConstraintError, match="does not vanish"):
        construct(CaseId("cos-sub", 2),
                  CaseParams(free=fn(N, [1, 0, 0]), c=1j), N)
    with pytest.raises(ConstraintError, match="alpha = 0"):
        construct(CaseId("alpha-skew", 1),
                  CaseParams(free=fn(z2(), [1, 0]), alpha=0.0), z2())


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)],
                         ids=["nan", "inf", "nan-imaginary"])
@pytest.mark.parametrize("case,name,params_fn", [
    (CaseId("cos-sub", 3), "alpha",
     lambda chi, v: CaseParams(chi=chi, alpha=v)),
    (CaseId("cos-sine-g", 4), "beta",
     lambda chi, v: CaseParams(chi=chi, beta=v)),
    (CaseId("cos-sub", 4), "delta",
     lambda chi, v: CaseParams(chi1=chi, chi2=chi, delta=v)),
    (CaseId("sine-add", 4), "c",
     lambda chi, v: CaseParams(chi1=chi, chi2=chi, c=v)),
    (CaseId("cos-sine-g", 5), "c1",
     lambda chi, v: CaseParams(chi1=chi, chi2=chi, c1=v)),
    (CaseId("alpha-skew", 5), "c2",
     lambda chi, v: CaseParams(alpha=1.0, chi=chi, c1=1.0, c2=v)),
], ids=["alpha", "beta", "delta", "c", "c1", "c2"])
def test_non_finite_constants_are_refused(case, name, params_fn, value,
                                          chars):
    """The constant is refused by name before any other check."""
    with pytest.raises(ConstraintError, match=f"^{name} is not finite$"):
        construct(case, params_fn(chars["Z2"][1], value), z2())


@pytest.mark.parametrize("case,values", [
    (CaseId("sine-add", 1), [np.nan, 1, 0]),
    (CaseId("sine-add", 2), [0, np.nan, 0]),
    (CaseId("cos-sine-g", 3), [0, np.inf, 0]),
], ids=["sine-add/1", "sine-add/2", "cos-sine-g/3"])
def test_non_finite_free_tables_are_refused(case, values):
    S = n3()
    with pytest.raises(ConstraintError, match="^free is not finite$"):
        construct(case, CaseParams(free=fn(S, values)), S)


@pytest.mark.parametrize("case,consts", [
    pytest.param(CaseId(eq, k), consts, id=f"{eq}/{k}")
    for eq, k, consts in [("sine-add", 1, {}), ("sine-add", 2, {}),
                          ("cos-sine-g", 3, {}),
                          ("alpha-skew", 1, {"alpha": 1}),
                          ("cos-sub", 2, {"c": 1j}),
                          ("alpha-skew", 4, {"alpha": 1, "c": 2})]])
def test_construct_rows_refuses_non_finite_free_rows(case, consts):
    # The refused rows take no part in the builders' arithmetic, so inf
    # times 0 raises no numpy warning (the suite turns warnings into
    # errors), and the accepted row keeps its floats.
    rows = np.array([[0, np.nan, 0], [0, np.inf, 0], [np.nan, 1, 0],
                     [0, 1, 0]], dtype=complex)
    S = n3()
    ok, f, g = construct_rows(case, S, CaseParams(free=rows, **consts), 4)
    assert ok.tolist() == [False, False, False, True]
    one = construct(case, CaseParams(free=fn(S, rows[3]), **consts), S)
    assert [f[3].tolist(), g[3].tolist()] == [h.values.tolist() for h in one]


def test_nan_rho_is_refused():
    S = m3()
    chi = enumerate_characters(S)[0]            # [1, 0, 0], P = {p}
    rho = RhoFn(domain=frozenset({1}), values=np.array([0, np.nan, 0]))
    with pytest.raises(ConstraintError):
        construct(CaseId("sine-add", 5), CaseParams(chi=chi, rho=rho), S)


@pytest.mark.parametrize("case,consts,parity", [
    pytest.param(case, consts, parity, id=str(case))
    for case, consts, parity in [
        (CaseId("sine-add", 5), {}, "even"),
        (CaseId("cos-sub", 5, "+"), {}, "even"),
        (CaseId("cos-sub", 5, "-"), {}, "even"),
        (CaseId("cos-sine-g", 6), {}, "even"),
        (CaseId("cos-sine-g", 7), {}, "even"),
        (CaseId("alpha-sym", 6), {"alpha": 2}, "even"),
        (CaseId("alpha-skew", 6), {"alpha": 1, "c": -1}, "odd")]])
def test_non_finite_rho_is_refused_before_any_gather(case, consts, parity):
    # inf in the prime part would meet a 0 factor in the relation gather,
    # and alpha-skew/6 with c = -1 scales rho by 0: neither may happen (the
    # suite turns numpy's warnings into errors).
    S = np4()
    chi = enumerate_characters(S)[0]            # P = {p, q}
    good = rho_space(chi, parity).instance([1.0], S.n)
    bad = good.values.copy()
    bad[1] = np.inf
    with pytest.raises(ConstraintError, match="^rho is not finite$"):
        construct(case, CaseParams(chi=chi, rho=dataclasses.replace(
            good, values=bad), **consts), S)
    rows = dataclasses.replace(good, values=np.stack([bad, good.values]))
    ok, f, g = construct_rows(case, S, CaseParams(chi=chi, rho=rows,
                                                  **consts), 2)
    assert ok.tolist() == [False, True]
    one = construct(case, CaseParams(chi=chi, rho=good, **consts), S)
    assert [f[1].tolist(), g[1].tolist()] == [h.values.tolist() for h in one]


def test_menu_availability(carriers, chars):
    def menu(case, name):
        return admissible_params(case, carriers[name], chars[name])

    m = menu(CaseId("cos-sub", 2), "Z2")
    assert not m.available
    assert any("S^2 = S" in note for note in m.notes)
    m = menu(CaseId("cos-sub", 2), "N3")
    assert m.available and m.free_support == (1, 2) and not m.free_arbitrary

    m = menu(CaseId("cos-sine-g", 8, "chi"), "Z2")
    assert not m.available
    assert any("chi* != chi" in note for note in m.notes)
    assert menu(CaseId("cos-sub", 6), "Z2xZ2").available
    assert not menu(CaseId("cos-sub", 6), "N3").available

    # Piecewise families need a non-zero rho (A is 0 on a finite carrier),
    # which no bundled finite carrier supplies.
    for name in carriers:
        if name in ("M3", "NP4"):
            continue
        for case in (CaseId("cos-sub", 5, "+"), CaseId("sine-add", 5),
                     CaseId("cos-sine-g", 6), CaseId("alpha-skew", 6)):
            assert not menu(case, name).available, (name, str(case))

    m = menu(CaseId("sine-add", 1), "Z2")
    assert m.available and m.free_arbitrary


def test_menu_describe_payload(carriers, chars):
    d = admissible_params(CaseId("cos-sub", 4), carriers["Z2"],
                          chars["Z2"]).describe()
    for key in ("equation", "case", "branch", "available", "notes",
                "characters"):
        assert key in d
    assert d["equation"] == "cos-sub" and d["case"] == 4


def test_menu_sampling_is_deterministic_and_admissible(carriers, chars):
    for name, S in carriers.items():
        for eq in BUILTIN_EQUATIONS:
            for case in all_case_ids(eq):
                m = admissible_params(case, S, chars[name])
                p1 = m.sample(random.Random(5))
                p2 = m.sample(random.Random(5))
                assert (p1 is None) == (not m.available)
                if p1 is None:
                    continue
                for field in ("chi", "chi1", "chi2", "alpha", "beta",
                              "delta", "c", "c1", "c2"):
                    assert getattr(p1, field) == getattr(p2, field)
                f1, g1 = construct(case, p1, S)
                f2, g2 = construct(case, p2, S)
                assert f1.max_abs_diff(f2) == 0 and g1.max_abs_diff(g2) == 0


def test_menu_sampling_checks_draws_without_building_tables(
        carriers, chars, monkeypatch):
    """`sample` accepts the draws `construct` accepts, using the rng the
    same way, and builds no tables to decide."""
    def through_construct(m, rng):
        for _ in range(80):
            params = m._draw(rng)
            try:
                construct(m.case, params, m.S)
            except ConstraintError:
                continue
            return params, rng.random()
        return None, rng.random()

    for name in ("Z2xZ2", "N3", "M3", "NP4"):
        S = carriers[name]
        menus = [admissible_params(case, S, chars[name])
                 for eq in BUILTIN_EQUATIONS for case in all_case_ids(eq)]
        expected = [through_construct(m, random.Random(seed))
                    for m in menus if m.available for seed in range(3)]
        with monkeypatch.context() as patch:
            def no_tables(*args):
                raise AssertionError("sample built tables")
            patch.setattr(families, "_tables", no_tables)
            got = [(m.sample(rng), rng.random()) for m in menus
                   if m.available for seed in range(3)
                   for rng in [random.Random(seed)]]
        assert [(_param_record(p) if p else p, r) for p, r in got] == \
            [(_param_record(p) if p else p, r) for p, r in expected], name


def test_constructed_pairs_solve_their_equation(carriers, chars):
    for name, S in carriers.items():
        for eq in BUILTIN_EQUATIONS:
            for case in all_case_ids(eq):
                m = admissible_params(case, S, chars[name])
                if not m.available:
                    continue
                rng = random.Random(23)
                for _ in range(3):
                    p = m.sample(rng)
                    f, g = construct(case, p, S)
                    alpha = p.alpha if eq in ALPHA_EQS else None
                    r = equation_residual(eq, f, g, S, alpha=alpha)
                    assert r <= TOL, (name, str(case), r)


def test_character_built_cases_are_abelian(carriers, chars):
    """Central/abelian symmetry of every non-free constructed pair.

    The free-function cases can break centrality by design; everything
    built from characters, additive parts, and rho satisfies
    f(xy) = f(yx) and f(xyz) = f(xzy), and likewise for g.
    """
    for name, S in carriers.items():
        for eq in BUILTIN_EQUATIONS:
            for case in all_case_ids(eq):
                m = admissible_params(case, S, chars[name])
                if not m.available:
                    continue
                rng = random.Random(7)
                p = m.sample(rng)
                if p.free is not None:
                    continue
                for h in construct(case, p, S):
                    v = h.values
                    for x in range(S.n):
                        for y in range(S.n):
                            assert abs(v[S.mul(x, y)] - v[S.mul(y, x)]) <= TOL
                            for z in range(S.n):
                                a = v[S.mul(S.mul(x, y), z)]
                                b = v[S.mul(S.mul(x, z), y)]
                                assert abs(a - b) <= TOL


def test_cos_sine_g_piecewise_cases_on_a_windowed_carrier(ex1):
    """cos-sine-g/6 and /7 built from (A, rho) on example 1 are the sine-add/5
    piece phi = chi A | 0 | rho combined with chi, and solve cos-sine-g."""
    chi = ex1.extras["chi"]
    A = ex1.extras["additive_family"]({5: 1.0, 7: -0.5})
    rho = ex1.extras["rho_family"](1.0, "even")
    params = CaseParams(chi=chi, A=A, rho=rho)
    phi, _ = construct(CaseId("sine-add", 5), params, ex1)
    sub = example1(window_max=30)
    for case, f_of, g_of in (
            (6, lambda p, c: p / 2 + c, lambda p, c: p + c),
            (7, lambda p, c: p + c, lambda p, c: c)):
        f, g = construct(CaseId("cos-sine-g", case), params, ex1)
        for x in list(ex1.window)[::7]:
            assert abs(f(x) - f_of(phi(x), chi(x))) <= TOL, (case, x)
            assert abs(g(x) - g_of(phi(x), chi(x))) <= TOL, (case, x)
        assert equation_residual("cos-sine-g", f, g, sub) <= TOL, case
    assert any(abs(phi(x)) > TOL for x in ex1.window)


@pytest.mark.parametrize("case", ["sine-add/1", "sine-add/2", "alpha-skew/1",
                                  "cos-sine-g/3"])
def test_construct_refuses_a_free_table_of_another_carrier(case):
    eq, k = case.split("/")
    params = dict(alpha=1) if eq in ALPHA_EQS else {}
    S = n3()
    for h in (fn(z3(), [0, 1, -1]), fn(z2(), [0, 1])):
        with pytest.raises(ConstraintError,
                           match="^free is a table of another carrier$"):
            construct(CaseId(eq, int(k)), CaseParams(free=h, **params), S)
    # A free table of an equal carrier built again is accepted.
    again = FiniteSemigroup(S.name, S.elements, S.table, S.sigma)
    f, g = construct(CaseId(eq, int(k)),
                     CaseParams(free=fn(again, [0, 1, -1]), **params), S)
    assert equation_residual(eq, f, g, S, params.get("alpha")) <= TOL


def test_construct_hands_back_the_callers_read_only_table():
    """A free table passed in comes back as itself, values read-only."""
    S = n3()
    h = fn(S, [0, 1, -1])
    f, g = construct(CaseId("sine-add", 2), CaseParams(free=h), S)
    assert f is h
    f2, g2 = construct(CaseId("alpha-skew", 2), CaseParams(alpha=1, free=h),
                       S)
    assert g2 is h
    assert not h.values.flags.writeable


@pytest.mark.parametrize(
    "case,const", SET_CONSTANTS,
    ids=[f"{case}-{const.name}" for case, const in SET_CONSTANTS])
def test_record_clause_failure_text(case, const, carriers, chars):
    """A constant outside its record's admissible set fails with the
    record's own text, and a ratio case's rows mark that row not ok."""
    draws = ((S, admissible_params(case, S, chars[name])
              .sample(random.Random(0))) for name, S in carriers.items())
    S, params = next((S, p) for S, p in draws if p is not None)
    bad = (0, 1) if const.inside else const.values
    for value in bad:
        with pytest.raises(ConstraintError) as err:
            construct(case, dataclasses.replace(params, **{const.name: value}),
                      S)
        assert str(err.value) == const.failure
        if (case.equation, case.case) not in RATIO_CASES:
            continue
        rows = {name: (v, value if name == const.name else v)
                for name in ("c", "c1", "c2")
                if (v := getattr(params, name)) is not None}
        if params.free is not None:
            rows["free"] = np.stack([params.free.values] * 2)
        if const.name == "alpha":
            rows["alpha"] = value
        ok, _, _ = construct_rows(case, S, dataclasses.replace(params, **rows),
                                  2)
        assert ok.tolist() == [const.name != "alpha", False]


def test_form_cases_refuse_a_windowed_carrier(ex1):
    with pytest.raises(ConstraintError, match="need a finite carrier"):
        construct(CaseId("cos-sub", 1), CaseParams(), ex1)


def test_construct_refuses_a_character_of_another_carrier():
    # Without the clause the pair is built on T2 and fails its own law
    # there (cos-sub residual 0.4), with no error.
    T2 = FiniteSemigroup("T2", ["e", "a"], [[0, 0], [0, 0]], [0, 1])
    chi = MultChar(z2(), [1, -1])
    case, params = CaseId("cos-sub", 3), CaseParams(chi=chi, alpha=2)
    with pytest.raises(ConstraintError,
                       match="^chi is a character of another carrier$"):
        construct(case, params, T2)
    # An equal carrier built again is the same carrier.
    Z = z2()
    again = FiniteSemigroup(Z.name, Z.elements, Z.table, Z.sigma)
    f, g = construct(case, params, again)
    assert equation_residual("cos-sub", f, g, again) <= TOL


def test_piecewise_fields_follow_the_carrier(ex1):
    """A finite piecewise case takes (chi, rho), since A is 0 there; a
    windowed one takes (chi, A, rho)."""
    S = m3()
    chi = enumerate_characters(S)[0]            # [1, 0, 0], P = {p}
    rho = rho_space(chi).instance([1], S.n)
    A = AdditiveFn(domain=frozenset({0}), values=np.zeros(3))
    case = CaseId("sine-add", 5)
    with pytest.raises(ConstraintError, match=re.escape(
            "case sine-add/5 requires fields ['chi', 'rho'], "
            "got ['A', 'chi', 'rho']")):
        construct(case, CaseParams(chi=chi, A=A, rho=rho), S)
    f, g = construct(case, CaseParams(chi=chi, rho=rho), S)
    assert f.values.tolist() == [0, 1, 0] and g.values.tolist() == [1, 0, 0]
    wrho = ex1.extras["rho_family"](1.0, "even")
    with pytest.raises(ConstraintError, match=re.escape(
            "case sine-add/5 requires fields ['A', 'chi', 'rho'], "
            "got ['chi', 'rho']")):
        construct(case, CaseParams(chi=ex1.extras["chi"], rho=wrho), ex1)


def test_a_zero_piece_names_the_carrier_fields():
    """A finite piecewise case takes no A, so its zero piece is a zero rho;
    a windowed one still names both."""
    S = m3()
    chi = enumerate_characters(S)[0]            # [1, 0, 0], P = {p}
    zero = rho_space(chi).instance([0], S.n)
    with pytest.raises(ConstraintError, match="^rho vanishes$"):
        construct(CaseId("sine-add", 5), CaseParams(chi=chi, rho=zero), S)
    W = example1(window_max=30)
    params = CaseParams(chi=W.extras["chi"],
                        A=W.extras["additive_family"]({}),
                        rho=W.extras["rho_family"](0.0))
    with pytest.raises(ConstraintError, match="^A and rho both vanish$"):
        construct(CaseId("sine-add", 5), params, W)


@pytest.mark.parametrize("rho", [
    # NP4's even rho (P = {p, q}) with free value 5: 4 entries on M3.
    rho_space(enumerate_characters(np4())[0]).instance([5], 4),
    RhoFn(domain=frozenset({0, 1}), values=np.array([0, 5, 0])),
], ids=["np4-rho", "domain-off-P"])
def test_construct_refuses_a_rho_off_the_prime_part(rho):
    # Without the clause the NP4 rho builds f = [0, 5, 0] on M3.
    S = m3()
    chi = enumerate_characters(S)[0]            # [1, 0, 0], P = {p}
    with pytest.raises(ConstraintError, match=(
            "^rho is not a function on the prime part of chi$")):
        construct(CaseId("sine-add", 5), CaseParams(chi=chi, rho=rho), S)


# ---------------------------------------------------------------------------
# Every case a windowed carrier takes: the character cases on a small copy
# of example 2, the piecewise cases on example 1.
# ---------------------------------------------------------------------------

#: SHA-256 of the (f, g) values that every windowed case id builds at each
#: of WINDOWED_SETTINGS, at every window point and at products x s(y) off
#: the window (see _windowed_points), recorded before the windowed tables
#: were built through the row tables.
WINDOWED_CASE_DIGEST = ("2287629751646c17365c53934cf8b291"
                        "de095058259564abf8cd06049843fce6")

#: The constants of the windowed cases, each admissible for every case
#: (none is 0, 1/2, +-1 or +-i).
WINDOWED_SETTINGS = (2.0, -1.5 + 0.5j, 0.25 + 3j)

WINDOWED_CASES = ["cos-sub/3", "cos-sub/4", "cos-sub/5+", "cos-sub/5-",
                  "sine-add/3", "sine-add/4", "sine-add/5",
                  "cos-sine-g/4", "cos-sine-g/5", "cos-sine-g/6",
                  "cos-sine-g/7", "alpha-sym/4", "alpha-sym/5",
                  "alpha-sym/6", "alpha-sym/7", "alpha-skew/6"]


def _case_id(text: str) -> CaseId:
    eq, k = text.split("/")
    return CaseId(eq, int(k[0]), k[1:] or None)


@functools.lru_cache(maxsize=None)
def _small_example2():
    """Example 2 on the 7 x 7 grid of quarters, with its characters."""
    W = example2()
    coords = [k / 4 for k in range(-3, 4)]
    S = WindowedSemigroup("Example2-small", W.mul, W.sig,
                          [(x, y) for x in coords for y in coords])
    S.extras["chars"] = {
        name: WindowedChar(S, c.formula, c.in_ideal, c.in_ideal_square,
                           c.in_prime_part)
        for name, c in W.extras["chars"].items()}
    return S


def _windowed_points(S) -> list:
    """Every window point, and products x s(y) that leave the window."""
    if S.name == "Example2-small":
        pairs = example2().extras["sample_pairs"](6, 0)
    else:
        pairs = itertools.product((5, 6, 12, 35), (2, 7, 18, 25))
    return list(S.window) + [S.mul(x, S.sig(y)) for x, y in pairs]


def _windowed_params(case: CaseId, z: complex):
    """The carrier and parameters of one windowed case at the constant z."""
    names = CASES[case.equation][case.case - 1].fields
    consts = {name: z for name in ("alpha", "beta", "delta", "c", "c1")
              if name in names}
    if "rho" not in names:
        S = _small_example2()
        chars = S.extras["chars"]
        if "chi" in names:
            consts["chi"] = chars["chi_sgn"]
        else:
            consts["chi1"], consts["chi2"] = chars["chi_abs"], chars["chi_sgn"]
        return S, CaseParams(**consts)
    S = example1(window_max=30)
    if case.equation == "alpha-skew":     # an odd zero A and an odd rho
        A = dataclasses.replace(S.extras["additive_family"]({}),
                                parity="odd")
        rho = S.extras["rho_family"](z, "odd")
    else:
        A = S.extras["additive_family"]({5: 1.0, 7: -0.5})
        rho = S.extras["rho_family"](z)
    return S, CaseParams(chi=S.extras["chi"], A=A, rho=rho, **consts)


@pytest.mark.parametrize("text", WINDOWED_CASES)
def test_windowed_cases_solve_their_equation(text):
    case = _case_id(text)
    for z in WINDOWED_SETTINGS:
        S, params = _windowed_params(case, z)
        f, g = construct(case, params, S)
        r = equation_residual(case.equation, f, g, S, alpha=params.alpha)
        assert r <= TOL, (text, z, r)


def test_construct_rows_refuses_a_windowed_carrier():
    """Its builders would hand back formula tables, not row stacks."""
    S, params = _windowed_params(CaseId("sine-add", 5), 1.0)
    with pytest.raises(TypeError, match="^construct_rows needs a finite "
                                        "semigroup$"):
        construct_rows(CaseId("sine-add", 5), S, params, 2)


def test_windowed_case_values_are_pinned():
    """The windowed tables, float for float, at fixed points."""
    digest = hashlib.sha256()
    for text in WINDOWED_CASES:
        case = _case_id(text)
        for z in WINDOWED_SETTINGS:
            S, params = _windowed_params(case, z)
            f, g = construct(case, params, S)
            points = _windowed_points(S)
            digest.update(stable_json(
                [text, cnum(z), [cnum(f(x)) for x in points],
                 [cnum(g(x)) for x in points]]).encode())
    assert digest.hexdigest() == WINDOWED_CASE_DIGEST


@pytest.mark.parametrize("text,change,clause", [
    ("sine-add/5", lambda E: dict(A=dataclasses.replace(
        E["additive_family"]({5: 1.0}), parity="odd")),
     "A parity must be even"),
    ("cos-sub/5+", lambda E: dict(rho=E["rho_family"](1.0, "odd")),
     "rho parity must be even"),
    ("alpha-skew/6", lambda E: dict(A=E["additive_family"]({})),
     "A parity must be odd"),
    ("alpha-skew/6", lambda E: dict(rho=E["rho_family"](1.0)),
     "rho parity must be odd"),
    # rho = 1 at 2 and 3 only is even, but rho(2 * 5) = 0 != rho(2) chi(5).
    ("cos-sine-g/6", lambda E: dict(rho=RhoFn(
        domain=E["chi"].in_prime_part,
        formula=lambda n: 1.0 if n in (2, 3) else 0.0)),
     "condition (I) fails"),
    ("alpha-sym/7", lambda E: dict(A=E["additive_family"]({}),
                                   rho=E["rho_family"](0.0)),
     "A and rho both vanish"),
], ids=["A-parity", "rho-parity", "A-parity-odd", "rho-parity-odd",
        "condition-I", "vanish"])
def test_windowed_piecewise_refusals(text, change, clause):
    """Example 1's piecewise cases of test_windowed_cases_solve_their_equation
    with one of A and rho changed: each change fails its own clause."""
    case = _case_id(text)
    S, params = _windowed_params(case, 1.0)
    with pytest.raises(ConstraintError) as err:
        construct(case, dataclasses.replace(params, **change(S.extras)), S)
    assert str(err.value) == clause


def test_windowed_condition_II_refusal():
    """P5 = {y, w, x, p, 0}: y and w a left-zero band (uv = u), y x = w x =
    x, x y = p, x w = 0, p is fixed by the band on either side, every other
    product is 0, and sigma is the identity.  For chi = 1 on {y, w}, P =
    {p} and x lies in I \\ P, so x y = p puts a non-zero rho into
    condition (II), on either kind of carrier."""
    y, w, x, p, o = range(5)
    S = FiniteSemigroup("P5", ["y", "w", "x", "p", "0"],
                        [[y, y, x, p, o], [w, w, x, p, o], [p, o, o, o, o],
                         [p, p, o, o, o], [o] * 5], range(5))
    chi = MultChar(S, [1, 1, 0, 0, 0])
    assert chi.prime_part == {p} and chi.null_ideal == {x, p, o}
    rho = rho_space(chi).instance([1], S.n)
    case = CaseId("sine-add", 5)
    with pytest.raises(ConstraintError, match="^condition \\(II\\) fails$"):
        construct(case, CaseParams(chi=chi, rho=rho), S)
    W = WindowedSemigroup("P5-windowed", S.mul, S.sig, S.window)
    params = CaseParams(
        chi=WindowedChar(W, chi, chi.in_ideal, chi.null_square.__contains__,
                         chi.in_prime_part),
        A=AdditiveFn(domain=lambda i: not chi.in_ideal(i),
                     formula=lambda i: 0j),
        rho=RhoFn(domain=chi.in_prime_part, formula=rho))
    with pytest.raises(ConstraintError, match="^condition \\(II\\) fails$"):
        construct(case, params, W)
