"""Constructors for the solution cases: frozen tables, constraint
enforcement, parameter menus, and structural properties."""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from addlaws.core import cnum, fn, stable_json
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.families import (BRANCHES, CASE_COUNTS, CaseId, CaseParams,
                              ConstraintError, admissible_params, all_case_ids,
                              combine_additive, construct)
from addlaws.characters import AdditiveFn, RhoFn, enumerate_characters
from addlaws.examples import m3, n3, z2, z2xz2
from addlaws.oracle import fuzz_constructors

from helpers import TOL, equation_residual

ALPHA_EQS = ("alpha-sym", "alpha-skew")

#: SHA-256 of every menu, seeded draw, constructed table and fuzz report
#: below, recorded before the per-case tables were folded into one registry.
CASE_OUTPUT_DIGEST = ("84ebcb54cc3d6a9ffdf236e3c994411a"
                      "41499cc2617bb69f1a4b0acd081b3efc")


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
                  CaseParams(free=fn(N, [0, 1, 1], "g"), c=1.0), N)
    with pytest.raises(ConstraintError, match="does not vanish"):
        construct(CaseId("cos-sub", 2),
                  CaseParams(free=fn(N, [1, 0, 0], "g"), c=1j), N)
    with pytest.raises(ConstraintError, match="alpha = 0"):
        construct(CaseId("alpha-skew", 1),
                  CaseParams(free=fn(z2(), [1, 0], "g"), alpha=0.0), z2())


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


def test_nan_rho_is_refused():
    S = m3()
    chi = enumerate_characters(S)[0]            # [1, 0, 0], P = {p}
    A = AdditiveFn(domain=frozenset({0}), values=np.zeros(3))
    rho = RhoFn(domain=frozenset({1}), values=np.array([0, np.nan, 0]))
    with pytest.raises(ConstraintError):
        construct(CaseId("sine-add", 5), CaseParams(chi=chi, A=A, rho=rho), S)


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

    # Piecewise families need a non-zero A or rho, which no bundled finite
    # carrier supplies.
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


def test_additive_helpers(chars):
    S = z2()
    chi = chars["Z2"][1]
    both = combine_additive(S, [], [], chi)
    assert all(both(x) == 0 for x in range(S.n))


def test_phi_route_matches_additive_route(ex1):
    """The chi + chi A family accepts either (A, rho) data or a ready-made
    sine-law component phi; both must produce the same tables."""
    chi = ex1.extras["chi"]
    A = ex1.extras["additive_family"]({5: 1.0, 7: -0.5})
    rho = ex1.extras["rho_family"](1.0, "even")
    params = CaseParams(chi=chi, A=A, rho=rho)
    phi, _ = construct(CaseId("sine-add", 5), params, ex1)
    f1, g1 = construct(CaseId("cos-sine-g", 6), params, ex1)
    f2, g2 = construct(CaseId("cos-sine-g", 6),
                       CaseParams(chi=chi, phi=phi), ex1)
    for x in list(ex1.window)[::7]:
        assert abs(f1(x) - f2(x)) <= TOL
        assert abs(g1(x) - g2(x)) <= TOL


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
