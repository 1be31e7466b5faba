"""End-to-end acceptance gate.

Each test covers one release criterion and prints exactly one
[PASS]/[FAIL] line with its pinned tolerances before asserting, so a red
criterion is visible in the captured output as well as in the pytest
summary.  All numeric gates use an absolute tolerance of 1e-9 unless the
line says otherwise.
"""

import random
import time

import numpy as np

from addlaws.characters import (additive_basis, additive_residual,
                                check_condition_I, check_condition_II,
                                enumerate_characters, ideal_sets)
from addlaws.classify import ClassifiedSolution, alias_equivalent, classify
from addlaws.dsl import (BUILTIN_EQUATIONS, EquationSyntaxError, builtin,
                         parse_equation, print_equation, random_equation)
from addlaws.families import (CaseId, CaseParams, admissible_params,
                              all_case_ids, construct)
from addlaws.oracle import (DEFAULT_ALPHABET, coverage_report,
                            fuzz_constructors, grid_solutions)

from helpers import TOL, brute_force_characters, match_tables, ok_line

ALPHA_EQS = ("alpha-sym", "alpha-skew")
TIME_LIMIT = 60.0


def test_criterion_1_grid_coverage(bundle, chars):
    """Every default-alphabet grid solution classifies into some case."""
    worst_time = 0.0
    missing = []
    cells = 0
    for S in bundle:
        for eq in BUILTIN_EQUATIONS:
            alphas = (1.0, 1j) if eq in ALPHA_EQS else (1.0,)
            for alpha in alphas:
                t0 = time.monotonic()
                rep = coverage_report(S, alpha=alpha, equations=[eq])
                dt = time.monotonic() - t0
                worst_time = max(worst_time, dt)
                cells += 1
                stray = rep["equations"][eq]["unclassified"]
                if stray:
                    missing.append((S.name, eq, alpha, len(stray)))
    ok = not missing and worst_time < TIME_LIMIT
    ok_line(ok, "criterion 1 (coverage)",
            f"{cells} (carrier, equation, alpha) scans over alphabet "
            f"{DEFAULT_ALPHABET} at alpha in {{1, i}}, tol 1e-9; "
            f"unclassified cells: {missing or 'none'}; slowest scan "
            f"{worst_time:.2f} s < {TIME_LIMIT:.0f} s")
    assert ok, missing


def test_criterion_2_constructor_fuzz():
    """500 random parameter draws per admissible case stay on the equation."""
    worst = 0.0
    draws = {}
    for eq in BUILTIN_EQUATIONS:
        rep = fuzz_constructors(eq, n=500, seed=0)
        worst = max(worst, rep["max_residual"])
        short = [c for c, block in rep["cases"].items()
                 if block["draws"] < 500]
        draws[eq] = short
    ok = worst < 1e-9 and not any(draws.values())
    ok_line(ok, "criterion 2 (constructor fuzz)",
            f"500 draws per (equation, admissible case), seed 0; "
            f"max residual {worst:.3e} < 1e-9")
    assert ok, (worst, draws)


def test_criterion_3_round_trip(bundle, chars):
    """construct -> classify lands on the same case up to documented
    aliases, for every admissible case on every bundled carrier."""
    failures = []
    cells = 0
    for S in bundle:
        cs = chars[S.name]
        for eq in BUILTIN_EQUATIONS:
            for case in all_case_ids(eq):
                menu = admissible_params(case, S, cs)
                if not menu.available:
                    continue
                cells += 1
                rng = random.Random(41)
                for _ in range(3):
                    p = menu.sample(rng)
                    f, g = construct(case, p, S)
                    alpha = p.alpha if eq in ALPHA_EQS else None
                    hit = classify(eq, f, g, S, alpha=alpha, chars=cs)
                    good = (isinstance(hit, ClassifiedSolution)
                            and alias_equivalent(case, hit.case)
                            and hit.residual <= TOL)
                    if not good:
                        failures.append((S.name, str(case)))
    ok = not failures
    ok_line(ok, "criterion 3 (round trip)",
            f"{cells} admissible (carrier, case) cells x 3 draws, alias map "
            f"applied, reconstruction tol 1e-9; failures: "
            f"{failures or 'none'}")
    assert ok, failures


def test_criterion_4_symmetry_identities(bundle, chars):
    """The automorphism fixes each block of an even character's ideal
    partition, and every cos-sine-g solution satisfies the pair/triple
    symmetry identities."""
    bad_blocks = []
    for S in bundle:
        for chi in chars[S.name]:
            if not chi.even:
                continue
            I, I2, P = ideal_sets(chi)
            blocks = {"I": I, "I^2": I2, "S-I": set(range(S.n)) - I,
                      "I-I^2": I - I2, "P": P, "I-P": I - P}
            for label, block in blocks.items():
                if {int(S.sigma[x]) for x in block} != set(block):
                    bad_blocks.append((S.name, label))
    worst = 0.0
    for S in bundle:
        t3 = S.table[S.table]            # t3[x, y, z] = (xy)z
        for f, g in grid_solutions("cos-sine-g", S, DEFAULT_ALPHABET):
            fv = f.values
            fstar = fv[S.sigma]
            worst = max(worst, float(np.max(np.abs(fv[S.table] -
                                                   fstar[S.table.T]))))
            worst = max(worst, float(np.max(np.abs(fv[t3] - fstar[t3]))))
    ok = not bad_blocks and worst < 1e-9
    ok_line(ok, "criterion 4 (symmetry identities)",
            f"five invariance identities per even character on 5 carriers; "
            f"pair identity f(xy) = f*(yx) and triple identity "
            f"f(xyz) = f*(xyz) on every cos-sine-g grid solution; "
            f"max deviation {worst:.3e} < 1e-9; bad blocks: "
            f"{bad_blocks or 'none'}")
    assert ok, (bad_blocks, worst)


def test_criterion_5_character_counts(bundle, chars):
    """Enumeration equals an independent brute force; pinned counts for the
    two-element group (2) and the all-zero-products carrier (1, the
    constant 1)."""
    mismatches = []
    for S in bundle:
        expected = brute_force_characters(S)
        got = [c.values for c in chars[S.name]]
        if not match_tables(expected, got):
            mismatches.append(S.name)
    n_z2 = len(chars["Z2"])
    # N3 is the null semigroup: every product is 0.  chi(0) = chi(0*0) =
    # chi(0)^2, so chi(0) is 0 or 1.  If chi(0) = 0 then chi(x)^2 =
    # chi(x*x) = chi(0) = 0 for every x, so chi is the excluded zero
    # function.  If chi(0) = 1 then chi(x) = chi(x)chi(0) = chi(x*0) =
    # chi(0) = 1 for every x.  So the constant 1 is the only character.
    n_n3 = len(chars["N3"])
    n3_const = n_n3 == 1 and np.allclose(chars["N3"][0].values, 1.0)
    ok = not mismatches and n_z2 == 2 and n3_const
    ok_line(ok, "criterion 5 (character counts)",
            f"brute-force list match on all 5 carriers "
            f"({mismatches or 'no mismatches'}), tol 1e-9; Z2 count "
            f"{n_z2} (expected 2); N3 count {n_n3} (expected 1), "
            f"{'the' if n3_const else 'not the'} constant 1")
    assert ok, (mismatches, n_z2, n_n3, n3_const)


def test_criterion_6_additive_spaces(bundle, chars, ex1, ex2):
    """No non-zero additive functions on the finite bundle; the windowed
    additive families are additive to 1e-9 over >= 1000 pairs."""
    dims = []
    for S in bundle:
        for chi in chars[S.name]:
            for parity in ("even", "odd"):
                dims.append(len(additive_basis(chi, parity)))
    A1 = ex1.extras["additive_family"]({5: 1.0, 7: -2.0, 11: 0.5})
    dom = [x for x in ex1.window if A1.in_domain(x)]
    pairs1 = [(x, y) for x in dom for y in dom]
    r1 = additive_residual(A1, ex1, pairs1)
    pairs2 = ex2.extras["sample_pairs"](1200, 0)
    builder = ex2.extras["additive_basis"]
    chi_abs = ex2.extras["chars"]["chi_abs"]
    r2 = max(additive_residual(builder(chi_abs, parity)[0], ex2, pairs2)
             for parity in ("even", "odd"))
    ok = (set(dims) == {0} and len(pairs1) >= 1000 and len(pairs2) >= 1000
          and r1 < 1e-9 and r2 < 1e-9)
    ok_line(ok, "criterion 6 (additive spaces)",
            f"dimension 0 in all {len(dims)} finite (character, parity) "
            f"cells; windowed families: {len(pairs1)} and {len(pairs2)} "
            f"pairs with residuals {r1:.3e}, {r2:.3e} < 1e-9")
    assert ok, (set(dims), r1, r2)


def test_criterion_7_windowed_end_to_end(ex1):
    """A full piecewise family on the prime-swap carrier solves its
    equation on the sub-window and passes both side conditions."""
    chi = ex1.extras["chi"]
    A = ex1.extras["additive_family"]({5: 1.0, 7: -2.0, 11: 0.5})
    rho = ex1.extras["rho_family"](1.0, "even")
    f, g = construct(CaseId("cos-sub", 5, "+"),
                     CaseParams(chi=chi, A=A, rho=rho), ex1)
    worst = 0.0
    for x in range(2, 61):
        for y in range(2, 61):
            lhs = g(x * ex1.sig(y))
            worst = max(worst, abs(lhs - g(x) * g(y) - f(x) * f(y)))
    cond1 = check_condition_I(rho, chi)
    cond2 = check_condition_II(f, chi)
    ok = worst < 1e-9 and cond1 and cond2
    ok_line(ok, "criterion 7 (windowed end-to-end)",
            f"piecewise cos-sub family on the [2, 200] prime-swap window; "
            f"residual {worst:.3e} < 1e-9 over 2 <= x, y <= 60; "
            f"condition (I) {cond1}, condition (II) {cond2}")
    assert ok, (worst, cond1, cond2)


def test_criterion_8_equation_language():
    """Parse/print round trips and positioned syntax errors."""
    builtin_ok = all(
        print_equation(parse_equation(text)) == text
        and parse_equation(text) == builtin(eq_id)
        for eq_id, text in BUILTIN_EQUATIONS.items())
    fuzz_ok = True
    for seed in range(100):
        ast = random_equation(random.Random(seed))
        fuzz_ok = fuzz_ok and parse_equation(print_equation(ast)) == ast
    malformed = [
        ("f(x s(y) = f(x)", 9),
        ("q(x) = f(x)", 0),
        ("f() = f(x)", 2),
        ("1/0*f(x) = f(x)", 2),
        ("f(x) + = g(x)", 7),
    ]
    caught = 0
    for text, position in malformed:
        try:
            parse_equation(text)
        except EquationSyntaxError as err:
            if err.position == position and f"position {position}" in str(err):
                caught += 1
    ok = builtin_ok and fuzz_ok and caught == len(malformed)
    ok_line(ok, "criterion 8 (equation language)",
            f"5 built-in and 100 fuzzed round trips byte-identical; "
            f"{caught}/{len(malformed)} malformed inputs rejected with "
            f"exact character positions")
    assert ok
