"""Exhaustive grid scans, coverage reports, and constructor fuzzing."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from addlaws import oracle
from addlaws.core import FiniteSemigroup, stable_json
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.families import CaseId, admissible_params, all_case_ids, construct
from addlaws.oracle import (DEFAULT_ALPHABET, PAIR_BUDGET, BudgetError,
                            GridInputError, GridSolutions, coverage_report,
                            fuzz_constructors, grid_solutions,
                            validate_alphabet, value_tuples)
from addlaws.examples import m3, n3, np4, z1, z2, z3, z2xz2

from helpers import TOL, census, equation_residual, reference_grid_pairs

_W = cmath.exp(2j * cmath.pi / 3)
#: Non-dyadic values: residuals are rounded, not exact, on this alphabet.
THIRDS_ALPHABET = (0, 1 / 3, -1 / 3, _W, -_W, 1, -1)


def _pair_indices(S, alphabet, sols):
    """(f-index, g-index) of each solution pair, by value_tuples row."""
    rows = {tuple(v): t for t, v in enumerate(value_tuples(alphabet, S.n))}
    return [(rows[tuple(f.values)], rows[tuple(g.values)]) for f, g in sols]


def test_default_alphabet_is_frozen():
    assert DEFAULT_ALPHABET == (0, 1, -1, 1j, -1j, 0.5, -0.5, 2, -2)
    assert PAIR_BUDGET == 10 ** 8
    assert list(validate_alphabet(DEFAULT_ALPHABET)) == list(DEFAULT_ALPHABET)


@pytest.mark.parametrize("alphabet,fragment", [
    ((), "must not be empty"),
    ((0, 1, 1, -1), "distinct"),
    ((1, -1), "must contain 0"),
    ((0, 1, -1, 2), "not closed under negation"),
])
def test_alphabet_validation(alphabet, fragment):
    with pytest.raises(GridInputError, match=fragment):
        validate_alphabet(alphabet)


@pytest.mark.parametrize("alphabet", [(0, np.inf, -np.inf),
                                      (0, 1, -1, np.nan),
                                      (0, complex(1, np.inf),
                                       complex(-1, -np.inf))],
                         ids=["inf", "nan", "inf-imaginary"])
def test_alphabet_entries_must_be_finite(alphabet):
    """(0, inf, -inf) was reported as missing -inf."""
    with pytest.raises(GridInputError) as err:
        validate_alphabet(alphabet)
    assert str(err.value) == "alphabet entries must be finite"


def test_value_tuples_count_in_base_order():
    rows = value_tuples((0, 1, -1), 2)
    assert rows.shape == (9, 2)
    assert [tuple(r) for r in rows[:4]] == [
        (0, 0), (0, 1), (0, -1), (1, 0)]


def test_grid_solutions_copies_a_writable_array():
    a, b = np.zeros((1, 2), complex), np.ones((1, 2), complex)
    sols = GridSolutions(z2(), a, b)
    a[0, 0] = 1                     # the caller's arrays are not frozen
    b[0, 1] = 5                     # nor do the solutions share them
    assert sols.f.tolist() == [[0, 0]] and sols.g.tolist() == [[1, 1]]
    assert not (sols.f.flags.writeable or sols.g.flags.writeable)
    frozen = grid_solutions("cos-sub", z2())
    assert GridSolutions(z2(), frozen.f, frozen.g).f is frozen.f
    assert frozen[1:].f.base is frozen.f


def test_point_carrier_scans():
    # On the one-element carrier the equations reduce to scalar algebra:
    # sine-add forces f = 0, and cos-sub has g = g^2 + f^2.
    sols = grid_solutions("sine-add", z1(), (0, 1, -1))
    assert len(sols) == 3
    assert all(abs(f.values[0]) <= TOL for f, g in sols)
    sols = grid_solutions("cos-sub", z1(), (0, 1, -1, 1j, -1j))
    got = sorted(((complex(f.values[0]), complex(g.values[0]))
                  for f, g in sols),
                 key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))
    assert got == [(0j, 0j), (0j, 1 + 0j)]


def test_scan_requires_finite_carrier(ex1):
    with pytest.raises(TypeError, match="finite"):
        grid_solutions("cos-sub", ex1, DEFAULT_ALPHABET)


def test_scan_rejects_unknown_equation_and_zero_alpha():
    with pytest.raises(KeyError):
        grid_solutions("tan-add", z2(), (0, 1, -1))
    with pytest.raises(ValueError, match="alpha"):
        grid_solutions("alpha-sym", z2(), (0, 1, -1), alpha=0.0)


@pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf")],
                         ids=["minus-one", "tiny-negative", "nan", "inf"])
def test_scan_rejects_a_tolerance_that_is_negative_or_not_finite(
        monkeypatch, tol):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input checks")

    with pytest.raises(GridInputError, match="tolerance must be finite"):
        grid_solutions("cos-sub", z1(), tol=tol)
    monkeypatch.setattr(oracle, "grid_solutions", no_work)
    with pytest.raises(GridInputError, match="tolerance must be finite"):
        coverage_report(z2(), tol=tol)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"),
                                   complex(1, float("nan"))],
                         ids=["nan", "inf", "nan-imaginary"])
def test_scan_rejects_an_alpha_that_is_not_finite(monkeypatch, alpha):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input checks")

    for eq in ("alpha-sym", "alpha-skew"):
        with pytest.raises(GridInputError, match="alpha must be finite"):
            grid_solutions(eq, z2(), alpha=alpha)
    monkeypatch.setattr(oracle, "grid_solutions", no_work)
    for equations in (None, ["cos-sub"], ["alpha-skew"]):
        with pytest.raises(GridInputError, match="alpha must be finite"):
            coverage_report(z1(), alpha=alpha, equations=equations)


def test_scan_accepts_a_zero_tolerance():
    # Every value product on the default grid is exact in floating point.
    assert len(grid_solutions("sine-add", z1(), (0, 1, -1), tol=0.0)) == 3


def test_budget_is_checked_before_scanning(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("scan work started before the budget check")

    monkeypatch.setattr(oracle, "_site_residual", no_work)
    monkeypatch.setattr(oracle, "_TABLES", {})
    message = ("scan of 6561 candidate pairs exceeds the budget of 10; "
               "shrink the alphabet or raise the budget")
    with pytest.raises(BudgetError) as exc:
        grid_solutions("cos-sub", z2(), DEFAULT_ALPHABET, budget=10)
    assert str(exc.value) == message
    # coverage_report refuses before its own scan starts.
    monkeypatch.setattr(oracle, "grid_solutions", no_work)
    with pytest.raises(BudgetError) as exc:
        coverage_report(z2(), budget=10)
    assert str(exc.value) == message


def test_coverage_report_checks_every_scan_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input checks")

    monkeypatch.setattr(oracle, "grid_solutions", no_work)
    monkeypatch.setattr(oracle, "classify_rows", no_work)
    with pytest.raises(GridInputError, match="alpha must be non-zero"):
        coverage_report(z2xz2(), alpha=0)
    with pytest.raises(GridInputError, match="must contain 0"):
        coverage_report(z2(), alphabet=(1, -1))
    with pytest.raises(KeyError, match="tan-add"):
        coverage_report(z2(), equations=["cos-sub", "tan-add"])


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.3])
@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, THIRDS_ALPHABET],
                         ids=["default", "thirds"])
@pytest.mark.parametrize("make", [z1, z2, z3, n3, m3],
                         ids=["Z1", "Z2", "Z3", "N3", "M3"])
@pytest.mark.parametrize("eq", BUILTIN_EQUATIONS)
def test_grid_solutions_match_reference_scan(eq, make, alphabet, tol):
    S = make()
    alpha = 1.5 + 0.5j if eq in ("alpha-sym", "alpha-skew") else None
    sols = grid_solutions(eq, S, alphabet, alpha=alpha, tol=tol)
    want = reference_grid_pairs(eq, S, alphabet, alpha=alpha, tol=tol)
    assert _pair_indices(S, alphabet, sols) == want


def census4_twisted() -> FiniteSemigroup:
    """The first non-commutative carrier of order 4 in the census whose
    sigma is not the identity."""
    for k, (table, sigma) in enumerate(census(4)):
        if sigma != tuple(range(4)) and any(
                table[x][y] != table[y][x]
                for x, y in itertools.combinations(range(4), 2)):
            return FiniteSemigroup(f"C4.{k}", [str(x) for x in range(4)],
                                   table, sigma)
    raise AssertionError("the census of order 4 has no such carrier")


#: Grids small enough for the reference scan on four elements.
N4_GRIDS = (((0, 1, -1, 1j, -1j), 1e-9), ((0, 1, -1), 0.3))
N4_CARRIERS = {"Z2xZ2": z2xz2, "NP4": np4, "C4-twisted": census4_twisted}


def _site_pattern(trio) -> tuple:
    """Where the last of x, y, x sigma(y) to get values sits among the
    three, and which of the others coincide: each element is named by
    its rank of first appearance among the earlier ones, the last one by
    'new'."""
    last = max(trio)
    earlier = list(dict.fromkeys(e for e in trio if e < last))
    return tuple(earlier.index(e) if e < last else "new" for e in trio)


def test_four_element_carriers_reach_every_site_pattern():
    """Together the N4_CARRIERS reach every pattern a site can have, those
    with two earlier elements included."""
    every = {_site_pattern(t) for t in itertools.product(range(3), repeat=3)}
    seen = set()
    for make in N4_CARRIERS.values():
        S = make()
        for x, y in itertools.product(range(S.n), repeat=2):
            seen.add(_site_pattern((x, y, S.table[x, S.sigma[y]])))
    assert len(every) == 10
    assert seen == every


@pytest.mark.parametrize("make", N4_CARRIERS.values(), ids=N4_CARRIERS)
def test_four_element_joins_match_reference_scan(make):
    S = make()
    for eq in BUILTIN_EQUATIONS:
        alpha = 1.5 + 0.5j if eq in ("alpha-sym", "alpha-skew") else None
        for alphabet, tol in N4_GRIDS:
            sols = grid_solutions(eq, S, alphabet, alpha=alpha, tol=tol)
            want = reference_grid_pairs(eq, S, alphabet, alpha=alpha,
                                        tol=tol)
            assert _pair_indices(S, alphabet, sols) == want, (eq, tol)


def test_verdict_tables_are_keyed_by_every_scan_input():
    """Scans back to back that differ only in tol, only in alpha or only
    in the alphabet's order each match the reference scan, so a verdict
    table kept from one scan never answers for another."""
    S = n3()
    runs = [("sine-add", THIRDS_ALPHABET, None, tol)
            for tol in (1e-9, 0.3, 1e-9)]
    runs += [("alpha-skew", THIRDS_ALPHABET, alpha, 0.3)
             for alpha in (1.5 + 0.5j, 1j, 1.5 + 0.5j)]
    runs += [("cos-sub", alphabet, None, 0.3)
             for alphabet in (THIRDS_ALPHABET, THIRDS_ALPHABET[::-1])]
    answers = []
    for eq, alphabet, alpha, tol in runs:
        sols = grid_solutions(eq, S, alphabet, alpha=alpha, tol=tol)
        want = reference_grid_pairs(eq, S, alphabet, alpha=alpha, tol=tol)
        assert _pair_indices(S, alphabet, sols) == want
        answers.append(want)
    # Each varied input changes the answer, so a stale table would show.
    assert answers[0] != answers[1] and answers[3] != answers[4]
    assert answers[6] != answers[7]


def test_verdict_cache_keeps_at_most_its_bound():
    """72 tables (eight tolerances, nine site patterns on Z2xZ2) pass
    through a cache of 64; the newest stay, and each table is the size
    the bound's byte count states."""
    S = z2xz2()
    assert oracle.TABLE_CACHE_SIZE == 64
    for k in range(8):
        tol = (k + 1) * 1e-10
        sols = grid_solutions("alpha-sym", S, (0, 1, -1), alpha=2, tol=tol)
        assert _pair_indices(S, (0, 1, -1), sols) == reference_grid_pairs(
            "alpha-sym", S, (0, 1, -1), alpha=2, tol=tol)
    assert len(oracle._TABLES) == oracle.TABLE_CACHE_SIZE
    assert sum(table.tol == tol for table in oracle._TABLES.values()) == 9
    for table in oracle._TABLES.values():
        m, k = len(table.vals), max(table.slots)
        assert table.known.nbytes + table.bits.nbytes == \
            m ** (2 * k) * (1 + math.ceil(m * m / 8))


def test_grid_solutions_solve_and_match_reference():
    S = z2()
    for eq in BUILTIN_EQUATIONS:
        alpha = 1.0 if eq in ("alpha-sym", "alpha-skew") else None
        base = grid_solutions(eq, S, DEFAULT_ALPHABET, alpha=alpha)
        assert base, eq
        for f, g in base:
            assert equation_residual(eq, f, g, S, alpha=alpha) <= TOL
        want = reference_grid_pairs(eq, S, DEFAULT_ALPHABET, alpha=alpha)
        assert _pair_indices(S, DEFAULT_ALPHABET, base) == want


def test_coverage_report_is_deterministic():
    S = z2()
    r1 = coverage_report(S)
    r2 = coverage_report(S)
    assert stable_json(r1) == stable_json(r2)
    block = r1["equations"]["cos-sub"]
    assert block["pairs_scanned"] == 9 ** 2 * 9 ** 2
    assert block["unclassified"] == []
    assert sum(block["cases"].values()) == block["solutions"]


@pytest.mark.parametrize("make,counts", [
    (z2xz2, {"cos-sub": 11, "sine-add": 6585, "cos-sine-g": 7,
             "alpha-sym": 11, "alpha-skew": 6633}),
    (np4, {"cos-sub": 17, "sine-add": 6593, "cos-sine-g": 15,
           "alpha-sym": 19, "alpha-skew": 6633}),
], ids=["Z2xZ2", "NP4"])
def test_solution_counts_on_four_element_carriers(make, counts):
    S = make()
    for eq, count in counts.items():
        sols = grid_solutions(eq, S, DEFAULT_ALPHABET)
        assert len(sols) == count, eq
        keys = _pair_indices(S, DEFAULT_ALPHABET, sols)
        assert keys == sorted(set(keys)), eq


def test_constructed_alphabet_solutions_appear_in_grid(chars):
    """Any constructed table whose values stay inside the alphabet must be
    rediscovered by the scan."""
    S = z2xz2()
    grid = {eq: None for eq in ("cos-sub",)}
    found = grid_solutions("cos-sub", S, DEFAULT_ALPHABET)
    keys = {tuple(np.round(np.concatenate([f.values, g.values]), 9).tolist())
            for f, g in found}
    menu_cases = [CaseId("cos-sub", 1), CaseId("cos-sub", 3),
                  CaseId("cos-sub", 4), CaseId("cos-sub", 6)]
    rng = random.Random(2)
    hits = 0
    for case in menu_cases:
        m = admissible_params(case, S, chars["Z2xZ2"])
        if not m.available:
            continue
        for _ in range(6):
            p = m.sample(rng)
            f, g = construct(case, p, S)
            values = np.concatenate([f.values, g.values])
            on_alphabet = all(
                any(abs(v - a) <= TOL for a in DEFAULT_ALPHABET)
                for v in values)
            if not on_alphabet:
                continue
            hits += 1
            key = tuple(np.round(values, 9).tolist())
            assert key in keys, str(case)
    assert hits >= 3


def test_fuzz_constructors_deterministic_and_tight():
    r1 = fuzz_constructors("cos-sub", n=40, seed=7)
    r2 = fuzz_constructors("cos-sub", n=40, seed=7)
    assert stable_json(r1) == stable_json(r2)
    assert r1["max_residual"] <= TOL
    assert r1["equation"] == "cos-sub" and r1["seed"] == 7
    assert "cos-sub/6" in r1["cases"]
    assert r1["cases"]["cos-sub/6"]["draws"] == 40
    # The piecewise branches have no finite bundled carrier.
    assert "cos-sub/5+" in r1["unavailable"]
    assert "cos-sub/5-" in r1["unavailable"]


def test_fuzz_reports_every_available_case():
    for eq in BUILTIN_EQUATIONS:
        r = fuzz_constructors(eq, n=15, seed=3)
        listed = set(r["cases"]) | set(r["unavailable"])
        assert listed == {str(c) for c in all_case_ids(eq)}
        assert r["max_residual"] <= TOL
