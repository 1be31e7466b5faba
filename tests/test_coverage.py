"""Batched coverage reports against the plain per-pair classification loop."""

import importlib

import numpy as np
import pytest

from addlaws import families, oracle
from addlaws.classify import NotASolutionError
from addlaws.core import FiniteSemigroup, stable_json
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.examples import m3, n3, np4, z1, z2, z3, z2xz2
from addlaws.oracle import (DEFAULT_ALPHABET, coverage_report, grid_solutions,
                            value_tuples)

from helpers import reference_coverage_report, reference_grid_pairs
from test_oracle import THIRDS_ALPHABET

# import_module, because the package re-exports a function named classify
# that shadows the submodule attribute of the same name.
classify_mod = importlib.import_module("addlaws.classify")

#: The bundled carriers with n <= 3.
CARRIERS_N3 = {"Z1": z1, "Z2": z2, "Z3": z3, "N3": n3, "M3": m3}
ALPHA_EQS = ("alpha-sym", "alpha-skew")


def z5() -> FiniteSemigroup:
    """The cyclic group of order 5 with inversion."""
    n = 5
    return FiniteSemigroup("Z5", [f"e{k}" for k in range(n)],
                           [[(i + j) % n for j in range(n)] for i in range(n)],
                           [(-i) % n for i in range(n)])


def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("alpha", [1, 1j, 1.5 + 0.5j], ids=["1", "i", "mix"])
@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.3])
@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, THIRDS_ALPHABET],
                         ids=["default", "thirds"])
@pytest.mark.parametrize("name", CARRIERS_N3)
def test_coverage_report_matches_the_per_pair_loop(name, alphabet, tol,
                                                   alpha):
    S = CARRIERS_N3[name]()
    # Only the alpha equations depend on alpha; the other three are
    # compared once, at alpha = 1.
    equations = None if alpha == 1 else ALPHA_EQS
    got = coverage_report(S, alphabet, alpha=alpha, equations=equations,
                          tol=tol)
    want = reference_coverage_report(S, alphabet, alpha=alpha,
                                     equations=equations, tol=tol)
    assert stable_json(got) == stable_json(want)


#: Values between EPS and a loose tolerance: a table can be zero within tol
#: and still fail construct's EPS checks, or a pair can pass a mask's zero
#: test within tol and still miss the equation by more than tol.
SMALL_ALPHABET = (0, 0.25, -0.25, 2, -2)


@pytest.mark.parametrize("alpha", [1, 1.5 + 0.5j], ids=["1", "mix"])
@pytest.mark.parametrize("name", CARRIERS_N3)
def test_masks_keep_construct_checks_under_a_loose_tolerance(name, alpha):
    S = CARRIERS_N3[name]()
    got = coverage_report(S, SMALL_ALPHABET, alpha=alpha, tol=0.3)
    want = reference_coverage_report(S, SMALL_ALPHABET, alpha=alpha, tol=0.3)
    assert stable_json(got) == stable_json(want)


@pytest.mark.parametrize("make", [z2xz2, np4], ids=["Z2xZ2", "NP4"])
def test_four_element_reports_match_the_per_pair_loop(make):
    S = make()
    assert stable_json(coverage_report(S)) == \
        stable_json(reference_coverage_report(S))


@pytest.mark.parametrize("alpha,pair_rows", [(1j, 76), (2, 76),
                                             (1.5 + 0.5j, 0)],
                         ids=["i", "2", "mix"])
def test_z2xz2_alpha_reports_match_the_per_pair_loop(alpha, pair_rows):
    """Z2xZ2 has non-even characters, so its alpha-skew grid holds
    alpha-skew/5 rows (at alpha = 1.5 + 0.5j only the zero pair solves)."""
    S = z2xz2()
    got = coverage_report(S, alpha=alpha, equations=ALPHA_EQS)
    want = reference_coverage_report(S, alpha=alpha, equations=ALPHA_EQS)
    cases = got["equations"]["alpha-skew"]["cases"]
    assert cases.get("alpha-skew/5", 0) == pair_rows
    assert stable_json(got) == stable_json(want)


def test_grid_solutions_is_a_lazy_read_only_sequence():
    S = n3()
    sols = grid_solutions("sine-add", S, THIRDS_ALPHABET)
    want = reference_grid_pairs("sine-add", S, THIRDS_ALPHABET)
    rows = value_tuples(THIRDS_ALPHABET, S.n)
    assert sols and len(sols) == len(want)
    items = list(sols)
    assert len(items) == len(want)
    for (f, g), (i, j) in zip(items, want):
        assert f.domain is S and g.domain is S
        assert np.array_equal(f.values, rows[i])
        assert np.array_equal(g.values, rows[j])
        assert not f.values.flags.writeable
    assert np.array_equal(sols[-1][1].values, rows[want[-1][1]])
    part = sols[3:40:5]
    assert len(part) == len(range(3, 40, 5))
    assert np.array_equal(part[1][0].values, rows[want[8][0]])
    assert not sols[:0] and len(sols[:0]) == 0
    assert not sols.f.flags.writeable and not sols.g.flags.writeable
    with pytest.raises(IndexError):
        sols[len(sols)]


def test_coverage_report_classifies_only_the_rows_the_masks_leave(
        monkeypatch):
    """Per-pair classify and FnTables only for rows no mask settles.

    A Z2xZ2 report has 13,247 solutions, and the per-pair loop made a
    classify call and two FnTables for each.  The leading-step masks left
    122 (Z2xZ2) and 413 (N3) rows; the ratio stage takes the 72
    alpha-skew/5 rows of Z2xZ2 and the 48 cos-sub/2 and 352 alpha-skew/4
    rows of N3.
    """
    classified = _count_calls(monkeypatch, oracle, "classify")
    searched = _count_calls(monkeypatch, oracle, "grid_solutions")
    read = _count_calls(monkeypatch, oracle.GridSolutions, "__getitem__")
    for make, left in ((z2xz2, 50), (n3, 13)):
        for counter in (classified, searched, read):
            counter.clear()
        report = coverage_report(make())
        assert len(classified) == left
        assert len(read) == left
        assert len(searched) == len(BUILTIN_EQUATIONS)
        for block in report["equations"].values():
            assert sum(block["cases"].values()) == block["solutions"]


def test_grid_solutions_never_touch_the_classifier(monkeypatch):
    carriers = (z2xz2(), n3())
    before = [grid_solutions(eq, S) for S in carriers
              for eq in BUILTIN_EQUATIONS]

    def no_classifier(*args, **kwargs):
        raise AssertionError("the grid oracle reached the classifier")
    for module, name in ((classify_mod, "classify"),
                         (classify_mod, "classify_rows"),
                         (classify_mod, "_Session"),
                         (families, "construct"), (families, "construct_rows"),
                         (oracle, "classify"), (oracle, "classify_rows"),
                         (oracle, "construct")):
        monkeypatch.setattr(module, name, no_classifier)
    after = [grid_solutions(eq, S) for S in carriers
             for eq in BUILTIN_EQUATIONS]
    for old, new in zip(before, after):
        assert np.array_equal(old.f, new.f) and np.array_equal(old.g, new.g)
    with pytest.raises(AssertionError, match="reached the classifier"):
        coverage_report(n3())


@pytest.mark.parametrize("eq,alpha,alphabet,tol", [
    ("alpha-skew", 1.5 + 0.5j, (0, 1, -1, 0.5, -0.5), 1e-9),
    ("cos-sub", 1, (0, 1, -1, 0.5, -0.5), 1e-9),
    # f = (0, 0.25) is zero within 0.3, so sine-add/1's mask would take
    # (f, g = (0, 2)), which misses the equation by 0.5.
    ("sine-add", 1, SMALL_ALPHABET, 0.3),
])
def test_a_non_solution_raises_for_the_first_failing_row(monkeypatch, eq,
                                                         alpha, alphabet,
                                                         tol):
    # With every site accepted, the join hands back every candidate pair.
    monkeypatch.setattr(oracle, "_site_residual",
                        lambda *args: np.zeros(()))
    S = z2()
    with pytest.raises(NotASolutionError) as want:
        reference_coverage_report(S, alphabet, alpha=alpha, equations=[eq],
                                  tol=tol)
    with pytest.raises(NotASolutionError) as got:
        coverage_report(S, alphabet, alpha=alpha, equations=[eq], tol=tol)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("block", [7, 2000])
@pytest.mark.parametrize("make", [z2, n3, m3], ids=["Z2", "N3", "M3"])
def test_reports_do_not_depend_on_the_chunk_bound(monkeypatch, make, block):
    """BLOCK = 7 makes every chunk of the join and of the batch one row;
    2000 gives batch chunks of 3 (n = 3) or 7 (Z2) rows, so chunk
    boundaries fall inside every mask's runs."""
    S = make()
    want = [stable_json(coverage_report(S, tol=tol, alpha=1.5 + 0.5j))
            for tol in (1e-9, 0.3)]
    monkeypatch.setattr(oracle, "BLOCK", block)
    got = [stable_json(coverage_report(S, tol=tol, alpha=1.5 + 0.5j))
           for tol in (1e-9, 0.3)]
    assert got == want


def test_z5_report_classifies_every_solution():
    """A five-element carrier: the grid holds 9^10 pairs per equation, over
    the default budget, and nearly every solution is f = 0 or f = alpha g."""
    report = coverage_report(z5(), budget=10 ** 10)
    solutions = {eq: block["solutions"]
                 for eq, block in report["equations"].items()}
    assert solutions == {"cos-sub": 4, "sine-add": 59057, "cos-sine-g": 2,
                         "alpha-sym": 2, "alpha-skew": 59049}
    for block in report["equations"].values():
        assert block["unclassified"] == []
        assert sum(block["cases"].values()) == block["solutions"]
    assert report["equations"]["sine-add"]["cases"]["sine-add/1"] == 9 ** 5
    assert report["equations"]["alpha-skew"]["cases"]["alpha-skew/1"] == 9 ** 5
