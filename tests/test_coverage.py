"""Batched coverage reports against the plain per-pair classification loop."""

import importlib
import itertools
import random

import numpy as np
import pytest

from addlaws import families, oracle
from addlaws.characters import enumerate_characters
from addlaws.classify import NotASolutionError
from addlaws.core import FiniteSemigroup, stable_json
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.examples import m3, n3, np4, z1, z2, z3, z2xz2
from addlaws.oracle import (DEFAULT_ALPHABET, coverage_report, grid_solutions,
                            value_tuples)

from helpers import (_relabel, reference_coverage_report,
                     reference_grid_pairs, spread)
from test_census import census_carriers
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
    """Per-pair classify and FnTables only for rows labelled 0.

    A Z2xZ2 report has 13,247 solutions, and the per-pair loop made a
    classify call and two FnTables for each.  The leading-step masks left
    122 (Z2xZ2) and 413 (N3) rows; the ratio stage took the 72
    alpha-skew/5 rows of Z2xZ2 and the 48 cos-sub/2 and 352 alpha-skew/4
    rows of N3, which left 50 and 13 (and 80 on M3).  The character and
    piecewise stages label those, and on these carriers every solution
    has a case, so no row is labelled 0.
    """
    classified = _count_calls(monkeypatch, oracle, "classify")
    searched = _count_calls(monkeypatch, oracle, "grid_solutions")
    read = _count_calls(monkeypatch, oracle.GridSolutions, "__getitem__")
    for make, left in ((z2xz2, 0), (n3, 0), (m3, 0)):
        for counter in (classified, searched, read):
            counter.clear()
        report = coverage_report(make())
        assert len(classified) == left
        assert len(read) == left
        assert len(searched) == len(BUILTIN_EQUATIONS)
        for block in report["equations"].values():
            assert sum(block["cases"].values()) == block["solutions"]


#: Most rows per case label (and per label 0) that
#: test_settled_rows_are_classify_outcomes sends through classify.
ROWS_PER_LABEL = 4


def test_settled_rows_are_classify_outcomes():
    """Every row's classify_rows label is the case classify answers, branch
    included, and label 0 is a row where classify returns Unclassified or
    raises: a spread of the rows of each label on the bundled carriers and
    the census with n <= 3 at the default tolerance, and on the bundled
    carriers with SMALL_ALPHABET at 0.3.  (Per-case tallies would not see
    two labels swapped.)"""
    bundled = [make() for make in (z1, z2, z3, n3, m3, z2xz2, np4)]
    runs = [(S, DEFAULT_ALPHABET, 1e-9) for S in (*bundled,
                                                 *census_carriers())]
    runs += [(S, SMALL_ALPHABET, 0.3) for S in bundled]
    seen, unlabelled = set(), 0
    for S, alphabet, tol in runs:
        chars = enumerate_characters(S)
        for eq in BUILTIN_EQUATIONS:
            alpha = 1.0 if eq in ALPHA_EQS else None
            sols = grid_solutions(eq, S, alphabet, alpha=alpha, tol=tol)
            labels = classify_mod.classify_rows(eq, sols.f, sols.g, S,
                                                alpha=alpha, tol=tol)
            ids = families.all_case_ids(eq)
            for label in np.unique(labels).tolist():
                for i in spread(np.flatnonzero(labels == label),
                                 ROWS_PER_LABEL):
                    f, g = sols[i]
                    try:
                        hit = classify_mod.classify(eq, f, g, S, alpha=alpha,
                                                    chars=chars, tol=tol)
                    except ValueError:
                        hit = None
                    if label == 0:
                        assert hit is None or isinstance(
                            hit, classify_mod.Unclassified), \
                            (S.name, eq, tol, i)
                        unlabelled += 1
                        continue
                    assert getattr(hit, "case", None) == ids[label - 1], \
                        (S.name, eq, tol, i)
                    seen.add(str(ids[label - 1]))
    assert unlabelled
    # Every case that a grid solution here reaches has been compared.
    assert seen >= {"cos-sub/3", "cos-sub/4", "cos-sub/5+", "cos-sub/5-",
                    "cos-sub/6", "sine-add/3", "sine-add/4", "sine-add/5",
                    "cos-sine-g/4", "cos-sine-g/5", "cos-sine-g/6",
                    "cos-sine-g/7", "cos-sine-g/8chi", "alpha-sym/8chi",
                    "alpha-skew/5", "alpha-skew/6"}


def test_both_drivers_attempt_one_stage_order(monkeypatch):
    """Row by row, classify_rows attempts the cases that classify's walk
    attempts for that pair, in the same order, up to the first hit (cases
    of cos-sine-g's walk for alpha-sym): the grid solutions of Z2xZ2, N3,
    M3 and NP4 for every equation, at tol 1e-9 and at 0.3, where misses
    happen.  At 0.3 the default alphabet's rows miss only alpha-skew/4
    before /5, so SMALL_ALPHABET (alpha-skew/3 before /2) and
    THIRDS_ALPHABET (cos-sine-g/4 before /7 and /6) run there too.
    classify runs on a spread of the rows of each sequence the batch
    attempts."""
    walked, settled = [], []
    candidates = classify_mod._Session.candidates
    settle = classify_mod._Batch.settle

    def walk(self):
        for case, params in candidates(self):
            walked.append(case)
            yield case, params

    def batch(self, case, rows, params):
        for r in rows.tolist():
            settled[r].append(case)
        settle(self, case, rows, params)
    monkeypatch.setattr(classify_mod._Session, "candidates", walk)
    monkeypatch.setattr(classify_mod._Batch, "settle", batch)
    runs = [(DEFAULT_ALPHABET, 1e-9), (DEFAULT_ALPHABET, 0.3),
            (SMALL_ALPHABET, 0.3), (THIRDS_ALPHABET, 0.3)]
    missed = set()
    for S in (z2xz2(), n3(), m3(), np4()):
        chars = enumerate_characters(S)
        for (alphabet, tol), eq in itertools.product(runs, BUILTIN_EQUATIONS):
            alpha = 1.0 if eq in ALPHA_EQS else None
            sols = grid_solutions(eq, S, alphabet, alpha=alpha, tol=tol)
            settled[:] = [[] for _ in range(len(sols.f))]
            classify_mod.classify_rows(eq, sols.f, sols.g, S, alpha=alpha,
                                       tol=tol)
            orders = {}
            for i, order in enumerate(settled):
                orders.setdefault(tuple(order), []).append(i)
            for order, rows in orders.items():
                for i in spread(rows, 3):
                    walked.clear()
                    f, g = sols[i]
                    try:
                        classify_mod.classify(eq, f, g, S, alpha=alpha,
                                              chars=chars, tol=tol)
                    except ValueError:          # beta within tol of 0
                        pass
                    assert tuple(walked) == order, (S.name, eq, tol, i)
                if len(order) > 1:
                    missed.add(tuple(map(str, order)))
    assert missed >= {("alpha-skew/4", "alpha-skew/5"),
                      ("alpha-skew/3", "alpha-skew/2"),
                      ("cos-sine-g/4", "cos-sine-g/7"),
                      ("cos-sine-g/4", "cos-sine-g/6")}


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
    monkeypatch.setattr(oracle, "_TABLES", {})
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


def _tallies(S) -> dict:
    return {eq: (block["solutions"], block["cases"],
                 len(block["unclassified"]))
            for eq, block in coverage_report(S)["equations"].items()}


@pytest.mark.parametrize("make", [z1, z2, z3, n3, m3, z2xz2, np4],
                         ids=lambda make: make().name)
def test_relabelled_carriers_give_the_same_report(make):
    """Renaming the elements gives an isomorphic carrier, so the same
    solution counts and case tallies; the join meets its sites in another
    order, with other site patterns."""
    S = make()
    want = _tallies(S)
    rng = random.Random(0)
    for _ in range(3):
        p = rng.sample(range(S.n), S.n)
        table, sigma = _relabel(S.table.tolist(), S.sigma.tolist(), p)
        names = [None] * S.n
        for x, name in enumerate(S.elements):
            names[p[x]] = name
        T = FiniteSemigroup(S.name, names, table, sigma)
        assert _tallies(T) == want, p
