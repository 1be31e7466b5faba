"""The census gate: every semigroup of order n <= 3 with an involutive
automorphism, up to isomorphism, has every grid solution classified and
every sampled case classified back to itself."""

import random

from addlaws.characters import enumerate_characters
from addlaws.classify import ClassifiedSolution, alias_equivalent, classify
from addlaws.core import FiniteSemigroup
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.families import (ALPHA_EQUATIONS, admissible_params,
                              all_case_ids, construct)
from addlaws.oracle import coverage_report

from helpers import TOL, census, semigroup_tables

ORDERS = (1, 2, 3)


def census_carriers():
    for n in ORDERS:
        for k, (table, sigma) in enumerate(census(n)):
            yield FiniteSemigroup(f"C{n}.{k}", [str(x) for x in range(n)],
                                  table, sigma)


def test_census_counts():
    # Labelled semigroups (OEIS A023814), then pairs (S, sigma) up to
    # isomorphism.
    # Order 4 is pinned here only; its coverage run is not in this suite.
    orders = (*ORDERS, 4)
    assert [sum(1 for _ in semigroup_tables(n)) for n in orders] == \
        [1, 8, 113, 3492]
    assert [len(census(n)) for n in orders] == [1, 7, 33, 276]


def test_census_leaves_nothing_unclassified():
    solutions, unclassified = 0, {}
    for S in census_carriers():
        for eq, block in coverage_report(S)["equations"].items():
            solutions += block["solutions"]
            if block["unclassified"]:
                unclassified[S.name, eq] = len(block["unclassified"])
    assert unclassified == {}
    assert solutions == 53_463


def test_census_round_trip():
    """sample -> construct -> classify lands on the sampled case, up to
    the documented aliases, for seeds 0-2 on every available menu."""
    menus, trips, misses = 0, 0, []
    for S in census_carriers():
        chars = enumerate_characters(S)
        for eq in BUILTIN_EQUATIONS:
            for case in all_case_ids(eq):
                menu = admissible_params(case, S, chars)
                if not menu.available:
                    continue
                menus += 1
                for seed in range(3):
                    p = menu.sample(random.Random(seed))
                    if p is None:
                        misses.append((S.name, str(case), seed, "no draw"))
                        continue
                    f, g = construct(case, p, S)
                    alpha = p.alpha if eq in ALPHA_EQUATIONS else None
                    hit = classify(eq, f, g, S, alpha=alpha, chars=chars)
                    trips += 1
                    if not (isinstance(hit, ClassifiedSolution)
                            and alias_equivalent(case, hit.case)
                            and hit.residual <= TOL):
                        misses.append((S.name, str(case), seed,
                                       str(getattr(hit, "case", hit))))
    assert misses == []
    assert (menus, trips) == (574, 1722)
