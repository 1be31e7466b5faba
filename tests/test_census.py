"""The census gate: every semigroup of order n <= 3 with an involutive
automorphism, up to isomorphism, has every grid solution classified."""

from addlaws.core import FiniteSemigroup
from addlaws.oracle import coverage_report

from helpers import census, semigroup_tables

ORDERS = (1, 2, 3)


def census_carriers():
    for n in ORDERS:
        for k, (table, sigma) in enumerate(census(n)):
            yield FiniteSemigroup(f"C{n}.{k}", [str(x) for x in range(n)],
                                  table, sigma)


def test_census_counts():
    # Labelled semigroups (OEIS A023814), then pairs (S, sigma) up to
    # isomorphism.
    assert [sum(1 for _ in semigroup_tables(n)) for n in ORDERS] == [1, 8, 113]
    assert [len(census(n)) for n in ORDERS] == [1, 7, 33]


def test_census_leaves_nothing_unclassified():
    solutions, unclassified = 0, {}
    for S in census_carriers():
        for eq, block in coverage_report(S)["equations"].items():
            solutions += block["solutions"]
            if block["unclassified"]:
                unclassified[S.name, eq] = len(block["unclassified"])
    assert unclassified == {}
    assert solutions == 53_463
