"""The carrier zoo: carriers built by rule past the census and the bundle
(non-commutative ones, a Rees matrix semigroup with a zero, sizes up to
12) and direct products with a prime part have every sampled case
constructed, checked and classified back to itself."""

import random

from addlaws.characters import enumerate_characters
from addlaws.classify import ClassifiedSolution, alias_equivalent, classify
from addlaws.dsl import BUILTIN_EQUATIONS
from addlaws.examples import m3, n3, np4, z2, z3
from addlaws.families import (ALPHA_EQUATIONS, admissible_params,
                              all_case_ids, construct)

from helpers import TOL, carrier_zoo, equation_residual, product


def test_zoo_carriers_are_what_their_rules_say():
    assert [(S.name, S.n) for S in carrier_zoo()] == [
        ("S3conj", 6), ("Z3xZ4", 12), ("Rees2x2Z2", 9), ("T2conj", 4),
        ("FSL3", 7)]
    commutative = [bool((S.table == S.table.T).all()) for S in carrier_zoo()]
    assert commutative == [False, True, False, False, True]


def _round_trip(carriers):
    """(menus, trips, misses) of sample -> construct -> residual <= 1e-9
    -> classify, which must land on the sampled case up to the documented
    aliases, for seeds 0-4 on every available menu of every carrier."""
    menus, trips, misses = 0, 0, []
    for S in carriers:
        chars = enumerate_characters(S)
        for eq in BUILTIN_EQUATIONS:
            for case in all_case_ids(eq):
                menu = admissible_params(case, S, chars)
                if not menu.available:
                    continue
                menus += 1
                for seed in range(5):
                    p = menu.sample(random.Random(seed))
                    if p is None:
                        misses.append((S.name, str(case), seed, "no draw"))
                        continue
                    f, g = construct(case, p, S)
                    alpha = p.alpha if eq in ALPHA_EQUATIONS else None
                    trips += 1
                    if equation_residual(eq, f, g, S, alpha) > TOL:
                        misses.append((S.name, str(case), seed, "residual"))
                        continue
                    hit = classify(eq, f, g, S, alpha=alpha, chars=chars)
                    if not (isinstance(hit, ClassifiedSolution)
                            and alias_equivalent(case, hit.case)
                            and hit.residual <= TOL):
                        misses.append((S.name, str(case), seed,
                                       str(getattr(hit, "case", hit))))
    return menus, trips, misses


def test_zoo_round_trip():
    """Every zoo carrier built by rule makes the round trip."""
    menus, trips, misses = _round_trip(carrier_zoo())
    assert misses == []
    assert (menus, trips) == (73, 365)


def test_products_with_a_prime_part_round_trip():
    """Direct products of M3 or NP4 with a small carrier, under sigma x
    sigma, each have a character with a non-empty prime part, and make
    the round trip."""
    carriers = [product(A(), B()) for A, B in [
        (m3, z2), (np4, z2), (m3, z3), (np4, m3), (m3, m3), (np4, n3)]]
    assert all(any(chi.prime_part for chi in enumerate_characters(S))
               for S in carriers)
    menus, trips, misses = _round_trip(carriers)
    assert misses == []
    assert (menus, trips) == (138, 690)
