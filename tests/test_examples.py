"""The bundled carriers: finite tables and the two windowed examples."""

import math
import random

import numpy as np

from addlaws.characters import additive_residual, parity_residual
from addlaws.core import WindowedSemigroup
from addlaws.examples import (bundled_finite, example_semigroups, m3, np4)

from helpers import TOL


def test_bundled_finite_names_and_sizes(bundle):
    assert [S.name for S in bundle] == ["Z1", "Z2", "Z3", "Z2xZ2", "N3"]
    assert [S.n for S in bundle] == [1, 2, 3, 4, 3]


def test_named_registry_includes_windowed():
    reg = example_semigroups()
    assert {"Z1", "Z2", "Z3", "Z2xZ2", "N3", "Example1", "Example2"} <= \
        set(reg)
    assert isinstance(reg["Example1"], WindowedSemigroup)
    assert isinstance(reg["Example2"], WindowedSemigroup)


def test_extra_fixtures_are_valid():
    # Not part of the bundle, but used as parameter-space probes: a monoid
    # with a nilpotent and a carrier whose prime part meets a swapping
    # automorphism.
    S = m3()
    assert S.mul(1, 1) == 2 and S.mul(0, 1) == 1
    T = np4()
    assert T.sig(1) == 2 and T.mul(1, 2) == 3


def test_prime_swap_window_structure(ex1):
    assert ex1.window[0] == 2 and ex1.window[-1] == 200
    assert ex1.sigma(12) == 18          # 2^2*3 <-> 3^2*2
    assert ex1.sigma(35) == 35          # coprime to 6: fixed
    for x in list(ex1.window)[::11]:
        assert ex1.sigma(ex1.sigma(x)) == x
        for y in list(ex1.window)[::23]:
            assert ex1.sigma(x * y) == ex1.sigma(x) * ex1.sigma(y)


def test_prime_swap_character_and_primes(ex1):
    chi = ex1.extras["chi"]
    assert chi.formula(35) == 1 and chi.formula(10) == 0
    primes = ex1.extras["primes"]
    assert primes[0] == 5 and 2 not in primes and 3 not in primes
    assert all(p in ex1.window for p in primes)


def test_prime_swap_additive_and_rho(ex1):
    A = ex1.extras["additive_family"]({5: 2.0, 11: -1.0})
    assert A(55) == 1.0                  # one factor 5, one factor 11
    rng = random.Random(5)
    dom = [x for x in ex1.window if A.in_domain(x)]
    pairs = [(rng.choice(dom), rng.choice(dom)) for _ in range(1500)]
    assert additive_residual(A, ex1, pairs) <= TOL
    rho = ex1.extras["rho_family"](0.5, "odd")
    assert rho(2) == 0.5 and rho(3) == -0.5
    assert parity_residual(rho, ex1) <= TOL


def test_quadrant_grid_window_structure(ex2):
    assert len(ex2.window) == 31 * 31
    x = ex2.window[5]
    y = ex2.window[10]
    prod = ex2.product(x, y)
    assert prod == (x[0] * y[0], x[1] * y[1])
    assert ex2.sigma((0.25, -0.5)) == (-0.5, 0.25)


def test_quadrant_grid_characters(ex2):
    chars = ex2.extras["chars"]
    assert set(chars) == {"chi0", "chi_abs", "chi_sgn"}
    pairs = ex2.extras["sample_pairs"](500, 1)
    assert len(pairs) >= 500
    for name, chi in chars.items():
        worst = max(abs(chi.formula(ex2.product(x, y)) -
                        chi.formula(x) * chi.formula(y))
                    for x, y in pairs)
        assert worst <= TOL, name
        for x, _ in pairs[:100]:
            assert abs(chi.formula(ex2.sigma(x)) - chi.formula(x)) <= TOL


def test_quadrant_grid_additive_basis(ex2):
    chars = ex2.extras["chars"]
    build = ex2.extras["additive_basis"]
    assert build(chars["chi0"], "even") == []
    even = build(chars["chi_abs"], "even")
    odd = build(chars["chi_abs"], "odd")
    assert len(even) == 1 and len(odd) == 1
    x = (0.5, 0.25)
    assert abs(even[0](x) - (math.log(0.5) + math.log(0.25))) <= TOL
    assert abs(odd[0](x) - (math.log(0.5) - math.log(0.25))) <= TOL
    pairs = ex2.extras["sample_pairs"](1200, 2)
    for A in (even[0], odd[0]):
        assert additive_residual(A, ex2, pairs) <= TOL


def test_quadrant_grid_sample_pairs_are_reproducible(ex2):
    assert ex2.extras["sample_pairs"](64, 9) == ex2.extras["sample_pairs"](64, 9)
    for (x, y) in ex2.extras["sample_pairs"](64, 9):
        for t in (*x, *y):
            assert 1e-3 <= abs(t) < 1.0
