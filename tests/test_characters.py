"""Multiplicative-function enumeration, ideal partitions, additive and
rho parameter spaces."""

import numpy as np
import pytest

from addlaws.characters import (AdditiveFn, MultChar, RhoFn, additive_basis,
                                additive_residual, check_condition_I,
                                check_condition_II, element_periods,
                                enumerate_characters, ideal_sets,
                                parity_residual, real_kernel_basis, rho_space)
from addlaws.examples import m3, n3, np4, z2, z3

from helpers import TOL, brute_force_characters, match_tables


def test_enumeration_matches_brute_force(carriers, chars):
    for name, S in carriers.items():
        expected = brute_force_characters(S)
        got = [c.values for c in chars[name]]
        assert match_tables(expected, got), name


def test_enumeration_counts(chars):
    assert len(chars["Z1"]) == 1
    assert len(chars["Z2"]) == 2
    assert len(chars["Z3"]) == 3
    assert len(chars["Z2xZ2"]) == 4
    assert len(chars["M3"]) == 2
    assert len(chars["NP4"]) == 2
    # The all-zero-products carrier admits only the constant 1: any zero
    # value propagates everywhere, and chi(x*0) = chi(0) forces chi(x) = 1.
    assert len(chars["N3"]) == 1
    assert np.allclose(chars["N3"][0].values, 1.0)


def test_enumeration_is_sorted_and_multiplicative(carriers, chars):
    for name, S in carriers.items():
        keys = [c.key() for c in chars[name]]
        assert keys == sorted(keys)
        for c in chars[name]:
            assert c.multiplicativity_residual() <= TOL
            assert np.max(np.abs(c.values)) > TOL


def test_evenness_flags(chars):
    assert [c.even for c in chars["Z2"]] == [True, True]
    assert [c.even for c in chars["Z3"]] == [False, False, True]
    assert [c.even for c in chars["Z2xZ2"]] == [True, False, False, True]


def test_sigma_fixes_ideal_partition_of_even_characters(carriers, chars):
    # For chi with chi* = chi the automorphism permutes each block of the
    # partition S = (S \ I) | (I \ P) | P, and fixes I, I^2, I \ I^2 too.
    for name, S in carriers.items():
        for chi in chars[name]:
            if not chi.even:
                continue
            I, I2, P = ideal_sets(chi)
            sig = {int(S.sigma[x]) for x in range(S.n)}  # sanity: bijection
            assert sig == set(range(S.n))
            for block in (I, I2, set(range(S.n)) - I, I - I2, P, I - P):
                assert {int(S.sigma[x]) for x in block} == set(block)


def test_ideal_sets_m3():
    S = m3()
    chi = enumerate_characters(S)[0]          # (1, 0, 0) on ('1', 'p', '0')
    I, I2, P = ideal_sets(chi)
    assert I == frozenset({1, 2})
    assert I2 == frozenset({2})
    assert P == frozenset({1})


def test_ideal_sets_np4():
    S = np4()
    chi = enumerate_characters(S)[0]          # (1, 0, 0, 0) on (e, p, q, z)
    I, I2, P = ideal_sets(chi)
    assert I == frozenset({1, 2, 3})
    assert I2 == frozenset({3})
    assert P == frozenset({1, 2})


def test_additive_space_is_trivial_on_finite_carriers(carriers, chars):
    for name, S in carriers.items():
        for chi in chars[name]:
            for parity in ("even", "odd"):
                assert additive_basis(S, chi, parity) == []


def test_additive_parity_argument_checked(chars):
    with pytest.raises(ValueError, match="parity must be"):
        additive_basis(z2(), chars["Z2"][0], "sideways")


def test_rho_space_m3():
    S = m3()
    chi = enumerate_characters(S)[0]
    even = rho_space(chi, S, "even")
    assert even.dimension == 1
    # sigma = id fixes p, so an odd rho must satisfy rho(p) = -rho(p).
    odd = rho_space(chi, S, "odd")
    assert odd.dimension == 0
    assert [o.zero_forced for o in odd.orbits] == [True]


def test_rho_space_np4_carries_both_parities():
    S = np4()
    chi = enumerate_characters(S)[0]
    even = rho_space(chi, S, "even")
    odd = rho_space(chi, S, "odd")
    assert even.dimension == 1 and odd.dimension == 1
    r_even = even.instance([2.0], S.n)
    r_odd = odd.instance([2.0], S.n)
    assert r_even(1) == 2.0 and r_even(2) == 2.0
    assert r_odd(1) == 2.0 and r_odd(2) == -2.0
    assert check_condition_I(r_even, chi, S)
    assert check_condition_I(r_odd, chi, S)
    assert parity_residual(r_even, S) <= TOL
    assert parity_residual(r_odd, S) <= TOL
    with pytest.raises(ValueError, match="free value"):
        even.instance([1.0, 2.0], S.n)


def test_condition_II_detects_mixed_products():
    S = m3()
    chi = enumerate_characters(S)[0]
    # Edge I \ P = {'0'}; its products with the unit land back at '0'.
    assert check_condition_II(lambda x: [0, 1, 0][x], chi, S)
    assert not check_condition_II(lambda x: [0, 1, 1][x], chi, S)


def test_parity_and_additive_residuals_keep_a_nan():
    S = z2()
    A = AdditiveFn(domain=frozenset({0, 1}), values=np.array([np.nan, 0]))
    assert np.isnan(parity_residual(A, S))
    # The NaN term comes first, then a finite one that max() would keep.
    assert np.isnan(additive_residual(A, S, [(0, 0), (1, 1)]))


def test_conditions_refuse_nan_tables():
    S = m3()
    chi = enumerate_characters(S)[0]            # [1, 0, 0], P = {p}
    rho = RhoFn(domain=frozenset({1}), values=np.array([0, np.nan, 0]))
    assert not check_condition_I(rho, chi, S)
    assert not check_condition_II(lambda x: np.nan, chi, S)


def test_element_periods():
    assert element_periods(z2()) == [1, 2]
    assert element_periods(z3()) == [1, 3, 3]
    assert element_periods(n3()) == [1, 1, 1]


def test_real_kernel_basis():
    basis = real_kernel_basis(np.array([[1.0, 1.0]]))
    assert len(basis) == 1
    v = basis[0]
    assert abs(v[0] + v[1]) <= TOL and np.max(np.abs(v)) > TOL
    assert real_kernel_basis(np.eye(2)) == []
    full = real_kernel_basis(np.zeros((0, 3)))
    assert len(full) == 3


def test_mult_char_conj_and_key(chars):
    for chi in chars["Z3"]:
        assert np.allclose(chi.conj, chi.values[z3().sigma])
    keys = {chars["Z3"][k].key() for k in range(3)}
    assert len(keys) == 3


def test_windowed_character_on_prime_swap_carrier(ex1):
    chi = ex1.extras["chi"]
    assert chi.formula(35) == 1                  # coprime to 6
    assert chi.formula(10) == 0                  # divisible by 2
    assert chi.even and chi.window_certified
    I, I2, P = ideal_sets(chi)
    # Independent membership formulas over the window: the ideal is the
    # multiples of 2 or 3, and the prime part is {2w, 3w : gcd(w, 6) = 1}.
    for x in ex1.window:
        assert (x in I) == (x % 2 == 0 or x % 3 == 0)
        in_p = ((x % 2 == 0 and x % 4 and x % 3) or
                (x % 3 == 0 and x % 9 and x % 2))
        assert (x in P) == bool(in_p), x


def test_windowed_additive_family_is_additive(ex1):
    A = ex1.extras["additive_family"]({5: 1.0, 7: 2.0})
    assert A(35) == 3.0 and A(25) == 2.0 and not A.in_domain(10)
    dom = [x for x in ex1.window if A.in_domain(x)]
    pairs = [(x, y) for x in dom for y in dom]
    assert len(pairs) >= 1000
    assert additive_residual(A, ex1, pairs) <= TOL
    assert parity_residual(A, ex1) <= TOL


def test_windowed_rho_family_satisfies_condition_I(ex1):
    chi = ex1.extras["chi"]
    for parity in ("even", "odd"):
        rho = ex1.extras["rho_family"](1.5, parity)
        assert check_condition_I(rho, chi, ex1)
        assert parity_residual(rho, ex1) <= TOL
