"""Multiplicative-function enumeration, ideal partitions, additive and
rho parameter spaces."""

import gc
import hashlib
import math
import operator
import weakref

import numpy as np
import pytest

from addlaws import characters
from addlaws.characters import (AdditiveFn, MultChar, RhoFn, WindowedChar,
                                _gaps, _relations, _worst,
                                additive_basis, additive_residual,
                                character_residuals, check_condition_I,
                                check_condition_II, element_periods,
                                enumerate_characters, ideal_sets,
                                parity_residual, rho_space)
from addlaws.core import EPS, FiniteSemigroup, cnum, stable_json
from addlaws.examples import (example1, example2, m3, n3, np4, z1, z2,
                               z3)
from addlaws.families import (CaseId, CaseParams, ConstraintError,
                              construct, construct_rows)

from helpers import (TOL, brute_force_characters, carrier_zoo, census,
                     left_unit_carrier, match_tables, product,
                     swapped_semilattice, twisted_monoid)

#: SHA-256 of every rho space of rho_carriers() (each character, both
#: parities): each orbit's representative, members, multipliers and
#: whether it is forced to zero.  Pinned before rho_space took its
#: relations from the table that construct's piecewise clauses gather.
RHO_SPACE_DIGEST = ("e23008eeaf4722d1455bbb689017d41f"
                    "940047264694bbebade37a46d205a15f")

#: SHA-256 of the raw bytes of every table enumerate_characters returns,
#: in its order, on census_carriers(), the carrier zoo, M3 and NP4.
#: Pinned while the search still snapped float products onto candidates.
CHARACTER_TABLES_DIGEST = ("9a093b314c952b03afb626632cac74ea"
                           "38060f34d4f895ff2d9e7fd5ffdc4682")


def census_carriers():
    """Each carrier of the census of order n <= 4."""
    for n in (1, 2, 3, 4):
        for k, (table, sigma) in enumerate(census(n)):
            yield FiniteSemigroup(f"C{n}.{k}", [str(x) for x in range(n)],
                                  table, sigma)


def rho_carriers():
    """The census of order n <= 4, the carrier zoo, and M3 and NP4 with
    their products with Z2, Z3, M3 and N3."""
    yield from census_carriers()
    yield from carrier_zoo()
    for A in (m3(), np4()):
        yield A
        yield from (product(A, B) for B in (z2(), z3(), m3(), n3()))


def rho_spaces():
    """(S, chi, parity, rho_space) for each character of rho_carriers()
    and each parity."""
    for S in rho_carriers():
        for chi in enumerate_characters(S):
            for parity in ("even", "odd"):
                yield S, chi, parity, rho_space(chi, parity)


def test_enumeration_matches_brute_force(carriers, chars):
    for name, S in carriers.items():
        expected = brute_force_characters(S)
        got = [c.values for c in chars[name]]
        assert match_tables(expected, got), name


def test_character_tables_byte_identical():
    digest, count = hashlib.sha256(), 0
    for S in [*census_carriers(), *carrier_zoo(), m3(), np4()]:
        for chi in enumerate_characters(S):
            digest.update(chi.values.tobytes())
            count += 1
    assert count == 748
    assert digest.hexdigest() == CHARACTER_TABLES_DIGEST


def test_a_carrier_keeps_its_characters():
    # While they are held, every call hands back the same MultChar
    # objects, so all callers share them.
    S = np4()
    chars = enumerate_characters(S)
    assert type(chars) is tuple
    assert all(map(operator.is_, enumerate_characters(S), chars))
    assert all(chi.semigroup is S for chi in chars)


def test_the_search_runs_once_per_carrier(monkeypatch):
    S, searches = z3(), []
    search = characters._character_tables
    monkeypatch.setattr(characters, "_character_tables",
                        lambda T: searches.append(T) or search(T))
    first = [chi.values for chi in enumerate_characters(S)]
    again = enumerate_characters(S)         # the first tuple is dropped
    assert searches == [S]
    assert all(a is chi.values for a, chi in zip(first, again))


def test_a_dropped_carrier_needs_no_cycle_collector():
    # S refers to its characters weakly, and the search leaves no cycle
    # behind, so S, its characters and their tables go as soon as the last
    # reference does.
    S = m3()
    chars = enumerate_characters(S)
    gone = weakref.ref(S)
    gc.disable()
    try:
        del S, chars
        assert gone() is None
    finally:
        gc.enable()


def test_a_rebuilt_carrier_enumerates_afresh():
    first, rebuilt = enumerate_characters(m3()), m3()
    again = enumerate_characters(rebuilt)
    assert all(map(operator.is_, enumerate_characters(rebuilt), again))
    assert not set(map(id, first)) & set(map(id, again))
    assert [c.key() for c in again] == [c.key() for c in first]


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
                assert additive_basis(chi, parity) == []


def test_additive_parity_argument_checked(chars):
    with pytest.raises(ValueError, match="parity must be"):
        additive_basis(chars["Z2"][0], "sideways")


def test_additive_basis_refuses_sigma_leaving_the_domain():
    S = swapped_semilattice()
    chars = enumerate_characters(S)
    assert [chi.even for chi in chars] == [True, False, False, True]
    for chi in chars[1:3]:
        for parity in ("even", "odd"):
            with pytest.raises(ValueError,
                               match=r"does not preserve S \\ I"):
                additive_basis(chi, parity)
    assert additive_basis(chars[0], "odd") == []


def test_rho_space_m3():
    S = m3()
    chi = enumerate_characters(S)[0]
    even = rho_space(chi, "even")
    assert even.dimension == 1
    # sigma = id fixes p, so an odd rho must satisfy rho(p) = -rho(p).
    odd = rho_space(chi, "odd")
    assert odd.dimension == 0
    assert [o.zero_forced for o in odd.orbits] == [True]


def test_rho_space_np4_carries_both_parities():
    S = np4()
    chi = enumerate_characters(S)[0]
    even = rho_space(chi, "even")
    odd = rho_space(chi, "odd")
    assert even.dimension == 1 and odd.dimension == 1
    r_even = even.instance([2.0], S.n)
    r_odd = odd.instance([2.0], S.n)
    assert r_even(1) == 2.0 and r_even(2) == 2.0
    assert r_odd(1) == 2.0 and r_odd(2) == -2.0
    assert check_condition_I(r_even, chi)
    assert check_condition_I(r_odd, chi)
    assert parity_residual(r_even, S) <= TOL
    assert parity_residual(r_odd, S) <= TOL
    with pytest.raises(ValueError, match="free value"):
        even.instance([1.0, 2.0], S.n)


def test_rho_spaces_byte_identical():
    digest, count = hashlib.sha256(), 0
    for S, chi, parity, space in rho_spaces():
        digest.update(stable_json([
            S.name, parity, [cnum(z) for z in chi.values],
            [[o.representative, [[x, cnum(w)] for x, w in o.members.items()],
              o.zero_forced] for o in space.orbits]]).encode())
        count += 1
    assert count == 1560
    assert digest.hexdigest() == RHO_SPACE_DIGEST


def test_rho_space_instances_pass_the_checks_and_construct():
    """Each non-zero rho space, given seeded non-zero free values, yields
    a rho that satisfies condition (I) and its parity and that construct
    takes with its chi: in sine-add/5 when even, in alpha-skew/6 when
    odd.  No free orbit holds a product where condition (II) asks for a
    zero, so the solver never offers a rho that (II) refuses."""
    rng, count = np.random.default_rng(0), 0
    for S, chi, parity, space in rho_spaces():
        if not space.dimension:
            continue
        count += 1
        d = space.dimension
        rho = space.instance(rng.uniform(0.5, 2, d)
                             + 1j * rng.uniform(-1, 1, d), S.n)
        assert check_condition_I(rho, chi)
        assert parity_residual(rho, S) <= EPS
        if parity == "even":
            construct(CaseId("sine-add", 5), CaseParams(chi=chi, rho=rho), S)
        else:
            construct(CaseId("alpha-skew", 6),
                      CaseParams(alpha=1.0, c=2.0, chi=chi, rho=rho), S)
        off = [y for y in S.window if not chi.in_ideal(y)]
        zeros = {z for x in chi.null_ideal - chi.prime_part for y in off
                 for z in (S.mul(x, y), S.mul(y, x))}
        assert not zeros & {x for o in space.orbits if not o.zero_forced
                            for x in o.members}
    assert count == 50


def test_condition_II_detects_mixed_products():
    S = m3()
    chi = enumerate_characters(S)[0]
    # Edge I \ P = {'0'}; its products with the unit land back at '0'.
    assert check_condition_II(lambda x: [0, 1, 0][x], chi)
    assert not check_condition_II(lambda x: [0, 1, 1][x], chi)


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
    assert not check_condition_I(rho, chi)
    assert not check_condition_II(lambda x: np.nan, chi)


def test_element_periods():
    assert element_periods(z2()) == [1, 2]
    assert element_periods(z3()) == [1, 3, 3]
    assert element_periods(n3()) == [1, 1, 1]


def test_mult_char_conj_and_key(chars):
    for chi in chars["Z3"]:
        assert np.allclose(chi.conj, chi.values[z3().sigma])
    keys = {chars["Z3"][k].key() for k in range(3)}
    assert len(keys) == 3


def test_mult_char_copies_a_writable_array():
    a = np.array([1, -1], complex)
    MultChar(z2(), a)
    a[0] = 5                        # the caller's array is not frozen
    b = np.array([1, -1, 9], complex)
    chi = MultChar(z2(), b[:2])
    b[1] = 3                        # nor does the character share it
    assert chi.values.tolist() == [1, -1]
    assert not chi.values.flags.writeable
    frozen = np.array([1, 1], complex)
    frozen.setflags(write=False)
    assert MultChar(z2(), frozen).values is frozen


@pytest.mark.parametrize("make,values", [(z1, [math.nan]),
                                         (z2, [math.inf, 1])])
def test_mult_char_refuses_non_finite_values(make, values):
    # Refused before conj and the ideal sets are worked out, so no numpy
    # warning comes first (the suite turns warnings into errors).
    with pytest.raises(ValueError, match="must be finite"):
        MultChar(make(), values)


def test_additive_basis_refuses_a_windowed_carrier(ex1):
    with pytest.raises(TypeError,
                       match="additive_basis needs a finite semigroup"):
        additive_basis(ex1.extras["chi"], "even")


def test_rho_space_refuses_a_windowed_character(ex1):
    with pytest.raises(TypeError, match="rho_space needs a finite semigroup"):
        rho_space(ex1.extras["chi"])


def test_windowed_character_on_prime_swap_carrier(ex1):
    chi = ex1.extras["chi"]
    assert chi.formula(35) == 1                  # coprime to 6
    assert chi.formula(10) == 0                  # divisible by 2
    assert chi.even
    I, I2, P = ideal_sets(chi)
    # Independent membership formulas over the window: the ideal is the
    # multiples of 2 or 3, and the prime part is {2w, 3w : gcd(w, 6) = 1}.
    for x in ex1.window:
        assert (x in I) == (x % 2 == 0 or x % 3 == 0)
        in_p = ((x % 2 == 0 and x % 4 and x % 3) or
                (x % 3 == 0 and x % 9 and x % 2))
        assert (x in P) == bool(in_p), x


def test_a_non_even_windowed_character_is_refused(ex2):
    # chi(u) = u0 is multiplicative on the open square, but sigma swaps
    # the coordinates, so chi* != chi: an even case must refuse it.
    def on_axis(u):
        return u[0] == 0.0

    chi = WindowedChar(ex2, lambda u: complex(u[0]), on_axis, on_axis,
                       lambda u: False)
    pairs = ex2.extras["sample_pairs"](50, 0)
    assert character_residuals(chi, ex2, pairs) == (0.0, 1.875)
    assert not chi.even
    assert all(c.even for c in ex2.extras["chars"].values())
    with pytest.raises(ConstraintError, match=r"^chi\* = chi fails for chi$"):
        construct(CaseId("cos-sub", 3), CaseParams(chi=chi, alpha=2), ex2)


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
        assert check_condition_I(rho, chi)
        assert parity_residual(rho, ex1) <= TOL


@pytest.mark.parametrize("bent_at", [5, 25])
def test_condition_I_reads_chi_at_each_u_and_product_uv(bent_at):
    # On the window 2..20, 5 is a point u outside the ideal, and 25 = 5 * 5
    # is a product uv but no u.  A chi that is wrong at 5 fails
    # rho(up) = rho(p) chi(u); one wrong at 25 only passes those checks and
    # fails rho(upv) = rho(p) chi(uv) at u = v = 5.
    W = example1(20)
    chi = W.extras["chi"]
    rho = W.extras["rho_family"](1.5)
    assert check_condition_I(rho, chi)
    bent = WindowedChar(W, lambda x: 2.0 if x == bent_at else chi(x),
                        chi.in_ideal, chi.in_ideal_square, chi.in_prime_part)
    assert not check_condition_I(rho, bent)


def _per_point_even_residual(chi, S):
    """The even residual as computed before the window table: chi called
    twice per window point."""
    return _worst(abs(chi(S.sig(x)) - chi(x)) for x in S.window)


def _per_point_parity_residual(fn, S):
    """The parity residual as computed before the window table."""
    sign = 1.0 if fn.parity == "even" else -1.0
    return _worst(abs(fn(S.sig(x)) - sign * fn(x)) for x in S.window
                  if fn.in_domain(x))


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _sigma_cases(name):
    """Each character and basis function of one windowed example, plus a
    character and a function that are far from even, so that the
    residuals compared are not all 0."""
    if name == "example1":
        W = example1(20)
        chars = [W.extras["chi"],
                 WindowedChar(W, lambda n: complex(n % 5, 1 / n),
                              W.extras["chi"].in_ideal,
                              W.extras["chi"].in_ideal_square,
                              W.extras["chi"].in_prime_part)]
        fns = [W.extras["additive_family"]({5: 1.0, 7: 2.0}),
               W.extras["rho_family"](1.5, "even"),
               W.extras["rho_family"](1.5, "odd"),
               AdditiveFn(domain=lambda n: n % 2 == 1,
                          formula=lambda n: n ** 0.5, parity="odd")]
        return W, chars, fns
    W = example2()
    chars = list(W.extras["chars"].values())
    never = chars[0].in_ideal
    chars.append(WindowedChar(W, lambda u: complex(u[0], u[1] ** 3),
                              never, never, never))
    fns = [A for parity in ("even", "odd")
           for A in W.extras["additive_basis"](W.extras["chars"]["chi_abs"],
                                               parity)]
    fns.append(AdditiveFn(domain=lambda u: u[0] != 0 and u[1] != 0,
                          formula=lambda u: math.log(abs(u[0])) + 2 * u[1],
                          parity="even"))
    return W, chars, fns


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_window_table_residuals_equal_the_per_point_ones(name):
    W, chars, fns = _sigma_cases(name)
    if name == "example1":
        # sigma(8) = 27 lies past the window 2..20, so f is evaluated there.
        assert W.sig(8) == 27 and 27 not in W.window
    for chi in chars:
        got = character_residuals(chi, W, [])[1]
        assert _same(got, _per_point_even_residual(chi, W))
    assert character_residuals(chars[-1], W, [])[1] > 0.1
    for f in fns:
        assert _same(parity_residual(f, W), _per_point_parity_residual(f, W))
    assert parity_residual(fns[-1], W) > 0.1


def test_a_nan_past_the_window_is_kept():
    W = example1(20)

    def nan_at_27(n):
        return math.nan if n == 27 else 1 + 0j

    assert math.isnan(character_residuals(nan_at_27, W, [])[1])
    A = AdditiveFn(domain=lambda n: True, formula=nan_at_27, parity="even")
    assert math.isnan(parity_residual(A, W))


def test_residuals_and_conditions_take_plain_callables():
    W = example1(20)
    chi = W.extras["chi"]
    rho = W.extras["rho_family"](1.5, "even")
    pairs = [(x, y) for x in W.window for y in W.window]
    assert character_residuals(lambda n: chi(n), W, pairs) == \
        character_residuals(chi, W, pairs)
    assert check_condition_I(lambda n: rho(n), chi)
    assert not check_condition_I(lambda n: 2 * rho(n) if n == 2 else rho(n),
                                 chi)
    assert check_condition_II(lambda n: 0, chi)


def _per_point_condition_I(rho, chi, S):
    """Condition (I) as checked before the relation gather: one loop over
    p, u and v, rho called at every point."""
    mul, in_P = S.mul, chi.in_prime_part
    P = [x for x in S.window if in_P(x)]
    non_ideal = [x for x in S.window if not chi.in_ideal(x)]
    for p in P:
        rp = rho(p)
        for u in non_ideal:
            for x in (mul(u, p), mul(p, u)):
                if not (in_P(x) and abs(rho(x) - rp * chi(u)) <= EPS):
                    return False
        for u in non_ideal:
            for v in non_ideal:
                x = mul(u, mul(p, v))
                if not (in_P(x) and abs(rho(x) - rp * chi(mul(u, v))) <= EPS):
                    return False
    return True


def _per_point_condition_II(f, chi, S):
    """Condition (II) as checked before the relation gather."""
    mul = S.mul
    edge = [x for x in S.window
            if chi.in_ideal(x) and not chi.in_prime_part(x)]
    non_ideal = [x for x in S.window if not chi.in_ideal(x)]
    return all(abs(f(mul(x, y))) <= EPS and abs(f(mul(y, x))) <= EPS
               for x in edge for y in non_ideal)


def _finite_condition_inputs(S, chi):
    """Functions to check on a finite S for an even chi: rho_space
    instances of each parity, one rho bent off (I) at the last point of P,
    one table that is 1 everywhere (failing (II) wherever a mixed product
    exists) and one NaN table; each as a table and as a plain callable."""
    tables = []
    for parity in ("even", "odd"):
        space = rho_space(chi, parity)
        for free in ([1.0] * space.dimension, [2j] * space.dimension):
            tables.append(space.instance(free, S.n).values)
    bent = tables[0].copy()
    if chi.prime_part:
        bent[max(chi.prime_part)] += 0.5
    tables += [bent, np.ones(S.n, complex), np.full(S.n, np.nan + 0j)]
    for values in tables:
        rho = RhoFn(domain=chi.prime_part, values=values)
        yield rho
        yield lambda x, v=values: complex(v[x])


def test_finite_conditions_equal_the_per_point_loops(carriers, chars):
    verdicts = {}
    finite = dict(carriers, TW5=twisted_monoid(), TW5id=twisted_monoid(False),
                  LU4=left_unit_carrier())
    for name, S in finite.items():
        for chi in chars.get(name) or enumerate_characters(S):
            if not chi.even:
                continue
            for h in _finite_condition_inputs(S, chi):
                got = (check_condition_I(h, chi),
                       check_condition_II(h, chi))
                assert got == (_per_point_condition_I(h, chi, S),
                               _per_point_condition_II(h, chi, S)), name
                verdicts[got] = verdicts.get(got, 0) + 1
    # Each of the four verdict pairs occurs, so neither check is vacuous.
    assert sorted(verdicts) == [(False, False), (False, True),
                                (True, False), (True, True)]


@pytest.mark.parametrize("make", [twisted_monoid, left_unit_carrier, np4])
def test_relations_list_condition_I_in_the_per_point_order(make):
    # The relations of (I) as the per-point loop visits them: for each p,
    # up and pu by chi(u), then u(pv) by chi(uv); and those of (II).
    S = make()
    for chi in enumerate_characters(S):
        mul, P = S.mul, sorted(chi.prime_part)
        off = [x for x in S.window if not chi.in_ideal(x)]
        cond_I, cond_II = _relations(chi)
        got = [list(zip(*rel)) for rel, _ in cond_I]
        assert got == [[(x, p, chi(u)) for u in off
                        for x in (mul(u, p), mul(p, u))]
                       + [(mul(u, mul(p, v)), p, chi(mul(u, v)))
                          for u in off for v in off] for p in P]
        edge = sorted(chi.null_ideal - chi.prime_part)
        assert [set(z) for z, _, _ in cond_II] == [
            {z for y in off for z in (mul(x, y), mul(y, x))} for x in edge]


def test_condition_II_reads_both_orders_of_a_mixed_product():
    S = left_unit_carrier()
    chi = enumerate_characters(S)[0]
    assert list(chi.values) == [0, 0, 0, 1] and chi.prime_part == {2}
    a = RhoFn(domain=frozenset({1}), values=np.array([0, 1, 0, 0]))
    assert S.mul(3, 1) == 1 and S.mul(1, 3) == 0     # e a = a, a e = 0
    assert not check_condition_II(a, chi)
    assert not _per_point_condition_II(a, chi, S)


def test_the_twisted_monoid_is_not_commutative_where_it_counts():
    S = twisted_monoid()
    chi = enumerate_characters(S)[1]            # 1 on {1, g}, 0 elsewhere
    assert list(chi.values) == [1, 1, 0, 0, 0]
    assert chi.prime_part == {2, 3}
    assert S.mul(1, 2) != S.mul(2, 1)           # gp = q, pg = p
    rho = rho_space(chi, "even").instance([1.5], S.n)
    assert check_condition_I(rho, chi)
    bent = RhoFn(domain=chi.prime_part, values=np.array([0, 0, 1.5, 2, 0]))
    assert not check_condition_I(bent, chi)
    assert not _per_point_condition_I(bent, chi, S)
    # For chi(g) = -1, rho(q) = -rho(p) holds every relation up to p
    # (gp = q, gq = p), and only pg = p, asking rho(p) = -rho(p), fails.
    minus = enumerate_characters(S)[0]
    assert np.allclose(minus.values, [1, -1, 0, 0, 0])
    rho = RhoFn(domain=minus.prime_part, values=np.array([0, 0, 1, -1, 0]))
    assert not check_condition_I(rho, minus)
    assert not _per_point_condition_I(rho, minus, S)


@pytest.mark.parametrize("window", [*range(16, 39), 200])
def test_windowed_conditions_equal_the_per_point_loops(window):
    W = example1(window)
    chi = W.extras["chi"]
    A = W.extras["additive_family"]({5: 1.0, 7: 2.0})
    rhos = [W.extras["rho_family"](1.5, parity) for parity in
            (("even",) if window == 200 else ("even", "odd"))]
    rho = rhos[0]
    rhos += [lambda n: rho(n) + (1 if n == 10 else 0),
             lambda n: math.nan if n == 14 else rho(n)]
    for h in rhos:
        assert check_condition_I(h, chi) == \
            _per_point_condition_I(h, chi, W)
    assert [check_condition_I(h, chi) for h in rhos[-2:]] == [False] * 2
    # 10 = 5 * 2 is a target of (I); a prime part without it is not closed.
    narrow = WindowedChar(W, chi.formula, chi.in_ideal, chi.in_ideal_square,
                          lambda n: n != 10 and chi.in_prime_part(n))
    assert check_condition_I(rho, narrow) is False
    assert _per_point_condition_I(rho, narrow, W) is False
    f, _ = construct(CaseId("cos-sub", 5, "+"),
                     CaseParams(chi=chi, A=A, rho=rho), W)
    fs = [f, lambda n: 1, lambda n: math.nan if n == 20 else f(n)]
    for h in fs:
        assert check_condition_II(h, chi) == \
            _per_point_condition_II(h, chi, W)
    assert [check_condition_II(h, chi) for h in fs] == [True, False, False]


def _moved(values, S, x, delta):
    """values with delta added at x and at sigma x (once if sigma fixes
    x), so that an even rho stays even."""
    out = np.array(values, dtype=complex)
    out[list({x, S.sig(x)})] += delta
    return out


@pytest.mark.parametrize("name", ["M3", "NP4", "TW5id"])
def test_a_rho_row_moved_at_a_condition_I_target(name, carriers):
    # On M3 and NP4 every relation of (I) maps p to p itself, so no move of
    # rho can fail (I) there; on TW5id, gp = q maps p to q, and a move of
    # rho at q by more than EPS is refused.
    S = carriers.get(name) or twisted_monoid(False)
    case = CaseId("cos-sub", 5, "+")
    chi = next(c for c in enumerate_characters(S)
               if rho_space(c).dimension)
    space = rho_space(chi)
    base = space.instance([1.5] * space.dimension, S.n).values
    rows = np.array([base] + [_moved(base, S, max(chi.prime_part), m * EPS)
                              for m in (0.5, 2)])
    ok, _, _ = construct_rows(case, S, CaseParams(chi=chi, rho=RhoFn(
        domain=chi.prime_part, values=rows)), 3)
    assert ok.tolist() == [True, True, name != "TW5id"]
    for row, passes in zip(rows, ok):
        rho = RhoFn(domain=chi.prime_part, values=row)
        assert check_condition_I(rho, chi) == passes
        if not passes:
            with pytest.raises(ConstraintError,
                               match=r"^condition \(I\) fails$"):
                construct(case, CaseParams(chi=chi, rho=rho), S)


@pytest.mark.parametrize("move,passes", [(0.5, True), (2, False)])
def test_a_windowed_rho_moved_at_a_condition_I_target(move, passes):
    # 10 = 5 * 2 is a target of (I) for p = 2 and u = 5; moving rho at 10
    # and at sigma(10) = 15 alike keeps rho even.
    W = example1(20)
    chi, rho = W.extras["chi"], W.extras["rho_family"](1.5)
    moved = RhoFn(domain=chi.in_prime_part, parity="even", formula=lambda n:
                  rho(n) + (move * EPS if n in (10, 15) else 0))
    assert parity_residual(moved, W) == 0
    assert check_condition_I(moved, chi) is passes
    params = CaseParams(chi=chi, A=W.extras["additive_family"]({5: 1.0}),
                        rho=moved)
    if passes:
        construct(CaseId("cos-sub", 5, "+"), params, W)
    else:
        with pytest.raises(ConstraintError,
                           match=r"^condition \(I\) fails$"):
            construct(CaseId("cos-sub", 5, "+"), params, W)


def test_the_gather_reads_a_row_stack_a_table_or_a_callable():
    rows = np.array([[0, 1, -1, 0], [0, 2, 2, np.nan]], dtype=complex)
    rel = ([2, 3], [1, 1], [-1.0, 0])      # q to p by -1, z to p by 0
    assert np.array_equal(_gaps(rows, *rel), [[0, 0], [4, np.nan]],
                          equal_nan=True)
    for r in rows:
        calls = []

        def h(x, r=r):
            calls.append(x)
            return r[x]
        assert np.array_equal(list(_gaps(h, *rel)), _gaps(r, *rel),
                              equal_nan=True)
        assert sorted(calls) == [1, 2, 3]      # once per distinct element
    assert list(_gaps(h, [], [], [])) == []
