"""Carrier validation, serialization, and even/odd splitting."""

import itertools
import json
import random

import numpy as np
import pytest

from addlaws.classify import reduce_alpha_sym
from addlaws.core import (TRIPLE_SAMPLES, FiniteSemigroup, FnTable,
                          SemigroupError, WindowedSemigroup, _draws,
                          _evaluator,
                          even_odd_parts, fn, load_semigroup, square_set,
                          stable_json)
from addlaws.examples import m3, n3, np4, z1, z2, z3, z2xz2

from helpers import TOL

Z2_TEXT = json.dumps({
    "name": "Z2",
    "elements": ["e", "a"],
    "table": [["e", "a"], ["a", "e"]],
    "sigma": ["e", "a"],
})


def test_constructor_validates_bundled_tables(carriers):
    # Rebuilding every carrier from its own serialization re-runs the
    # full validation (associativity, involutivity, multiplicativity).
    for S in carriers.values():
        T = load_semigroup(S.to_json())
        assert T.elements == S.elements
        assert np.array_equal(T.table, S.table)
        assert np.array_equal(T.sigma, S.sigma)


@pytest.mark.parametrize("maker", [z3, n3, np4])
def test_associativity_against_direct_triple_loop(maker):
    S = maker()
    for x in range(S.n):
        for y in range(S.n):
            for z in range(S.n):
                assert S.mul(S.mul(x, y), z) == S.mul(x, S.mul(y, z))


def test_non_associative_table_rejected():
    # (e*e)*a = a*a = e but e*(e*a) = e*e = a.
    with pytest.raises(SemigroupError, match="non-associative"):
        FiniteSemigroup("bad", ("e", "a"),
                        [[1, 0], [0, 0]], [0, 1])


def test_sigma_must_be_involutive():
    # A 3-cycle is a bijection but not an involution.
    with pytest.raises(SemigroupError, match="involutive"):
        FiniteSemigroup("bad", ("e", "a", "b"),
                        [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [1, 2, 0])


def test_sigma_must_be_multiplicative():
    # Swapping e and a in Z3 is involutive but breaks sigma(xy) = sigma(x)sigma(y).
    with pytest.raises(SemigroupError, match="multiplicative"):
        FiniteSemigroup("bad", ("e", "a", "b"),
                        [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [1, 0, 2])


def test_sigma_must_be_a_bijection():
    with pytest.raises(SemigroupError, match="bijection"):
        FiniteSemigroup("bad", ("e", "a"), [[0, 1], [1, 0]], [0, 0])


def test_duplicate_names_rejected():
    with pytest.raises(SemigroupError, match="unique"):
        FiniteSemigroup("bad", ("e", "e"), [[0, 1], [1, 0]], [0, 1])


@pytest.mark.parametrize("table,sigma,what", [
    ([[0, 1.7], [1, 0]], [0, 1], "table"),
    ([[0, 1], [1, 0]], [0.0, 1], "sigma"),
    ([[0, 1], [1, 0]], [False, True], "sigma"),
    ([[0, "1"], [1, 0]], [0, 1], "table"),
], ids=["float-table", "float-sigma", "bool-sigma", "string-table"])
def test_non_integer_entries_rejected(table, sigma, what):
    # A float entry used to be truncated to an index without a word.
    with pytest.raises(SemigroupError, match=f"^{what} entries must be "
                                             "integers$"):
        FiniteSemigroup("bad", ("e", "a"), table, sigma)


def test_ragged_table_rejected():
    # numpy's plain ValueError (an inhomogeneous shape) used to escape here.
    with pytest.raises(SemigroupError, match="^table is ragged: "):
        FiniteSemigroup("x", ["a", "b"], [[0, 1], [1]], [0, 1])


def test_empty_carrier_rejected():
    with pytest.raises(SemigroupError, match="^empty element list$"):
        FiniteSemigroup("empty", (), [], [])


def test_load_semigroup_round_trip():
    S = load_semigroup(Z2_TEXT)
    assert S.name == "Z2"
    assert S.mul(1, 1) == 0
    assert load_semigroup(S.to_json()).to_json() == S.to_json()


@pytest.mark.parametrize("text,fragment", [
    ("not json", "parse error"),
    ("[1, 2]", "top level must be an object"),
    ('{"name": "x", "elements": ["e"], "table": [["e"]]}', "missing field"),
    ('{"name": "x", "elements": ["e"], "table": [["e"]], "sigma": ["e"], '
     '"extra": 1}', "unexpected field"),
    ('{"name": "x", "elements": [], "table": [], "sigma": []}',
     "elements must be a non-empty list"),
    ('{"name": "x", "elements": ["e", "a"], "table": [["e", "a"]], '
     '"sigma": ["e", "a"]}', "table must be a 2x2 array"),
    ('{"name": "x", "elements": ["e"], "table": [["e"]], "sigma": []}',
     "sigma must be a list of 1 name"),
    ('{"name": "x", "elements": ["e"], "table": [["q"]], "sigma": ["e"]}',
     "unknown element"),
])
def test_load_semigroup_rejects_malformed_input(text, fragment):
    with pytest.raises(SemigroupError, match=fragment):
        load_semigroup(text)


def test_square_set():
    assert square_set(z2()) == frozenset({0, 1})
    assert square_set(z1()) == frozenset({0})
    assert square_set(n3()) == frozenset({0})
    assert square_set(m3()) == frozenset({0, 1, 2})
    assert square_set(np4()) == frozenset({0, 1, 2, 3})
    S = m3()
    assert square_set(S) is square_set(S)    # computed once per carrier


def test_even_odd_split_on_coordinate_swap():
    S = z2xz2()
    f = fn(S, [1, 1, -1, -1])        # sign of the first coordinate
    fe, fo = even_odd_parts(f)
    assert np.allclose(fe.values, [1, 0, 0, -1], atol=TOL)
    assert np.allclose(fo.values, [0, 1, -1, 0], atol=TOL)


def test_even_odd_split_reconstructs_and_has_parity(carriers):
    rng = np.random.default_rng(11)
    for S in carriers.values():
        f = fn(S, rng.normal(size=S.n) + 1j * rng.normal(size=S.n))
        fe, fo = even_odd_parts(f)
        assert np.max(np.abs(fe.values + fo.values - f.values)) <= TOL
        assert np.max(np.abs(fe.values[S.sigma] - fe.values)) <= TOL
        assert np.max(np.abs(fo.values[S.sigma] + fo.values)) <= TOL


def test_fn_table_json_round_trip():
    S = z2()
    f = fn(S, [0.5, -0.25j])
    data = f.to_json_dict()
    assert data == {"e": [0.5, 0.0], "a": [0.0, -0.25]}
    back = FnTable.from_json_dict(S, data)
    assert f.max_abs_diff(back) == 0.0


def test_fn_table_json_errors():
    S = z2()
    with pytest.raises(ValueError, match="unknown element"):
        FnTable.from_json_dict(S, {"q": [1, 0]})
    with pytest.raises(ValueError, match="missing value"):
        FnTable.from_json_dict(S, {"e": [1, 0]})



@pytest.mark.parametrize("value", [[1], [1, 2, 3], "ab", None, [1, "x"]],
                         ids=["short", "long", "string", "null", "text-im"])
def test_fn_table_json_refuses_a_value_that_is_not_a_pair(value):
    with pytest.raises(ValueError, match="value of 'e' is not a pair"):
        FnTable.from_json_dict(z2(), {"e": value, "a": [0, 0]})


def test_fn_table_keeps_its_own_copy_of_a_writable_array():
    S = z2()
    b = np.array([0, 1, 9], complex)
    h = fn(S, b[:2])
    b[1] = 7
    assert h.values.tolist() == [0, 1]
    assert not h.values.flags.writeable
    a = np.zeros(2, complex)
    fn(S, a)
    a[0] = 1                         # the caller's array stays writable
    assert fn(S, h.values).values is h.values

def test_fn_table_star_and_zero():
    S = z3()                       # sigma is inversion: fixes e, swaps a, b
    f = fn(S, [1, 2, 3])
    assert np.allclose(f.star().values, [1, 3, 2])
    assert not f.is_zero()
    assert fn(S, [0, 0, 0]).is_zero()
    assert f.max_abs_diff(f.star()) == 1.0


def test_stable_json_is_key_sorted_and_compact():
    assert stable_json({"b": 1, "a": [1.5, 0.0]}) == '{"a":[1.5,0.0],"b":1}'


def test_windowed_carrier_checks_its_window():
    W = WindowedSemigroup("pos", lambda x, y: x * y, lambda x: x,
                          tuple(range(2, 40)))
    assert W.mul(6, 7) == 42
    with pytest.raises(SemigroupError, match="involutive"):
        WindowedSemigroup("bad", lambda x, y: x * y, lambda x: x + 1,
                          tuple(range(2, 40)))


def test_a_small_window_checks_every_triple():
    # mul is + except on (2 top, 2), and a sum of two window points is
    # 2 top only for (top, top), so (top, top, 2) is the one
    # non-associative triple.  21 points give 9,261 triples, within the
    # default 10,000 samples; a seed-0 sample of 10,000 misses this one.
    window = tuple(2 ** k for k in range(21))
    top = window[-1]

    def mul(x, y):
        return x + y + (x == 2 * top and y == 2)

    with pytest.raises(SemigroupError, match=rf"non-associative at "
                       rf"\({top}, {top}, 2\)"):
        WindowedSemigroup("skew", mul, lambda x: x, window)


@pytest.mark.parametrize("n", [21, 22, 37])
def test_validate_checks_the_seed0_choice_triples_in_order(n):
    # A counting max records each product; sigma's check makes two per
    # pair, then each triple makes four: xy, (xy)z, yz and x(yz).  21
    # points are all checked, in itertools.product order; 22 and 37
    # (example 1 at window 38) are sampled.
    w = tuple(range(100, 100 + n))
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return max(x, y)

    WindowedSemigroup("max", mul, lambda x: x, w)
    if n ** 3 <= TRIPLE_SAMPLES:
        expected = list(itertools.product(w, repeat=3))
    else:
        rng = random.Random(0)
        expected = [(rng.choice(w), rng.choice(w), rng.choice(w))
                    for _ in range(TRIPLE_SAMPLES)]
    products = calls[2 * n * n:]
    assert len(products) == 4 * len(expected)
    assert [(x, y, z) for (x, y), (_, z) in zip(products[::4],
                                               products[1::4])] == expected
    assert products[2::4] == [(y, z) for _, y, z in expected]


@pytest.mark.parametrize("n", [22, 31, 32, 33, 37, 199, 961])
def test_blocked_draws_are_the_seed0_choice_draws(n):
    # Bit-length edges (31, 32, 33), the smallest sampled window (22) and
    # the two example windows (199 points for example 1, 961 for 2).
    rng = random.Random(0)
    expected = [rng.choice(range(n)) for _ in range(30_000)]
    assert list(itertools.islice(_draws(random.Random(0), n), 30_000)) == \
        expected


@pytest.mark.parametrize("n", [2 ** 4 + 1, 2 ** 16 + 1, 2 ** 31 + 1,
                               2 ** 21 - 1])
@pytest.mark.parametrize("seed", [3, 41])
def test_blocked_draws_are_the_randrange_draws(n, seed):
    # 2**k + 1 rejects nearly half of the words, 2**31 + 1 keeps all 32
    # bits, and 2**21 - 1 is the width of example 2's coordinate draws.
    rng = random.Random(seed)
    expected = [rng.randrange(n) for _ in range(5_000)]
    assert list(itertools.islice(_draws(random.Random(seed), n), 5_000)) \
        == expected


def test_draws_are_plain_ints():
    # A numpy scalar would print as np.int64(...) in validate's messages.
    draws = _draws(random.Random(0), 37)
    assert type(next(draws)) is int
    assert all(type(d) is int for d in itertools.islice(draws, 3_000))


def test_an_evaluator_reads_a_table_calls_a_formula_or_is_the_callable():
    S = z3()
    table = FnTable(S, values=[1, 2j, np.nan])
    at = _evaluator(table)
    assert [at(x) for x in range(3)][:2] == [1 + 0j, 2j]
    assert all(type(at(x)) is complex for x in range(3))
    assert np.isnan(at(2))
    W = WindowedSemigroup("pos", lambda x, y: x * y, lambda x: x,
                          tuple(range(2, 10)))
    at = _evaluator(fn(W, lambda x: x * x))
    assert at(3) == 9 and type(at(3)) is complex

    def plain(x):
        return x

    assert _evaluator(plain) is plain


@pytest.mark.parametrize("window, mul", [
    (range(22), lambda x, y: x - y),
    # max is associative; the bump at x = 10 breaks ~2% of the triples,
    # so the first failing one lies deep in the sample.
    (range(40), lambda x, y: max(x, y) + (x == 10)),
], ids=["difference", "bumped-max"])
def test_a_sampled_window_names_the_first_failing_triple(window, mul):
    w = tuple(window)
    assert len(w) ** 3 > TRIPLE_SAMPLES
    rng = random.Random(0)
    sample = [(rng.choice(w), rng.choice(w), rng.choice(w))
              for _ in range(TRIPLE_SAMPLES)]
    x, y, z = next((x, y, z) for x, y, z in sample
                   if mul(mul(x, y), z) != mul(x, mul(y, z)))
    with pytest.raises(SemigroupError,
                       match=rf"non-associative at \({x}, {y}, {z}\)$"):
        WindowedSemigroup("skew", mul, lambda x: x, w)


def test_sigma_is_called_once_per_point_and_per_product():
    calls = []

    def sig(x):
        calls.append(x)
        return x

    n = 30
    WindowedSemigroup("count", lambda x, y: x * y, sig, range(2, 2 + n))
    assert len(calls) == 2 * n + n * n


def test_a_non_multiplicative_sigma_names_its_first_pair():
    # sigma swaps 5 and 6, an involution; sigma(max(5, 6)) = 5 but
    # max(sigma 5, sigma 6) = 6, and no earlier pair fails.
    def sig(x):
        return {5: 6, 6: 5}.get(x, x)

    with pytest.raises(SemigroupError,
                       match=r"^sigma is not multiplicative at \(5, 6\)$"):
        WindowedSemigroup("swap", max, sig, range(1, 12))


@pytest.mark.parametrize("op", [
    FnTable.is_zero,
    lambda h: h.max_abs_diff(h),
    FnTable.star,
    even_odd_parts,
    lambda h: reduce_alpha_sym(h, h, 1.0),
], ids=["is_zero", "max_abs_diff", "star", "even_odd_parts",
        "reduce_alpha_sym"])
def test_value_table_operations_refuse_a_formula_table(op):
    W = WindowedSemigroup("pos", lambda x, y: x * y, lambda x: x,
                          tuple(range(2, 10)))
    with pytest.raises(ValueError, match="needs (a )?finite value tables?"):
        op(fn(W, lambda x: 1j))
