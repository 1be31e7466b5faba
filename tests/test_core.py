"""Carrier validation, serialization, and even/odd splitting."""

import json

import numpy as np
import pytest

from addlaws.classify import reduce_alpha_sym
from addlaws.core import (FiniteSemigroup, FnTable, SemigroupError,
                          WindowedSemigroup, even_odd_parts, fn,
                          load_semigroup, square_set, stable_json)
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
    f = fn(S, [1, 1, -1, -1], "f")       # sign of the first coordinate
    fe, fo = even_odd_parts(f)
    assert np.allclose(fe.values, [1, 0, 0, -1], atol=TOL)
    assert np.allclose(fo.values, [0, 1, -1, 0], atol=TOL)


def test_even_odd_split_reconstructs_and_has_parity(carriers):
    rng = np.random.default_rng(11)
    for S in carriers.values():
        f = fn(S, rng.normal(size=S.n) + 1j * rng.normal(size=S.n), "f")
        fe, fo = even_odd_parts(f)
        assert np.max(np.abs(fe.values + fo.values - f.values)) <= TOL
        assert np.max(np.abs(fe.values[S.sigma] - fe.values)) <= TOL
        assert np.max(np.abs(fo.values[S.sigma] + fo.values)) <= TOL


def test_fn_table_json_round_trip():
    S = z2()
    f = fn(S, [0.5, -0.25j], "f")
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


def test_fn_table_star_and_zero():
    S = z3()                       # sigma is inversion: fixes e, swaps a, b
    f = fn(S, [1, 2, 3], "f")
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
