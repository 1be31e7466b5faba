"""Equation mini-language: parse/print round trips, positioned errors,
residual evaluation."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from addlaws import dsl, oracle
from addlaws.classify import NotASolutionError, classify
from addlaws.core import (FiniteSemigroup, WindowedSemigroup, fn,
                          stable_json)
from addlaws.dsl import (BUILTIN_EQUATIONS, KERNEL_MEMO_SIZE,
                         EquationSyntaxError, Sig, Var, builtin,
                         equation_symbols, evaluate_residual, parse_equation,
                         print_equation, random_equation, resolve_equation)
from addlaws.examples import example1, m3, n3, np4, z1, z2, z3, z2xz2
from addlaws.families import CaseId, CaseParams, construct

from helpers import TOL, census

EXPECTED_BUILTINS = {
    "cos-sub": "g(x s(y)) = g(x)*g(y) + f(x)*f(y)",
    "sine-add": "f(x s(y)) = f(x)*g(y) + f(y)*g(x)",
    "cos-sine-g": "f(x s(y)) = f(x)*g(y) + f(y)*g(x) - g(x)*g(y)",
    "alpha-sym": "f(x s(y)) = f(x)*g(y) + f(y)*g(x) + a*g(x s(y))",
    "alpha-skew": "f(x s(y)) = f(x)*g(y) - f(y)*g(x) + a*g(x s(y))",
}


def test_builtin_texts_are_canonical():
    assert BUILTIN_EQUATIONS == EXPECTED_BUILTINS
    for text in BUILTIN_EQUATIONS.values():
        assert print_equation(parse_equation(text)) == text


def test_builtin_round_trips_structurally():
    for eq_id, text in BUILTIN_EQUATIONS.items():
        ast = builtin(eq_id)
        assert parse_equation(print_equation(ast)) == ast
        assert ast == parse_equation(text)
    with pytest.raises(KeyError, match="unknown equation id"):
        builtin("tan-add")


def test_resolve_accepts_ids_and_literals():
    assert resolve_equation("cos-sub") == builtin("cos-sub")
    assert resolve_equation("f(x y) = g(x)*g(y)") == \
        parse_equation("f(x y) = g(x)*g(y)")


def test_fuzzed_round_trips():
    for seed in range(100):
        ast = random_equation(random.Random(seed))
        text = print_equation(ast)
        assert parse_equation(text) == ast
        assert print_equation(parse_equation(text)) == text


@pytest.mark.parametrize("text,fragment,position", [
    ("f(x s(y) = f(x)", "expected ')'", 9),
    ("q(x) = f(x)", "unexpected character 'q'", 0),
    ("f() = f(x)", "empty word", 2),
    ("1/0*f(x) = f(x)", "zero denominator", 2),
    ("f(x) + = g(x)", "expected function symbol", 7),
    ("f(x) = g(x) extra", "unexpected character", 12),
    ("2000000/3*f(x) = g(x)", "rational out of range", 0),
    ("", "expected function symbol", 0),
    # '²' is a digit to str.isdigit but not a decimal that int() reads.
    pytest.param("f(x) = ²*f(x)", "unexpected character '²'", 7,
                 id="superscript-digit"),
    # Past Python's int-string limit, and past the parser's recursion.
    pytest.param("1" * 5000 + "*f(x) = f(x)", "rational out of range", 0,
                 id="5000-digit-numeral"),
    pytest.param("f(" + "s(" * 2000 + "x" + ")" * 2001 + " = f(x)",
                 "s(...) nested too deep", 2 + 2 * dsl.MAX_NESTING,
                 id="s-nested-2000-deep"),
])
def test_malformed_input_reports_position(text, fragment, position):
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation(text)
    assert fragment in str(err.value)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_numerals_read_any_decimal_script_and_leading_zeros():
    three = parse_equation("3*f(x) = f(x)")
    assert parse_equation("٣*f(x) = f(x)") == three
    assert parse_equation("0" * 5000 + "3*f(x) = f(x)") == three
    deepest = ("f(" + "s(" * dsl.MAX_NESTING + "x" + ")" * dsl.MAX_NESTING
               + ") = f(x)")
    assert print_equation(parse_equation(deepest)) == deepest


def test_nested_sigma_and_coefficients_round_trip():
    for text in (
        "f(s(s(x)) y) = f(x y)",
        "1/2*f(x) = g(x) - i*g(y)",
        "a*f(x) = 3*g(x y z) + f(s(x))",
        "h(x) = f(x)*g(x)*h(y)",
    ):
        assert print_equation(parse_equation(text)) == text


def test_equation_symbols():
    funcs, variables, uses_a = equation_symbols(builtin("alpha-sym"))
    assert funcs == {"f", "g"} and variables == {"x", "y"} and uses_a
    funcs, variables, uses_a = equation_symbols(builtin("cos-sub"))
    assert not uses_a


def test_residual_known_values():
    S = z2()
    half = fn(S, [0.5, 0.5])
    one = fn(S, [1.0, 1.0])
    ast = builtin("cos-sub")
    assert evaluate_residual(ast, {"f": half, "g": half}, S) <= TOL
    assert evaluate_residual(ast, {"f": one, "g": one}, S) == 1.0
    zero = fn(S, [0.0, 0.0])
    assert evaluate_residual(builtin("sine-add"), {"f": zero, "g": one}, S) == 0


def test_residual_requires_bindings():
    S = z2()
    one = fn(S, [1.0, 1.0])
    with pytest.raises(KeyError, match="unbound symbol"):
        evaluate_residual(builtin("cos-sub"), {"g": one}, S)
    with pytest.raises(KeyError, match="unbound constant 'a'"):
        evaluate_residual(builtin("alpha-sym"), {"f": one, "g": one}, S)


def test_residual_invariant_under_variable_swap():
    # Renaming x <-> y everywhere permutes the assignments, so the max
    # residual cannot change.
    rng = random.Random(17)
    for S in (z2(), z3()):
        f = fn(S, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(S.n)])
        g = fn(S, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(S.n)])
        for eq_id, text in BUILTIN_EQUATIONS.items():
            swapped = (text.replace("x", "@").replace("y", "x")
                       .replace("@", "y"))
            binding = {"f": f, "g": g, "a": 1 + 1j}
            r1 = evaluate_residual(parse_equation(text), binding, S)
            r2 = evaluate_residual(parse_equation(swapped), binding, S)
            assert abs(r1 - r2) <= TOL, eq_id


@pytest.mark.parametrize("table_on,carrier,fragment", [
    (z3, z2, "table bound to 'f' has 3 values but |S| = 2"),
    (z2, z3, "table bound to 'f' has 2 values but |S| = 3"),
])
def test_finite_residual_rejects_a_table_of_the_wrong_size(
        table_on, carrier, fragment):
    # Without the check a longer table is read through its first |S|
    # values, a wrong answer with no error.
    T, S = table_on(), carrier()
    f = fn(T, np.ones(T.n))
    g = fn(S, np.ones(S.n))
    with pytest.raises(ValueError) as err:
        evaluate_residual(builtin("sine-add"), {"f": f, "g": g}, S)
    assert str(err.value) == fragment


AGREEMENT_CARRIERS = (z1, z2, z3, n3, m3, np4, z2xz2)


def _interpreted_twin(S):
    """The same table and sigma as a windowed carrier over all elements,
    so `evaluate_residual` compiles it as a windowed carrier.  Its at most
    4^3 = 64 triples are all checked for associativity."""
    return WindowedSemigroup(f"{S.name}-interpreted",
                             lambda x, y: int(S.table[x, y]),
                             lambda x: int(S.sigma[x]), range(S.n))


def _assert_agree(ast, binding, S, W):
    finite = evaluate_residual(ast, binding, S)
    windowed = evaluate_residual(ast, binding, W)
    assert finite == windowed or (np.isnan(finite) and np.isnan(windowed))


def _random_binding(S, rng):
    def table():
        return fn(S, rng.normal(size=S.n) + 1j * rng.normal(size=S.n))
    return {"f": table(), "g": table(), "h": table(),
            "a": complex(rng.normal(), rng.normal())}


def test_nan_values_give_a_nan_residual_on_both_paths():
    S = z2()
    binding = {"f": fn(S, [np.nan, 0]), "g": fn(S, [1, 1])}
    for carrier in (S, _interpreted_twin(S)):
        assert np.isnan(evaluate_residual(builtin("sine-add"), binding,
                                          carrier)), carrier.name


def test_finite_kernel_agrees_with_the_interpreter():
    """A finite carrier and its windowed twin give the same residual,
    bit for bit: both gather the same values into the same term sum.  The
    census carriers of order 4 add the built-ins, one binding each."""
    rng = np.random.default_rng(5)
    for make in AGREEMENT_CARRIERS:
        S = make()
        W = _interpreted_twin(S)
        for seed in range(12):
            binding = _random_binding(S, rng)
            for ast in (*map(builtin, BUILTIN_EQUATIONS),
                        random_equation(random.Random(seed))):
                _assert_agree(ast, binding, S, W)
        for eq_id in BUILTIN_EQUATIONS:
            pairs = oracle.grid_solutions(eq_id, S)
            for f, g in pairs[::max(1, len(pairs) // 8)]:
                _assert_agree(builtin(eq_id), {"f": f, "g": g, "a": 1.0},
                              S, W)
    for k, (table, sigma) in enumerate(census(4)):
        S = FiniteSemigroup(f"C4.{k}", "0123", table, sigma)
        W = _interpreted_twin(S)
        binding = _random_binding(S, rng)
        for ast in map(builtin, BUILTIN_EQUATIONS):
            _assert_agree(ast, binding, S, W)


def test_a_compiled_finite_kernel_evaluates_no_word(monkeypatch):
    """Once a finite carrier's kernels are compiled, no residual on it
    evaluates a word: only a fresh carrier's first residual does."""
    S, T = z2xz2(), z2()
    f, g = oracle.grid_solutions("sine-add", S)[100]
    before = classify("sine-add", f, g, S).to_json_dict()
    report = stable_json(oracle.coverage_report(T))

    def no_words(*args):
        raise AssertionError("a word column ran after the kernel was "
                             "compiled")
    monkeypatch.setattr(dsl, "_word_column", no_words)
    assert classify("sine-add", f, g, S).to_json_dict() == before
    with pytest.raises(NotASolutionError):
        classify("sine-add", g, f, S)
    assert stable_json(oracle.coverage_report(T)) == report
    with pytest.raises(AssertionError, match="a word column ran"):
        evaluate_residual(builtin("sine-add"), {"f": f, "g": g},
                          _interpreted_twin(S))


def _word_element(word, env, S):
    """A word's element under one assignment, one product at a time."""
    value = None
    for atom in word.atoms:
        v = env[atom.name] if isinstance(atom, Var) else \
            S.sig(_word_element(atom.word, env, S))
        value = v if value is None else S.mul(value, v)
    return value


def _per_assignment_compile(ast, S):
    """The kernel's points, index and terms from a loop over assignments,
    each application's element given the next slot when first reached (a
    finite carrier's elements start in their own slots)."""
    funcs, varset, _ = equation_symbols(ast)
    fns, names = sorted(funcs), sorted(varset)
    apps, terms = [], []
    for expr, orient in ((ast.lhs, 1), (ast.rhs, -1)):
        for term in expr.terms:
            first = len(apps)
            apps.extend(term.apps)
            terms.append((term.sign * orient < 0, term.coeff,
                          range(first, len(apps))))
    slot = ({e: e for e in S.window} if isinstance(S, FiniteSemigroup)
            else {})
    cols = [[] for _ in apps]
    for assignment in itertools.product(S.window, repeat=len(names)):
        env = dict(zip(names, assignment))
        for col, app in zip(cols, apps):
            col.append(slot.setdefault(_word_element(app.word, env, S),
                                       len(slot)))
    n = len(slot)
    index = np.array([np.array(col) + fns.index(app.fn) * n
                      for app, col in zip(apps, cols)])
    return tuple(slot), index, terms


def _nests_sigma(word, depth=0):
    return any(isinstance(atom, Sig) and (depth or _nests_sigma(atom.word, 1))
               for atom in word.atoms)


def test_the_column_compile_matches_the_per_assignment_loop():
    randoms = [random_equation(random.Random(seed)) for seed in range(30)]
    assert any(_nests_sigma(app.word) for ast in randoms
               for expr in (ast.lhs, ast.rhs) for term in expr.terms
               for app in term.apps)
    carriers = [make() for make in AGREEMENT_CARRIERS]
    carriers += [_interpreted_twin(S) for S in carriers]
    carriers += [example1(window_max=w) for w in (2, 3, 12, 16)]
    for S in carriers:
        for ast in (*map(builtin, BUILTIN_EQUATIONS), *randoms):
            if len(equation_symbols(ast)[1]) == 3 and len(S.window) > 11:
                continue
            kernel = dsl._Kernel(ast, S)
            points, index, terms = _per_assignment_compile(ast, S)
            label = f"{S.name}: {print_equation(ast)}"
            assert kernel.points == points, label
            assert kernel.index.dtype == index.dtype, label
            assert np.array_equal(kernel.index, index), label
            assert kernel.terms == terms, label


def test_the_compile_calls_sigma_once_per_distinct_element():
    """On example 1's window of 15 points: one sigma call per distinct y,
    and one product per assignment, however many applications share the
    word x s(y) (the alpha equations apply it to f and to g)."""
    W = example1(window_max=16)
    calls = Counter()

    def mul(a, b):
        calls["mul"] += 1
        return W.mul(a, b)

    def sig(a):
        calls["sig"] += 1
        return W.sig(a)
    counted = WindowedSemigroup("Example1-counted", mul, sig, W.window)
    for source in ("f(x s(y)) = f(x)*g(y)", BUILTIN_EQUATIONS["cos-sub"],
                   BUILTIN_EQUATIONS["alpha-sym"],
                   BUILTIN_EQUATIONS["alpha-skew"]):
        calls.clear()
        kernel = dsl._Kernel(parse_equation(source), counted)
        assert calls == {"sig": 15, "mul": 225}, source
        assert kernel.points == dsl._Kernel(kernel.ast, W).points


def test_windowed_functions_are_called_once_per_distinct_element():
    """Each bound function is called at most once per distinct element a
    windowed residual reaches, however many assignments reach it."""
    for W in (_interpreted_twin(z2xz2()), example1(window_max=12)):
        for eq_id in BUILTIN_EQUATIONS:
            calls = Counter()

            def counted(name):
                def value(x):
                    calls[name, x] += 1
                    return complex(hash(x) % 7, len(name))
                return value
            binding = {name: counted(name) for name in ("f", "g")}
            binding["a"] = 0.5
            assert evaluate_residual(builtin(eq_id), binding, W) >= 0.0
            assert calls and max(calls.values()) == 1, (W.name, eq_id)


def test_windowed_functions_are_called_only_where_their_applications_read():
    """On example 1's window of 15 points, each bound function is called
    once at each element its own applications reach and nowhere else:
    under cos-sub, f is read at x and y only, the window."""
    W = example1(window_max=16)
    for eq_id in BUILTIN_EQUATIONS:
        ast = builtin(eq_id)
        funcs, varset, _ = equation_symbols(ast)
        names = sorted(varset)
        apps = [app for expr in (ast.lhs, ast.rhs) for term in expr.terms
                for app in term.apps]
        reached = {name: set() for name in funcs}
        for assignment in itertools.product(W.window, repeat=len(names)):
            env = dict(zip(names, assignment))
            for app in apps:
                reached[app.fn].add(_word_element(app.word, env, W))
        calls = {name: Counter() for name in funcs}

        def counted(name):
            def value(x):
                calls[name][x] += 1
                return complex(x % 7, len(name))
            return value
        binding = {name: counted(name) for name in funcs}
        binding["a"] = 0.5
        assert evaluate_residual(ast, binding, W) >= 0.0
        for name in funcs:
            assert set(calls[name]) == reached[name], (eq_id, name)
            assert max(calls[name].values()) == 1, (eq_id, name)
        if eq_id == "cos-sub":
            assert set(calls["f"]) == set(W.window)
            assert len(W.kernels[id(ast)].points) > len(W.window)


def test_a_formula_raising_off_the_window_leaves_the_residual_unchanged():
    # Cos-sub reads f at x and y only; a formula that refuses every other
    # element gives the same floats, on the solution and off it.
    W = example1(window_max=16)
    params = CaseParams(chi=W.extras["chi"],
                        A=W.extras["additive_family"]({5: 1.0, 7: -0.5}),
                        rho=W.extras["rho_family"](1.0, "even"))
    f, g = construct(CaseId("cos-sub", 5, "+"), params, W)
    window = set(W.window)

    def strict(x):
        if x not in window:
            raise AssertionError(f"f read at {x}, off the window")
        return f(x)
    ast = builtin("cos-sub")
    for g_ in (g, lambda x: g(x) + x % 3):
        expected = evaluate_residual(ast, {"f": f, "g": g_}, W)
        assert evaluate_residual(ast, {"f": strict, "g": g_}, W) == expected
    assert expected > 1.0


def test_finite_tables_work_out_no_read_slots():
    # Tables are gathered as they stand; only an evaluated binding asks
    # which slots its applications read.
    S = z3()
    ast = builtin("alpha-sym")
    evaluate_residual(ast, _random_binding(S, np.random.default_rng(3)), S)
    assert S.kernels[id(ast)].reads is None


def test_kernel_memo_never_hashes_the_ast_and_stays_bounded(monkeypatch):
    base = z3()
    S = FiniteSemigroup(base.name, base.elements, base.table, base.sigma)
    binding = _random_binding(S, np.random.default_rng(7))
    ast = builtin("alpha-sym")
    first = evaluate_residual(ast, binding, S)

    def no_hash(self):
        raise AssertionError("the AST was hashed")
    monkeypatch.setattr(dsl.Equation, "__hash__", no_hash)
    assert evaluate_residual(ast, binding, S) == first
    assert S.kernels[id(ast)].ast is ast
    for seed in range(KERNEL_MEMO_SIZE + 5):
        evaluate_residual(random_equation(random.Random(seed)), binding, S)
    assert 0 < len(S.kernels) <= KERNEL_MEMO_SIZE


@pytest.mark.parametrize("make", [m3, np4, z2xz2], ids=["M3", "NP4", "Z2xZ2"])
def test_stacked_kernel_rows_equal_the_per_pair_floats(make):
    """Every row of a stacked residual is the per-pair float, bit for bit.

    Tables come from grid stacks (every 5th solution of each built-in,
    with h bound to the g rows shifted by one); the residual is compared
    with `==`, on the built-ins and on the random ASTs above.
    """
    S = make()
    asts = [*map(builtin, BUILTIN_EQUATIONS),
            *(random_equation(random.Random(seed)) for seed in range(12))]
    for eq_id in BUILTIN_EQUATIONS:
        sols = oracle.grid_solutions(eq_id, S)[::5]
        F, G = sols.f, sols.g
        H = np.roll(G, 1, axis=0)
        a = 1.5 + 0.5j
        for ast in asts:
            rows = dsl.residual_rows(ast, {"f": F, "g": G, "h": H, "a": a},
                                     S)
            assert rows.shape == (len(F),)
            for k in range(len(F)):
                binding = {"f": fn(S, F[k]), "g": fn(S, G[k]),
                           "h": fn(S, H[k]), "a": a}
                assert rows[k] == evaluate_residual(ast, binding, S)


def test_stacked_tables_must_span_the_carrier():
    S = z3()
    with pytest.raises(ValueError, match="has 2 values but"):
        dsl.residual_rows(builtin("sine-add"),
                          {"f": np.zeros((4, 2)), "g": np.zeros((4, 2))}, S)
    assert dsl.residual_rows(builtin("sine-add"), {
        "f": np.zeros((0, 3)), "g": np.zeros((0, 3))}, S).shape == (0,)
