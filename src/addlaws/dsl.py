"""A small DSL for functional equations on a semigroup with automorphism.

Grammar (whitespace-insensitive, no precedence beyond term/expression,
no leading minus, '*' mandatory between factors):

    eq    := expr '=' expr
    expr  := term (('+'|'-') term)*
    term  := (coeff '*')? app ('*' app)*
    app   := ('f'|'g'|'h') '(' word ')'
    word  := atom+
    atom  := 'x' | 'y' | 'z' | 's' '(' word ')'
    coeff := rational | 'i' | 'a'
    rational := digits ('/' digits)?

's(w)' applies the automorphism to the word w; 'a' is the one named
constant an equation may carry.

Residuals on a finite carrier come from a kernel compiled once per AST and
carrier: one array of element indices per function application over every
variable assignment, so a residual is one numpy gather of the bound value
tables, each term's factors multiplied and the terms summed in AST order.
Windowed carriers, whose elements are not indices, stay interpreted: the
AST is walked once per variable assignment.  The two paths agree to
rounding, not bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import FiniteSemigroup, FnTable, WindowedSemigroup

MAX_RATIONAL = 10 ** 6

FUNCTIONS = ("f", "g", "h")
VARIABLES = ("x", "y", "z")


class EquationSyntaxError(ValueError):
    """Parse failure with the offending position (0-based offset)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Sig:
    word: "Word"


@dataclass(frozen=True)
class Word:
    atoms: tuple


@dataclass(frozen=True)
class App:
    fn: str
    word: Word


@dataclass(frozen=True)
class Coeff:
    kind: str              # "rational" | "i" | "a"
    num: int = 0
    den: int = 1


@dataclass(frozen=True)
class Term:
    sign: int              # +1 or -1; the first term of an expr is +1
    coeff: Coeff | None
    apps: tuple


@dataclass(frozen=True)
class Expr:
    terms: tuple


@dataclass(frozen=True)
class Equation:
    lhs: Expr
    rhs: Expr


_PUNCT = set("+-*/()=")
_LETTERS = set("fghsxyzia")


def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < len(text) and text[k].isdigit():
                k += 1
            tokens.append(("NUM", text[start:k], start))
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, k))
            k += 1
            continue
        if ch in _LETTERS:
            tokens.append(("LETTER", ch, k))
            k += 1
            continue
        raise EquationSyntaxError(f"unexpected character {ch!r}", k)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise EquationSyntaxError(f"expected {what}", tok[2])
        return self.advance()

    def parse_equation(self) -> Equation:
        lhs = self.parse_expr()
        self.expect("=", "'='")
        rhs = self.parse_expr()
        tok = self.peek()
        if tok[0] != "END":
            raise EquationSyntaxError("trailing input", tok[2])
        return Equation(lhs, rhs)

    def parse_expr(self) -> Expr:
        terms = [self.parse_term(1)]
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            terms.append(self.parse_term(sign))
        return Expr(tuple(terms))

    def parse_term(self, sign: int) -> Term:
        coeff = None
        kind, value, pos = self.peek()
        if kind == "NUM":
            self.advance()
            num = int(value)
            den = 1
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("NUM", "denominator")
                den = int(dtok[1])
                if den == 0:
                    raise EquationSyntaxError("zero denominator", dtok[2])
            if num > MAX_RATIONAL or den > MAX_RATIONAL:
                raise EquationSyntaxError("rational out of range", pos)
            coeff = Coeff("rational", num, den)
            self.expect("*", "'*' after coefficient")
        elif kind == "LETTER" and value in ("i", "a"):
            self.advance()
            coeff = Coeff(value)
            self.expect("*", "'*' after coefficient")
        apps = [self.parse_app()]
        while self.peek()[0] == "*":
            self.advance()
            apps.append(self.parse_app())
        return Term(sign, coeff, tuple(apps))

    def parse_app(self) -> App:
        kind, value, pos = self.peek()
        if kind != "LETTER" or value not in FUNCTIONS:
            raise EquationSyntaxError("expected function symbol f, g or h", pos)
        self.advance()
        self.expect("(", "'('")
        word = self.parse_word()
        self.expect(")", "')'")
        return App(value, word)

    def parse_word(self) -> Word:
        atoms = []
        while True:
            kind, value, pos = self.peek()
            if kind == "LETTER" and value in VARIABLES:
                self.advance()
                atoms.append(Var(value))
            elif kind == "LETTER" and value == "s":
                self.advance()
                self.expect("(", "'(' after s")
                inner = self.parse_word()
                self.expect(")", "')'")
                atoms.append(Sig(inner))
            else:
                break
        if not atoms:
            raise EquationSyntaxError("empty word", self.peek()[2])
        return Word(tuple(atoms))


def parse_equation(text: str) -> Equation:
    """Parse DSL text into an equation AST (see module grammar)."""
    return _Parser(text).parse_equation()


def _print_word(word: Word) -> str:
    parts = []
    for atom in word.atoms:
        if isinstance(atom, Var):
            parts.append(atom.name)
        else:
            parts.append(f"s({_print_word(atom.word)})")
    return " ".join(parts)


def _print_coeff(coeff: Coeff) -> str:
    if coeff.kind == "rational":
        return str(coeff.num) if coeff.den == 1 else f"{coeff.num}/{coeff.den}"
    return coeff.kind


def _print_term(term: Term) -> str:
    parts = []
    if term.coeff is not None:
        parts.append(_print_coeff(term.coeff))
    parts.extend(f"{app.fn}({_print_word(app.word)})" for app in term.apps)
    return "*".join(parts)


def _print_expr(expr: Expr) -> str:
    out = [_print_term(expr.terms[0])]
    for term in expr.terms[1:]:
        out.append(" + " if term.sign > 0 else " - ")
        out.append(_print_term(term))
    return "".join(out)


def print_equation(ast: Equation) -> str:
    """Canonical text form; parse(print(ast)) is structurally identical."""
    return f"{_print_expr(ast.lhs)} = {_print_expr(ast.rhs)}"


def equation_symbols(ast: Equation) -> tuple[set, set, bool]:
    """(function symbols, variables, uses the named constant 'a')."""
    funcs: set[str] = set()
    varset: set[str] = set()
    uses_a = False

    def walk_word(word: Word):
        for atom in word.atoms:
            if isinstance(atom, Var):
                varset.add(atom.name)
            else:
                walk_word(atom.word)

    for expr in (ast.lhs, ast.rhs):
        for term in expr.terms:
            if term.coeff is not None and term.coeff.kind == "a":
                uses_a = True
            for app in term.apps:
                funcs.add(app.fn)
                walk_word(app.word)
    return funcs, varset, uses_a


def coeff_value(coeff: Coeff | None, binding: dict) -> complex:
    if coeff is None:
        return 1.0 + 0j
    if coeff.kind == "rational":
        return complex(coeff.num / coeff.den)
    if coeff.kind == "i":
        return 1j
    if "a" not in binding:
        raise KeyError("unbound constant 'a'")
    return complex(binding["a"])


def word_element(word: Word, env: dict, mul, sig):
    """Evaluate a word to a semigroup element under a variable assignment."""
    value = None
    for atom in word.atoms:
        v = env[atom.name] if isinstance(atom, Var) else \
            sig(word_element(atom.word, env, mul, sig))
        value = v if value is None else mul(value, v)
    return value


def _word_indices(word: Word, env: dict, S: FiniteSemigroup) -> np.ndarray:
    """Array form of `word_element`: element indices over all assignments."""
    value = None
    for atom in word.atoms:
        v = env[atom.name] if isinstance(atom, Var) else \
            S.sigma[_word_indices(atom.word, env, S)]
        value = v if value is None else S.table[value, v]
    return value


def _window_indices(window: Iterable, n: int) -> np.ndarray:
    domain = tuple(window)
    for e in domain:
        if e not in range(n):
            raise ValueError(f"window element {e!r} is not an element "
                             f"index of S (0..{n - 1})")
    return np.array(domain, dtype=np.intp)


def _bound_values(name: str, fn, n: int) -> np.ndarray:
    """The value table of one bound function symbol on a carrier of size n.

    An array's last axis runs over the elements; leading axes are rows.
    """
    if isinstance(fn, FnTable) and fn.values is not None:
        fn = fn.values
    if isinstance(fn, np.ndarray):
        if fn.shape[-1:] != (n,):
            got = fn.shape[-1] if fn.ndim else 0
            raise ValueError(f"table bound to {name!r} has {got} values "
                             f"but |S| = {n}")
        return fn
    return np.array([complex(fn(e)) for e in range(n)], dtype=np.complex128)


def _check_binding(funcs, uses_a: bool, binding: dict) -> None:
    for name in funcs:
        if name not in binding:
            raise KeyError(f"unbound symbol {name!r}")
    if uses_a and "a" not in binding:
        raise KeyError("unbound constant 'a'")


class _Kernel:
    """An equation compiled on one finite carrier and window.

    Function symbol k's values sit at k*n .. k*n + n - 1 of the
    concatenated value tables, so ``index[r]`` gathers application r (in
    AST order) over every variable assignment.  Each term is (negated, coeff,
    rows): ``negated`` folds the term's sign with its side of the equation,
    and ``rows`` lists the term's applications.
    """

    __slots__ = ("ast", "n", "fns", "uses_a", "index", "terms")

    def __init__(self, ast: Equation, S: FiniteSemigroup,
                 window: Iterable | None):
        self.ast = ast
        funcs, varset, self.uses_a = equation_symbols(ast)
        self.n = n = S.n
        domain = (np.arange(n) if window is None
                  else _window_indices(window, n))
        names = sorted(varset)
        grids = np.meshgrid(*[domain] * len(names), indexing="ij")
        env = {name: grid.ravel() for name, grid in zip(names, grids)}
        self.fns = sorted(funcs)
        rows, self.terms = [], []
        for expr, orient in ((ast.lhs, 1), (ast.rhs, -1)):
            for term in expr.terms:
                first = len(rows)
                for app in term.apps:
                    rows.append(self.fns.index(app.fn) * n
                                + _word_indices(app.word, env, S))
                self.terms.append((term.sign * orient < 0, term.coeff,
                                   range(first, len(rows))))
        self.index = np.array(rows)

    def residuals(self, binding: dict) -> np.ndarray:
        """max |LHS - RHS| per row of the bound tables: each term's factors
        multiplied in AST order, the terms summed in AST order.  Stacked
        tables (equal leading axes) give one residual per row; plain
        tables give one scalar."""
        tables = np.concatenate([_bound_values(name, binding[name], self.n)
                                 for name in self.fns], axis=-1)
        if self.index.shape[1] == 0:
            return np.zeros(tables.shape[:-1])
        # With the element axis first (tables.T), gathered[r] is application
        # r over (assignment, rows...), and .T restores the rows' order.
        gathered = tables.T[self.index]
        total = None
        for negated, coeff, rows in self.terms:
            value = gathered[rows[0]]
            if coeff is not None:
                value = coeff_value(coeff, binding) * value
            for r in rows[1:]:
                value = value * gathered[r]
            if total is None:
                total = -value if negated else value
            elif negated:
                total = total - value
            else:
                total = total + value
        return np.abs(total).max(axis=0).T


#: Compiled kernels a carrier keeps before its memo is cleared.
KERNEL_MEMO_SIZE = 256


def _kernel(ast: Equation, S: FiniteSemigroup,
            window: Iterable | None) -> _Kernel:
    """The compiled kernel of `ast` on S, memoized per carrier.

    The memo is keyed by ``id(ast)``, so a lookup never hashes the AST.
    Each kernel holds its AST, which keeps the id from being reused while
    the entry lives.  Kernels over an explicit window are not memoized.
    """
    if window is not None:
        return _Kernel(ast, S, window)
    memo = S.kernels
    kernel = memo.get(id(ast))
    if kernel is None:
        if len(memo) >= KERNEL_MEMO_SIZE:
            memo.clear()
        kernel = memo[id(ast)] = _Kernel(ast, S, None)
    return kernel


def evaluate_residual(ast: Equation, binding: dict, S,
                      window: Iterable | None = None) -> float:
    """max |LHS - RHS| over all variable assignments from the window.

    `binding` maps each function symbol used by the equation to a callable
    on elements and, if the equation uses it, the constant 'a' to a number.
    On a finite semigroup the window defaults to all of S, holds element
    indices, and the residual comes from the equation's compiled kernel; a
    bound table whose length is not |S| or a window entry that is not an
    element index raises ValueError.
    """
    if isinstance(S, WindowedSemigroup):
        return _interpreted_residual(ast, binding, S, window)
    return float(residual_rows(ast, binding, S, window))


def residual_rows(ast: Equation, binding: dict, S: FiniteSemigroup,
                  window: Iterable | None = None) -> np.ndarray:
    """`evaluate_residual` on a finite carrier for stacks of tables.

    Each function symbol may be bound to an array whose last axis runs
    over the elements of S; its leading axes are rows, and the result holds
    one residual per row.  Row by row the floats are the ones
    `evaluate_residual` gives for that row's tables, which is this function
    on one row.
    """
    kernel = _kernel(ast, S, window)
    _check_binding(kernel.fns, kernel.uses_a, binding)
    return kernel.residuals(binding)


def _interpreted_residual(ast: Equation, binding: dict, S: WindowedSemigroup,
                          window: Iterable | None) -> float:
    funcs, varset, uses_a = equation_symbols(ast)
    _check_binding(funcs, uses_a, binding)
    mul, sig = S.product, S.sigma
    domain = tuple(window) if window is not None else S.window
    names = sorted(varset)
    worst = 0.0
    for assignment in itertools.product(domain, repeat=len(names)):
        env = dict(zip(names, assignment))
        total = 0j
        for expr, orient in ((ast.lhs, 1.0), (ast.rhs, -1.0)):
            for term in expr.terms:
                value = term.sign * orient * coeff_value(term.coeff, binding)
                for app in term.apps:
                    elem = word_element(app.word, env, mul, sig)
                    value *= binding[app.fn](elem)
                total += value
        err = abs(total)
        if math.isnan(err):                 # max() would drop it
            return err
        worst = max(worst, err)
    return worst


#: The five built-in equations.
BUILTIN_EQUATIONS = {
    "cos-sub":    "g(x s(y)) = g(x)*g(y) + f(x)*f(y)",
    "sine-add":   "f(x s(y)) = f(x)*g(y) + f(y)*g(x)",
    "cos-sine-g": "f(x s(y)) = f(x)*g(y) + f(y)*g(x) - g(x)*g(y)",
    "alpha-sym":  "f(x s(y)) = f(x)*g(y) + f(y)*g(x) + a*g(x s(y))",
    "alpha-skew": "f(x s(y)) = f(x)*g(y) - f(y)*g(x) + a*g(x s(y))",
}

_BUILTIN_CACHE: dict[str, Equation] = {}


def builtin(equation_id: str) -> Equation:
    """Parsed AST of a built-in equation id."""
    if equation_id not in BUILTIN_EQUATIONS:
        raise KeyError(f"unknown equation id {equation_id!r}; "
                       f"known: {', '.join(sorted(BUILTIN_EQUATIONS))}")
    if equation_id not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[equation_id] = parse_equation(
            BUILTIN_EQUATIONS[equation_id])
    return _BUILTIN_CACHE[equation_id]


def resolve_equation(text: str) -> Equation:
    """Accept either a built-in id or literal DSL text."""
    if text in BUILTIN_EQUATIONS:
        return builtin(text)
    return parse_equation(text)


def random_equation(rng: random.Random) -> Equation:
    """A random well-formed AST, for parse/print round-trip fuzzing: up to
    3 terms a side, 2 applications a term and 2 nested s(...)."""

    def rand_word(depth: int) -> Word:
        atoms = []
        for _ in range(rng.randint(1, 3)):
            if depth < 2 and rng.random() < 0.3:
                atoms.append(Sig(rand_word(depth + 1)))
            else:
                atoms.append(Var(rng.choice(VARIABLES)))
        return Word(tuple(atoms))

    def rand_coeff() -> Coeff | None:
        roll = rng.random()
        if roll < 0.4:
            return None
        if roll < 0.7:
            return Coeff("rational", rng.randint(0, 12), rng.randint(1, 12))
        return Coeff(rng.choice(["i", "a"]))

    def rand_term(first: bool) -> Term:
        sign = 1 if first else rng.choice([1, -1])
        apps = tuple(App(rng.choice(FUNCTIONS), rand_word(0))
                     for _ in range(rng.randint(1, 2)))
        return Term(sign, rand_coeff(), apps)

    def rand_expr() -> Expr:
        count = rng.randint(1, 3)
        return Expr(tuple(rand_term(k == 0) for k in range(count)))

    return Equation(rand_expr(), rand_expr())
