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

Residuals come from a kernel compiled once per AST and carrier, on one
path for every carrier: each application's word is evaluated a column at
a time over every assignment of the variables from ``S.window`` (a
product is one map of ``S.mul`` over two columns, and ``s(...)`` calls
``S.sig`` once per distinct element of its inner column), which gives one
array of point indices per application.  A residual is
one numpy gather of the bound functions' values at the points, each
term's factors multiplied and the terms summed in AST order.  A finite
carrier's points are its element indices, and a bound table is gathered
as it stands; a windowed carrier's points are the elements reached, and
each bound function is called once per point its applications read.  Both
kinds of carrier give the same floats for the same values.
"""

from __future__ import annotations

import itertools
import random
import unicodedata
from dataclasses import dataclass

import numpy as np

from .core import FiniteSemigroup, FnTable, _evaluator

MAX_RATIONAL = 10 ** 6
#: The deepest nesting of s(...) that a word may have.
MAX_NESTING = 100

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
        if ch.isdecimal():
            start = k
            while k < len(text) and text[k].isdecimal():
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


def _numeral(digits: str, pos: int) -> int:
    """A run of decimal digits as an int, refused as out of range before
    int() reads more digits than MAX_RATIONAL has (leading zeros aside)."""
    digits = "".join(str(unicodedata.decimal(d)) for d in digits).lstrip("0")
    if len(digits) > len(str(MAX_RATIONAL)):
        raise EquationSyntaxError("rational out of range", pos)
    return int(digits or "0")


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
            num = _numeral(value, pos)
            den = 1
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("NUM", "denominator")
                den = _numeral(dtok[1], pos)
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

    def parse_word(self, depth: int = 0) -> Word:
        atoms = []
        while True:
            kind, value, pos = self.peek()
            if kind == "LETTER" and value in VARIABLES:
                self.advance()
                atoms.append(Var(value))
            elif kind == "LETTER" and value == "s":
                if depth == MAX_NESTING:
                    raise EquationSyntaxError("s(...) nested too deep", pos)
                self.advance()
                self.expect("(", "'(' after s")
                inner = self.parse_word(depth + 1)
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


def coeff_value(coeff: Coeff, binding: dict) -> complex:
    """A term's coefficient; :func:`_check_binding` has made sure of 'a'."""
    if coeff.kind == "rational":
        return complex(coeff.num / coeff.den)
    if coeff.kind == "i":
        return 1j
    return complex(binding["a"])


def _word_column(word: Word, env: dict, mul, sig) -> list:
    """A word's elements over every assignment, given each variable's
    column in `env`: products go a column at a time, and ``s(...)`` calls
    `sig` once per distinct element of its inner column."""
    column = None
    for atom in word.atoms:
        if isinstance(atom, Var):
            v = env[atom.name]
        else:
            inner = _word_column(atom.word, env, mul, sig)
            distinct = dict.fromkeys(inner)
            image = dict(zip(distinct, map(sig, distinct)))
            v = list(map(image.__getitem__, inner))
        column = v if column is None else list(map(mul, column, v))
    return column


def _check_binding(funcs, uses_a: bool, binding: dict) -> None:
    for name in funcs:
        if name not in binding:
            raise KeyError(f"unbound symbol {name!r}")
    if uses_a and "a" not in binding:
        raise KeyError("unbound constant 'a'")


class _Kernel:
    """An equation compiled on one carrier.

    The compile evaluates each distinct word of the applications once, as
    one column over every assignment of the variables from ``S.window``
    (see :func:`_word_column`), assignments in ``itertools.product`` order.
    The points are a finite carrier's element indices, or the elements a
    windowed carrier's applications reach, in the order first reached
    (assignment by assignment, applications in AST order).  Function
    symbol k's values sit at k*n .. k*n + n - 1 of the concatenated value
    tables, n the number of points, so ``index[r]`` gathers application r
    (in AST order) over every assignment.  ``finite`` says the points are
    a finite carrier's elements, so that bound tables are read as they
    stand.  Each term is (negated, coeff, rows): ``negated`` folds the
    term's sign with its side of the equation, and ``rows`` lists the
    term's applications.  ``reads`` is None until a binding is evaluated
    rather than read as a table (see :meth:`_bound_values`).
    """

    __slots__ = ("ast", "points", "finite", "fns", "uses_a", "index",
                 "terms", "reads")

    def __init__(self, ast: Equation, S):
        self.ast = ast
        funcs, varset, self.uses_a = equation_symbols(ast)
        self.fns = sorted(funcs)
        names = sorted(varset)
        apps, self.terms = [], []
        for expr, orient in ((ast.lhs, 1), (ast.rhs, -1)):
            for term in expr.terms:
                first = len(apps)
                apps.extend(term.apps)
                self.terms.append((term.sign * orient < 0, term.coeff,
                                   range(first, len(apps))))
        self.finite = isinstance(S, FiniteSemigroup)
        env = dict(zip(names, zip(*itertools.product(S.window,
                                                     repeat=len(names)))))
        words = {w: _word_column(w, env, S.mul, S.sig)
                 for w in dict.fromkeys(app.word for app in apps)}
        cols = [words[app.word] for app in apps]
        # A finite carrier's elements come first, each its own slot.
        self.points = tuple(dict.fromkeys(itertools.chain(
            S.window if self.finite else (),
            itertools.chain.from_iterable(zip(*cols)))))
        n = len(self.points)
        slot = dict(zip(self.points, range(n)))
        self.index = np.array([np.fromiter(map(slot.__getitem__, col),
                                           np.intp, len(col))
                               + self.fns.index(app.fn) * n
                               for app, col in zip(apps, cols)])
        self.reads = None

    def _read_slots(self) -> list:
        """For each function symbol, the slots of the points its
        applications read, in point order, and those points."""
        read = np.zeros(len(self.fns) * len(self.points), dtype=bool)
        read[self.index] = True
        return [(slots, [self.points[i] for i in slots.tolist()])
                for slots in map(np.flatnonzero,
                                 read.reshape(len(self.fns), -1))]

    def _bound_values(self, k: int, fn) -> np.ndarray:
        """The value table of function symbol k, bound to `fn`, at the
        points.

        On a finite carrier, whose points are its element indices, a table
        is read as it stands: its last axis runs over the elements and its
        leading axes are rows.  Anything else is bound once (see
        :func:`addlaws.core._evaluator`) and called once at each slot that
        symbol k's applications read, worked out the first time and kept
        in ``reads``; the other slots, which no gather reads, hold 0.
        """
        n = len(self.points)
        table = fn.values if self.finite and isinstance(fn, FnTable) else fn
        if self.finite and isinstance(table, np.ndarray):
            if table.shape[-1:] != (n,):
                got = table.shape[-1] if table.ndim else 0
                raise ValueError(f"table bound to {self.fns[k]!r} has {got} "
                                 f"values but |S| = {n}")
            return table
        if self.reads is None:
            self.reads = self._read_slots()
        slots, points = self.reads[k]
        ev = _evaluator(fn)
        values = np.zeros(n, dtype=np.complex128)
        values[slots] = [complex(ev(e)) for e in points]
        return values

    def residuals(self, binding: dict) -> np.ndarray:
        """max |LHS - RHS| per row of the bound tables: each term's factors
        multiplied in AST order, the terms summed in AST order.  Stacked
        tables (equal leading axes) give one residual per row; plain
        tables give one scalar."""
        tables = np.concatenate([self._bound_values(k, binding[name])
                                 for k, name in enumerate(self.fns)], axis=-1)
        # With the element axis first (tables.T, copied element-major so
        # the gather reads contiguous rows), gathered[r] is application r
        # over (assignment, rows...), and .T restores the rows' order.
        gathered = np.ascontiguousarray(tables.T)[self.index]
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


def _kernel(ast: Equation, S) -> _Kernel:
    """The compiled kernel of `ast` on S, memoized per carrier.

    The memo is keyed by ``id(ast)``, so a lookup never hashes the AST.
    Each kernel holds its AST, which keeps the id from being reused while
    the entry lives.
    """
    memo = S.kernels
    kernel = memo.get(id(ast))
    if kernel is None:
        if len(memo) >= KERNEL_MEMO_SIZE:
            memo.clear()
        kernel = memo[id(ast)] = _Kernel(ast, S)
    return kernel


def evaluate_residual(ast: Equation, binding: dict, S) -> float:
    """max |LHS - RHS| over all variable assignments from ``S.window``.

    `binding` maps each function symbol used by the equation to a callable
    on elements and, if the equation uses it, the constant 'a' to a number.
    On a finite semigroup a symbol may also be bound to a value table, and
    one whose length is not |S| raises ValueError.
    """
    return float(residual_rows(ast, binding, S))


def residual_rows(ast: Equation, binding: dict, S) -> np.ndarray:
    """`evaluate_residual` for stacks of tables.

    On a finite carrier each function symbol may be bound to an array
    whose last axis runs over the elements of S; its leading axes are rows,
    and the result holds one residual per row.  Row by row the floats are
    the ones `evaluate_residual` gives for that row's tables, which is this
    function on one row.
    """
    kernel = _kernel(ast, S)
    _check_binding(kernel.fns, kernel.uses_a, binding)
    return kernel.residuals(binding)


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
