"""Solution-family constructors for the five addition laws.

Each equation admits a finite list of solution shapes on a semigroup with
an involutive automorphism: the zero pair, pairs supported off the square
S^2, scalar multiples of one multiplicative function, mixtures of two
multiplicative functions, and piecewise families assembled from a
multiplicative function chi, an additive function A off chi's null ideal,
and a rho function on the prime part: the table chi A | 0 | rho.  A is 0
on every finite carrier (see :func:`addlaws.characters.additive_basis`),
so a piecewise case takes (chi, rho) there and (chi, A, rho) on a windowed
carrier.

:data:`CASES` holds one :class:`CaseSpec` record per published case: its
required parameter fields, its branches, the kind of parameter menu it
draws from (which is also the condition on its characters), each constant's
admissible set in draw order, and, for the zero pair and the cases built
from one free table alone, the pair's form.  ``EQUATION_IDS``,
``CASE_COUNTS``, ``BRANCHES`` and ``ALPHA_EQUATIONS`` are derived from it.
The form cases and the three ratio cases (cos-sub/2, alpha-skew/4,
alpha-skew/5) are row cases: their tables are written once for a stack of
parameter rows.  The other formulas stay in one builder per equation.
:func:`construct` checks the record's fields and clauses and builds the
(f, g) pair of one case (a row case as one row), and :func:`construct_rows`
builds a row case for a whole stack of rows at once;
:func:`admissible_params` reports which cases a concrete finite carrier
supports and draws random admissible parameters for them.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .characters import (AdditiveFn, RhoFn, check_condition_I,
                         check_condition_II, conjugate_representatives,
                         parity_residual, rho_space)
from .core import EPS, FiniteSemigroup, FnTable, square_set

#: Exactly representable scalars for random parameter draws.
SAMPLE_POOL = (1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j, 0.5 + 0j, -0.5 + 0j,
               1j, -1j, 1 + 1j, 1 - 1j)

#: Grid alphabet of the oracle's acceptance runs (zero, the units, the
#: square roots of -1, and the half/double ring), and the value pool of
#: random free-function draws.
DEFAULT_ALPHABET = (0, 1, -1, 1j, -1j, 0.5, -0.5, 2, -2)

#: How a constant's set is written in clauses.
_SHOWN = {0.5: "1/2", 1j: "i", -1j: "-i"}


@dataclass(frozen=True)
class _Constant:
    """One constant of a case: its value must lie in `values` (`inside`)
    or avoid them (no values: unconstrained).  The menus' clause, the
    text construct raises and the sampling pool are derived from it."""

    name: str
    values: tuple = ()
    inside: bool = False
    note: str = ""

    def _statement(self, inside: bool) -> str:
        shown = ", ".join(_SHOWN.get(v, f"{v:g}") for v in self.values)
        if len(self.values) == 1:
            return f"{self.name} {'=' if inside else '!='} {shown}"
        return f"{self.name} {'in' if inside else 'not in'} {{{shown}}}"

    @cached_property
    def clause(self) -> str:
        if not self.values:
            return f"{self.name} unconstrained"
        note = f" ({self.note})" if self.note else ""
        return self._statement(self.inside) + note

    @cached_property
    def failure(self) -> str:
        return self._statement(not self.inside)

    @cached_property
    def pool(self) -> tuple:
        """The set itself, or else SAMPLE_POOL without the set, plus 0
        unless 0 is in the set."""
        if self.inside:
            return self.values
        keep = tuple(v for v in SAMPLE_POOL if not _hits(v, self.values))
        return keep if _hits(0, self.values) else keep + (0j,)


@dataclass(frozen=True)
class CaseSpec:
    """The published facts of one case, read by construct and the menus.

    `menu` names what :func:`admissible_params` offers: "none" (no drawn
    data), "free-vanishing" (a free function vanishing on S^2),
    "free-arbitrary", "even" (one even character), "even-pair" (two
    distinct even characters), "noneven", "noneven-up-to-conj" (one of
    each chi, chi* pair), "piecewise-even" or "piecewise-odd" (an even chi
    with rho, and on a windowed carrier A, of that parity); construct
    checks the kind's condition on the characters.  `constants` lists each
    constant's admissible set in draw order.  `form`, when set, is the pair
    (f, g) as two factors of the free table: None is the zero table, 1 the
    free table itself, and a number or "alpha" that multiple of it.
    """

    fields: frozenset
    menu: str
    constants: tuple
    branches: tuple
    form: tuple | None


def _case(fields: str, menu: str = "none", *constants,
          branches: tuple = (), form: tuple | None = None) -> CaseSpec:
    """A record whose required CaseParams fields are named in `fields`."""
    return CaseSpec(frozenset(fields.split()), menu, constants, branches, form)


def _hits(values, targets):
    """Whether one value (a bool) or each of a sequence (an array) lies
    within EPS of a target.  np.hypot is the C library hypot that Python's
    complex abs calls, so a sequence gets one value's floats."""
    if isinstance(values, (int, float, complex)):
        v = complex(values)
        return any(abs(v - t) <= EPS for t in targets)
    v = np.asarray(values, dtype=np.complex128)
    out = np.zeros(v.shape, dtype=bool)
    for t in targets:
        d = v - complex(t)
        out |= np.hypot(d.real, d.imag) <= EPS
    return out


def _with_alpha(spec: CaseSpec) -> CaseSpec:
    """The record of a case of an equation that carries alpha, which is
    drawn before the case's own constants."""
    return replace(spec, fields=spec.fields | {"alpha"},
                   constants=(_Constant("alpha", (0,)),) + spec.constants)


_ZERO = (None, None)           # the form of the zero pair

_COS_SINE_G = (
    _case("", form=_ZERO),
    _case("free", "free-vanishing", form=(1, None)),
    _case("free", "free-vanishing", form=(1, 2)),
    _case("chi beta", "even", _Constant("beta", (0, 0.5))),
    _case("chi1 chi2 c1", "even-pair", _Constant("c1", (0, 1, -1))),
    _case("chi rho", "piecewise-even"),
    _case("chi rho", "piecewise-even"),
    _case("chi", "noneven", branches=("chi", "conj")),
)

#: One record per published case: CASES[equation][case - 1].  alpha-sym
#: maps onto cos-sine-g case by case, so it shares that list plus alpha.
CASES = {
    "cos-sub": (
        _case("", form=_ZERO),
        _case("free c", "free-vanishing",
              _Constant("c", (1j, -1j), inside=True)),
        _case("chi alpha", "even",
              _Constant("alpha", (1j, -1j), note="alpha = 0 gives f = 0")),
        _case("chi1 chi2 delta", "even-pair",
              _Constant("delta", (0, 1j, -1j))),
        _case("chi rho", "piecewise-even", branches=("+", "-")),
        _case("chi", "noneven"),
    ),
    "sine-add": (
        _case("free", "free-arbitrary", form=(None, 1)),
        _case("free", "free-vanishing", form=(1, None)),
        _case("chi alpha", "even", _Constant("alpha", (0,))),
        _case("chi1 chi2 c", "even-pair", _Constant("c", (0,))),
        _case("chi rho", "piecewise-even"),
    ),
    "cos-sine-g": _COS_SINE_G,
    # Case 3 keeps g as its free table where cos-sine-g builds (f, 2f).
    "alpha-sym": tuple(map(_with_alpha, _COS_SINE_G[:2] + (
        replace(_COS_SINE_G[2], form=(None, 1)),) + _COS_SINE_G[3:])),
    "alpha-skew": tuple(map(_with_alpha, (
        _case("free", "free-arbitrary", form=("alpha", 1)),
        _case("free", "free-vanishing", form=(None, 1)),
        _case("free", "free-vanishing", form=(1, None)),
        _case("free c", "free-vanishing", _Constant("c", (0, -1))),
        _case("chi c1 c2", "noneven-up-to-conj",
              _Constant("c1", (0,)), _Constant("c2")),
        _case("chi rho c", "piecewise-odd", _Constant("c")),
    ))),
}

EQUATION_IDS = tuple(CASES)

CASE_COUNTS = {eq: len(specs) for eq, specs in CASES.items()}

#: Cases that carry an explicit branch choice.
BRANCHES = {(eq, k): spec.branches for eq, specs in CASES.items()
            for k, spec in enumerate(specs, 1) if spec.branches}

#: Equations whose statement carries the non-zero constant alpha.
ALPHA_EQUATIONS = tuple(eq for eq, specs in CASES.items()
                        if all("alpha" in spec.fields for spec in specs))


class ConstraintError(ValueError):
    """A case parameter violates one of the case's stated constraints."""


@dataclass(frozen=True)
class CaseId:
    """One case of one equation's solution list, branch included."""

    equation: str
    case: int
    branch: str | None = None

    def __post_init__(self):
        if self.equation not in CASE_COUNTS:
            raise ValueError(f"unknown equation id {self.equation!r}")
        count = CASE_COUNTS[self.equation]
        if not 1 <= self.case <= count:
            raise ValueError(
                f"{self.equation} has cases 1..{count}, got {self.case}")
        allowed = BRANCHES.get((self.equation, self.case))
        if allowed is None and self.branch is not None:
            raise ValueError(
                f"{self.equation} case {self.case} takes no branch")
        if allowed is not None and self.branch not in allowed:
            raise ValueError(
                f"{self.equation} case {self.case} needs a branch in "
                f"{allowed}, got {self.branch!r}")

    def __str__(self):
        tail = self.branch or ""
        return f"{self.equation}/{self.case}{tail}"


def all_case_ids(equation: str) -> list[CaseId]:
    """Every CaseId of one equation, branches expanded."""
    return [CaseId(equation, k, b)
            for k, spec in enumerate(CASES[equation], 1)
            for b in spec.branches or (None,)]


@dataclass(frozen=True)
class CaseParams:
    """The parameter bundle of one case; only the case's fields are set."""

    chi: object | None = None
    chi1: object | None = None
    chi2: object | None = None
    A: AdditiveFn | None = None
    rho: RhoFn | None = None
    alpha: complex | None = None
    beta: complex | None = None
    delta: complex | None = None
    c: complex | None = None
    c1: complex | None = None
    c2: complex | None = None
    free: FnTable | None = None

    def present(self) -> frozenset[str]:
        return frozenset(name for name, value in self.__dict__.items()
                         if value is not None)


def _spec(case: CaseId) -> CaseSpec:
    return CASES[case.equation][case.case - 1]


def _check_fields(case: CaseId, params: CaseParams, S) -> None:
    spec = _spec(case)
    # A is 0 on a finite carrier, so only a windowed piecewise case takes it.
    fields = spec.fields | ({"A"} if "rho" in spec.fields and not _finite(S)
                            else set())
    present = params.present()
    if present != fields:
        raise ConstraintError(
            f"case {case} requires fields {sorted(fields)}, "
            f"got {sorted(present)}")
    for const in spec.constants:
        if not cmath.isfinite(getattr(params, const.name)):
            raise ConstraintError(f"{const.name} is not finite")


# ---------------------------------------------------------------------------
# Assembly helpers working on both carrier backends.  They hand FnTable
# read-only arrays, which it keeps without a copy.
# ---------------------------------------------------------------------------

def _finite(S) -> bool:
    return isinstance(S, FiniteSemigroup)


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


def _scale(h: FnTable, coeff: complex) -> FnTable:
    if h.finite:
        return FnTable(h.domain, values=_frozen(complex(coeff) * h.values))
    return FnTable(h.domain,
                   formula=lambda x, c=complex(coeff), f=h: c * f(x))


def _lin(S, *terms: tuple[complex, FnTable]) -> FnTable:
    """Linear combination sum(coeff * table)."""
    if _finite(S) and all(t.finite for _, t in terms):
        vals = np.zeros(S.n, dtype=np.complex128)
        for coeff, t in terms:
            vals = vals + complex(coeff) * t.values
        return FnTable(S, values=_frozen(vals))
    parts = tuple((complex(c), t) for c, t in terms)
    return FnTable(S, formula=lambda x: sum(c * t(x) for c, t in parts))


def _piece(S, chi, s_chi: complex, s_a: complex, A: AdditiveFn | None,
           s_rho: complex, rho: RhoFn) -> FnTable:
    """chi * (s_chi + s_a A) off the ideal, 0 on I \\ P, s_rho rho on P;
    a finite carrier's A is 0 and is not read."""
    if _finite(S):
        vals = chi.values * complex(s_chi)
        P = sorted(chi.prime_part)
        if P:
            vals[P] = complex(s_rho) * rho.values[P]
        return FnTable(S, values=_frozen(vals))

    def formula(x):
        if chi.in_prime_part(x):
            return complex(s_rho) * rho(x)
        if chi.in_ideal(x):
            return 0j
        return chi(x) * (complex(s_chi) + complex(s_a) * A(x))
    return FnTable(S, formula=formula)


# ---------------------------------------------------------------------------
# Clauses: the record's (constants, characters, the free table, rho's
# carrier) for every case, then the builders' checks of what it does not
# state (A and rho).
# ---------------------------------------------------------------------------

def _require(cond: bool, clause: str) -> None:
    if not cond:
        raise ConstraintError(clause)


def _clauses(case: CaseId, S, p: CaseParams, free):
    """Each clause of the case's record, in construct's order, with where
    it fails: a bool that broadcasts over the rows.  The first clauses ask
    that each character and the free table be one of S (of S itself or of
    a finite carrier with the same table and sigma).  `p` holds one pair's
    parameters or the rows (a constant is one number or a sequence over
    the rows; chi is shared; a stack of free rows has no carrier of its
    own); `free` is the free table's values, one row or a stack whose last
    axis runs over the elements."""
    homes = [(f"{name} is a character of another carrier",
              getattr(getattr(p, name), "semigroup", S))   # S when unset
             for name in ("chi", "chi1", "chi2")]
    homes.append(("free is a table of another carrier",
                  getattr(p.free, "domain", S)))
    for clause, T in homes:
        if T is not S:
            yield clause, not (_finite(T) and _finite(S)
                               and np.array_equal(T.table, S.table)
                               and np.array_equal(T.sigma, S.sigma))
    rho = p.rho
    if rho is not None and _finite(S):
        yield "rho is not a function on the prime part of chi", not (
            rho.values is not None and len(rho.values) == S.n
            and rho.domain == p.chi.prime_part)
    spec = _spec(case)
    for const in spec.constants:
        if const.values:
            yield const.failure, _hits(getattr(p, const.name),
                                       const.values) != const.inside
    kind = spec.menu
    if kind in ("even", "piecewise-even", "piecewise-odd"):
        yield "chi* = chi fails for chi", not getattr(p.chi, "even", False)
    elif kind == "even-pair":
        yield "chi* = chi fails for chi1", not getattr(p.chi1, "even", False)
        yield "chi* = chi fails for chi2", not getattr(p.chi2, "even", False)
        yield "chi1 = chi2", not any(abs(p.chi1(x) - p.chi2(x)) > EPS
                                     for x in S.window)
    elif kind in ("noneven", "noneven-up-to-conj"):
        yield "chi* != chi fails", getattr(p.chi, "even", True)
    elif kind == "free-vanishing":
        yield "free function is zero", np.all(np.abs(free) <= EPS, axis=-1)
        sq = sorted(square_set(S))
        if sq:
            yield ("free function does not vanish on S^2",
                   ~(np.max(np.abs(free[..., sq]), axis=-1) <= EPS))


def _check_parity(S, fn: AdditiveFn, name: str, parity: str) -> None:
    _require(fn.parity == parity and parity_residual(fn, S) <= EPS,
             f"{name} parity must be {parity}")


def _sine_piece(S, params: CaseParams, parity: str = "even") -> FnTable:
    """Validated chi A | 0 | rho table from rho, and A on a windowed
    carrier."""
    chi = params.chi
    if params.A is not None:
        _check_parity(S, params.A, "A", parity)
    _check_parity(S, params.rho, "rho", parity)
    _require(check_condition_I(params.rho, chi, S), "condition (I) fails")
    piece = _piece(S, chi, 0, 1, params.A, 1, params.rho)
    _require(not all(abs(piece(x)) <= EPS for x in S.window),
             "rho vanishes" if params.A is None else "A and rho both vanish")
    _require(check_condition_II(piece, chi, S), "condition (II) fails")
    return piece


# ---------------------------------------------------------------------------
# Case builders.  Each returns the (f, g) pair of a case that is not a row
# case, from parameters that pass the record's clauses.
# ---------------------------------------------------------------------------

def _cos_sub(case: CaseId, p: CaseParams, S):
    k = case.case
    if k == 3:
        s = 1 / (1 + complex(p.alpha) ** 2)
        cf = p.chi.fn
        return _scale(cf, complex(p.alpha) * s), _scale(cf, s)
    if k == 4:
        d = complex(p.delta)
        den = 1 / d + d
        c1, c2 = p.chi1.fn, p.chi2.fn
        f = _lin(S, (-1 / den, c1), (1 / den, c2))
        g = _lin(S, (1 / (d * den), c1), (d / den, c2))
        return f, g
    if k == 5:
        # f = -i(chi A | 0 | rho), g = chi + (branch) i f.
        piece = _sine_piece(S, p)
        f = _scale(piece, -1j)
        sign = 1j if case.branch == "+" else -1j
        g = _lin(S, (1, p.chi.fn), (sign, f))
        return f, g
    # case 6: f = -i(chi - chi*)/2, g = (chi + chi*)/2 with chi* != chi.
    cf, sf = p.chi.fn, p.chi.fn.star()
    f = _lin(S, (-0.5j, cf), (0.5j, sf))
    g = _lin(S, (0.5, cf), (0.5, sf))
    return f, g


def _sine_add(case: CaseId, p: CaseParams, S):
    k = case.case
    if k == 3:
        cf = p.chi.fn
        return _scale(cf, 1 / (2 * complex(p.alpha))), _scale(cf, 0.5)
    if k == 4:
        c1, c2 = p.chi1.fn, p.chi2.fn
        f = _lin(S, (complex(p.c), c1), (-complex(p.c), c2))
        g = _lin(S, (0.5, c1), (0.5, c2))
        return f, g
    piece = _sine_piece(S, p)
    return piece, p.chi.fn


def _cos_sine_g(case: CaseId, p: CaseParams, S):
    k = case.case
    if k == 4:
        b = complex(p.beta)
        cf = p.chi.fn
        return _scale(cf, b * b / (2 * b - 1)), _scale(cf, b)
    if k == 5:
        w = complex(p.c1)
        fc = (w * w + 1) / (2 * w)
        c1, c2 = p.chi1.fn, p.chi2.fn
        f = _lin(S, ((1 + fc) / 2, c1), ((1 - fc) / 2, c2))
        g = _lin(S, ((1 + w) / 2, c1), ((1 - w) / 2, c2))
        return f, g
    if k == 6:
        piece = _sine_piece(S, p)
        cf = p.chi.fn
        return _lin(S, (0.5, piece), (1, cf)), _lin(S, (1, piece), (1, cf))
    if k == 7:
        piece = _sine_piece(S, p)
        cf = p.chi.fn
        return _lin(S, (1, piece), (1, cf)), cf
    # case 8: f = (chi + chi*)/2, g one of chi, chi*.
    cf, sf = p.chi.fn, p.chi.fn.star()
    f = _lin(S, (0.5, cf), (0.5, sf))
    g = cf if case.branch == "chi" else sf
    return f, g


def _alpha_sym(case: CaseId, p: CaseParams, S):
    a = complex(p.alpha)
    # Cases 4..8 come from the cos-sine-g tables (fE, gE) of the same case
    # number through f = alpha (gE - 2 fE), g = gE.
    fe, ge = _cos_sine_g(CaseId("cos-sine-g", case.case, case.branch), p, S)
    f = _lin(S, (a, ge), (-2 * a, fe))
    return f, ge


def _alpha_skew(case: CaseId, p: CaseParams, S):
    a = complex(p.alpha)
    # case 6: f = alpha chi (1 + (1+c) A) | 0 | alpha (1+c) rho,
    #         g = chi (1 + c A) | 0 | c rho, with A and rho odd.
    _sine_piece(S, p, "odd")
    w = complex(p.c)
    f = _piece(S, p.chi, a, a * (1 + w), p.A, a * (1 + w), p.rho)
    g = _piece(S, p.chi, 1, w, p.A, w, p.rho)
    return f, g


_BUILDERS = {"cos-sub": _cos_sub, "sine-add": _sine_add,
             "cos-sine-g": _cos_sine_g, "alpha-sym": _alpha_sym,
             "alpha-skew": _alpha_skew}


# ---------------------------------------------------------------------------
# Row cases: built for a stack of parameter rows at once.  A row holds a
# free table (a row of a (rows, |S|) array) and the case's constants (one
# entry of a sequence per name, or one number for one pair); alpha and chi
# are shared by all rows.  `construct` builds one row.  Each case's tables
# are (rows, |S|) stacks that are exact on the rows that pass every clause.
# ---------------------------------------------------------------------------

def _factor_tables(form: tuple, S, p: CaseParams, free, ok):
    """A case with a form: each table zero or a factor of the free table."""
    return [np.zeros((len(ok), S.n), dtype=np.complex128) if u is None
            else free if u == 1
            else complex(p.alpha if u == "alpha" else u) * free
            for u in form]


def _unit_c_tables(S, p: CaseParams, free, ok):
    """cos-sub/2: f = c free, g = free."""
    return np.reshape(p.c, (-1, 1)).astype(np.complex128) * free, free


def _skew_c_tables(S, p: CaseParams, free, ok):
    """alpha-skew/4: f = free, g = c / (alpha (1 + c)) free."""
    a = complex(p.alpha)
    lam = [complex(c) / (a * (1 + complex(c))) if good else 0j
           for c, good in zip(np.atleast_1d(p.c).tolist(), ok)]
    return free, np.array(lam, dtype=np.complex128)[:, None] * free


def _conj_rows(S, chi, coeffs):
    """u chi + v chi* for each row (u, v) of coeffs, float for float as
    _lin builds it: a (rows, |S|) stack."""
    u, v = np.array(coeffs, dtype=np.complex128).reshape(-1, 2).T
    zero = np.zeros((len(u), S.n), dtype=np.complex128)
    return (zero + u[:, None] * chi.values) + v[:, None] * chi.conj


def _conj_pair_tables(S, p: CaseParams, free, ok):
    """alpha-skew/5: f = alpha ((1 + c1 + c2) chi + (1 - c1 - c2) chi*)/2,
    g = ((1 + c2) chi + (1 - c2) chi*)/2."""
    a = complex(p.alpha)
    w = [(complex(w1), complex(w2))
         for w1, w2 in zip(np.atleast_1d(p.c1), np.atleast_1d(p.c2))]
    f = _conj_rows(S, p.chi, [(a * (1 + w1 + w2) / 2, a * (1 - w1 - w2) / 2)
                              for w1, w2 in w])
    g = _conj_rows(S, p.chi, [((1 + w2) / 2, (1 - w2) / 2) for _, w2 in w])
    return f, g


#: The tables of each row case: every case with a form, and the three
#: ratio cases.
_ROW_CASES = {
    (eq, k): partial(_factor_tables, spec.form)
    for eq, specs in CASES.items()
    for k, spec in enumerate(specs, 1) if spec.form is not None
} | {
    ("cos-sub", 2): _unit_c_tables,
    ("alpha-skew", 4): _skew_c_tables,
    ("alpha-skew", 5): _conj_pair_tables,
}


def construct(case: CaseId, params: CaseParams, S):
    """Build the (f, g) tables of one solution case.

    Raises :class:`ConstraintError` naming the violated clause when the
    parameters do not satisfy the case's side constraints, and for a form
    or ratio case on a carrier that is not finite.  Where f or g is the
    caller's own `free` table, that table itself is handed back;
    its values are read-only.
    """
    _check_fields(case, params, S)
    tables = _ROW_CASES.get((case.equation, case.case))
    if tables is not None and not _finite(S):
        raise ConstraintError("form and ratio cases need a finite carrier")
    free = None if params.free is None else params.free.values
    for clause, fails in _clauses(case, S, params, free):
        if fails:
            raise ConstraintError(clause)
    if tables is None:
        return _BUILDERS[case.equation](case, params, S)
    rows = None if free is None else free[None]
    return tuple([params.free if h is rows else
                  FnTable(S, values=_frozen(h)[0])
                  for h in tables(S, params, rows, (True,))])


def construct_rows(case: CaseId, S: FiniteSemigroup, params: CaseParams,
                   rows: int):
    """`construct` of a row case for a stack of parameter rows.

    `params` holds the rows: `free` as an array of shape (rows, |S|), the
    row case constants as sequences of length `rows`; alpha and chi are
    shared.  Returns (ok, f, g): the rows whose parameters pass every
    clause of :func:`construct`, and the (rows, |S|) value stacks it
    builds, float for float on those rows.
    """
    ok = np.ones(rows, dtype=bool)
    for _, fails in _clauses(case, S, params, params.free):
        ok &= np.logical_not(fails)
    f, g = _ROW_CASES[case.equation, case.case](S, params, params.free, ok)
    return ok, f, g


# ---------------------------------------------------------------------------
# Admissible-parameter menus.
# ---------------------------------------------------------------------------

@dataclass
class ParamMenu:
    """What one case can draw on a concrete finite carrier."""

    case: CaseId
    S: FiniteSemigroup
    available: bool = False
    notes: list[str] = field(default_factory=list)
    chars: list = field(default_factory=list)
    char_pairs: list = field(default_factory=list)
    free_support: tuple[int, ...] = ()
    free_arbitrary: bool = False
    rho_spaces: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)

    def describe(self) -> dict:
        names = self.S.elements
        return {
            "equation": self.case.equation,
            "case": self.case.case,
            "branch": self.case.branch,
            "available": self.available,
            "notes": list(self.notes),
            "characters": [[[z.real, z.imag] for z in chi.values]
                           for chi in self.chars],
            "character_pairs": len(self.char_pairs),
            "free_support": [names[i] for i in self.free_support],
            # A finite carrier's additive space is {0}: see additive_basis.
            "additive_dims": {str(k): 0 for k in self.rho_spaces},
            "rho_dims": {str(k): sp.dimension for k, sp in
                         self.rho_spaces.items()},
            "constants": dict(self.constants),
        }

    # -- random draws -----------------------------------------------------

    def sample(self, rng) -> CaseParams | None:
        """One random admissible parameter bundle, or None if unavailable.

        Draws are retried through construct() so that every returned bundle
        is actually accepted.
        """
        if not self.available:
            return None
        for _ in range(80):
            params = self._draw(rng)
            try:
                construct(self.case, params, self.S)
            except ConstraintError:
                continue
            return params
        return None

    def _draw(self, rng) -> CaseParams:
        spec = _spec(self.case)
        out: dict = {}
        for const in spec.constants:
            out[const.name] = _pick(rng, const.pool)
        if "chi" in spec.fields:
            idx = rng.randrange(len(self.chars))
            out["chi"] = self.chars[idx]
            if "rho" in spec.fields:
                out["rho"] = self._draw_piece(rng, idx)
        if "chi1" in spec.fields:
            out["chi1"], out["chi2"] = self.char_pairs[
                rng.randrange(len(self.char_pairs))]
        if "free" in spec.fields:
            out["free"] = self._draw_free(rng)
        return CaseParams(**out)

    def _draw_free(self, rng) -> FnTable:
        vals = np.zeros(self.S.n, dtype=np.complex128)
        support = (tuple(range(self.S.n)) if self.free_arbitrary
                   else self.free_support)
        for i in support:
            vals[i] = _pick(rng, DEFAULT_ALPHABET)
        if not self.free_arbitrary and support and \
                float(np.max(np.abs(vals))) <= EPS:
            vals[support[0]] = 1.0
        return FnTable(self.S, values=_frozen(vals))

    def _draw_piece(self, rng, idx: int) -> RhoFn:
        space = self.rho_spaces[idx]          # of the menu's parity
        small = (0j, 1 + 0j, -1 + 0j, 2 + 0j, 1j)
        for _ in range(40):
            frees = [_pick(rng, small) for _ in range(space.dimension)]
            if any(abs(v) > 0 for v in frees):
                break
        else:
            frees = [1] * space.dimension
        return space.instance(frees, self.S.n)


def _pick(rng, pool):
    return pool[rng.randrange(len(pool))]


def admissible_params(case: CaseId, S: FiniteSemigroup,
                      characters) -> ParamMenu:
    """The concrete parameter menu of one case on one finite carrier."""
    if not isinstance(S, FiniteSemigroup):
        raise TypeError("admissible_params needs a finite semigroup")
    menu = ParamMenu(case=case, S=S)
    spec = _spec(case)
    kind = spec.menu
    evens = [c for c in characters if c.even]
    nonevens = [c for c in characters if not c.even]
    if kind == "free-vanishing":
        menu.free_support = tuple(sorted(set(range(S.n)) - square_set(S)))
        missing = "S^2 = S leaves no non-zero function vanishing on S^2"
    elif kind == "even":
        menu.chars = evens
        missing = "no even character"
    elif kind == "even-pair":
        menu.char_pairs = list(itertools.combinations(evens, 2))
        missing = "fewer than two even characters"
    elif kind == "noneven":
        menu.chars = nonevens
        missing = "no character with chi* != chi"
    elif kind == "noneven-up-to-conj":
        menu.chars = list(conjugate_representatives(tuple(characters)))
        missing = "no character with chi* != chi"
    elif kind.startswith("piecewise-"):
        parity = kind.removeprefix("piecewise-")
        for chi in evens:       # A is 0 on a finite carrier (additive_basis)
            space = rho_space(chi, S, parity)
            if space.dimension > 0:
                menu.rho_spaces[len(menu.chars)] = space
                menu.chars.append(chi)
        missing = f"no even character carries a non-zero {parity} rho"
    else:                                   # "none" or "free-arbitrary"
        menu.free_arbitrary = kind == "free-arbitrary"
        missing = None
    menu.available = missing is None or bool(
        menu.chars or menu.char_pairs or menu.free_support)
    if not menu.available:
        menu.notes.append(missing)
    menu.constants = {const.name: const.clause for const in spec.constants}
    return menu
