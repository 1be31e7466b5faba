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
Each case's tables are written once, in its row builder: on a finite
carrier for a stack of parameter rows, whose side conditions (the
piecewise cases' parity, conditions (I) and (II) and a non-zero rho
included) are row checks; on a windowed carrier, which takes the cases
that have neither a form nor a ratio, as formula tables, whose piecewise
side conditions are checked over the window.  :func:`construct` checks
the record's fields and clauses and builds the (f, g) pair of one case
(on a finite carrier as one row), and :func:`construct_rows` builds a
case for a whole stack of rows at once; :func:`admissible_params` reports
which cases a concrete finite carrier supports and draws random admissible
parameters for them.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .characters import (AdditiveFn, RhoFn, WindowedChar, _gaps,
                         _relation_table, check_condition_I,
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


def _check(case: CaseId, params: CaseParams, S) -> None:
    """Raise :class:`ConstraintError` naming the first of `construct`'s
    checks that one pair's parameters fail: the case's fields and
    constants, a form or ratio case on a carrier that is not finite, then
    each clause in order (see :func:`_clauses`)."""
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
    if not _finite(S) and (case.equation, case.case) in _FINITE_ONLY:
        raise ConstraintError("form and ratio cases need a finite carrier")
    free = None if params.free is None else params.free.values
    for clause, fails in _clauses(case, S, params, free):
        if fails:
            raise ConstraintError(clause)


def _finite(S) -> bool:
    return isinstance(S, FiniteSemigroup)


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


# ---------------------------------------------------------------------------
# Clauses: the record's (constants, characters, the free table and rho's
# carrier) and the piecewise side conditions, for every case on either
# kind of carrier.
# ---------------------------------------------------------------------------

def _clauses(case: CaseId, S, p: CaseParams, free):
    """Each clause of the case's record, in construct's order, with where
    it fails: a bool that broadcasts over the rows.  The first clauses ask
    that each character and the free table be one of S (of S itself or of
    a finite carrier with the same table and sigma).  `p` holds one pair's
    parameters or the rows (a constant is one number or a sequence over
    the rows; the characters are shared; rho's values and a stack of free
    rows have one row per pair, and the stack no carrier of its own);
    `free` is the free table's values, one row or a stack whose last axis
    runs over the elements."""
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
    if free is not None:
        yield "free is not finite", ~np.isfinite(free).all(axis=-1)
    rho = p.rho
    if rho is not None and _finite(S):
        yield "rho is not a function on the prime part of chi", not (
            rho.values is not None and np.shape(rho.values)[-1:] == (S.n,)
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
    if rho is not None:
        parity = kind.removeprefix("piecewise-")
        yield from (_piece_clauses(S, p.chi, rho, parity) if _finite(S)
                    else _formula_piece_clauses(S, p, parity))


def _rho_rows(S, rho: RhoFn) -> np.ndarray:
    """rho's values, one row per pair."""
    return np.asarray(rho.values).reshape(-1, S.n)


def _every_row(v, rows: int):
    """The table v once for each row: a (rows, |S|) stack, v itself as
    the one row of one pair; a formula table as it is."""
    if isinstance(v, FnTable):
        return v
    return v[None] if rows == 1 else v[None].repeat(rows, axis=0)


def _piece_rows(S, p: CaseParams, s_chi, s):
    """chi (s_chi + s A) off chi's null ideal I, 0 on I \\ P and s rho on
    the prime part P.  On a finite carrier A is 0, and the table has one
    row for each row of rho's values (s is one number or a (rows, 1)
    column); on a windowed carrier it is a formula table."""
    chi = p.chi
    if not _finite(S):
        A, rho, s_chi, s = p.A, p.rho, complex(s_chi), complex(s)

        def formula(x):
            if chi.in_prime_part(x):
                return s * rho(x)
            if chi.in_ideal(x):
                return 0j
            return chi(x) * (s_chi + s * A(x))
        return FnTable(S, formula=formula)
    R = _rho_rows(S, p.rho)
    vals = _every_row(chi.values * complex(s_chi), len(R))
    P = sorted(chi.prime_part)
    if P:
        vals[:, P] = _times(s, R[:, P])
    return vals


def _piece_clauses(S, chi, rho, parity: str):
    """The piecewise side conditions on a finite carrier, row by row: rho
    is finite and has the case's parity, conditions (I) and (II) hold, and
    rho is not zero (nor then is the piece chi A | 0 | rho, A = 0)."""
    R = _rho_rows(S, rho)
    finite = np.isfinite(R).all(axis=-1)
    yield "rho is not finite", ~finite
    if not finite.all():                # gather no refused row: zero them
        R = np.where(finite[:, None], R, 0)
    *table, (a, b, c, d), closed = _relation_table(chi, parity)
    good = _gaps(R, *table) <= EPS
    yield (f"rho parity must be {parity}",
           (rho.parity != parity) | ~good[:, a:b].all(axis=-1))
    yield "condition (I) fails", (not closed) | ~good[:, :a].all(axis=-1)
    yield "rho vanishes", good[:, b:c].all(axis=-1)
    yield "condition (II) fails", ~good[:, c:d].all(axis=-1)


def _formula_piece_clauses(S, p: CaseParams, parity: str):
    """The piecewise side conditions on a windowed carrier, over its
    window: A and rho have the case's parity, condition (I) holds, the
    piece chi A | 0 | rho is not zero, and condition (II) holds for it."""
    for name in ("A", "rho"):
        h = getattr(p, name)
        yield f"{name} parity must be {parity}", not (
            h.parity == parity and parity_residual(h, S) <= EPS)
    yield "condition (I) fails", not check_condition_I(p.rho, p.chi)
    piece = _piece_rows(S, p, 0, 1)
    yield "A and rho both vanish", all(abs(piece(x)) <= EPS
                                       for x in S.window)
    yield "condition (II) fails", not check_condition_II(piece, p.chi)


# ---------------------------------------------------------------------------
# Row tables: every case, built for a stack of parameter rows at once on a
# finite carrier and as formula tables on a windowed one.  A row holds a
# free table (a row of a (rows, |S|) array), rho (a row of a (rows, |S|)
# stack of values) and the case's constants (one entry of a sequence per
# name, or one number shared by all rows); the characters are shared.
# `construct` builds one row.  On a finite carrier each table is a (rows,
# |S|) stack (for construct's one pair, that stack or its one row), exact
# on the rows that pass every clause: each row's coefficients are worked
# out in Python complex arithmetic and its tables with numpy, so that one
# pair gets the floats of a row.  Of the builders and their helpers, only
# the leaf helpers (_shape, _table, _times, _mix, _every_row, _piece_rows
# and _pair_table) tell the two kinds of carrier apart.
# ---------------------------------------------------------------------------

# The coefficients of the character cases, from their constants.

def _cos_sub_3(a):
    s = 1 / (1 + a ** 2)
    return a * s, s


def _cos_sub_4(d):
    den = 1 / d + d
    return -1 / den, 1 / den, 1 / (d * den), d / den


def _cos_sine_g_5(w):
    fc = (w * w + 1) / (2 * w)
    return (1 + fc) / 2, (1 - fc) / 2, (1 + w) / 2, (1 - w) / 2


#: The `ok` of :func:`construct`'s one pair, which passed every clause and
#: whose constants are numbers.
_ONE_PAIR = (True,)


def _columns(rule, k: int, ok, *constants):
    """The k coefficients rule(*constants): k numbers for the one pair of
    `construct`, else k (rows, 1) columns, worked out on the rows that
    pass every clause and 0 on the others, whose constants may divide by
    zero."""
    if ok is _ONE_PAIR:
        return rule(*map(complex, constants))
    rows = len(ok)
    per = [v if isinstance(v, (list, tuple, np.ndarray)) and np.ndim(v)
           else (v,) * rows for v in constants]
    got = [rule(*map(complex, row)) if good else (0j,) * k
           for row, good in zip(zip(*per), ok)]
    return np.array(got, dtype=np.complex128).reshape(rows, k).T[..., None]


def _shape(S, ok):
    """The (rows, |S|) shape of a finite carrier's stacks; None on a
    windowed carrier, whose tables are formulas."""
    return (len(ok), S.n) if _finite(S) else None


def _table(chi):
    """A character's table: a finite one's values, a windowed one's
    formula table."""
    return chi.fn if isinstance(chi, WindowedChar) else chi.values


def _times(coeff, t):
    """coeff * t for a coefficient (one number or a (rows, 1) column) and
    a table (one row, a (rows, |S|) stack or a formula table)."""
    if isinstance(t, FnTable):
        return FnTable(t.domain, formula=lambda x, c=complex(coeff): c * t(x))
    return (coeff if isinstance(coeff, np.ndarray) else complex(coeff)) * t


def _mix(shape, *terms):
    """sum(coeff * table) over (coeff, table) terms, summed from 0 in
    order: a stack of the given shape, or a formula table where there is
    no shape."""
    scaled = [_times(coeff, t) for coeff, t in terms]
    if shape is None:
        return FnTable(scaled[0].domain,
                       formula=lambda x: sum(t(x) for t in scaled))
    out = np.zeros(shape, dtype=np.complex128)
    for t in scaled:
        out = out + t
    return out


def _factor_tables(form: tuple, S, p: CaseParams, free, ok):
    """A case with a form: each table zero or a factor of the free table."""
    return [np.zeros((len(ok), S.n), dtype=np.complex128) if u is None
            else free if u == 1
            else complex(p.alpha if u == "alpha" else u) * free
            for u in form]


def _cos_sub_rows(case: CaseId, S, p: CaseParams, free, ok):
    k, shape = case.case, _shape(S, ok)
    if k == 2:                                  # f = c free, g = free
        return np.reshape(p.c, (-1, 1)).astype(np.complex128) * free, free
    if k == 3:
        u, v = _columns(_cos_sub_3, 2, ok, p.alpha)
        return _times(u, _table(p.chi)), _times(v, _table(p.chi))
    if k == 4:
        u, v, w, z = _columns(_cos_sub_4, 4, ok, p.delta)
        c1, c2 = _table(p.chi1), _table(p.chi2)
        return _mix(shape, (u, c1), (v, c2)), _mix(shape, (w, c1), (z, c2))
    chi = _table(p.chi)
    if k == 5:
        # f = -i(chi A | 0 | rho), g = chi + (branch) i f.
        f = _times(-1j, _piece_rows(S, p, 0, 1))
        sign = 1j if case.branch == "+" else -1j
        return f, _mix(shape, (1, chi), (sign, f))
    # case 6: f = -i(chi - chi*)/2, g = (chi + chi*)/2 with chi* != chi.
    conj = p.chi.conj
    return (_mix(shape, (-0.5j, chi), (0.5j, conj)),
            _mix(shape, (0.5, chi), (0.5, conj)))


def _sine_add_rows(case: CaseId, S, p: CaseParams, free, ok):
    k, shape = case.case, _shape(S, ok)
    if k == 4:
        u, v = _columns(lambda c: (c, -c), 2, ok, p.c)
        c1, c2 = _table(p.chi1), _table(p.chi2)
        return (_mix(shape, (u, c1), (v, c2)),
                _mix(shape, (0.5, c1), (0.5, c2)))
    chi = _table(p.chi)
    if k == 3:
        (u,) = _columns(lambda a: (1 / (2 * a),), 1, ok, p.alpha)
        return _times(u, chi), _every_row(_times(0.5, chi), len(ok))
    return _piece_rows(S, p, 0, 1), _every_row(chi, len(ok))


def _cos_sine_g_rows(case: CaseId, S, p: CaseParams, free, ok):
    k, shape = case.case, _shape(S, ok)
    if k == 4:
        u, v = _columns(lambda b: (b * b / (2 * b - 1), b), 2, ok, p.beta)
        return _times(u, _table(p.chi)), _times(v, _table(p.chi))
    if k == 5:
        u, v, w, z = _columns(_cos_sine_g_5, 4, ok, p.c1)
        c1, c2 = _table(p.chi1), _table(p.chi2)
        return _mix(shape, (u, c1), (v, c2)), _mix(shape, (w, c1), (z, c2))
    chi = _table(p.chi)
    if k == 8:
        # f = (chi + chi*)/2, g one of chi, chi*.
        conj = p.chi.conj
        return (_mix(shape, (0.5, chi), (0.5, conj)),
                _every_row(chi if case.branch == "chi" else conj, len(ok)))
    piece = _piece_rows(S, p, 0, 1)
    if k == 6:
        return (_mix(shape, (0.5, piece), (1, chi)),
                _mix(shape, (1, piece), (1, chi)))
    return _mix(shape, (1, piece), (1, chi)), _every_row(chi, len(ok))


def _alpha_sym_rows(case: CaseId, S, p: CaseParams, free, ok):
    a = complex(p.alpha)
    # Cases 4..8 come from the cos-sine-g tables (fE, gE) of the same case
    # through f = alpha (gE - 2 fE), g = gE.
    fe, ge = _cos_sine_g_rows(CaseId("cos-sine-g", case.case, case.branch),
                              S, p, free, ok)
    return _mix(_shape(S, ok), (a, ge), (-2 * a, fe)), ge


def _alpha_skew_rows(case: CaseId, S, p: CaseParams, free, ok):
    a, k = complex(p.alpha), case.case
    if k == 4:
        # f = free, g = c / (alpha (1 + c)) free.
        (u,) = _columns(lambda c: (c / (a * (1 + c)),), 1, ok, p.c)
        return free, u * free
    if k == 5:
        # f = alpha ((1 + c1 + c2) chi + (1 - c1 - c2) chi*)/2,
        # g = ((1 + c2) chi + (1 - c2) chi*)/2.
        u, v, w, z = _columns(lambda c1, c2: (
            a * (1 + c1 + c2) / 2, a * (1 - c1 - c2) / 2,
            (1 + c2) / 2, (1 - c2) / 2), 4, ok, p.c1, p.c2)
        chi, conj, shape = p.chi.values, p.chi.conj, _shape(S, ok)
        return _mix(shape, (u, chi), (v, conj)), _mix(shape, (w, chi),
                                                      (z, conj))
    # case 6: f = alpha chi (1 + (1+c) A) | 0 | alpha (1+c) rho,
    #         g = chi (1 + c A) | 0 | c rho, with A and rho odd.
    u, w = _columns(lambda c: (a * (1 + c), c), 2, ok, p.c)
    return _piece_rows(S, p, a, u), _piece_rows(S, p, 1, w)


_ROW_BUILDERS = {"cos-sub": _cos_sub_rows, "sine-add": _sine_add_rows,
                 "cos-sine-g": _cos_sine_g_rows,
                 "alpha-sym": _alpha_sym_rows,
                 "alpha-skew": _alpha_skew_rows}

#: The cases that only a finite carrier takes: those with a form and the
#: three ratio cases.
_FINITE_ONLY = {(eq, k) for eq, specs in CASES.items()
                for k, spec in enumerate(specs, 1) if spec.form is not None
                } | {("cos-sub", 2), ("alpha-skew", 4), ("alpha-skew", 5)}


def _pair_table(S, h) -> FnTable:
    """One pair's table: a formula table as it is, or the one row of a
    stack, read-only."""
    if isinstance(h, FnTable):
        return h
    return FnTable(S, values=_frozen(h).reshape(S.n))


def _tables(case: CaseId, S, p: CaseParams, free, ok):
    form = _spec(case).form
    if form is not None:
        return _factor_tables(form, S, p, free, ok)
    return _ROW_BUILDERS[case.equation](case, S, p, free, ok)


def construct(case: CaseId, params: CaseParams, S):
    """Build the (f, g) tables of one solution case.

    Raises :class:`ConstraintError` naming the violated clause when the
    parameters do not satisfy the case's side constraints, and for a form
    or ratio case on a carrier that is not finite.  On a finite carrier
    the pair is one row of the case's row tables (see
    :func:`construct_rows`); on a windowed one the same row builder makes
    formula tables.  Where f or g is the caller's own `free`
    table, that table itself is handed back; its values are read-only.
    """
    _check(case, params, S)
    rows = None if params.free is None else params.free.values[None]
    return tuple([params.free if h is rows else _pair_table(S, h)
                  for h in _tables(case, S, params, rows, _ONE_PAIR)])


def construct_rows(case: CaseId, S: FiniteSemigroup, params: CaseParams,
                   rows: int):
    """`construct` of one case for a stack of parameter rows.

    `params` holds the rows: `free` as an array of shape (rows, |S|), rho
    as a RhoFn whose values have that shape, the case's constants as
    sequences of length `rows`; alpha and the characters are shared (a
    constant may be one number for all rows).  Returns (ok, f, g): the
    rows whose parameters pass every clause of :func:`construct`, and the
    (rows, |S|) value stacks it builds, float for float on those rows.
    """
    if not _finite(S):
        raise TypeError("construct_rows needs a finite semigroup")
    ok = np.ones(rows, dtype=bool)
    for _, fails in _clauses(case, S, params, params.free):
        ok &= np.logical_not(fails)
    free, rho = params.free, params.rho
    if not ok.all():            # no arithmetic on refused rows: zero them
        if free is not None:
            free = np.where(ok[:, None], free, 0)
        if rho is not None:
            params = replace(params, rho=replace(
                rho, values=np.where(ok[:, None], _rho_rows(S, rho), 0)))
    f, g = _tables(case, S, params, free, ok)
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

        Draws are retried through construct()'s checks, which alone raise
        ConstraintError, so that every returned bundle is accepted; no
        tables are built.
        """
        if not self.available:
            return None
        for _ in range(80):
            params = self._draw(rng)
            try:
                _check(self.case, params, self.S)
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
            space = rho_space(chi, parity)
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
