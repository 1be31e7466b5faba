"""Solution-family constructors for the five addition laws.

Each equation admits a finite list of solution shapes on a semigroup with
an involutive automorphism: the zero pair, pairs supported off the square
S^2, scalar multiples of one multiplicative function, mixtures of two
multiplicative functions, and piecewise families assembled from a
multiplicative function chi, an additive function A off chi's null ideal,
and a rho function on the prime part.

:data:`CASES` holds one :class:`CaseSpec` record per published case: its
required parameter fields, its branches, whether a phi table may replace
(A, rho), the kind of parameter menu it draws from, and each constant's
clause and sampling pool in draw order, and, for the zero pair and the
cases built from one free table alone, the pair's form.  ``EQUATION_IDS``,
``CASE_COUNTS``, ``BRANCHES`` and ``ALPHA_EQUATIONS`` are derived from it.
The three ratio cases (cos-sub/2, alpha-skew/4, alpha-skew/5) are row
cases: their clauses and tables are written once for a stack of parameter
rows.  The other formulas stay in one builder per equation.
:func:`construct` checks the record's fields and builds the (f, g) pair of
one case from validated parameters (a form or row case as one row), and
:func:`construct_rows` builds a form or row case for a whole stack of rows
at once; :func:`admissible_params` reports which cases a concrete finite
carrier supports and draws random admissible parameters for them.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .characters import (AdditiveFn, RhoFn, additive_basis,
                         check_condition_I, check_condition_II,
                         conjugate_representatives, parity_residual,
                         rho_space)
from .core import EPS, FiniteSemigroup, FnTable, square_set
from .dsl import evaluate_residual, parse_equation

#: Exactly representable scalars for random parameter draws.
SAMPLE_POOL = (1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j, 0.5 + 0j, -0.5 + 0j,
               1j, -1j, 1 + 1j, 1 - 1j)

#: Value pool for random free-function draws (the default oracle alphabet).
FREE_VALUE_POOL = (0j, 1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0j, -0.5 + 0j,
                   2 + 0j, -2 + 0j)

#: The sigma = id sine addition law that the phi component of the
#: "chi + chi A" families satisfies together with chi.
PHI_LAW = parse_equation("f(x y) = f(x)*g(y) + f(y)*g(x)")


@dataclass(frozen=True)
class CaseSpec:
    """The published facts of one case, read by construct and the menus.

    `menu` names what :func:`admissible_params` offers: "none" (no drawn
    data), "free-vanishing" (a free function vanishing on S^2),
    "free-arbitrary", "even" (one even character), "even-pair",
    "noneven", "noneven-up-to-conj" (one of each chi, chi* pair),
    "piecewise-even" or "piecewise-odd" (an even chi with A and rho of that
    parity).  `constants` lists (name, clause, sampling pool) in draw order.
    `form`, when set, is the pair (f, g) as two factors of the free table:
    None is the zero table, 1 the free table itself, and a number or
    "alpha" that multiple of it.
    """

    fields: frozenset
    menu: str
    constants: tuple
    branches: tuple
    phi: bool
    form: tuple | None


def _case(fields: str, menu: str = "none", *constants,
          branches: tuple = (), phi: bool = False,
          form: tuple | None = None) -> CaseSpec:
    """A record whose required CaseParams fields are named in `fields`;
    `phi` lets a phi table replace the (A, rho) pair."""
    return CaseSpec(frozenset(fields.split()), menu, constants, branches, phi,
                    form)


def _near(a: complex, b: complex) -> bool:
    return abs(complex(a) - complex(b)) <= EPS


def _avoiding(*bad) -> tuple:
    return tuple(v for v in SAMPLE_POOL if not any(_near(v, b) for b in bad))


def _with_alpha(spec: CaseSpec) -> CaseSpec:
    """The record of a case of an equation that carries alpha, which is
    drawn before the case's own constants."""
    return replace(spec, fields=spec.fields | {"alpha"},
                   constants=(("alpha", "alpha != 0", SAMPLE_POOL),)
                   + spec.constants)


_ZERO = (None, None)           # the form of the zero pair

_COS_SINE_G = (
    _case("", form=_ZERO),
    _case("free", "free-vanishing", form=(1, None)),
    _case("free", "free-vanishing", form=(1, 2)),
    _case("chi beta", "even",
          ("beta", "beta not in {0, 1/2}", _avoiding(0.5))),
    _case("chi1 chi2 c1", "even-pair",
          ("c1", "c1 not in {0, 1, -1}", _avoiding(1, -1))),
    _case("chi A rho", "piecewise-even", phi=True),
    _case("chi A rho", "piecewise-even", phi=True),
    _case("chi", "noneven", branches=("chi", "conj")),
)

#: One record per published case: CASES[equation][case - 1].  alpha-sym
#: maps onto cos-sine-g case by case, so it shares that list plus alpha.
CASES = {
    "cos-sub": (
        _case("", form=_ZERO),
        _case("free c", "free-vanishing", ("c", "c in {i, -i}", (1j, -1j))),
        _case("chi alpha", "even",
              ("alpha", "alpha not in {i, -i} (alpha = 0 gives f = 0)",
               _avoiding(1j, -1j) + (0j,))),
        _case("chi1 chi2 delta", "even-pair",
              ("delta", "delta not in {0, i, -i}", _avoiding(1j, -1j))),
        _case("chi A rho", "piecewise-even", branches=("+", "-")),
        _case("chi", "noneven"),
    ),
    "sine-add": (
        _case("free", "free-arbitrary", form=(None, 1)),
        _case("free", "free-vanishing", form=(1, None)),
        _case("chi alpha", "even", ("alpha", "alpha != 0", SAMPLE_POOL)),
        _case("chi1 chi2 c", "even-pair", ("c", "c != 0", SAMPLE_POOL)),
        _case("chi A rho", "piecewise-even"),
    ),
    "cos-sine-g": _COS_SINE_G,
    # Case 3 keeps g as its free table where cos-sine-g builds (f, 2f).
    "alpha-sym": tuple(map(_with_alpha, _COS_SINE_G[:2] + (
        replace(_COS_SINE_G[2], form=(None, 1)),) + _COS_SINE_G[3:])),
    "alpha-skew": tuple(map(_with_alpha, (
        _case("free", "free-arbitrary", form=("alpha", 1)),
        _case("free", "free-vanishing", form=(None, 1)),
        _case("free", "free-vanishing", form=(1, None)),
        _case("free c", "free-vanishing",
              ("c", "c not in {0, -1}", _avoiding(-1))),
        _case("chi c1 c2", "noneven-up-to-conj",
              ("c1", "c1 != 0", SAMPLE_POOL),
              ("c2", "c2 unconstrained", SAMPLE_POOL + (0j,))),
        _case("chi A rho c", "piecewise-odd",
              ("c", "c unconstrained", SAMPLE_POOL + (0j,))),
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
    phi: FnTable | None = None

    def present(self) -> frozenset[str]:
        return frozenset(name for name, value in self.__dict__.items()
                         if value is not None)


def _spec(case: CaseId) -> CaseSpec:
    return CASES[case.equation][case.case - 1]


def _check_fields(case: CaseId, params: CaseParams) -> None:
    spec = _spec(case)
    required = spec.fields
    present = params.present()
    if spec.phi and "phi" in present:
        required = (required - {"A", "rho"}) | {"phi"}
    if present != required:
        raise ConstraintError(
            f"case {case} requires fields {sorted(required)}, "
            f"got {sorted(present)}")
    for name in ("alpha", "beta", "delta", "c", "c1", "c2"):
        if name in present and not cmath.isfinite(getattr(params, name)):
            raise ConstraintError(f"{name} is not finite")


# ---------------------------------------------------------------------------
# Assembly helpers working on both carrier backends.
# ---------------------------------------------------------------------------

def _finite(S) -> bool:
    return isinstance(S, FiniteSemigroup)


def _zero_fn(S) -> FnTable:
    if _finite(S):
        return FnTable(S, values=np.zeros(S.n))
    return FnTable(S, formula=lambda x: 0j)


def _scale(h: FnTable, coeff: complex) -> FnTable:
    if h.finite:
        return FnTable(h.domain, values=complex(coeff) * h.values)
    return FnTable(h.domain,
                   formula=lambda x, c=complex(coeff), f=h: c * f(x))


def _lin(S, *terms: tuple[complex, FnTable]) -> FnTable:
    """Linear combination sum(coeff * table)."""
    if _finite(S) and all(t.finite for _, t in terms):
        vals = np.zeros(S.n, dtype=np.complex128)
        for coeff, t in terms:
            vals = vals + complex(coeff) * t.values
        return FnTable(S, values=vals)
    parts = tuple((complex(c), t) for c, t in terms)
    return FnTable(S, formula=lambda x: sum(c * t(x) for c, t in parts))


def _piece(S, chi, s_chi: complex, s_a: complex, A: AdditiveFn,
           s_rho: complex, rho: RhoFn) -> FnTable:
    """chi * (s_chi + s_a A) off the ideal, 0 on I \\ P, s_rho rho on P."""
    if _finite(S):
        vals = np.array(chi.values * (complex(s_chi) + complex(s_a) * A.values),
                        dtype=np.complex128)
        P = sorted(chi.prime_part)
        if P:
            vals[P] = complex(s_rho) * rho.values[P]
        return FnTable(S, values=vals)

    def formula(x):
        if chi.in_prime_part(x):
            return complex(s_rho) * rho(x)
        if chi.in_ideal(x):
            return 0j
        return chi(x) * (complex(s_chi) + complex(s_a) * A(x))
    return FnTable(S, formula=formula)


def _fn_is_zero(h: FnTable, S) -> bool:
    return all(abs(h(x)) <= EPS for x in S.window)


# ---------------------------------------------------------------------------
# Per-constraint validators, raising ConstraintError with the clause name.
# ---------------------------------------------------------------------------

def _require(cond: bool, clause: str) -> None:
    if not cond:
        raise ConstraintError(clause)


def _check_even_char(chi, name: str = "chi") -> None:
    _require(getattr(chi, "even", False), f"chi* = chi fails for {name}")


def _check_noneven_char(chi) -> None:
    _require(not getattr(chi, "even", True), "chi* != chi fails")


def _check_distinct(S, chi1, chi2) -> None:
    _require(any(abs(chi1(x) - chi2(x)) > EPS for x in S.window),
             "chi1 = chi2")


def _check_alpha(alpha) -> None:
    _require(not _near(alpha, 0), "alpha = 0")


def _free_vanishing_clauses(S, values: np.ndarray):
    """Each free-vanishing clause with where it fails: a bool over the
    leading axes of `values`, whose last axis runs over the elements."""
    yield "free function is zero", np.all(np.abs(values) <= EPS, axis=-1)
    sq = sorted(square_set(S))
    if sq:
        yield ("free function does not vanish on S^2",
               ~(np.max(np.abs(values[..., sq]), axis=-1) <= EPS))


def _check_additive(S, chi, A: AdditiveFn, parity: str) -> None:
    _require(A.parity == parity, f"A parity must be {parity}")
    _require(parity_residual(A, S) <= EPS, f"A parity must be {parity}")
    if _finite(S):
        D = sorted(set(range(S.n)) - chi.null_ideal)
        for x in D:
            for y in D:
                _require(_near(A(S.mul(x, y)), A(x) + A(y)),
                         "A is not additive")
        off = sorted(chi.null_ideal)
        if off and A.values is not None:
            _require(float(np.max(np.abs(A.values[off]))) <= EPS,
                     "A is not supported on S \\ I")


def _check_rho(S, chi, rho: RhoFn, parity: str) -> None:
    _require(rho.parity == parity, f"rho parity must be {parity}")
    _require(parity_residual(rho, S) <= EPS,
             f"rho parity must be {parity}")
    _require(check_condition_I(rho, chi, S), "condition (I) fails")


def _sine_piece(S, params: CaseParams, parity: str = "even") -> FnTable:
    """Validated chi A | 0 | rho table from either phi or (A, rho)."""
    chi = params.chi
    _check_even_char(chi)
    if params.phi is not None:
        phi = params.phi
        _require(all(abs(phi(S.sig(x)) - phi(x)) <= EPS for x in S.window),
                 "phi is not even")
        _require(not _fn_is_zero(phi, S), "phi = 0")
        res = evaluate_residual(PHI_LAW, {"f": phi, "g": chi.fn}, S)
        _require(res <= EPS, "phi does not solve its sine law")
        return phi
    _check_additive(S, chi, params.A, parity)
    _check_rho(S, chi, params.rho, parity)
    piece = _piece(S, chi, 0, 1, params.A, 1, params.rho)
    _require(not _fn_is_zero(piece, S), "A and rho both vanish")
    _require(check_condition_II(piece, chi, S), "condition (II) fails")
    return piece


# ---------------------------------------------------------------------------
# Case builders.  Each returns the (f, g) pair of a case whose record has no
# form and that is not a row case.
# ---------------------------------------------------------------------------

def _cos_sub(case: CaseId, p: CaseParams, S):
    k = case.case
    if k == 3:
        _check_even_char(p.chi)
        _require(not any(_near(p.alpha, v) for v in (1j, -1j)),
                 "alpha in {i, -i}")
        s = 1 / (1 + complex(p.alpha) ** 2)
        cf = p.chi.fn
        return _scale(cf, complex(p.alpha) * s), _scale(cf, s)
    if k == 4:
        _require(not any(_near(p.delta, v) for v in (0, 1j, -1j)),
                 "delta in {0, i, -i}")
        _check_even_char(p.chi1, "chi1")
        _check_even_char(p.chi2, "chi2")
        _check_distinct(S, p.chi1, p.chi2)
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
    _check_noneven_char(p.chi)
    cf, sf = p.chi.fn, p.chi.fn.star()
    f = _lin(S, (-0.5j, cf), (0.5j, sf))
    g = _lin(S, (0.5, cf), (0.5, sf))
    return f, g


def _sine_add(case: CaseId, p: CaseParams, S):
    k = case.case
    if k == 3:
        _check_even_char(p.chi)
        _check_alpha(p.alpha)
        cf = p.chi.fn
        return _scale(cf, 1 / (2 * complex(p.alpha))), _scale(cf, 0.5)
    if k == 4:
        _require(not _near(p.c, 0), "c = 0")
        _check_even_char(p.chi1, "chi1")
        _check_even_char(p.chi2, "chi2")
        _check_distinct(S, p.chi1, p.chi2)
        c1, c2 = p.chi1.fn, p.chi2.fn
        f = _lin(S, (complex(p.c), c1), (-complex(p.c), c2))
        g = _lin(S, (0.5, c1), (0.5, c2))
        return f, g
    piece = _sine_piece(S, p)
    return piece, p.chi.fn


def _cos_sine_g(case: CaseId, p: CaseParams, S):
    k = case.case
    if k == 4:
        _check_even_char(p.chi)
        _require(not any(_near(p.beta, v) for v in (0, 0.5)),
                 "beta in {0, 1/2}")
        b = complex(p.beta)
        cf = p.chi.fn
        return _scale(cf, b * b / (2 * b - 1)), _scale(cf, b)
    if k == 5:
        _require(not any(_near(p.c1, v) for v in (0, 1, -1)),
                 "c1 in {0, 1, -1}")
        _check_even_char(p.chi1, "chi1")
        _check_even_char(p.chi2, "chi2")
        _check_distinct(S, p.chi1, p.chi2)
        w = complex(p.c1)
        fc = (w * w + 1) / (2 * w)
        c1, c2 = p.chi1.fn, p.chi2.fn
        f = _lin(S, ((1 + fc) / 2, c1), ((1 - fc) / 2, c2))
        g = _lin(S, ((1 + w) / 2, c1), ((1 - w) / 2, c2))
        return f, g
    if k == 6:
        phi = _sine_piece(S, p)
        cf = p.chi.fn
        return _lin(S, (0.5, phi), (1, cf)), _lin(S, (1, phi), (1, cf))
    if k == 7:
        phi = _sine_piece(S, p)
        cf = p.chi.fn
        return _lin(S, (1, phi), (1, cf)), cf
    # case 8: f = (chi + chi*)/2, g one of chi, chi*.
    _check_noneven_char(p.chi)
    cf, sf = p.chi.fn, p.chi.fn.star()
    f = _lin(S, (0.5, cf), (0.5, sf))
    g = cf if case.branch == "chi" else sf
    return f, g


def _alpha_sym(case: CaseId, p: CaseParams, S):
    _check_alpha(p.alpha)
    a = complex(p.alpha)
    k = case.case
    # Cases 4..8 come from the cos-sine-g tables (fE, gE) of the same case
    # number through f = alpha (gE - 2 fE), g = gE.
    fe, ge = _cos_sine_g(CaseId("cos-sine-g", k, case.branch), p, S)
    f = _lin(S, (a, ge), (-2 * a, fe))
    return f, ge


def _alpha_skew(case: CaseId, p: CaseParams, S):
    _check_alpha(p.alpha)
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
# are shared by all rows.  `construct` builds one row.  Each case has its
# clauses, (clause, fails over the rows) in construct's order, and its
# tables, (rows, |S|) stacks that are exact on the rows that pass every
# clause.
# ---------------------------------------------------------------------------

def _near_rows(values, *targets) -> np.ndarray:
    """_near(v, t) for some t in targets, for one value or each of a
    sequence of values.  np.hypot is the C library hypot that Python's
    complex abs calls, so a stack gets _near's floats."""
    if np.ndim(values) == 0:
        return np.bool_(any(_near(values, t) for t in targets))
    v = np.asarray(values, dtype=np.complex128)
    out = np.zeros(v.shape, dtype=bool)
    for t in targets:
        d = v - complex(t)
        out |= np.hypot(d.real, d.imag) <= EPS
    return out


def _unit_c_clauses(p: CaseParams):
    yield "c not in {i, -i}", ~_near_rows(p.c, 1j, -1j)


def _unit_c_tables(S, p: CaseParams, free, ok):
    """cos-sub/2: f = c free, g = free."""
    return np.reshape(p.c, (-1, 1)).astype(np.complex128) * free, free


def _skew_c_clauses(p: CaseParams):
    yield "c in {0, -1}", _near_rows(p.c, 0, -1)


def _skew_c_tables(S, p: CaseParams, free, ok):
    """alpha-skew/4: f = free, g = c / (alpha (1 + c)) free."""
    a = complex(p.alpha)
    lam = [complex(c) / (a * (1 + complex(c))) if good else 0j
           for c, good in zip(np.atleast_1d(p.c).tolist(), ok)]
    return free, np.array(lam, dtype=np.complex128)[:, None] * free


def _conj_pair_clauses(p: CaseParams):
    yield "chi* != chi fails", np.bool_(getattr(p.chi, "even", True))
    yield "c1 = 0", _near_rows(p.c1, 0)


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


#: (clauses, tables) of each row case.
_ROW_CASES = {
    ("cos-sub", 2): (_unit_c_clauses, _unit_c_tables),
    ("alpha-skew", 4): (_skew_c_clauses, _skew_c_tables),
    ("alpha-skew", 5): (_conj_pair_clauses, _conj_pair_tables),
}


def _clauses(case: CaseId, S, p: CaseParams, free):
    """Each clause `construct` checks for a form or row case, in its order,
    with where it fails: a bool that broadcasts over the rows.  `p` holds
    one pair's parameters or the rows; `free` is the free table's values,
    one row or a stack."""
    spec = _spec(case)
    if "alpha" in spec.fields:
        yield "alpha = 0", np.bool_(_near(p.alpha, 0))
    row_case = _ROW_CASES.get((case.equation, case.case))
    if row_case is not None:
        yield from row_case[0](p)
    if spec.menu == "free-vanishing":
        if not _finite(S):
            yield "free-function cases need a finite carrier", np.True_
            return
        yield from _free_vanishing_clauses(S, free)


def _form_table(S, factor, free: FnTable | None, alpha) -> FnTable:
    if factor is None:
        return _zero_fn(S)
    if factor == 1:
        return free
    return _scale(free, alpha if factor == "alpha" else factor)


def _form_rows(factor, free: np.ndarray | None, alpha, shape) -> np.ndarray:
    if factor is None:
        return np.zeros(shape, dtype=np.complex128)
    if factor == 1:
        return free
    return complex(alpha if factor == "alpha" else factor) * free


def construct(case: CaseId, params: CaseParams, S):
    """Build the (f, g) tables of one solution case.

    Raises :class:`ConstraintError` naming the violated clause when the
    parameters do not satisfy the case's side constraints.  Where f or g
    is the caller's own `free` or `phi` table, that table itself is handed
    back; its values are read-only.
    """
    _check_fields(case, params)
    spec = _spec(case)
    row_case = _ROW_CASES.get((case.equation, case.case))
    if spec.form is None and row_case is None:
        return _BUILDERS[case.equation](case, params, S)
    free = None if params.free is None else params.free.values
    for clause, fails in _clauses(case, S, params, free):
        _require(not fails, clause)
    if spec.form is not None:
        return tuple(_form_table(S, u, params.free, params.alpha)
                     for u in spec.form)
    rows = None if free is None else free[None]
    return tuple(params.free if h is rows else FnTable(S, values=h[0])
                 for h in row_case[1](S, params, rows, (True,)))


def construct_rows(case: CaseId, S: FiniteSemigroup, params: CaseParams,
                   rows: int):
    """`construct` of a form or row case for a stack of parameter rows.

    `params` holds the rows: `free` as an array of shape (rows, |S|), the
    row case constants as sequences of length `rows`; alpha and chi are
    shared.  Returns (ok, f, g): the rows whose parameters pass every
    check of :func:`construct`, and the (rows, |S|) value stacks it
    builds, float for float on those rows.
    """
    ok = np.ones(rows, dtype=bool)
    for _, fails in _clauses(case, S, params, params.free):
        ok &= ~fails
    spec = _spec(case)
    if spec.form is not None:
        f, g = (_form_rows(u, params.free, params.alpha, (rows, S.n))
                for u in spec.form)
    else:
        f, g = _ROW_CASES[case.equation, case.case][1](S, params,
                                                       params.free, ok)
    return ok, f, g


def combine_additive(S: FiniteSemigroup, basis: list[AdditiveFn],
                     coeffs, chi, parity: str = "even") -> AdditiveFn:
    """Linear combination of basis additive functions (empty = zero)."""
    vals = np.zeros(S.n, dtype=np.complex128)
    for c, b in zip(coeffs, basis):
        vals = vals + complex(c) * b.values
    if basis:
        return AdditiveFn(domain=basis[0].domain, values=vals, parity=parity)
    return AdditiveFn(domain=frozenset(set(range(S.n)) - chi.null_ideal),
                      values=vals, parity=parity)


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
    additive: dict = field(default_factory=dict)
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
            "additive_dims": {str(k): len(v) for k, v in
                              self.additive.items()},
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
        for name, _, pool in spec.constants:
            out[name] = _pick(rng, pool)
        if "chi" in spec.fields:
            idx = rng.randrange(len(self.chars))
            out["chi"] = self.chars[idx]
            if "A" in spec.fields:
                out["A"], out["rho"] = self._draw_piece(rng, idx)
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
            vals[i] = _pick(rng, FREE_VALUE_POOL)
        if not self.free_arbitrary and support and \
                float(np.max(np.abs(vals))) <= EPS:
            vals[support[0]] = 1.0
        return FnTable(self.S, values=vals)

    def _draw_piece(self, rng, idx: int):
        basis = self.additive[idx]
        space = self.rho_spaces[idx]          # of the menu's parity
        small = (0j, 1 + 0j, -1 + 0j, 2 + 0j, 1j)
        for _ in range(40):
            coeffs = [_pick(rng, small) for _ in basis]
            frees = [_pick(rng, small) for _ in range(space.dimension)]
            if any(abs(v) > 0 for v in coeffs + frees):
                break
        else:
            coeffs, frees = [1] * len(basis), [1] * space.dimension
        A = combine_additive(self.S, basis, coeffs, self.chars[idx],
                             space.parity)
        return A, space.instance(frees, self.S.n)


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
        for chi in evens:
            basis = additive_basis(S, chi, parity)
            space = rho_space(chi, S, parity)
            if len(basis) + space.dimension > 0:
                idx = len(menu.chars)
                menu.chars.append(chi)
                menu.additive[idx] = basis
                menu.rho_spaces[idx] = space
        missing = f"no even character carries a non-zero {parity} A or rho"
    else:                                   # "none" or "free-arbitrary"
        menu.free_arbitrary = kind == "free-arbitrary"
        missing = None
    menu.available = missing is None or bool(
        menu.chars or menu.char_pairs or menu.free_support)
    if not menu.available:
        menu.notes.append(missing)
    menu.constants = {name: clause for name, clause, _ in spec.constants}
    return menu
