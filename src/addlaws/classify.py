"""Identify which solution family a verified (f, g) pair belongs to.

The classifier is the executable converse of the constructors: given a
solution of one of the five equations on a finite semigroup, it walks the
case split in priority order — zero pair, vanishing on S^2, linearly
dependent, two-character mixture, piecewise — extracts the case parameters,
and proves the answer by reconstructing the pair through
:func:`addlaws.families.construct` and comparing tables.  A solution that
matches no case is returned as :class:`Unclassified` with a diagnostic
dump; feeding a non-solution raises :class:`NotASolutionError`.

Each equation's walk is a stream of candidates, (CaseId, CaseParams) pairs
in the paper's case order, read lazily: :meth:`_Session.run` attempts them
one at a time and stops at the first hit, so nothing past it is extracted.
alpha-sym's walk runs cos-sine-g's on the reduced pair and yields the
translated hit.

A stream opens with leading steps whose cases are built from one free table
alone: both tables zero, f = 0, F = f/alpha - g = 0, and g = 0 or f
vanishing on S^2; a final step that applies ends the stream after its
candidate.  :data:`LEADING_STEPS` holds them once, for the per-pair walks
and for :func:`classify_rows`, which runs them as masks over a whole stack
of pairs.  Then comes the ratio stage: cos-sub/2 (f = +-i g), alpha-skew/4
(g = lambda f) and alpha-skew/5 (F a multiple of (chi - chi*)/2), whose
tests read a least-squares ratio or the rank decision of [f g].  Those tests
are row tests too, shared by the walks (which run them on a one-row stack)
and by :func:`classify_rows`, and the ratio and rank decision are computed
once, for stacks, with np.vecdot, which gives np.vdot's floats row by row.
A mask takes a row only where no earlier step applied and no earlier case
was attempted, and the walk would answer there with a hit, checked by one
batched construct-and-compare per case that gives the floats and checks of
:meth:`_Session.attempt`; every other row is left for :func:`classify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .characters import (MultChar, RhoFn, conjugate_representatives,
                         enumerate_characters)
from .core import (EPS, FiniteSemigroup, FnTable, cnum, square_set,
                   validate_tolerance)
from .dsl import builtin, evaluate_residual, residual_rows
from .families import (ALPHA_EQUATIONS, CASES, CaseId, CaseParams,
                       ConstraintError, construct, construct_rows)


class NotASolutionError(ValueError):
    """classify() was fed a pair that does not solve the equation."""


def _not_a_solution(equation: str, residual: float) -> NotASolutionError:
    return NotASolutionError(
        f"(f, g) does not solve {equation}: residual {residual:.3g}")


@dataclass(frozen=True)
class ClassifiedSolution:
    case: CaseId
    params: CaseParams
    residual: float

    def to_json_dict(self) -> dict:
        out = {"equation": self.case.equation, "case": self.case.case,
               "branch": self.case.branch, "residual": self.residual,
               "constants": {}}
        for name in ("alpha", "beta", "delta", "c", "c1", "c2"):
            value = getattr(self.params, name)
            if value is not None:
                out["constants"][name] = cnum(complex(value))
        return out


@dataclass(frozen=True)
class Unclassified:
    """Diagnostics for a verified solution that matches no known case."""

    equation: str
    reason: str
    f: dict
    g: dict
    residual: float
    attempts: tuple = ()

    def to_json_dict(self) -> dict:
        return {"equation": self.equation, "unclassified": True,
                "reason": self.reason, "f": self.f, "g": self.g,
                "equation_residual": self.residual,
                "attempts": list(self.attempts)}


@dataclass(frozen=True)
class DependenceVerdict:
    kind: str                       # both-zero | f-of-g | g-of-f | independent
    coefficient: complex | None = None


def linear_dependence(f: FnTable, g: FnTable,
                      tol: float = EPS) -> DependenceVerdict:
    """Rank decision for the 2-column system [f g].

    The dependence coefficient is the least-squares ratio against the pivot
    column; dependence holds when the residual stays below the pivot
    tolerance in the max norm.  Raises ValueError for a tolerance that is
    negative or not finite.
    """
    validate_tolerance(tol)
    (verdict,) = _dependence(f.values[None], g.values[None], tol)
    return verdict


def reduce_alpha_sym(f: FnTable, g: FnTable, alpha: complex) -> FnTable:
    """The pair map onto the cos-sine-g equation: returns -F/2 for
    F = f/alpha - g, so that (-F/2, g) solves cos-sine-g whenever (f, g)
    solves alpha-sym."""
    a = complex(alpha)
    if abs(a) <= EPS:
        raise ValueError("alpha must be non-zero")
    if f.values is None or g.values is None:
        raise ValueError("reduce_alpha_sym needs finite value tables")
    v = (g.values - f.values / a) / 2
    v.setflags(write=False)                 # FnTable keeps it without a copy
    return FnTable(f.domain, values=v)


#: Documented case folds: pairs of (constructed, classified) labels that
#: denote the same solution table.  A key "<case> -> <case>" in CaseId
#: string form is a fold that :func:`alias_equivalent` accepts; the other
#: keys name a parameter value inside one case, whose case id is unchanged,
#: and document the fold only.
ALIASES = {
    "cos-sub/3@alpha=0":
        "f = 0 with g multiplicative is listed inside case 3 (alpha = 0)",
    "cos-sub/4@delta=1":
        "delta = 1 is the fold point of the two-character subcases; the "
        "case number is unchanged",
    "cos-sine-g/8conj -> cos-sine-g/8chi":
        "the branches exchange chi and chi*; classification reports branch "
        "'chi' against the conjugated character",
    "alpha-sym/8conj -> alpha-sym/8chi":
        "same branch exchange through the conjugated character",
    "alpha-skew/5@conj":
        "replacing chi by chi* negates c1 and c2; classification picks the "
        "canonical representative",
    "cos-sub/6@conj":
        "replacing chi by chi* negates f; classification reports whichever "
        "character matches first, so the case id is stable",
}


def alias_equivalent(constructed: CaseId, classified: CaseId) -> bool:
    """Case equality up to the case folds listed in :data:`ALIASES`."""
    return (constructed == classified
            or f"{constructed} -> {classified}" in ALIASES)


# ---------------------------------------------------------------------------
# Extraction helpers.
# ---------------------------------------------------------------------------

# _is_zero and _vanishes_on test one table, or each row of a stack of tables
# whose last axis runs over the elements.  _ratio and _dependence take
# stacks and return one answer per row, with the floats of one table.

def _is_zero(v: np.ndarray, tol: float) -> np.ndarray:
    return (np.abs(v) <= tol).all(axis=-1)


def _vanishes_on(v: np.ndarray, idx, tol: float) -> np.ndarray:
    idx = sorted(idx)
    if not idx:
        return np.ones(v.shape[:-1], dtype=bool)
    return np.abs(v[..., idx]).max(axis=-1) <= tol


def _coords2(h: np.ndarray, u: np.ndarray, v: np.ndarray,
             tol: float) -> tuple[complex, complex] | None:
    """Coordinates of h in span{u, v} if h lies there within tol."""
    M = np.stack([u, v], axis=1)
    sol, *_ = np.linalg.lstsq(M, h, rcond=None)
    if float(np.max(np.abs(M @ sol - h))) > tol:
        return None
    return complex(sol[0]), complex(sol[1])


def _fit(num: np.ndarray, den: np.ndarray, rows: list):
    """For each of the rows: <den, den>, the least-squares lambda with
    num = lambda den, and the max-norm misfit.  np.vecdot gives np.vdot's
    floats, row by row.  Callers pass rows whose den is not zero, so
    <den, den> is zero only where its squares underflow."""
    if not rows:
        return []
    if len(rows) < len(num):
        num, den = num[rows], den[rows]
    nn = np.vecdot(den, den)
    lam = np.vecdot(den, num) / nn
    miss = np.abs(num - lam[:, None] * den).max(axis=-1)
    return list(zip(rows, nn.tolist(), lam.tolist(), miss.tolist()))


def _ratio(num: np.ndarray, den: np.ndarray, tol: float,
           rows=None) -> list:
    """Least-squares lambda with num = lambda * den, or None, for each of
    the rows (default all)."""
    if rows is None:
        rows = range(len(num))
    return [None if abs(n) <= tol or m > tol else lam
            for _, n, lam, m in _fit(num, den, rows)]


def _dependence(f: np.ndarray, g: np.ndarray,
                tol: float) -> list[DependenceVerdict]:
    """:func:`linear_dependence` of each row of the stacks f and g."""
    fz, gz = _is_zero(f, tol).tolist(), _is_zero(g, tol).tolist()
    out = [DependenceVerdict("both-zero") if a and b else None
           for a, b in zip(fz, gz)]
    # f = lambda g where g is non-zero, else g = mu f where f is non-zero.
    for kind, num, den, zero in (("f-of-g", f, g, gz), ("g-of-f", g, f, fz)):
        rows = [i for i, v in enumerate(out) if v is None and not zero[i]]
        for i, _, c, miss in _fit(num, den, rows):
            if miss <= tol:
                out[i] = DependenceVerdict(kind, c)
    return [v or DependenceVerdict("independent") for v in out]


def _ratio_of(verdict: DependenceVerdict, kind: str,
              tol: float) -> complex | None:
    """lambda with f = lambda g (kind "f-of-g") or g = lambda f ("g-of-f"):
    the verdict's coefficient c when it is of that kind, 1/c when it goes
    the other way with |c| > tol, and None otherwise."""
    c = verdict.coefficient
    if verdict.kind != kind and c is not None:      # the other way round
        return 1 / c if abs(c) > tol else None
    return c


def _extract_piece(S: FiniteSemigroup, chi: MultChar, piece: np.ndarray,
                   parity: str, tol: float) -> CaseParams | None:
    """The parameters (chi, rho) of a table chi A | 0 | rho (on S \\ I,
    I \\ P and P) with A = 0, as on every finite carrier, or None unless
    the table vanishes on I \\ P within tol and on S \\ I within EPS: A = 0
    is exact there, so tol does not widen it."""
    edge = sorted(chi.null_ideal - chi.prime_part)
    off = set(range(S.n)) - chi.null_ideal
    if not (_vanishes_on(piece, edge, tol) and _vanishes_on(piece, off, EPS)):
        return None
    rho_vals = np.zeros(S.n, dtype=np.complex128)
    P = sorted(chi.prime_part)
    rho_vals[P] = piece[P]
    rho = RhoFn(domain=frozenset(P), values=rho_vals, parity=parity)
    return CaseParams(chi=chi, rho=rho)


@dataclass(frozen=True)
class _Step:
    """A leading step of a walk.  Where every test holds, the walk's stream
    yields `case`, whose record has a form (see
    :class:`addlaws.families.CaseSpec`), and ends there when `final`.  Each
    test is called as test(f, g, alpha, sq, tol)."""

    case: CaseId
    final: bool
    tests: tuple


def _f_zero(f, g, alpha, sq, tol):
    return _is_zero(f, tol)


def _g_zero(f, g, alpha, sq, tol):
    return _is_zero(g, tol)


def _f_nonzero(f, g, alpha, sq, tol):
    return ~_is_zero(f, tol)


def _f_on_square(f, g, alpha, sq, tol):
    """f vanishes on S^2."""
    return _vanishes_on(f, sq, tol)


def _g_on_square(f, g, alpha, sq, tol):
    return _vanishes_on(g, sq, tol)


def _g_twice_f(f, g, alpha, sq, tol):
    return np.max(np.abs(g - 2 * f), axis=-1) <= tol


def _skew_zero(f, g, alpha, sq, tol):
    """F = f/alpha - g vanishes."""
    return _is_zero(f / complex(alpha) - g, tol)


#: The leading steps of each walk, in walk order, read by the per-pair
#: walks (:meth:`_Session.candidates`) and by the batch masks
#: (:func:`classify_rows`) alike.  alpha-sym walks cos-sine-g's steps on
#: its reduced pair.
LEADING_STEPS = {
    "cos-sub": (_Step(CaseId("cos-sub", 1), True, (_f_zero, _g_zero)),),
    "sine-add": (
        _Step(CaseId("sine-add", 1), True, (_f_zero,)),
        _Step(CaseId("sine-add", 2), False, (_g_zero, _f_on_square)),
    ),
    "cos-sine-g": (
        _Step(CaseId("cos-sine-g", 1), True, (_f_zero, _g_zero)),
        _Step(CaseId("cos-sine-g", 2), False,
              (_f_on_square, _f_nonzero, _g_zero)),
        _Step(CaseId("cos-sine-g", 3), False,
              (_f_on_square, _f_nonzero, _g_twice_f)),
    ),
    "alpha-skew": (
        _Step(CaseId("alpha-skew", 1), True, (_skew_zero,)),
        _Step(CaseId("alpha-skew", 3), False, (_g_zero,)),
        _Step(CaseId("alpha-skew", 2), False, (_f_zero, _g_on_square)),
    ),
}


def _form_free(case: CaseId, f, g):
    """The table a form case keeps as it is, which is its free table."""
    form = CASES[case.equation][case.case - 1].form
    return f if form[0] == 1 else g if form[1] == 1 else None


def _form_params(case: CaseId, f: FnTable, g: FnTable,
                 alpha) -> CaseParams:
    """The parameters that rebuild (f, g) as the form case `case`."""
    spec = CASES[case.equation][case.case - 1]
    return CaseParams(alpha=alpha if "alpha" in spec.fields else None,
                      free=_form_free(case, f, g))


# The ratio stage: the cases that the walks try next, cos-sub/2, then
# alpha-skew/4 and alpha-skew/5, as row tests shared by the per-pair walks
# (on a one-row stack) and by classify_rows.  Each returns the rows where
# the walk attempts the case, and the constants it attempts them with.

def _keep(rows: np.ndarray, values: list):
    """The rows whose value is not None, and those values."""
    keep = [i for i, v in enumerate(values) if v is not None]
    return rows[keep], [values[i] for i in keep]


def _unit_c(lam: complex | None, tol: float) -> complex | None:
    if lam is None or not min(abs(lam - 1j), abs(lam + 1j)) <= tol:
        return None
    return 1j if abs(lam - 1j) <= tol else -1j


def _unit_c_rows(f, g, sq, tol):
    """cos-sub/2: g is non-zero and vanishes on S^2, and f = c g with
    c in {i, -i}."""
    rows = np.flatnonzero(_vanishes_on(g, sq, tol))
    if rows.size:
        rows = rows[~_is_zero(g[rows], tol)]
    if not rows.size:
        return rows, []
    return _keep(rows, [_unit_c(lam, tol)
                        for lam in _ratio(f, g, tol, rows.tolist())])


def _skew_c(verdict: DependenceVerdict, alpha: complex,
            tol: float) -> complex | None:
    lam = _ratio_of(verdict, "g-of-f", tol)
    if lam is not None and abs(lam) > tol and abs(1 - lam * alpha) > tol:
        return lam * alpha / (1 - lam * alpha)
    return None


def _skew_c_rows(f, g, alpha: complex, tol):
    """alpha-skew/4: g = lambda f, and c = lambda alpha / (1 - lambda
    alpha)."""
    return _keep(np.arange(len(f)), [_skew_c(v, alpha, tol)
                                     for v in _dependence(f, g, tol)])


def _conj_pair_rows(F, g, chi, tol):
    """alpha-skew/5 with chi: F = f/alpha - g = c1 d with c1 != 0 and
    g - e = c2 d, for d = (chi - chi*)/2 and e = (chi + chi*)/2."""
    d = (chi.values - chi.conj) / 2
    e = (chi.values + chi.conj) / 2
    d = np.broadcast_to(d, F.shape)
    c1 = _ratio(F, d, tol)
    rows = [i for i, c in enumerate(c1) if c is not None and not abs(c) <= tol]
    c2 = _ratio(g - e, d, tol, rows)
    return _keep(np.array(rows, dtype=np.intp),
                 [None if w2 is None else (c1[i], w2)
                  for i, w2 in zip(rows, c2)])


class _Session:
    """One classification run; collects failed attempts for diagnostics."""

    def __init__(self, equation: str, f: FnTable, g: FnTable,
                 S: FiniteSemigroup, chars, tol: float, alpha=None):
        self.equation = equation
        self.f, self.g, self.S = f, g, S
        self.chars = chars
        self.tol = tol
        self.alpha = alpha
        self.attempts: list[str] = []
        self.evens = [c for c in chars if c.even]
        self.nonevens = [c for c in chars if not c.even]
        self.sq = sorted(square_set(S))

    def even_pairs(self):
        """(chi1, chi2, f coords, g coords) for each pair of even
        characters whose span holds both f and g, in walk order."""
        for c1, c2 in itertools.combinations(self.evens, 2):
            fc = _coords2(self.f.values, c1.values, c2.values, self.tol)
            gc = _coords2(self.g.values, c1.values, c2.values, self.tol)
            if fc is not None and gc is not None:
                yield c1, c2, fc, gc

    def matching(self, chars, v: np.ndarray):
        """The characters of `chars` within tol of the table v, in order.
        This is the walks' only character test: each candidate built from
        a match is proved by rebuilding the pair (:meth:`attempt`)."""
        for chi in chars:
            if float(np.max(np.abs(v - chi.values))) <= self.tol:
                yield chi

    def character(self, h: np.ndarray, beta: complex) -> MultChar | None:
        """The first enumerated even character within tol of beta h, or None
        when beta h is zero within tol or matches none of them."""
        tol, b = self.tol, complex(beta)
        if abs(b) <= tol:
            raise ValueError("beta must be non-zero")
        v = b * h
        if _is_zero(v, tol):
            return None
        return next(self.matching(self.evens, v), None)

    def candidates(self, walk):
        """The walk's candidate stream: the leading steps of
        :data:`LEADING_STEPS` (stopping at a step's first failing test, with
        each test run once), then those of walk(self).  A final step that
        applies ends the stream after its candidate."""
        args = (self.f.values, self.g.values, self.alpha, self.sq, self.tol)
        known = {}
        for step in LEADING_STEPS.get(self.equation, ()):
            for test in step.tests:
                if test not in known:
                    known[test] = test(*args)
                if not known[test]:
                    break
            else:
                yield step.case, _form_params(step.case, self.f, self.g,
                                              self.alpha)
                if step.final:
                    return
        yield from walk(self)

    def run(self, walk) -> ClassifiedSolution | None:
        """Attempt the candidates of :meth:`candidates` in order; the first
        hit answers, and the stream is not read past it."""
        for case, params in self.candidates(walk):
            hit = self.attempt(case, params)
            if hit:
                return hit
        return None

    def attempt(self, case: CaseId,
                params: CaseParams) -> ClassifiedSolution | None:
        """Validate a candidate by reconstruction; log failures."""
        try:
            fc, gc = construct(case, params, self.S)
        except ConstraintError as exc:
            self.attempts.append(f"{case}: rejected ({exc})")
            return None
        dev = max(self.f.max_abs_diff(fc), self.g.max_abs_diff(gc))
        if dev > self.tol:
            self.attempts.append(f"{case}: reconstruction off by {dev:.3g}")
            return None
        return ClassifiedSolution(case=case, params=params, residual=dev)

    def give_up(self, residual: float) -> Unclassified:
        return Unclassified(
            equation=self.equation,
            reason="no case of the classification matched",
            f=self.f.to_json_dict(), g=self.g.to_json_dict(),
            residual=residual, attempts=tuple(self.attempts))


# ---------------------------------------------------------------------------
# Per-equation classification walks.  Each is a generator of the
# (CaseId, CaseParams) candidates that follow the leading steps, in the
# paper's case order; _Session.run attempts them and stops at the first hit.
# ---------------------------------------------------------------------------

def _classify_cos_sub(s: _Session):
    f, g, S, tol = s.f, s.g, s.S, s.tol
    fv, gv = f.values, g.values
    # g non-zero but vanishing on the square: f = c g with c^2 = -1.
    _, cs = _unit_c_rows(fv[None], gv[None], s.sq, tol)
    if cs:
        yield CaseId("cos-sub", 2), CaseParams(free=g, c=cs[0])
    verdict = linear_dependence(f, g, tol)
    lam = _ratio_of(verdict, "f-of-g", tol)
    if lam is not None and min(abs(lam - 1j), abs(lam + 1j)) > tol:
        chi = s.character(gv, 1 + lam * lam)
        if chi is not None:
            yield CaseId("cos-sub", 3), CaseParams(chi=chi, alpha=lam)
    if verdict.kind == "independent":
        for c1, c2, fc, gc in s.even_pairs():
            # f = (chi2 - chi1) t with t = 1/(1/delta + delta).
            t = fc[1]
            if abs(fc[0] + t) > tol or abs(t) <= tol:
                continue
            delta = gc[1] / t
            if not any(abs(delta - b) <= tol for b in (0, 1j, -1j)):
                yield CaseId("cos-sub", 4), CaseParams(chi1=c1, chi2=c2,
                                                       delta=delta)
        # Conjugate pair: f = -i(chi - chi*)/2, g = (chi + chi*)/2.
        # Looping over every chi with chi* != chi covers both signs of f,
        # since swapping chi for chi* negates it.
        for chi in s.nonevens:
            conj = chi.conj
            if np.max(np.abs(fv + 0.5j * (chi.values - conj))) > tol:
                continue
            if np.max(np.abs(gv - 0.5 * (chi.values + conj))) <= tol:
                yield CaseId("cos-sub", 6), CaseParams(chi=chi)
    for chi in s.evens:
        p = _extract_piece(S, chi, 1j * fv, "even", tol)
        if p is None:
            continue
        for branch, sign in (("+", 1j), ("-", -1j)):
            if np.max(np.abs(gv - (chi.values + sign * fv))) <= tol:
                yield CaseId("cos-sub", 5, branch), p


def _classify_sine_add(s: _Session):
    f, g, S, tol = s.f, s.g, s.S, s.tol
    fv, gv = f.values, g.values
    verdict = linear_dependence(f, g, tol)
    lam = _ratio_of(verdict, "f-of-g", tol)
    if lam is not None and abs(verdict.coefficient) > tol:
        chi = s.character(gv, 2)
        if chi is not None:
            yield CaseId("sine-add", 3), CaseParams(chi=chi, alpha=1 / lam)
    if verdict.kind == "independent":
        for c1, c2, fc, gc in s.even_pairs():
            if abs(gc[0] - 0.5) > tol or abs(gc[1] - 0.5) > tol:
                continue
            c = fc[0]
            if abs(c) > tol and abs(fc[1] + c) <= tol:
                yield CaseId("sine-add", 4), CaseParams(chi1=c1, chi2=c2, c=c)
    for chi in s.matching(s.evens, gv):
        p = _extract_piece(S, chi, fv, "even", tol)
        if p is not None:
            yield CaseId("sine-add", 5), p


def _classify_cos_sine_g(s: _Session):
    f, g, S, tol = s.f, s.g, s.S, s.tol
    fv, gv = f.values, g.values
    verdict = linear_dependence(f, g, tol)
    lam = _ratio_of(verdict, "f-of-g", tol)
    if lam is not None and abs(2 * lam - 1) > tol:
        beta = lam / (2 * lam - 1)
        if abs(beta) > tol:
            chi = s.character(gv, 1 / beta)
            if chi is not None:
                yield CaseId("cos-sine-g", 4), CaseParams(chi=chi, beta=beta)
    if verdict.kind == "independent":
        for c1, c2, _, gc in s.even_pairs():
            if abs(gc[0] + gc[1] - 1) > tol:
                continue
            w = gc[0] - gc[1]
            if not any(abs(w - b) <= tol for b in (0, 1, -1)):
                yield (CaseId("cos-sine-g", 5),
                       CaseParams(chi1=c1, chi2=c2, c1=w))
    # case 8: g is a non-even character and f averages it with its dual.
    for chi in s.matching(s.nonevens, gv):
        yield CaseId("cos-sine-g", 8, "chi"), CaseParams(chi=chi)
    # case 7: g itself is an even character, f = chi + (0 | 0 | rho).
    for chi in s.matching(s.evens, gv):
        p = _extract_piece(S, chi, fv - chi.values, "even", tol)
        if p is not None:
            yield CaseId("cos-sine-g", 7), p
    # case 6: 2f - g is an even character, g = chi + (0 | 0 | rho).
    for chi in s.matching(s.evens, 2 * fv - gv):
        p = _extract_piece(S, chi, gv - chi.values, "even", tol)
        if p is not None:
            yield CaseId("cos-sine-g", 6), p


def _classify_alpha_sym(s: _Session):
    """The hit of cos-sine-g's walk on the reduced pair, as an alpha-sym
    candidate."""
    f, g, alpha = s.f, s.g, s.alpha
    inner = _Session("cos-sine-g", reduce_alpha_sym(f, g, alpha), g, s.S,
                     s.chars, s.tol)
    hit = inner.run(_classify_cos_sine_g)
    s.attempts.extend(f"via cos-sine-g: {a}" for a in inner.attempts)
    if hit is None:
        return
    case, p = CaseId("alpha-sym", hit.case.case, hit.case.branch), hit.params
    if CASES["alpha-sym"][case.case - 1].form is not None:
        yield case, _form_params(case, f, g, alpha)
    else:
        yield case, replace(p, alpha=alpha)


def _classify_alpha_skew(s: _Session):
    f, g, S, tol, alpha = s.f, s.g, s.S, s.tol, s.alpha
    fv, gv = f.values, g.values
    _, cs = _skew_c_rows(fv[None], gv[None], alpha, tol)
    if cs:
        yield (CaseId("alpha-skew", 4),
               CaseParams(alpha=alpha, free=f, c=cs[0]))
    # case 5: F is proportional to (chi - chi*)/2 for a non-even character,
    # one of each conjugate pair.
    Fv = fv / alpha - gv
    for chi in conjugate_representatives(tuple(s.chars)):
        _, cs = _conj_pair_rows(Fv[None], gv[None], chi, tol)
        if cs:
            c1, c2 = cs[0]
            yield (CaseId("alpha-skew", 5),
                   CaseParams(alpha=alpha, chi=chi, c1=c1, c2=c2))
    # case 6: F = 0 | 0 | rho with odd rho; g = chi + c F.
    for chi in s.evens:
        p = _extract_piece(S, chi, Fv, "odd", tol)
        if p is None:
            continue
        (c,) = _ratio((gv - chi.values)[None], Fv[None], tol)
        if c is not None:
            yield CaseId("alpha-skew", 6), replace(p, alpha=alpha, c=c)


#: The walk of each equation, by equation id.
_WALKS = {"cos-sub": _classify_cos_sub, "sine-add": _classify_sine_add,
          "cos-sine-g": _classify_cos_sine_g,
          "alpha-sym": _classify_alpha_sym,
          "alpha-skew": _classify_alpha_skew}


def _extract_alpha(equation: str, f: FnTable, g: FnTable,
                   S: FiniteSemigroup, tol: float) -> complex:
    """Least-squares alpha from the defining relation; 1 when undetermined
    (the relation then holds for every alpha)."""
    sign = 1.0 if equation == "alpha-sym" else -1.0
    fv, gv = f.values, g.values
    prod_sig = S.table[:, S.sigma]            # (x, y) -> x sigma(y)
    lhs = fv[prod_sig]
    bil = np.outer(fv, gv) + sign * np.outer(gv, fv)
    target = lhs - bil                        # should equal alpha * g(x s(y))
    gxy = gv[prod_sig]
    den = complex(np.vdot(gxy, gxy))
    if abs(den) <= tol:
        return 1.0 + 0j
    return complex(np.vdot(gxy, target) / den)


def _checked_binding(equation: str, f, g, S, tol: float, alpha,
                     fit: bool = False) -> dict:
    """The residual binding of (f, g), after refusing what :func:`classify`
    refuses, in its order: a carrier that is not finite (TypeError), an
    unknown equation id (KeyError), a tolerance that is negative or not
    finite, and an alpha within tol of 0 (ValueError).  With `fit`, an
    alpha equation's missing alpha is recovered by :func:`_extract_alpha`.
    The binding holds alpha as "a" for the alpha equations only."""
    if not isinstance(S, FiniteSemigroup):
        raise TypeError("classification runs on finite semigroups only; "
                        "windowed carriers use construct-then-compare")
    if equation not in _WALKS:
        raise KeyError(f"unknown equation id {equation!r}")
    validate_tolerance(tol)
    binding = {"f": f, "g": g}
    if equation in ALPHA_EQUATIONS and (alpha is not None or fit):
        if alpha is None:
            alpha = _extract_alpha(equation, f, g, S, tol)
        if abs(complex(alpha)) <= tol:
            raise ValueError("alpha must be non-zero")
        binding["a"] = complex(alpha)
    return binding


def _attempt_rows(case: CaseId, F: np.ndarray, G: np.ndarray,
                  S: FiniteSemigroup, params: CaseParams,
                  tol: float) -> np.ndarray:
    """:meth:`_Session.attempt` on each row of (F, G), with the rows of
    `params` (see :func:`addlaws.families.construct_rows`): which rows it
    accepts."""
    ok, fc, gc = construct_rows(case, S, params, len(F))
    dev = np.maximum(np.abs(F - fc).max(axis=-1),
                     np.abs(G - gc).max(axis=-1))
    return ok & ~(dev > tol)


def classify_rows(equation: str, F: np.ndarray, G: np.ndarray,
                  S: FiniteSemigroup, alpha: complex | None = None,
                  tol: float = EPS, chars=None) -> np.ndarray:
    """The front of :func:`classify` for a stack of pairs (rows of F, G).

    Every row's residual is checked as `classify` checks it, and the first
    row that fails raises the same :class:`NotASolutionError`.  Then the
    leading steps of the equation's walk, and after them its ratio stage
    (cos-sub/2; alpha-skew/4, then alpha-skew/5 for each representative of
    a conjugate pair), run as masks over the rows.  A mask settles a row
    only where the walk would answer there with a hit: no earlier step
    applied and no earlier case was attempted, the mask's test holds, and
    the case's batched construct-and-compare accepts the row.  Returns the
    settled case number of each row, or 0 where the row is left to
    `classify`: no mask applies, or one applies and its attempt misses,
    which the walk logs.  The alpha equations need `alpha`; `chars` is the
    enumerate_characters list, worked out here when alpha-skew needs it
    and it is not given.  Input that `classify` refuses is refused here
    with the same error.
    """
    binding = _checked_binding(equation, F, G, S, tol, alpha)
    alpha = binding.get("a")
    residual = residual_rows(builtin(equation), binding, S)
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        raise _not_a_solution(equation, float(residual[bad[0]]))
    sq = sorted(square_set(S))
    walk, Fw = equation, F
    if equation == "alpha-sym":            # the walk of reduce_alpha_sym
        walk, Fw = "cos-sine-g", (G - F / alpha) / 2
    case = np.zeros(len(F), dtype=np.intp)
    open_rows = np.ones(len(F), dtype=bool)

    for step in LEADING_STEPS[walk]:
        applies = open_rows.copy()
        for test in step.tests:
            applies &= test(Fw, G, alpha, sq, tol)
        rows = np.flatnonzero(applies)
        if not rows.size:
            continue
        open_rows[rows] = False
        hit = _attempt_rows(step.case, Fw[rows], G[rows], S, _form_params(
            step.case, Fw[rows], G[rows], alpha), tol)
        if walk != equation:
            bound = CaseId(equation, step.case.case)
            hit &= _attempt_rows(bound, F[rows], G[rows], S, _form_params(
                bound, F[rows], G[rows], alpha), tol)
        case[rows[hit]] = step.case.case

    def settle(cid: CaseId, rows: np.ndarray, params: CaseParams) -> None:
        """Close the rows the walk attempts `cid` on; mark the hits."""
        if not rows.size:
            return
        open_rows[rows] = False
        hit = _attempt_rows(cid, F[rows], G[rows], S, params, tol)
        case[rows[hit]] = cid.case

    if walk == "cos-sub":
        at = np.flatnonzero(open_rows)
        rows, cs = _unit_c_rows(F[at], G[at], sq, tol)
        settle(CaseId("cos-sub", 2), at[rows],
               CaseParams(free=G[at[rows]], c=cs))
    elif walk == "alpha-skew":
        at = np.flatnonzero(open_rows)
        rows, cs = _skew_c_rows(F[at], G[at], alpha, tol)
        settle(CaseId("alpha-skew", 4), at[rows],
               CaseParams(alpha=alpha, free=F[at[rows]], c=cs))
        Fs = F / alpha - G
        if chars is None:
            chars = enumerate_characters(S)
        for chi in conjugate_representatives(tuple(chars)):
            at = np.flatnonzero(open_rows)
            rows, cs = _conj_pair_rows(Fs[at], G[at], chi, tol)
            if cs:
                c1, c2 = zip(*cs)
                settle(CaseId("alpha-skew", 5), at[rows],
                       CaseParams(alpha=alpha, chi=chi, c1=c1, c2=c2))
    return case


def classify(equation: str, f: FnTable, g: FnTable, S: FiniteSemigroup,
             alpha: complex | None = None, chars=None, tol: float = EPS):
    """Classify a verified solution pair on a finite semigroup.

    For the two alpha equations the constant is taken from `alpha` when
    given and recovered by least squares otherwise.  `chars` can carry a
    precomputed enumerate_characters list to share across many calls.
    Raises ValueError for a tolerance that is negative or not finite.
    """
    binding = _checked_binding(equation, f, g, S, tol, alpha, fit=True)
    residual = evaluate_residual(builtin(equation), binding, S)
    if not residual <= tol:                 # a NaN residual is no solution
        raise _not_a_solution(equation, residual)
    if chars is None:
        chars = enumerate_characters(S)
    session = _Session(equation, f, g, S, chars, tol, binding.get("a"))
    hit = session.run(_WALKS[equation])
    if hit is None:
        return session.give_up(residual)
    return hit
