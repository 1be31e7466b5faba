"""Identify which solution family a verified (f, g) pair belongs to.

The classifier is the executable converse of the constructors: given a
solution of one of the five equations on a finite semigroup, it walks the
case split in priority order — zero pair, vanishing on S^2, linearly
dependent, two-character mixture, piecewise — extracts the case parameters,
and proves the answer by reconstructing the pair through
:func:`addlaws.families.construct` and comparing tables.  A solution that
matches no case is returned as :class:`Unclassified` with a diagnostic
dump; feeding a non-solution raises :class:`NotASolutionError`.

Each walk opens with leading steps whose cases are built from one free
table alone: both tables zero, f = 0, F = f/alpha - g = 0, and g = 0 or f
vanishing on S^2.  :data:`LEADING_STEPS` holds them once, for the per-pair
walks and for :func:`classify_rows`, which runs them as masks over a whole
stack of pairs.  A mask takes a row only where the walk would answer at
that step with a hit, checked by one batched construct-and-compare per
case that gives the floats and checks of :meth:`_Session.attempt`; every
other row is left for :func:`classify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .characters import AdditiveFn, MultChar, RhoFn, enumerate_characters
from .core import EPS, FiniteSemigroup, FnTable, cnum, square_set
from .dsl import builtin, evaluate_residual, residual_rows
from .families import (CASES, CaseId, CaseParams, ConstraintError, construct,
                       construct_rows)


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
    tolerance in the max norm.
    """
    fv, gv = f.values, g.values
    fz = bool(np.all(np.abs(fv) <= tol))
    gz = bool(np.all(np.abs(gv) <= tol))
    if fz and gz:
        return DependenceVerdict("both-zero")
    if not gz:
        lam = complex(np.vdot(gv, fv) / np.vdot(gv, gv))
        if float(np.max(np.abs(fv - lam * gv))) <= tol:
            return DependenceVerdict("f-of-g", lam)
    if not fz:
        mu = complex(np.vdot(fv, gv) / np.vdot(fv, fv))
        if float(np.max(np.abs(gv - mu * fv))) <= tol:
            return DependenceVerdict("g-of-f", mu)
    return DependenceVerdict("independent")


def extract_character(h: FnTable, beta: complex, S: FiniteSemigroup,
                      sigma=None, tol: float = EPS) -> MultChar | None:
    """chi = beta h when h satisfies h(x sigma(y)) = beta h(x) h(y).

    Returns the verified multiplicative, even character, or None when the
    relation or the evenness fails.
    """
    if abs(complex(beta)) <= tol:
        raise ValueError("beta must be non-zero")
    sig = np.asarray(sigma, dtype=np.intp) if sigma is not None else S.sigma
    hv = h.values
    lhs = hv[S.table[:, sig]]
    if float(np.max(np.abs(lhs - complex(beta) * np.outer(hv, hv)))) > tol:
        return None
    if sigma is not None and not np.array_equal(sig, S.sigma):
        S = FiniteSemigroup(S.name, S.elements, S.table, sig)
    try:
        chi = MultChar(S, complex(beta) * hv, tol=tol)
    except ValueError:
        return None
    if not chi.even:
        return None
    return chi


def reduce_alpha_sym(f: FnTable, g: FnTable, alpha: complex) -> FnTable:
    """The pair map onto the cos-sine-g equation: returns -F/2 for
    F = f/alpha - g, so that (-F/2, g) solves cos-sine-g whenever (f, g)
    solves alpha-sym."""
    a = complex(alpha)
    if abs(a) <= EPS:
        raise ValueError("alpha must be non-zero")
    if f.finite and g.finite:
        return FnTable(f.domain, values=(g.values - f.values / a) / 2)
    return FnTable(f.domain, formula=lambda x: (g(x) - f(x) / a) / 2)


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
# whose last axis runs over the elements.

def _is_zero(v: np.ndarray, tol: float) -> np.ndarray:
    return np.all(np.abs(v) <= tol, axis=-1)


def _vanishes_on(v: np.ndarray, idx, tol: float) -> np.ndarray:
    idx = sorted(idx)
    if not idx:
        return np.ones(v.shape[:-1], dtype=bool)
    return np.max(np.abs(v[..., idx]), axis=-1) <= tol


def _coords2(h: np.ndarray, u: np.ndarray, v: np.ndarray,
             tol: float) -> tuple[complex, complex] | None:
    """Coordinates of h in span{u, v} if h lies there within tol."""
    M = np.stack([u, v], axis=1)
    sol, *_ = np.linalg.lstsq(M, h, rcond=None)
    if float(np.max(np.abs(M @ sol - h))) > tol:
        return None
    return complex(sol[0]), complex(sol[1])


def _ratio(num: np.ndarray, den: np.ndarray, tol: float) -> complex | None:
    """Least-squares lambda with num = lambda * den, or None."""
    nn = complex(np.vdot(den, den))
    if abs(nn) <= tol:
        return None
    lam = complex(np.vdot(den, num) / nn)
    if float(np.max(np.abs(num - lam * den))) > tol:
        return None
    return lam


def _match_char(chars, values: np.ndarray, tol: float) -> MultChar | None:
    for chi in chars:
        if float(np.max(np.abs(chi.values - values))) <= tol:
            return chi
    return None


def _extract_piece(S: FiniteSemigroup, chi: MultChar, piece: np.ndarray,
                   parity: str, tol: float):
    """Read (A, rho) off a chi A | 0 | rho shaped table, or None."""
    edge = sorted(chi.null_ideal - chi.prime_part)
    if not _vanishes_on(piece, edge, tol):
        return None
    n = S.n
    A_vals = np.zeros(n, dtype=np.complex128)
    D = sorted(set(range(n)) - chi.null_ideal)
    for x in D:
        A_vals[x] = piece[x] / chi.values[x]
    rho_vals = np.zeros(n, dtype=np.complex128)
    P = sorted(chi.prime_part)
    for p in P:
        rho_vals[p] = piece[p]
    A = AdditiveFn(domain=frozenset(D), values=A_vals, parity=parity)
    rho = RhoFn(domain=frozenset(P), values=rho_vals, parity=parity)
    return A, rho


@dataclass(frozen=True)
class _Step:
    """A leading step of a walk.  Where every test holds, the walk attempts
    `case`, whose record has a form (see :class:`addlaws.families.CaseSpec`).
    It answers with the outcome when `final` and moves on after a miss
    otherwise.  Each test is called as test(f, g, alpha, sq, tol)."""

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
#: walks (:meth:`_Session.lead`, which stops at a step's first failing
#: test and runs each test once) and by the batch masks
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

    def lead(self) -> tuple[bool, ClassifiedSolution | None]:
        """Run the walk's leading steps: (answered, hit)."""
        args = (self.f.values, self.g.values, self.alpha, self.sq, self.tol)
        known = {}
        for step in LEADING_STEPS[self.equation]:
            for test in step.tests:
                if test not in known:
                    known[test] = test(*args)
                if not known[test]:
                    break
            else:
                hit = self.attempt(step.case, _form_params(
                    step.case, self.f, self.g, self.alpha))
                if hit or step.final:
                    return True, hit
        return False, None

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
# Per-equation classification walks.
# ---------------------------------------------------------------------------

def _classify_cos_sub(s: _Session):
    f, g, S, tol = s.f, s.g, s.S, s.tol
    fv, gv = f.values, g.values
    answered, hit = s.lead()
    if answered:
        return hit
    # g non-zero but vanishing on the square: f = c g with c^2 = -1.
    if not _is_zero(gv, tol) and _vanishes_on(gv, s.sq, tol):
        lam = _ratio(fv, gv, tol)
        if lam is not None and min(abs(lam - 1j), abs(lam + 1j)) <= tol:
            c = 1j if abs(lam - 1j) <= tol else -1j
            hit = s.attempt(CaseId("cos-sub", 2),
                            CaseParams(free=g, c=c))
            if hit:
                return hit
    verdict = linear_dependence(f, g, tol)
    lam = None                               # f = lam g
    if verdict.kind == "f-of-g":
        lam = verdict.coefficient
    elif verdict.kind == "g-of-f" and abs(verdict.coefficient) > tol:
        lam = 1 / verdict.coefficient
    if lam is not None and min(abs(lam - 1j), abs(lam + 1j)) > tol:
        chi = extract_character(g, 1 + lam * lam, S, tol=tol)
        chi = chi and _match_char(s.chars, chi.values, tol)
        if chi is not None:
            hit = s.attempt(CaseId("cos-sub", 3),
                            CaseParams(chi=chi, alpha=lam))
            if hit:
                return hit
    if verdict.kind == "independent":
        for c1, c2, fc, gc in s.even_pairs():
            # f = (chi2 - chi1) t with t = 1/(1/delta + delta).
            t = fc[1]
            if abs(fc[0] + t) > tol or abs(t) <= tol:
                continue
            delta = gc[1] / t
            if any(abs(delta - b) <= tol for b in (0, 1j, -1j)):
                continue
            hit = s.attempt(CaseId("cos-sub", 4),
                            CaseParams(chi1=c1, chi2=c2, delta=delta))
            if hit:
                return hit
        # Conjugate pair: f = -i(chi - chi*)/2, g = (chi + chi*)/2.
        # Looping over every chi with chi* != chi covers both signs of f,
        # since swapping chi for chi* negates it.
        for chi in s.nonevens:
            conj = chi.conj
            if np.max(np.abs(fv + 0.5j * (chi.values - conj))) > tol:
                continue
            if np.max(np.abs(gv - 0.5 * (chi.values + conj))) > tol:
                continue
            hit = s.attempt(CaseId("cos-sub", 6), CaseParams(chi=chi))
            if hit:
                return hit
    for chi in s.evens:
        piece = _extract_piece(S, chi, 1j * fv, "even", tol)
        if piece is None:
            continue
        A, rho = piece
        for branch, sign in (("+", 1j), ("-", -1j)):
            if np.max(np.abs(gv - (chi.values + sign * fv))) > tol:
                continue
            hit = s.attempt(CaseId("cos-sub", 5, branch),
                            CaseParams(chi=chi, A=A, rho=rho))
            if hit:
                return hit
    return None


def _classify_sine_add(s: _Session):
    f, g, S, tol = s.f, s.g, s.S, s.tol
    fv, gv = f.values, g.values
    answered, hit = s.lead()
    if answered:
        return hit
    verdict = linear_dependence(f, g, tol)
    lam = None
    if verdict.kind == "f-of-g" and abs(verdict.coefficient) > tol:
        lam = verdict.coefficient            # f = lam g
    elif verdict.kind == "g-of-f" and abs(verdict.coefficient) > tol:
        lam = 1 / verdict.coefficient
    if lam is not None:
        chi = extract_character(g, 2, S, tol=tol)
        chi = chi and _match_char(s.chars, chi.values, tol)
        if chi is not None:
            hit = s.attempt(CaseId("sine-add", 3),
                            CaseParams(chi=chi, alpha=1 / lam))
            if hit:
                return hit
    if verdict.kind == "independent":
        for c1, c2, fc, gc in s.even_pairs():
            if abs(gc[0] - 0.5) > tol or abs(gc[1] - 0.5) > tol:
                continue
            c = fc[0]
            if abs(c) <= tol or abs(fc[1] + c) > tol:
                continue
            hit = s.attempt(CaseId("sine-add", 4),
                            CaseParams(chi1=c1, chi2=c2, c=c))
            if hit:
                return hit
    for chi in s.evens:
        if np.max(np.abs(gv - chi.values)) > tol:
            continue
        piece = _extract_piece(S, chi, fv, "even", tol)
        if piece is None:
            continue
        A, rho = piece
        hit = s.attempt(CaseId("sine-add", 5),
                        CaseParams(chi=chi, A=A, rho=rho))
        if hit:
            return hit
    return None


def _classify_cos_sine_g(s: _Session):
    f, g, S, tol = s.f, s.g, s.S, s.tol
    fv, gv = f.values, g.values
    answered, hit = s.lead()
    if answered:
        return hit
    verdict = linear_dependence(f, g, tol)
    lam = None
    if verdict.kind == "f-of-g":
        lam = verdict.coefficient            # f = lam g, g != 0
    elif verdict.kind == "g-of-f" and abs(verdict.coefficient) > tol:
        lam = 1 / verdict.coefficient
    if lam is not None and abs(2 * lam - 1) > tol:
        beta = lam / (2 * lam - 1)
        if abs(beta) > tol:
            chi = extract_character(g, 1 / beta, S, tol=tol)
            chi = chi and _match_char(s.chars, chi.values, tol)
            if chi is not None:
                hit = s.attempt(CaseId("cos-sine-g", 4),
                                CaseParams(chi=chi, beta=beta))
                if hit:
                    return hit
    if verdict.kind == "independent":
        for c1, c2, _, gc in s.even_pairs():
            if abs(gc[0] + gc[1] - 1) > tol:
                continue
            w = gc[0] - gc[1]
            if any(abs(w - b) <= tol for b in (0, 1, -1)):
                continue
            hit = s.attempt(CaseId("cos-sine-g", 5),
                            CaseParams(chi1=c1, chi2=c2, c1=w))
            if hit:
                return hit
    # case 8: g is a non-even character and f averages it with its dual.
    for chi in s.nonevens:
        if np.max(np.abs(gv - chi.values)) > tol:
            continue
        hit = s.attempt(CaseId("cos-sine-g", 8, "chi"), CaseParams(chi=chi))
        if hit:
            return hit
    # case 7: g itself is an even character, f = phi + chi.
    for chi in s.evens:
        if np.max(np.abs(gv - chi.values)) > tol:
            continue
        piece = _extract_piece(S, chi, fv - chi.values, "even", tol)
        if piece is None:
            continue
        A, rho = piece
        hit = s.attempt(CaseId("cos-sine-g", 7),
                        CaseParams(chi=chi, A=A, rho=rho))
        if hit:
            return hit
    # case 6: 2f - g is an even character, g = phi + chi.
    for chi in s.evens:
        if np.max(np.abs(2 * fv - gv - chi.values)) > tol:
            continue
        piece = _extract_piece(S, chi, gv - chi.values, "even", tol)
        if piece is None:
            continue
        A, rho = piece
        hit = s.attempt(CaseId("cos-sine-g", 6),
                        CaseParams(chi=chi, A=A, rho=rho))
        if hit:
            return hit
    return None


def _classify_alpha_sym(s: _Session, alpha: complex):
    f, g, S, tol = s.f, s.g, s.S, s.tol
    phi = reduce_alpha_sym(f, g, alpha)
    inner = _Session("cos-sine-g", phi, g, S, s.chars, tol)
    hit = _classify_cos_sine_g(inner)
    s.attempts.extend(f"via cos-sine-g: {a}" for a in inner.attempts)
    if hit is None:
        return None
    k, params = hit.case.case, hit.params
    if CASES["alpha-sym"][k - 1].form is not None:
        case = CaseId("alpha-sym", k)
        return s.attempt(case, _form_params(case, f, g, alpha))
    translated = CaseParams(alpha=alpha, chi=params.chi, chi1=params.chi1,
                            chi2=params.chi2, A=params.A, rho=params.rho,
                            beta=params.beta, c1=params.c1)
    return s.attempt(CaseId("alpha-sym", k, hit.case.branch), translated)


def _classify_alpha_skew(s: _Session, alpha: complex):
    f, g, S, tol = s.f, s.g, s.S, s.tol
    fv, gv = f.values, g.values
    answered, hit = s.lead()
    if answered:
        return hit
    Fv = fv / complex(alpha) - gv
    verdict = linear_dependence(f, g, tol)
    lam = None                               # g = lam f
    if verdict.kind == "g-of-f":
        lam = verdict.coefficient
    elif verdict.kind == "f-of-g" and abs(verdict.coefficient) > tol:
        lam = 1 / verdict.coefficient
    if lam is not None and abs(lam) > tol \
            and abs(1 - lam * complex(alpha)) > tol:
        c = lam * complex(alpha) / (1 - lam * complex(alpha))
        hit = s.attempt(CaseId("alpha-skew", 4),
                        CaseParams(alpha=alpha, free=f, c=c))
        if hit:
            return hit
    # case 5: F is proportional to (chi - chi*)/2 for a non-even character.
    seen = set()
    for chi in s.nonevens:
        key = frozenset((chi.key(),
                         tuple((round(z.real, 12), round(z.imag, 12))
                               for z in chi.conj)))
        if key in seen:
            continue
        seen.add(key)
        d = (chi.values - chi.conj) / 2
        e = (chi.values + chi.conj) / 2
        c1 = _ratio(Fv, d, tol)
        if c1 is None or abs(c1) <= tol:
            continue
        c2 = _ratio(gv - e, d, tol)
        if c2 is None:
            continue
        hit = s.attempt(CaseId("alpha-skew", 5),
                        CaseParams(alpha=alpha, chi=chi, c1=c1, c2=c2))
        if hit:
            return hit
    # case 6: F = chi A | 0 | rho with odd A, rho; g = chi + c F.
    for chi in s.evens:
        piece = _extract_piece(S, chi, Fv, "odd", tol)
        if piece is None:
            continue
        A, rho = piece
        c = _ratio(gv - chi.values, Fv, tol)
        if c is None:
            continue
        hit = s.attempt(CaseId("alpha-skew", 6),
                        CaseParams(alpha=alpha, chi=chi, A=A, rho=rho, c=c))
        if hit:
            return hit
    return None


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


def _attempt_rows(case: CaseId, F: np.ndarray, G: np.ndarray,
                  S: FiniteSemigroup, alpha, tol: float) -> np.ndarray:
    """:meth:`_Session.attempt` of a form case on each row of (F, G):
    which rows it accepts."""
    ok, fc, gc = construct_rows(case, S, _form_free(case, F, G), alpha,
                                len(F))
    dev = np.maximum(np.abs(F - fc).max(axis=-1),
                     np.abs(G - gc).max(axis=-1))
    return ok & ~(dev > tol)


def classify_rows(equation: str, F: np.ndarray, G: np.ndarray,
                  S: FiniteSemigroup, alpha: complex | None = None,
                  tol: float = EPS) -> np.ndarray:
    """The front of :func:`classify` for a stack of pairs (rows of F, G).

    Every row's residual is checked as `classify` checks it, and the first
    row that fails raises the same :class:`NotASolutionError`.  Then the
    leading steps of the equation's walk run as masks over the rows.  A
    step settles a row only where the walk would answer there with a hit:
    the step applies, no earlier step did, and the case's batched
    construct-and-compare accepts the row.  Returns the settled case number
    of each row, or 0 where the row is left to `classify`: no step applies,
    or a step applies and its attempt misses, which the walk logs.  The
    alpha equations need `alpha`.
    """
    binding = {"f": F, "g": G}
    if alpha is not None:
        binding["a"] = complex(alpha)
    residual = residual_rows(builtin(equation), binding, S)
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        raise _not_a_solution(equation, float(residual[bad[0]]))
    sq = sorted(square_set(S))
    walk, Fw = equation, F
    if equation == "alpha-sym":            # the walk of reduce_alpha_sym
        walk, Fw = "cos-sine-g", (G - F / complex(alpha)) / 2
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
        hit = _attempt_rows(step.case, Fw[rows], G[rows], S, alpha, tol)
        if walk != equation:
            hit &= _attempt_rows(CaseId(equation, step.case.case), F[rows],
                                 G[rows], S, alpha, tol)
        case[rows[hit]] = step.case.case
    return case


def classify(equation: str, f: FnTable, g: FnTable, S: FiniteSemigroup,
             sigma=None, alpha: complex | None = None, chars=None,
             tol: float = EPS):
    """Classify a verified solution pair on a finite semigroup.

    For the two alpha equations the constant is taken from `alpha` when
    given and recovered by least squares otherwise.  `chars` can carry a
    precomputed enumerate_characters list to share across many calls.
    """
    if not isinstance(S, FiniteSemigroup):
        raise TypeError("classification runs on finite semigroups only; "
                        "windowed carriers use construct-then-compare")
    if sigma is not None and not np.array_equal(
            np.asarray(sigma, dtype=np.intp), S.sigma):
        S = FiniteSemigroup(S.name, S.elements, S.table, sigma)
        chars = None
    if equation not in ("cos-sub", "sine-add", "cos-sine-g", "alpha-sym",
                        "alpha-skew"):
        raise KeyError(f"unknown equation id {equation!r}")

    binding = {"f": f, "g": g}
    if equation in ("alpha-sym", "alpha-skew"):
        if alpha is None:
            alpha = _extract_alpha(equation, f, g, S, tol)
        if abs(complex(alpha)) <= tol:
            raise ValueError("alpha must be non-zero")
        binding["a"] = complex(alpha)
    residual = evaluate_residual(builtin(equation), binding, S)
    if not residual <= tol:                 # a NaN residual is no solution
        raise _not_a_solution(equation, residual)

    if chars is None:
        chars = enumerate_characters(S)
    session = _Session(equation, f, g, S, chars, tol, binding.get("a"))
    if equation == "cos-sub":
        hit = _classify_cos_sub(session)
    elif equation == "sine-add":
        hit = _classify_sine_add(session)
    elif equation == "cos-sine-g":
        hit = _classify_cos_sine_g(session)
    elif equation == "alpha-sym":
        hit = _classify_alpha_sym(session, complex(alpha))
    else:
        hit = _classify_alpha_skew(session, complex(alpha))
    if hit is None:
        return session.give_up(residual)
    return hit
