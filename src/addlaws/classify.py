"""Identify which solution family a verified (f, g) pair belongs to.

The classifier is the executable converse of the constructors: given a
solution of one of the five equations on a finite semigroup, it walks the
case split in priority order — zero pair, vanishing on S^2, linearly
dependent, two-character mixture, piecewise — extracts the case parameters,
and proves the answer by reconstructing the pair through
:func:`addlaws.families.construct` and comparing tables.  A solution that
matches no case is returned as :class:`Unclassified` with a diagnostic
dump; feeding a non-solution raises :class:`NotASolutionError`.

Each equation's walk is one stream of candidates, (CaseId, CaseParams)
pairs in the paper's case order, which two classifiers read: one for a
single pair, one for a stack of pairs.  :meth:`_Session.candidates`
yields them lazily for one pair, and :meth:`_Session.run` attempts them
one at a time and stops at the first hit, so nothing past it is
extracted.  :func:`classify_rows` runs the same walk as masks over a
whole stack (:class:`_Batch`).  alpha-sym walks cos-sine-g's candidates
on the reduced pair and answers with one translated attempt of their
first hit.

A walk opens with leading steps whose cases are built from one free table
alone: both tables zero, f = 0, F = f/alpha - g = 0, and g = 0 or f
vanishing on S^2; a final step that applies ends the walk after its
candidate.  :data:`LEADING_STEPS` holds them once, for both classifiers.
Then come the ratio stage (cos-sub/2, alpha-skew/4 and alpha-skew/5), the
dependent-character cases (f = lambda g and a multiple of g a character),
the two-character cases (f and g in the span of two even characters), the
non-even cases and the piecewise cases chi A | 0 | rho.  :data:`_RULES`
lists these slots in walk order, the ratio stage first, so neither
classifier names a walk: each rule is one function, which both call, on a
one-row stack or on the open rows.  Both pack a candidate's parameters
with one function, :func:`_params`, and both work out the characters and
their parities before the walk starts.  The ratio and rank decision are
computed once, for stacks, with np.vecdot, which gives np.vdot's floats
row by row.

In :func:`classify_rows` a row stays open until its first hit, checked by
one batched construct-and-compare per case that gives the floats and
checks of :meth:`_Session.attempt`, and closes labelled with that case.
Only a final leading step and the refusal of a character factor beta
within tol of 0 close a row without a hit.  So each row's label is the
case :func:`classify` answers, and label 0 marks exactly the rows where
`classify` returns :class:`Unclassified` or raises.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .characters import (MultChar, RhoFn, conjugate_representatives,
                         enumerate_characters)
from .core import (EPS, FiniteSemigroup, FnTable, cnum, square_set,
                   validate_tolerance)
from .dsl import builtin, evaluate_residual, residual_rows
from .families import (ALPHA_EQUATIONS, CASES, CaseId, CaseParams,
                       ConstraintError, all_case_ids, construct,
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
# whose last axis runs over the elements.  The other helpers take stacks and
# return one answer per row, with the floats of one table.

def _is_zero(v: np.ndarray, tol: float) -> np.ndarray:
    return (np.abs(v) <= tol).all(axis=-1)


def _vanishes_on(v: np.ndarray, idx, tol: float) -> np.ndarray:
    idx = sorted(idx)
    if not idx:
        return np.ones(v.shape[:-1], dtype=bool)
    return np.abs(v[..., idx]).max(axis=-1) <= tol


#: Most rows one np.linalg.lstsq call solves.  Over up to 2,048 grid rows
#: each row's coordinates came out bit for bit as from a call of its own
#: (numpy 2.4, x86-64); over 4,096 Z2xZ2 sine-add rows the last bit of 751
#: of them moved, as BLAS changes kernel.
_LSTSQ_ROWS = 256


def _coords(H: np.ndarray, u: np.ndarray, v: np.ndarray, tol: float):
    """The coordinates (a, b) of each row h of H in span{u, v}, from
    np.linalg.lstsq(M, H.T) with M = [u v], and whether h lies in the span
    within tol: the max norm of a u + b v - h is not above it.  A stack
    of no rows has no coordinates and an empty fit."""
    if not len(H):
        return [], np.zeros(0, dtype=bool)
    M = np.stack([u, v], axis=1)
    a, b = np.concatenate(
        [np.linalg.lstsq(M, H[r:r + _LSTSQ_ROWS].T, rcond=None)[0]
         for r in range(0, len(H), _LSTSQ_ROWS)], axis=1)
    fit = ~(np.abs(a[:, None] * u + b[:, None] * v - H).max(axis=-1) > tol)
    return list(zip(a.tolist(), b.tolist())), fit


def _near(V: np.ndarray, C: np.ndarray, tol: float) -> np.ndarray:
    """Whether each row of V lies within tol of each row of C (character
    values), in the max norm: a (rows, len(C)) table.  This is the walks'
    character test (cos-sub/5 and /6 keep their own, whose expressions
    would round differently written this way): each candidate built from
    a match is proved by rebuilding the pair (:meth:`_Session.attempt`)."""
    return np.abs(V[:, None, :] - C[None]).max(axis=-1) <= tol


def _character_rows(H: np.ndarray, beta: np.ndarray, evens: np.ndarray,
                    tol: float) -> np.ndarray:
    """The character test of each row h of H with its factor beta: the
    index of the first even character (row of `evens`) within tol of
    beta h, or -1 where beta h is zero within tol or matches none."""
    V = beta[:, None] * H
    near = _near(V, evens, tol)
    first = near.argmax(axis=1) if len(evens) else np.zeros(len(V), int)
    return np.where(near.any(axis=1) & ~_is_zero(V, tol), first, -1)


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


def _extract_piece(chi: MultChar, H: np.ndarray, tol: float):
    """For each row of H, a table chi A | 0 | rho (on S \\ I, I \\ P and
    P) with A = 0, as on every finite carrier: whether the row vanishes on
    I \\ P within tol and on S \\ I within EPS (A = 0 is exact there, so
    tol does not widen it), and its rho values (the row on P, 0 off P)."""
    edge = chi.null_ideal - chi.prime_part
    off = set(chi.semigroup.window) - chi.null_ideal
    ok = _vanishes_on(H, edge, tol) & _vanishes_on(H, off, EPS)
    rho = np.zeros(H.shape, dtype=np.complex128)
    P = sorted(chi.prime_part)
    rho[:, P] = H[:, P]
    return ok, rho


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


#: The leading steps of each walk, in walk order, read by
#: :meth:`_Session.candidates` and by the batch masks (:func:`classify_rows`)
#: alike.  alpha-sym walks cos-sine-g's steps on
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
    """The table a form case keeps as it is, which is its free table: f,
    g or None (given names, its name)."""
    form = CASES[case.equation][case.case - 1].form
    return f if form[0] == 1 else g if form[1] == 1 else None


def _params(case: CaseId, free, shared: dict, row: dict,
            alpha) -> CaseParams:
    """The parameters of a candidate of `case`: its free table (one table
    or rows), its characters `shared`, and the constants of `row` (one
    value each, or one per row).  alpha is set where the case's record has
    it and `row` does not name it, and row["rho"] (rho's values) becomes a
    RhoFn on chi's prime part with the record's parity."""
    spec = CASES[case.equation][case.case - 1]
    kw = {**shared, **row}
    if "alpha" in spec.fields:
        kw.setdefault("alpha", alpha)
    if "rho" in kw:
        kw["rho"] = RhoFn(domain=frozenset(shared["chi"].prime_part),
                          values=kw["rho"],
                          parity=spec.menu.removeprefix("piecewise-"))
    return CaseParams(free=free, **kw)


def _alpha_sym_params(case: CaseId, f, g, params: CaseParams,
                      alpha) -> CaseParams:
    """The alpha-sym parameters of a hit `params` of cos-sine-g's walk on
    the reduced pair, for (f, g) (one pair or rows)."""
    if CASES["alpha-sym"][case.case - 1].form is not None:
        return _params(case, _form_free(case, f, g), {}, {}, alpha)
    return replace(params, alpha=alpha)


# The walks' rules after the leading steps, each one function that
# _Session.candidates (on a one-row stack) and classify_rows' walk (on the
# open rows) both call.

# The ratio stage: cos-sub/2, then alpha-skew/4 and alpha-skew/5.  Each
# stage is a generator over a stack (F, G) that yields, for each case it
# offers in walk order, (case, rows, free, shared, row): the rows of the
# stack where the walk attempts it, the name of its free table ("f", "g"
# or None), its characters, and its constants as one list per name, one
# entry per row.

def _keep(rows: np.ndarray, values: list):
    """The rows whose value is not None, and those values."""
    keep = [i for i, v in enumerate(values) if v is not None]
    return rows[keep], [values[i] for i in keep]


def _unit_c(lam: complex | None, tol: float) -> complex | None:
    if lam is None or not min(abs(lam - 1j), abs(lam + 1j)) <= tol:
        return None
    return 1j if abs(lam - 1j) <= tol else -1j


def _unit_c_stage(F, G, alpha, sq, chars, tol):
    """cos-sub/2: g is non-zero and vanishes on S^2, and f = c g with
    c in {i, -i}."""
    rows = np.flatnonzero(_vanishes_on(G, sq, tol))
    if rows.size:
        rows = rows[~_is_zero(G[rows], tol)]
    if rows.size:
        rows, cs = _keep(rows, [_unit_c(lam, tol)
                                for lam in _ratio(F, G, tol, rows.tolist())])
        yield CaseId("cos-sub", 2), rows, "g", {}, {"c": cs}


def _skew_c(verdict: DependenceVerdict, alpha: complex,
            tol: float) -> complex | None:
    lam = _ratio_of(verdict, "g-of-f", tol)
    if lam is not None and abs(lam) > tol and abs(1 - lam * alpha) > tol:
        return lam * alpha / (1 - lam * alpha)
    return None


def _skew_stage(F, G, alpha, sq, chars, tol):
    """alpha-skew/4: g = lambda f, and c = lambda alpha / (1 - lambda
    alpha).  Then alpha-skew/5 for each representative chi of a conjugate
    pair: F = f/alpha - g = c1 d with c1 != 0 and g - e = c2 d, for
    d = (chi - chi*)/2 and e = (chi + chi*)/2."""
    rows, cs = _keep(np.arange(len(F)), [_skew_c(v, alpha, tol)
                                         for v in _dependence(F, G, tol)])
    yield CaseId("alpha-skew", 4), rows, "f", {}, {"c": cs}
    Fs = F / alpha - G
    for chi in conjugate_representatives(tuple(chars)):
        d = np.broadcast_to((chi.values - chi.conj) / 2, F.shape)
        c1 = _ratio(Fs, d, tol)
        rows = [i for i, c in enumerate(c1)
                if c is not None and not abs(c) <= tol]
        c2 = _ratio(G - (chi.values + chi.conj) / 2, d, tol, rows)
        rows, cs = _keep(np.array(rows, dtype=np.intp),
                         [None if w2 is None else (c1[i], w2)
                          for i, w2 in zip(rows, c2)])
        yield (CaseId("alpha-skew", 5), rows, None, {"chi": chi},
               {"c1": [w for w, _ in cs], "c2": [w for _, w in cs]})


# The dependent-character cases, cos-sub/3, sine-add/3 and cos-sine-g/4:
# from the rank decision of [f g], the factor beta of the character test
# chi = beta g and the case's constants, or None where the walk tests no
# character.

def _cos_sub_dependent(verdict: DependenceVerdict, tol: float):
    """f = lambda g with lambda != +-i; chi = (1 + lambda^2) g."""
    lam = _ratio_of(verdict, "f-of-g", tol)
    if lam is not None and min(abs(lam - 1j), abs(lam + 1j)) > tol:
        return 1 + lam * lam, {"alpha": lam}
    return None


def _sine_add_dependent(verdict: DependenceVerdict, tol: float):
    """f = lambda g with lambda != 0; chi = 2 g, alpha = 1/lambda."""
    lam = _ratio_of(verdict, "f-of-g", tol)
    if lam is not None and abs(verdict.coefficient) > tol:
        return 2, {"alpha": 1 / lam}
    return None


def _cos_sine_g_dependent(verdict: DependenceVerdict, tol: float):
    """f = lambda g with beta = lambda / (2 lambda - 1) != 0; chi = g /
    beta."""
    lam = _ratio_of(verdict, "f-of-g", tol)
    if lam is not None and abs(2 * lam - 1) > tol:
        beta = lam / (2 * lam - 1)
        if abs(beta) > tol:
            return 1 / beta, {"beta": beta}
    return None


# The two-character cases, cos-sub/4, sine-add/4 and cos-sine-g/5: from the
# coordinates of f and g in span{chi1, chi2}, the case's constants or None.

def _cos_sub_pair(fc, gc, tol: float):
    """f = (chi2 - chi1) t with t = 1/(1/delta + delta)."""
    t = fc[1]
    if abs(fc[0] + t) > tol or abs(t) <= tol:
        return None
    delta = gc[1] / t
    if any(abs(delta - b) <= tol for b in (0, 1j, -1j)):
        return None
    return {"delta": delta}


def _sine_add_pair(fc, gc, tol: float):
    """g = (chi1 + chi2)/2, f = c (chi1 - chi2) with c != 0."""
    if abs(gc[0] - 0.5) > tol or abs(gc[1] - 0.5) > tol:
        return None
    c = fc[0]
    if abs(c) > tol and abs(fc[1] + c) <= tol:
        return {"c": c}
    return None


def _cos_sine_g_pair(fc, gc, tol: float):
    """g = ((1 + w) chi1 + (1 - w) chi2)/2 with w not in {0, 1, -1}."""
    if abs(gc[0] + gc[1] - 1) > tol:
        return None
    w = gc[0] - gc[1]
    if any(abs(w - b) <= tol for b in (0, 1, -1)):
        return None
    return {"c1": w}


def _two_char_rows(F, G, chi1: MultChar, chi2: MultChar, rule, tol: float):
    """The rows of (F, G) whose f and g both lie in span{chi1, chi2} within
    tol and where the two-character rule gives constants, and those
    constants."""
    m = len(F)
    coords, fit = _coords(np.concatenate([F, G]), chi1.values, chi2.values,
                          tol)
    ok = (fit[:m] & fit[m:]).tolist()
    return _keep(np.arange(m), [rule(coords[i], coords[m + i], tol)
                                if ok[i] else None for i in range(m)])


def _conj_halves(chi: MultChar, f, g, tol: float) -> np.ndarray:
    """cos-sub/6: f = -i(chi - chi*)/2 and g = (chi + chi*)/2."""
    conj = chi.conj
    return (~(np.abs(f + 0.5j * (chi.values - conj)).max(axis=-1) > tol)
            & (np.abs(g - 0.5 * (chi.values + conj)).max(axis=-1) <= tol))


def _noneven_rows(walk: str, k: int, chars: list, values: np.ndarray,
                  F, G, independent: np.ndarray, tol: float):
    """The walk's non-even case k with each of the non-even `chars` (their
    values the rows of `values`), in walk order: the case, the character
    and the rows of (F, G) where the walk attempts it.  cos-sub/6 is
    attempted only on the `independent` rows."""
    if k == 8:
        # g is a non-even character and f averages it with its dual.
        near = _near(G, values, tol)
        for j, chi in enumerate(chars):
            yield CaseId(walk, 8, "chi"), chi, near[:, j]
    elif independent.any():
        # Looping over every chi with chi* != chi covers both signs of f,
        # since swapping chi for chi* negates it.
        for chi in chars:
            yield (CaseId(walk, 6), chi,
                   independent & _conj_halves(chi, F, G, tol))


# The piecewise cases: for one even chi, each branch's rows where the walk
# attempts the case, and a row: rho's values and the case's constants, one
# entry per row of the stack.

def _cos_sub_piece(chi, f, g, alpha, tol):
    """cos-sub/5: i f = chi A | 0 | rho and g = chi +- i f."""
    ok, rho = _extract_piece(chi, 1j * f, tol)
    return [(branch, ok & (np.abs(g - (chi.values + sign * f)).max(axis=-1)
                           <= tol), {"rho": rho})
            for branch, sign in (("+", 1j), ("-", -1j))]


def _matched_piece(chi, v, piece, tol):
    """The rows where v matches chi and piece is chi A | 0 | rho, and rho's
    values; nothing where no row matches."""
    hit = _near(v, chi.values[None], tol)[:, 0]
    if not hit.any():
        return []
    ok, rho = _extract_piece(chi, piece, tol)
    return [(None, hit & ok, {"rho": rho})]


def _sine_add_piece(chi, f, g, alpha, tol):
    """sine-add/5: g = chi and f = chi A | 0 | rho."""
    return _matched_piece(chi, g, f, tol)


def _cos_sine_g_7(chi, f, g, alpha, tol):
    """cos-sine-g/7: g = chi and f = chi + (0 | 0 | rho)."""
    return _matched_piece(chi, g, f - chi.values, tol)


def _cos_sine_g_6(chi, f, g, alpha, tol):
    """cos-sine-g/6: 2f - g = chi and g = chi + (0 | 0 | rho)."""
    return _matched_piece(chi, 2 * f - g, g - chi.values, tol)


def _alpha_skew_piece(chi, f, g, alpha, tol):
    """alpha-skew/6: F = f/alpha - g = 0 | 0 | rho with odd rho, and
    g = chi + c F."""
    F = f / alpha - g
    ok, rho = _extract_piece(chi, F, tol)
    rows = np.flatnonzero(ok).tolist()
    cs = [None] * len(f)
    for i, c in zip(rows, _ratio(g - chi.values, F, tol, rows)):
        cs[i] = c
    return [(None, np.array([c is not None for c in cs], dtype=bool),
             {"rho": rho, "c": cs})]


#: Each walk after its leading steps, in walk order: the ratio stage;
#: (case, dependent rule); (case, two-character rule); the non-even case;
#: then each piecewise (case, rule).
_RULES = {
    "cos-sub": (_unit_c_stage, (3, _cos_sub_dependent), (4, _cos_sub_pair),
                6, ((5, _cos_sub_piece),)),
    "sine-add": (None, (3, _sine_add_dependent), (4, _sine_add_pair), None,
                 ((5, _sine_add_piece),)),
    "cos-sine-g": (None, (4, _cos_sine_g_dependent), (5, _cos_sine_g_pair),
                   8, ((7, _cos_sine_g_7), (6, _cos_sine_g_6))),
    "alpha-skew": (_skew_stage, None, None, None,
                   ((6, _alpha_skew_piece),)),
}


@functools.lru_cache(maxsize=32)
def _by_parity(chars: tuple, n: int) -> tuple:
    """The even characters of `chars` and their values as the rows of a
    (k, n) array, then the same for the non-even ones.  `chars` is a tuple
    so that this is worked out once per tuple of character objects, as
    :func:`addlaws.characters.conjugate_representatives` is."""
    out = ()
    for even in (True, False):
        group = [chi for chi in chars if chi.even == even]
        out += (group, np.array([chi.values for chi in group],
                                dtype=np.complex128).reshape(len(group), n))
    return out


class _Session:
    """One classification run of one pair; collects failed attempts for
    diagnostics.  alpha-sym walks cos-sine-g's candidates on the reduced
    pair (fw = :func:`reduce_alpha_sym`), as :class:`_Batch` does."""

    def __init__(self, equation: str, f: FnTable, g: FnTable,
                 S: FiniteSemigroup, chars, tol: float, alpha=None):
        self.equation = equation
        self.f, self.g, self.S = f, g, S
        self.walk, self.fw = equation, f
        if equation == "alpha-sym":
            self.walk, self.fw = "cos-sine-g", reduce_alpha_sym(f, g, alpha)
        self.chars = chars
        self.tol = tol
        self.alpha = alpha
        self.attempts: list[str] = []
        (self.evens, self.even_values, self.nonevens,
         self.noneven_values) = _by_parity(chars, S.n)
        self.sq = sorted(square_set(S))

    def candidates(self):
        """The walk's candidate stream, in the order of :meth:`_Batch.offers`:
        the leading steps of :data:`LEADING_STEPS` (stopping at a step's
        first failing test, with each test run once; a final step that
        applies ends the stream after its candidate), then the slots of
        :data:`_RULES`: the ratio stage, the dependent character, the
        two-character and the non-even cases, then the piecewise ones."""
        walk, tol, alpha = self.walk, self.tol, self.alpha
        f, g = self.fw.values, self.g.values
        args = (f, g, alpha, self.sq, tol)
        known = {}
        for step in LEADING_STEPS[walk]:
            for test in step.tests:
                if test not in known:
                    known[test] = test(*args)
                if not known[test]:
                    break
            else:
                yield step.case, _params(step.case, _form_free(
                    step.case, self.fw, self.g), {}, {}, alpha)
                if step.final:
                    return
        F, G = f[None], g[None]
        stage, dependent, pair, noneven, pieces = _RULES[walk]
        if stage is not None:
            tables = {"f": self.fw, "g": self.g}
            for case, rows, free, shared, row in stage(F, G, alpha, self.sq,
                                                       self.chars, tol):
                if rows.size:
                    yield case, _params(case, tables.get(free), shared,
                                        {n: v[0] for n, v in row.items()},
                                        alpha)
        independent = False
        if dependent is not None:
            (verdict,) = _dependence(F, G, tol)
            k, rule = dependent
            guard = rule(verdict, tol)
            if guard is not None:
                beta, consts = guard
                if abs(beta) <= tol:
                    raise ValueError("beta must be non-zero")
                (j,) = _character_rows(G, np.array([beta], np.complex128),
                                       self.even_values, tol)
                if j >= 0:
                    case = CaseId(walk, k)
                    yield case, _params(case, None, {"chi": self.evens[j]},
                                        consts, alpha)
            independent = verdict.kind == "independent"
            if independent:
                k, rule = pair
                for c1, c2 in itertools.combinations(self.evens, 2):
                    _, consts = _two_char_rows(F, G, c1, c2, rule, tol)
                    if consts:
                        case = CaseId(walk, k)
                        yield case, _params(case, None, {"chi1": c1,
                                                         "chi2": c2},
                                            consts[0], alpha)
        if noneven is not None:
            for case, chi, hit in _noneven_rows(
                    walk, noneven, self.nonevens, self.noneven_values, F, G,
                    np.array([independent]), tol):
                if hit[0]:
                    yield case, _params(case, None, {"chi": chi}, {}, alpha)
        for k, rule in pieces:
            for chi in self.evens:
                for branch, ok, row in rule(chi, F, G, alpha, tol):
                    if ok[0]:
                        case = CaseId(walk, k, branch)
                        yield case, _params(case, None, {"chi": chi},
                                            {n: v[0] for n, v in row.items()},
                                            alpha)

    def run(self) -> ClassifiedSolution | None:
        """Attempt the candidates of :meth:`candidates` in order; the first
        hit answers, and the stream is not read past it.  alpha-sym logs
        its attempts on the reduced pair with the prefix "via cos-sine-g: ",
        and its answer is the one translated attempt of the first hit on
        (f, g)."""
        via = "" if self.walk == self.equation else f"via {self.walk}: "
        for case, params in self.candidates():
            hit = self.attempt(case, params, self.fw, via)
            if hit and via:
                case = CaseId(self.equation, case.case, case.branch)
                return self.attempt(case, _alpha_sym_params(
                    case, self.f, self.g, params, self.alpha), self.f)
            if hit:
                return hit
        return None

    def attempt(self, case: CaseId, params: CaseParams, f: FnTable,
                via: str = "") -> ClassifiedSolution | None:
        """Validate a candidate by reconstruction of (f, g); log failures,
        each after the prefix `via`."""
        try:
            fc, gc = construct(case, params, self.S)
        except ConstraintError as exc:
            self.attempts.append(f"{via}{case}: rejected ({exc})")
            return None
        dev = max(f.max_abs_diff(fc), self.g.max_abs_diff(gc))
        if dev > self.tol:
            self.attempts.append(
                f"{via}{case}: reconstruction off by {dev:.3g}")
            return None
        return ClassifiedSolution(case=case, params=params, residual=dev)

    def give_up(self, residual: float) -> Unclassified:
        return Unclassified(
            equation=self.equation,
            reason="no case of the classification matched",
            f=self.f.to_json_dict(), g=self.g.to_json_dict(),
            residual=residual, attempts=tuple(self.attempts))


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
    finite, and a given alpha that is not finite or an alpha within tol of
    0 (ValueError).  With `fit`, an alpha equation's missing alpha is
    recovered by :func:`_extract_alpha`; without it, a missing alpha is a
    TypeError.  The binding holds alpha as "a" for the alpha equations
    only."""
    if not isinstance(S, FiniteSemigroup):
        raise TypeError("classification runs on finite semigroups only; "
                        "windowed carriers use construct-then-compare")
    if equation not in CASES:
        raise KeyError(f"unknown equation id {equation!r}")
    validate_tolerance(tol)
    binding = {"f": f, "g": g}
    if equation in ALPHA_EQUATIONS:
        if alpha is None and not fit:
            raise TypeError(f"classify_rows needs the argument alpha for "
                            f"{equation}")
        if alpha is None:
            alpha = _extract_alpha(equation, f, g, S, tol)
        elif not cmath.isfinite(complex(alpha)):
            raise ValueError("alpha must be finite")
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


def _stacked(consts: list) -> dict:
    """Per-row constant dicts as one list per name."""
    return {name: [c[name] for c in consts] for name in consts[0]} \
        if consts else {}


def _take(row: dict, idx: np.ndarray) -> dict:
    """The entries idx of each per-row list or array of `row`."""
    return {name: v[idx] if isinstance(v, np.ndarray)
            else [v[i] for i in idx.tolist()] for name, v in row.items()}


class _Batch:
    """The walk of one equation run as masks over a stack of pairs.

    :meth:`offers` makes records in walk order, as the ratio stage does
    (see :data:`_RULES`): a case, the rows where the walk would attempt
    it, the name of its free table, its characters and its per-row
    constants.  :meth:`run` packs each record's rows that are still open
    and attempts its case there with one batched construct-and-compare,
    and :meth:`settle` closes the hits.  A miss leaves the row open for
    the next record, as :meth:`_Session.run` goes on to the next
    candidate.  A final leading step closes its rows, since the walk ends
    there, and so does a character factor beta within tol of 0, where the
    walk raises.  A stage reads the rows still open when it starts.
    """

    def __init__(self, equation: str, F: np.ndarray, G: np.ndarray,
                 S: FiniteSemigroup, alpha, tol: float):
        self.equation, self.F, self.G, self.S = equation, F, G, S
        self.alpha, self.tol, self.chars = alpha, tol, enumerate_characters(S)
        self.walk, self.Fw = equation, F
        if equation == "alpha-sym":        # the walk of reduce_alpha_sym
            self.walk, self.Fw = "cos-sine-g", (G - F / alpha) / 2
        self.labels = {c: k for k, c in enumerate(all_case_ids(equation), 1)}
        self.case = np.zeros(len(F), dtype=np.intp)
        self.closed = np.zeros(len(F), dtype=bool)
        self.independent = np.zeros(len(F), dtype=bool)
        self.sq = sorted(square_set(S))
        (self.evens, self.even_values, self.nonevens,
         self.noneven_values) = _by_parity(self.chars, S.n)

    def run(self) -> np.ndarray:
        # Each record is settled before the next one is made, so that a
        # stage sees the rows its earlier records closed.
        tables = {"f": self.Fw, "g": self.G}
        for case, rows, free, shared, row in self.offers():
            keep = ~self.closed[rows]
            if keep.any():
                rows, table = rows[keep], tables.get(free)
                self.settle(case, rows, _params(
                    case, None if table is None else table[rows], shared,
                    _take(row, np.flatnonzero(keep)), self.alpha))
        return self.case

    def settle(self, case: CaseId, rows: np.ndarray,
               params: CaseParams) -> None:
        """Attempt `case` on the rows; close the hits, and label them.  For
        alpha-sym a hit on the reduced pair closes the row, and labels it
        where the translated attempt on (f, g) hits too."""
        F, G = self.F[rows], self.G[rows]
        hit = _attempt_rows(case, self.Fw[rows], G, self.S, params, self.tol)
        self.closed[rows[hit]] = True
        if self.walk != self.equation:
            case = CaseId(self.equation, case.case, case.branch)
            hit &= _attempt_rows(case, F, G, self.S, _alpha_sym_params(
                case, F, G, params, self.alpha), self.tol)
        self.case[rows[hit]] = self.labels[case]

    def open_rows(self) -> np.ndarray:
        return np.flatnonzero(~self.closed)

    def offers(self):
        """The walk's records (case, rows, free, shared, row), in the
        order of :meth:`_Session.candidates`."""
        walk, alpha, tol = self.walk, self.alpha, self.tol
        at = self.open_rows()
        Fw, G = self.Fw[at], self.G[at]
        for step in LEADING_STEPS[walk]:
            mask = np.ones(len(at), dtype=bool)
            for test in step.tests:
                mask &= test(Fw, G, alpha, self.sq, tol)
            yield step.case, at[mask], _form_free(step.case, "f", "g"), {}, {}
            if step.final:
                self.closed[at[mask]] = True
        stage, dependent, pair, noneven, pieces = _RULES[walk]
        at = self.open_rows()               # no later slot opens a row
        if stage is not None and at.size:
            for case, rows, free, shared, row in stage(
                    self.Fw[at], self.G[at], alpha, self.sq, self.chars, tol):
                yield case, at[rows], free, shared, row
            at = self.open_rows()
        if dependent is not None and at.size:
            verdicts = _dependence(self.Fw[at], self.G[at], tol)
            self.independent[at] = [v.kind == "independent" for v in verdicts]
            k, rule = dependent
            guards = [rule(v, tol) for v in verdicts]
            tested = [i for i, guard in enumerate(guards) if guard is not None]
            rows = at[tested]
            beta = np.array([guards[i][0] for i in tested], np.complex128)
            consts = [guards[i][1] for i in tested]
            # The walk raises for beta within tol of 0: those rows close
            # unlabelled.
            self.closed[rows[np.abs(beta) <= tol]] = True
            if tested:
                found = _character_rows(self.G[rows], beta, self.even_values,
                                        tol)
                for j, chi in enumerate(self.evens):
                    sel = found == j
                    yield (CaseId(walk, k), rows[sel], None, {"chi": chi},
                           _stacked(list(itertools.compress(consts, sel))))
            k, rule = pair
            for c1, c2 in itertools.combinations(self.evens, 2):
                at = np.flatnonzero(~self.closed & self.independent)
                if not at.size:
                    break
                rows, consts = _two_char_rows(self.Fw[at], self.G[at], c1, c2,
                                              rule, tol)
                yield (CaseId(walk, k), at[rows], None,
                       {"chi1": c1, "chi2": c2}, _stacked(consts))
            at = self.open_rows()
        if noneven is not None and at.size:
            for case, chi, hit in _noneven_rows(
                    walk, noneven, self.nonevens, self.noneven_values,
                    self.Fw[at], self.G[at], self.independent[at], tol):
                yield case, at[hit], None, {"chi": chi}, {}
            at = self.open_rows()
        for k, rule in pieces:
            if not at.size:
                return
            Fw, G = self.Fw[at], self.G[at]
            for chi in self.evens:
                for branch, ok, row in rule(chi, Fw, G, alpha, tol):
                    i = np.flatnonzero(ok)
                    yield (CaseId(walk, k, branch), at[i], None, {"chi": chi},
                           _take(row, i))
            at = self.open_rows()


def classify_rows(equation: str, F: np.ndarray, G: np.ndarray,
                  S: FiniteSemigroup, alpha: complex | None = None,
                  tol: float = EPS) -> np.ndarray:
    """The case :func:`classify` answers for each pair of a stack (rows of
    F, G).

    Every row's residual is checked as `classify` checks it, and the first
    row that fails raises the same :class:`NotASolutionError`.  Then the
    equation's walk runs as masks over the rows, in walk order (alpha-sym
    walks cos-sine-g's on the reduced pair): the leading steps, then the
    slots of :data:`_RULES`: the ratio stage (cos-sub/2; alpha-skew/4,
    then alpha-skew/5 for each representative of a conjugate pair); the
    dependent-character cases (cos-sub/3, sine-add/3, cos-sine-g/4); the
    two-character cases (cos-sub/4, sine-add/4, cos-sine-g/5); the
    non-even cases (cos-sub/6, cos-sine-g/8chi); and the piecewise cases
    (cos-sub/5+-, sine-add/5, cos-sine-g/7 then /6, alpha-skew/6).  Each
    case is attempted on the open rows where the walk yields it, with
    parameters packed by :func:`_params` as `classify`'s are and one
    batched construct-and-compare, and a row closes at its first hit.
    Only a final leading step and a character factor beta within tol of 0
    close a row without a hit, as the walk ends or raises there.

    Returns, for each row, 1 + the index of its case in
    :func:`addlaws.families.all_case_ids` (branch included), or 0 where
    `classify` returns :class:`Unclassified` or raises.  The alpha
    equations need `alpha` (a TypeError names it when it is missing).
    Input that `classify` refuses is refused here with the same error,
    and F and G that are not (rows, |S|) arrays of one shape with a
    ValueError.  The characters are S's own, as in :func:`classify`.
    """
    binding = _checked_binding(equation, F, G, S, tol, alpha)
    if not (np.ndim(F) == 2 and np.shape(F) == np.shape(G)
            and np.shape(F)[1] == S.n):
        raise ValueError(f"F and G must be (rows, {S.n}) stacks of one "
                         f"shape, got {np.shape(F)} and {np.shape(G)}")
    residual = residual_rows(builtin(equation), binding, S)
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        raise _not_a_solution(equation, float(residual[bad[0]]))
    return _Batch(equation, F, G, S, binding.get("a"), tol).run()


def classify(equation: str, f: FnTable, g: FnTable, S: FiniteSemigroup,
             alpha: complex | None = None, chars=None, tol: float = EPS):
    """Classify a verified solution pair on a finite semigroup.

    For the two alpha equations the constant is taken from `alpha` when
    given and recovered by least squares otherwise.  The characters are
    S's own (:func:`addlaws.characters.enumerate_characters`) unless
    `chars` is given; it stays only for callers that pass it.
    Raises ValueError for a tolerance that is negative or not finite.
    """
    binding = _checked_binding(equation, f, g, S, tol, alpha, fit=True)
    residual = evaluate_residual(builtin(equation), binding, S)
    if not residual <= tol:                 # a NaN residual is no solution
        raise _not_a_solution(equation, residual)
    chars = enumerate_characters(S) if chars is None else tuple(chars)
    session = _Session(equation, f, g, S, chars, tol, binding.get("a"))
    hit = session.run()
    if hit is None:
        return session.give_up(residual)
    return hit
