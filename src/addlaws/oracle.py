"""Exhaustive solution search over finite value grids, plus reporting.

`grid_solutions` finds every pair of functions S -> alphabet solving a
chosen equation; `coverage_report` classifies all of them and tabulates case
coverage; `fuzz_constructors` hammers the solution constructors with random
admissible parameters and reports the worst equation residual seen.

The search is a join over the elements of S.  It assigns the values
(f(e), g(e)) one element at a time, so each step multiplies the frontier of
partial assignments by |alphabet|^2, and it checks each site (x, y) at the
first step where x, y and x sigma(y) all have values.  A pair survives
exactly when every site residual is within the tolerance, which is the same
test, on the same float expression, as checking every one of the
|alphabet|^(2n) candidate pairs, without visiting the pairs that an early
site already rules out.  Survivors are sorted into canonical
(f-index, g-index) order and come back as a :class:`GridSolutions`, whose
value stacks hold one row per solution.  The search never calls the
classifier, so it stays an independent check of it.

A coverage report classifies each equation's stacks in chunks of rows.
:func:`addlaws.classify.classify_rows` re-checks every row's residual and
settles, with vectorised masks, the rows that the leading steps of the
classification walk answer with a hit (the zero pair, f = 0, F = f/alpha -
g = 0, and the free tables vanishing on S^2), then those of its ratio
stage (cos-sub/2, alpha-skew/4, alpha-skew/5).  Only the rows it leaves
become FnTables and go through :func:`addlaws.classify.classify`, in grid
order, so the report is byte-identical to classifying every pair.  A scan
refuses a tolerance that is negative or not finite, and an alpha that is
not finite.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence

import numpy as np

from .characters import enumerate_characters
from .classify import Unclassified, classify, classify_rows
from .core import EPS, FiniteSemigroup, FnTable, cnum, validate_tolerance
from .dsl import builtin, evaluate_residual
from .examples import bundled_finite
from .families import (ALPHA_EQUATIONS, EQUATION_IDS, CaseId,
                       admissible_params, all_case_ids, construct)

#: Grid alphabet used throughout the acceptance runs: zero, the units,
#: the square roots of -1, and the half/double ring.
DEFAULT_ALPHABET = (0, 1, -1, 1j, -1j, 0.5, -0.5, 2, -2)

PAIR_BUDGET = 10 ** 8

#: Most partial assignments one numpy pass of the join evaluates, so memory
#: stays bounded even where a loose tolerance prunes little.
BLOCK = 1 << 20

#: Coverage reports classify solutions in chunks of BLOCK // (ROW_SPREAD
#: |S|^2) rows: a row's residual gather holds one value per function
#: application and variable assignment, up to 6 |S|^2 for the built-ins,
#: and the term products several more of |S|^2 each.
ROW_SPREAD = 64


class BudgetError(RuntimeError):
    """The requested scan exceeds the candidate-pair budget."""


class GridInputError(ValueError):
    """Bad grid-scan input: a malformed alphabet, a zero or non-finite
    alpha, or a tolerance that is negative or not finite."""


def validate_alphabet(alphabet) -> tuple[complex, ...]:
    """Check the grid alphabet contract: contains 0, closed under negation."""
    values = tuple(complex(a) for a in alphabet)
    if not values:
        raise GridInputError("alphabet must not be empty")
    if len(set(values)) != len(values):
        raise GridInputError("alphabet entries must be distinct")
    if not any(abs(v) <= EPS for v in values):
        raise GridInputError("alphabet must contain 0")
    for v in values:
        if not any(abs(v + w) <= EPS for w in values):
            raise GridInputError(f"alphabet is not closed under negation: "
                                 f"missing {-v}")
    return values


def value_tuples(alphabet, n: int) -> np.ndarray:
    """All functions S -> alphabet as a (len(alphabet)^n, n) table.

    Element 0 is the most significant digit: the tuple at row t spells t in
    base len(alphabet) over the alphabet order.
    """
    values = validate_alphabet(alphabet)
    table = np.array(list(itertools.product(values, repeat=n)),
                     dtype=np.complex128)
    return table.reshape(len(values) ** n, n)


def _check_alpha_finite(alpha) -> None:
    a = complex(alpha)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise GridInputError("alpha must be finite")


def _check_scan(equation: str, S, alphabet, alpha, tol: float,
                budget: int) -> tuple[tuple[complex, ...], complex]:
    """Reject a scan before any work; returns its alphabet and alpha."""
    if not isinstance(S, FiniteSemigroup):
        raise TypeError("grid scans need a finite semigroup")
    values = validate_alphabet(alphabet)
    if equation not in EQUATION_IDS:
        raise KeyError(f"unknown equation id {equation!r}")
    validate_tolerance(tol, GridInputError)
    if equation in ALPHA_EQUATIONS:
        alpha = 1.0 + 0j if alpha is None else complex(alpha)
        _check_alpha_finite(alpha)
        if abs(alpha) <= tol:
            raise GridInputError("alpha must be non-zero")
    else:
        alpha = 0j
    total = (len(values) ** S.n) ** 2
    if total > budget:
        raise BudgetError(
            f"scan of {total} candidate pairs exceeds the budget of "
            f"{budget}; shrink the alphabet or raise the budget")
    return values, alpha


def _site_residual(equation: str, fx, fy, fp, gx, gy, gp,
                   alpha: complex) -> np.ndarray:
    """Residual at one site (x, y) with p = x sigma(y), broadcast."""
    if equation == "cos-sub":
        return gp - gx * gy - fx * fy
    if equation == "sine-add":
        return fp - fx * gy - fy * gx
    if equation == "cos-sine-g":
        return fp - fx * gy - fy * gx + gx * gy
    if equation == "alpha-sym":
        return fp - fx * gy - fy * gx - alpha * gp
    if equation == "alpha-skew":
        return fp - fx * gy + fy * gx - alpha * gp
    raise KeyError(f"unknown equation id {equation!r}")


class GridSolutions(Sequence):
    """The solutions of one grid search, as read-only value stacks.

    ``f`` and ``g`` have shape (k, |S|): row i holds the values of the i-th
    solution.  Item i is that pair as two FnTables, built when it is read;
    a slice is a GridSolutions over those rows.
    """

    __slots__ = ("S", "f", "g")

    def __init__(self, S: FiniteSemigroup, f: np.ndarray, g: np.ndarray):
        f.setflags(write=False)
        g.setflags(write=False)
        self.S, self.f, self.g = S, f, g

    def __len__(self) -> int:
        return len(self.f)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return GridSolutions(self.S, self.f[i], self.g[i])
        return (FnTable(self.S, values=self.f[i]),
                FnTable(self.S, values=self.g[i]))


def grid_solutions(equation: str, S: FiniteSemigroup,
                   alphabet=DEFAULT_ALPHABET, alpha: complex | None = None,
                   tol: float = EPS, budget: int = PAIR_BUDGET
                   ) -> GridSolutions:
    """Every (f, g) over the alphabet grid solving the equation on S.

    Results come in canonical (f-index, g-index) order.  Raises
    :class:`BudgetError` before any work when the grid holds more candidate
    pairs than the budget allows.
    """
    values, alpha = _check_scan(equation, S, alphabet, alpha, tol, budget)
    n, m = S.n, len(values)
    vals = np.array(values, dtype=np.complex128)
    ps = S.table[:, S.sigma]
    # sites[j]: the sites whose three elements all have values at step j.
    sites: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            p = int(ps[x, y])
            sites[max(x, y, p)].append((x, y, p))
    # Frontier rows hold the alphabet digits of f and g on elements 0..j-1.
    digit = np.min_scalar_type(m - 1)
    Fd = np.zeros((1, 0), dtype=digit)
    Gd = np.zeros((1, 0), dtype=digit)
    new_f, new_g = vals[:, None], vals[None, :]
    rows = max(1, BLOCK // (m * m))
    # 0 is in the alphabet and the zero pair solves every built-in
    # equation, so the frontier never empties.
    for j in range(n):
        grown_f, grown_g = [], []
        for r0 in range(0, len(Fd), rows):
            fc, gc = Fd[r0:r0 + rows], Gd[r0:r0 + rows]
            # Values on elements 0..j over the (row, f(j), g(j)) cube.
            f_at = [vals[fc[:, x], None, None] for x in range(j)] + [new_f]
            g_at = [vals[gc[:, x], None, None] for x in range(j)] + [new_g]
            ok = np.ones((len(fc), m, m), dtype=bool)
            for x, y, p in sites[j]:
                R = _site_residual(equation, f_at[x], f_at[y], f_at[p],
                                   g_at[x], g_at[y], g_at[p], alpha)
                ok &= np.abs(R) <= tol
            r, a, b = np.nonzero(ok)
            grown_f.append(np.column_stack([fc[r], a.astype(digit)]))
            grown_g.append(np.column_stack([gc[r], b.astype(digit)]))
        Fd, Gd = np.concatenate(grown_f), np.concatenate(grown_g)
    # Lexicographic digit order, element 0 first, f before g.
    order = np.lexsort(np.hstack([Fd, Gd])[:, ::-1].T)
    return GridSolutions(S, vals[Fd[order]], vals[Gd[order]])


def coverage_report(S: FiniteSemigroup, alphabet=DEFAULT_ALPHABET,
                    alpha: complex = 1.0, equations=None, tol: float = EPS,
                    budget: int = PAIR_BUDGET) -> dict:
    """Classify every grid solution of every equation on one carrier.

    The report maps each equation to its candidate-pair count, solution
    count, the per-case tally, and the classifier's diagnostic dumps for
    anything unclassified.  The payload is deterministic: identical
    inputs give byte-identical JSON.  Every requested scan is checked
    before any work starts, and alpha must be finite even when no alpha
    equation is requested, since the report records it.

    Each equation's solutions are classified as whole stacks, in chunks of
    rows: :func:`addlaws.classify.classify_rows` re-checks their residuals
    and settles the rows that the leading steps and the ratio stage of the
    walk answer with a hit, and only the rows left over become FnTables
    and go through :func:`addlaws.classify.classify`, in their grid order.
    """
    values = validate_alphabet(alphabet)
    _check_alpha_finite(alpha)
    equations = list(equations or EQUATION_IDS)
    for eq in equations:
        _check_scan(eq, S, values, alpha if eq in ALPHA_EQUATIONS else None,
                    tol, budget)
    chars = enumerate_characters(S)
    scanned = (len(values) ** S.n) ** 2
    chunk = max(1, BLOCK // (ROW_SPREAD * S.n ** 2))
    report = {
        "semigroup": S.name,
        "alphabet": [cnum(v) for v in values],
        "alpha": cnum(complex(alpha)),
        "equations": {},
    }
    for eq in equations:
        a = complex(alpha) if eq in ALPHA_EQUATIONS else None
        pairs = grid_solutions(eq, S, values, alpha=a, tol=tol,
                               budget=budget)
        settled = np.concatenate(
            [classify_rows(eq, pairs.f[r:r + chunk], pairs.g[r:r + chunk],
                           S, alpha=a, tol=tol, chars=chars)
             for r in range(0, len(pairs), chunk)])
        cases = {str(CaseId(eq, int(k))): int(count) for k, count in
                 zip(*np.unique(settled[settled > 0], return_counts=True))}
        dumps = []
        for i in np.flatnonzero(settled == 0):
            f, g = pairs[i]
            hit = classify(eq, f, g, S, alpha=a, chars=chars, tol=tol)
            if isinstance(hit, Unclassified):
                dumps.append(hit.to_json_dict())
            else:
                cases[str(hit.case)] = cases.get(str(hit.case), 0) + 1
        report["equations"][eq] = {
            "pairs_scanned": scanned,
            "solutions": len(pairs),
            "cases": dict(sorted(cases.items())),
            "unclassified": dumps,
        }
    return report


def fuzz_constructors(equation: str, n: int = 500, seed: int = 0) -> dict:
    """Randomized soak test of the constructors for one equation.

    Draws `n` admissible parameter bundles per case (each over a random
    bundled carrier where the case is populated), rebuilds the pair, and
    records the worst equation residual.  Deterministic in `seed`.
    """
    semigroups = bundled_finite()
    rng = random.Random(seed)
    chars = {S.name: enumerate_characters(S) for S in semigroups}
    ast = builtin(equation)
    result = {"equation": equation, "seed": seed, "draws": 0,
              "max_residual": 0.0, "cases": {}, "unavailable": []}
    for case in all_case_ids(equation):
        menus = []
        for S in semigroups:
            menu = admissible_params(case, S, chars[S.name])
            if menu.available:
                menus.append(menu)
        if not menus:
            result["unavailable"].append(str(case))
            continue
        worst = 0.0
        draws = 0
        carriers: dict[str, int] = {}
        for _ in range(n):
            menu = menus[rng.randrange(len(menus))]
            params = menu.sample(rng)
            if params is None:
                continue
            f, g = construct(case, params, menu.S)
            binding = {"f": f, "g": g}
            if equation in ALPHA_EQUATIONS:
                binding["a"] = complex(params.alpha)
            res = evaluate_residual(ast, binding, menu.S)
            worst = max(worst, res)
            draws += 1
            carriers[menu.S.name] = carriers.get(menu.S.name, 0) + 1
        result["cases"][str(case)] = {
            "draws": draws,
            "max_residual": worst,
            "carriers": dict(sorted(carriers.items())),
        }
        result["draws"] += draws
        result["max_residual"] = max(result["max_residual"], worst)
    return result
