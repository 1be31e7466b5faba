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

A site's verdict depends only on f and g at the new element and at its k
<= 2 earlier elements, so each site is checked by a gather from a verdict
table: for each key, the (f, g) values at the earlier elements, the
packed bits of `_site_residual` within tol over every (f, g) value at
the new element.  A table is filled on demand, once per key, over the
distinct keys a block of the frontier meets that it does not yet know,
so its verdicts are the floats of the same expression.  Tables are kept
across scans in `_TABLES`, keyed by the scan inputs alone: the equation,
the alphabet in its order, alpha, tol and the site's pattern (where x, y
and x sigma(y) sit among the earlier elements and the new one).  A table
fills from the module's `_site_residual` when it meets a new key, so code
that replaces that function must also swap in an empty `_TABLES`.  The
cache keeps at most TABLE_CACHE_SIZE = 64 tables, the oldest going
first; a table takes m^(2k) (1 + ceil(m^2 / 8)) bytes for an alphabet
of m values, so the cache holds at most ~5 MB at m = 9.

A coverage report classifies each equation's stacks in chunks of rows.
:func:`addlaws.classify.classify_rows` re-checks every row's residual and
runs the whole classification walk as vectorised masks: each row closes
at its first hit, labelled with that case, branch included, which is the
case :func:`addlaws.classify.classify` answers.  Label 0 marks the rows
where `classify` finds no case; only those become FnTables and go through
`classify`, in grid order, for their diagnostic dumps, so the report is
byte-identical to classifying every pair.  A scan refuses a tolerance
that is negative or not finite, an alpha that is not finite, and an
alphabet entry that is not finite.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from collections.abc import Sequence

import numpy as np

from .characters import enumerate_characters
from .classify import classify, classify_rows
from .core import (EPS, FiniteSemigroup, FnTable, cnum, read_only,
                   validate_tolerance)
from .dsl import builtin, evaluate_residual
from .examples import bundled_finite
from .families import (ALPHA_EQUATIONS, DEFAULT_ALPHABET, EQUATION_IDS,
                       admissible_params, all_case_ids, construct)

PAIR_BUDGET = 10 ** 8

#: Most candidate extensions (partial assignments times |alphabet|^2) one
#: numpy pass of the join checks, so memory stays bounded even where a
#: loose tolerance prunes little.
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
    """Check the grid alphabet contract: contains 0, finite entries,
    closed under negation."""
    values = tuple(complex(a) for a in alphabet)
    if not values:
        raise GridInputError("alphabet must not be empty")
    if len(set(values)) != len(values):
        raise GridInputError("alphabet entries must be distinct")
    if not any(abs(v) <= EPS for v in values):
        raise GridInputError("alphabet must contain 0")
    if not all(cmath.isfinite(v) for v in values):
        raise GridInputError("alphabet entries must be finite")
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


def _require_finite_alpha(alpha) -> None:
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
        _require_finite_alpha(alpha)
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


class _SiteTable:
    """The verdicts of one site pattern, filled on demand.

    `slots` places x, y and x sigma(y) of the site: slot i < k is the i-th
    of its k earlier elements, slot k the new element.  A key spells the
    (f, g) digit pairs f(e) m + g(e) at the earlier elements in base m^2,
    the first one most significant.  Its row of ``bits`` holds m^2 packed
    verdicts, ``|residual| <= tol`` at bit a m + b for the new element's
    (f, g) = (values[a], values[b]); ``known`` marks the keys evaluated.
    A table takes m^(2k) (1 + ceil(m^2 / 8)) bytes, 78,732 at m = 9.
    """

    __slots__ = ("equation", "vals", "alpha", "tol", "slots", "known",
                 "bits")

    def __init__(self, equation: str, vals: np.ndarray, alpha: complex,
                 tol: float, slots: tuple[int, int, int]):
        self.equation, self.vals = equation, vals
        self.alpha, self.tol, self.slots = alpha, tol, slots
        m, k = len(vals), max(slots)
        self.known = np.zeros(m ** (2 * k), dtype=bool)
        self.bits = np.zeros((m ** (2 * k), (m * m + 7) // 8),
                             dtype=np.uint8)

    def verdicts(self, keys: np.ndarray) -> np.ndarray:
        """The packed verdict rows of the keys, evaluating each unknown
        key once, over the distinct ones."""
        new = keys[~self.known[keys]]
        if new.size:
            new = np.unique(new)
            vals, m, k = self.vals, len(self.vals), max(self.slots)
            pairs = new[:, None] // (m * m) ** np.arange(k - 1, -1, -1)
            f_at = [vals[pairs[:, i] % (m * m) // m, None, None]
                    for i in range(k)] + [vals[:, None]]
            g_at = [vals[pairs[:, i] % m, None, None]
                    for i in range(k)] + [vals[None, :]]
            x, y, p = self.slots
            R = _site_residual(self.equation, f_at[x], f_at[y], f_at[p],
                               g_at[x], g_at[y], g_at[p], self.alpha)
            ok = np.broadcast_to(np.abs(R) <= self.tol, (len(new), m, m))
            self.bits[new] = np.packbits(ok.reshape(len(new), m * m), axis=1)
            self.known[new] = True
        return self.bits[keys]


#: Site verdict tables kept across scans; the oldest goes first.  One
#: report needs at most 50 (ten site patterns per equation), ~1.2 MB at
#: m = 9, since at most three patterns per equation have k = 2.
TABLE_CACHE_SIZE = 64

_TABLES: dict[tuple, _SiteTable] = {}


def _site_table(equation: str, values: tuple, alpha: complex, tol: float,
                slots: tuple[int, int, int]) -> _SiteTable:
    """The cached verdict table of one site pattern.

    The key holds the equation, the alphabet in its order, alpha, tol and
    the pattern (the slots, which fix k), so a scan with any of them
    changed gets its own table.  At most TABLE_CACHE_SIZE tables are kept,
    ~5 MB at m = 9.
    """
    key = (equation, values, alpha, tol, slots)
    table = _TABLES.get(key)
    if table is None:
        if len(_TABLES) >= TABLE_CACHE_SIZE:
            del _TABLES[next(iter(_TABLES))]
        table = _TABLES[key] = _SiteTable(
            equation, np.array(values, dtype=np.complex128), alpha, tol,
            slots)
    return table


class GridSolutions(Sequence):
    """The solutions of one grid search, as read-only value stacks.

    ``f`` and ``g`` have shape (k, |S|): row i holds the values of the i-th
    solution.  Item i is that pair as two FnTables, built when it is read;
    a slice is a GridSolutions over those rows.  As in :class:`FnTable`, a
    writable array is copied and a read-only one kept.
    """

    __slots__ = ("S", "f", "g")

    def __init__(self, S: FiniteSemigroup, f: np.ndarray, g: np.ndarray):
        self.S, self.f, self.g = S, read_only(f), read_only(g)

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
    mm = m * m
    ps = S.table[:, S.sigma]
    # sites[j]: the sites whose three elements all have values at step j,
    # as (earlier elements, verdict table), each pattern once.
    sites: list[dict] = [{} for _ in range(n)]
    for x in range(n):
        for y in range(n):
            trio = (x, y, int(ps[x, y]))
            j = max(trio)
            earlier = tuple(dict.fromkeys(e for e in trio if e < j))
            slots = tuple(earlier.index(e) if e < j else len(earlier)
                          for e in trio)
            sites[j][earlier, _site_table(equation, values, alpha, tol,
                                          slots)] = None
    # Column r of the frontier is one partial assignment: row e holds the
    # digit pair f(e) m + g(e) of element e, for e = 0..j-1.
    pair = np.min_scalar_type(mm - 1)
    front = np.zeros((0, 1), dtype=pair)
    rows = max(1, BLOCK // mm)
    # 0 is in the alphabet and the zero pair solves every built-in
    # equation, so the frontier never empties.
    for j in range(n):
        grown = []
        for r0 in range(0, front.shape[1], rows):
            block = front[:, r0:r0 + rows]
            # Bit a m + b of a row: every site at j holds with (f(j),
            # g(j)) = (values[a], values[b]).
            ok = np.full((block.shape[1], (mm + 7) // 8), 0xFF,
                         dtype=np.uint8)
            for earlier, table in sites[j]:
                keys = np.zeros(block.shape[1], dtype=np.intp)
                for e in earlier:
                    keys = keys * mm + block[e]
                ok &= table.verdicts(keys)
            r, ab = np.divmod(
                np.flatnonzero(np.unpackbits(ok, axis=1, count=mm)), mm)
            grown.append(np.vstack([block.take(r, axis=1),
                                    ab.astype(pair)]))
        front = np.concatenate(grown, axis=1)
    F, G = np.divmod(front, m)
    # Lexicographic digit order, element 0 first, f before g.
    order = np.lexsort(np.concatenate([F, G])[::-1])
    vals = np.array(values, dtype=np.complex128)
    f, g = (vals[np.ascontiguousarray(D.take(order, axis=1).T,
                                      dtype=np.intp)] for D in (F, G))
    f.setflags(write=False)         # so GridSolutions keeps them uncopied
    g.setflags(write=False)
    return GridSolutions(S, f, g)


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
    and labels each row with the case :func:`addlaws.classify.classify`
    answers, and only the rows it labels 0, where `classify` finds no
    case, become FnTables and go through `classify` for their dumps, in
    their grid order.
    """
    values = validate_alphabet(alphabet)
    _require_finite_alpha(alpha)
    equations = list(equations or EQUATION_IDS)
    for eq in equations:
        _check_scan(eq, S, values, alpha if eq in ALPHA_EQUATIONS else None,
                    tol, budget)
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
                           S, alpha=a, tol=tol)
             for r in range(0, len(pairs), chunk)])
        ids = all_case_ids(eq)
        cases = {str(ids[k - 1]): int(count) for k, count in
                 zip(*np.unique(settled[settled > 0], return_counts=True))}
        dumps = []
        for i in np.flatnonzero(settled == 0):
            f, g = pairs[i]
            dumps.append(classify(eq, f, g, S, alpha=a,
                                  tol=tol).to_json_dict())
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
    ast = builtin(equation)
    result = {"equation": equation, "seed": seed, "draws": 0,
              "max_residual": 0.0, "cases": {}, "unavailable": []}
    for case in all_case_ids(equation):
        menus = []
        for S in semigroups:
            menu = admissible_params(case, S, enumerate_characters(S))
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
