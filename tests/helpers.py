"""Shared test utilities: independent oracles and pass/fail reporting."""

import cmath
import itertools

import numpy as np

TOL = 1e-9


def ok_line(ok: bool, label: str, detail: str = "") -> bool:
    """Print one [PASS]/[FAIL] line and hand the flag back to the caller."""
    tag = "PASS" if ok else "FAIL"
    text = f"[{tag}] {label}"
    if detail:
        text += f": {detail}"
    print(text, flush=True)
    return ok


def power_period(S, x: int) -> int:
    """Eventual period of the sequence x, x^2, x^3, ... (independent of
    the library's own period helper)."""
    seen = {}
    cur, k = x, 1
    while cur not in seen:
        seen[cur] = k
        cur = S.mul(cur, x)
        k += 1
    return k - seen[cur]


def brute_force_characters(S, tol: float = TOL) -> list[np.ndarray]:
    """Every non-zero multiplicative table on S by exhaustive search.

    An element whose power sequence has eventual period p can only take
    the value 0 or a p-th root of unity, so the product of those candidate
    sets covers all assignments; each one is checked against the full
    multiplication table.
    """
    pools = []
    for x in range(S.n):
        p = power_period(S, x)
        pools.append([0j] + [cmath.exp(2j * cmath.pi * k / p)
                             for k in range(p)])
    found = []
    seen = set()
    for combo in itertools.product(*pools):
        if all(abs(z) <= tol for z in combo):
            continue
        if any(abs(combo[S.mul(i, j)] - combo[i] * combo[j]) > tol
               for i in range(S.n) for j in range(S.n)):
            continue
        key = tuple((round(z.real, 6), round(z.imag, 6)) for z in combo)
        if key not in seen:
            seen.add(key)
            found.append(np.array(combo, dtype=np.complex128))
    return found


def match_tables(xs, ys, tol: float = TOL) -> bool:
    """True when two collections of value tables agree up to reordering."""
    if len(xs) != len(ys):
        return False
    used = set()
    for x in xs:
        hit = None
        for j, y in enumerate(ys):
            if j in used:
                continue
            if np.max(np.abs(np.asarray(x) - np.asarray(y))) <= tol:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def equation_residual(eq_id: str, f, g, S, alpha=None) -> float:
    """Residual of a named equation, evaluated through the DSL layer."""
    from addlaws.dsl import builtin, evaluate_residual

    binding = {"f": f, "g": g}
    if alpha is not None:
        binding["a"] = alpha
    return evaluate_residual(builtin(eq_id), binding, S)


def reference_grid_pairs(eq_id: str, S, alphabet, alpha=None,
                         tol: float = TOL) -> list[tuple[int, int]]:
    """Every solving (f-index, g-index) pair by the plain all-pairs scan.

    Indices count rows of ``value_tuples``.  Each block of f rows is
    broadcast against every g row over all n^2 sites (x, y), and a pair is
    kept when every site residual is within ``tol``.  Only for n <= 3,
    where the (f, g, x, y) cube stays small.
    """
    from addlaws.oracle import value_tuples

    if S.n > 3:
        raise ValueError("the reference scan is for carriers with n <= 3")
    V = value_tuples(alphabet, S.n)
    ps = S.table[:, S.sigma]
    a = 0j if alpha is None else complex(alpha)
    # Axes (f row, g row, x, y).
    fx, gx = V[:, None, :, None], V[None, :, :, None]
    fy, gy = fx.swapaxes(2, 3), gx.swapaxes(2, 3)
    fL, gL = V[:, ps][:, None], V[:, ps][None]   # f(x sigma(y)) at (x, y)
    out = []
    block = max(1, 2 ** 20 // (len(V) * S.n * S.n))
    for a0 in range(0, len(V), block):
        sl = slice(a0, a0 + block)
        if eq_id == "cos-sub":
            R = gL - gx * gy - fx[sl] * fy[sl]
        elif eq_id == "sine-add":
            R = fL[sl] - fx[sl] * gy - fy[sl] * gx
        elif eq_id == "cos-sine-g":
            R = fL[sl] - fx[sl] * gy - fy[sl] * gx + gx * gy
        elif eq_id == "alpha-sym":
            R = fL[sl] - fx[sl] * gy - fy[sl] * gx - a * gL
        elif eq_id == "alpha-skew":
            R = fL[sl] - fx[sl] * gy + fy[sl] * gx - a * gL
        else:
            raise KeyError(eq_id)
        hits = np.argwhere(np.all(np.abs(R) <= tol, axis=(2, 3)))
        out.extend((int(i) + a0, int(j)) for i, j in hits)
    return out


def reference_coverage_report(S, alphabet=None, alpha=1.0, equations=None,
                              tol: float = TOL) -> dict:
    """`coverage_report` by the plain per-pair loop.

    Every `grid_solutions` pair goes through `classify`, one at a time, and
    the report is assembled exactly as `coverage_report` lays it out.
    """
    from addlaws.characters import enumerate_characters
    from addlaws.classify import Unclassified, classify
    from addlaws.core import cnum
    from addlaws.families import ALPHA_EQUATIONS, EQUATION_IDS
    from addlaws.oracle import (DEFAULT_ALPHABET, grid_solutions,
                                validate_alphabet)

    values = validate_alphabet(DEFAULT_ALPHABET if alphabet is None
                               else alphabet)
    chars = enumerate_characters(S)
    report = {"semigroup": S.name, "alphabet": [cnum(v) for v in values],
              "alpha": cnum(complex(alpha)), "equations": {}}
    for eq in list(equations or EQUATION_IDS):
        a = complex(alpha) if eq in ALPHA_EQUATIONS else None
        pairs = list(grid_solutions(eq, S, values, alpha=a, tol=tol,
                                    budget=10 ** 12))
        cases: dict[str, int] = {}
        dumps = []
        for f, g in pairs:
            hit = classify(eq, f, g, S, alpha=a, chars=chars, tol=tol)
            if isinstance(hit, Unclassified):
                dumps.append(hit.to_json_dict())
            else:
                cases[str(hit.case)] = cases.get(str(hit.case), 0) + 1
        report["equations"][eq] = {
            "pairs_scanned": (len(values) ** S.n) ** 2,
            "solutions": len(pairs),
            "cases": dict(sorted(cases.items())),
            "unclassified": dumps,
        }
    return report


def semigroup_tables(n: int):
    """Every associative multiplication table on range(n), as a tuple of
    rows.  Backtracks over the cells in row order; a value stays only while
    every triple whose four products are all known associates."""
    t = [[None] * n for _ in range(n)]
    triples = list(itertools.product(range(n), repeat=3))

    def associative() -> bool:
        for x, y, z in triples:
            xy, yz = t[x][y], t[y][z]
            if xy is None or yz is None:
                continue
            left, right = t[xy][z], t[x][yz]
            if left is not None and right is not None and left != right:
                return False
        return True

    def fill(k: int):
        if k == n * n:
            yield tuple(tuple(row) for row in t)
            return
        x, y = divmod(k, n)
        for v in range(n):
            t[x][y] = v
            if associative():
                yield from fill(k + 1)
        t[x][y] = None

    yield from fill(0)


def _relabel(table, sigma, p):
    """(table, sigma) with each element x renamed p[x]."""
    n = len(p)
    inv = sorted(range(n), key=p.__getitem__)
    return (tuple(tuple(p[table[inv[a]][inv[b]]] for b in range(n))
                  for a in range(n)),
            tuple(p[sigma[inv[a]]] for a in range(n)))


def census(n: int) -> list[tuple[tuple, tuple]]:
    """Every pair (S, sigma) of order n up to isomorphism, sorted: S an
    associative table and sigma an involutive automorphism of it, each pair
    in its canonical form, the least of its relabellings under every
    permutation of range(n)."""
    perms = list(itertools.permutations(range(n)))
    elems = range(n)
    found = set()
    for table in semigroup_tables(n):
        for s in perms:
            if any(s[s[x]] != x for x in elems):
                continue
            if any(s[table[x][y]] != table[s[x]][s[y]]
                   for x in elems for y in elems):
                continue
            found.add(min(_relabel(table, s, p) for p in perms))
    return sorted(found)
