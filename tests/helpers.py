"""Shared test utilities: independent oracles and pass/fail reporting."""

import cmath
import functools
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


def spread(rows, k: int) -> list:
    """At most k of the rows, evenly spaced, first and last included."""
    rows = np.asarray(rows)
    if len(rows) <= k:
        return rows.tolist()
    return rows[np.linspace(0, len(rows) - 1, k).round().astype(int)].tolist()


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


#: Most (f, g, x, y) entries the plain all-pairs scan visits: the default
#: alphabet on n = 3 has 729^2 * 9 (4.8M), (0, +-1, +-i) on n = 4 has
#: 625^2 * 16 (6.25M).
REFERENCE_CUBE = 10 ** 7


def reference_grid_pairs(eq_id: str, S, alphabet, alpha=None,
                         tol: float = TOL) -> list[tuple[int, int]]:
    """Every solving (f-index, g-index) pair by the plain all-pairs scan.

    Indices count rows of ``value_tuples``.  Each block of f rows is
    broadcast against every g row over all n^2 sites (x, y), and a pair is
    kept when every site residual is within ``tol``.  Only for grids
    whose whole (f, g, x, y) cube has at most REFERENCE_CUBE entries.
    """
    from addlaws.oracle import value_tuples

    T = len(tuple(alphabet)) ** S.n
    if T * T * S.n ** 2 > REFERENCE_CUBE:
        raise ValueError(f"the reference scan's cube of {T}^2 pairs by "
                         f"{S.n}^2 sites exceeds {REFERENCE_CUBE}")
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


@functools.lru_cache(maxsize=None)
def census(n: int) -> tuple[tuple[tuple, tuple], ...]:
    """Every pair (S, sigma) of order n up to isomorphism, sorted: S an
    associative table and sigma an involutive automorphism of it, each pair
    in its canonical form, the least of its relabellings under every
    permutation of range(n).  Cached, so a tuple: each order is
    enumerated once per test run."""
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
    return tuple(sorted(found))


def swapped_semilattice():
    """The semilattice {1, e, f, 0} with ef = 0 and sigma swapping e and f.

    Its characters 1 and 2 are not even: sigma maps their S \\ I = {1, e}
    or {1, f} into the null ideal."""
    from addlaws.core import FiniteSemigroup
    return FiniteSemigroup("SL4", ["1", "e", "f", "0"],
                           [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3],
                            [3, 3, 3, 3]], [0, 2, 1, 3])


def _by_rule(name: str, elements, mul, sig):
    """The FiniteSemigroup on `elements` with the product mul and the
    automorphism sig, each a rule on the elements themselves."""
    from addlaws.core import FiniteSemigroup
    elements = list(elements)
    at = {x: k for k, x in enumerate(elements)}
    table = [[at[mul(x, y)] for y in elements] for x in elements]
    return FiniteSemigroup(name, [str(x) for x in elements], table,
                           [at[sig(x)] for x in elements])


def s3_conjugation():
    """S3 as permutations of (0, 1, 2), (p q)(x) = p(q(x)), with sigma the
    conjugation by the transposition (0 1)."""
    t = (1, 0, 2)

    def mul(p, q):
        return tuple(p[q[x]] for x in range(3))
    return _by_rule("S3conj", sorted(itertools.permutations(range(3))),
                    mul, lambda p: mul(mul(t, p), t))


def z3xz4_inversion():
    """Z3 x Z4 with sigma the inversion x -> -x."""
    return _by_rule("Z3xZ4", itertools.product(range(3), range(4)),
                    lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 4),
                    lambda x: (-x[0] % 3, -x[1] % 4))


def rees_z2_with_zero():
    """The 2x2 Rees matrix semigroup with zero over Z2 whose sandwich
    matrix is the identity (the Brandt semigroup B(Z2, 2)): (i, g, l)(j,
    h, m) = (i, g + h, m) when l = j, else 0.  sigma swaps both index
    pairs."""
    def mul(x, y):
        if x == 0 or y == 0 or x[2] != y[0]:
            return 0
        return (x[0], (x[1] + y[1]) % 2, y[2])
    return _by_rule("Rees2x2Z2", [0, *itertools.product(range(2), repeat=3)],
                    mul, lambda x: x if x == 0 else (1 - x[0], x[1],
                                                     1 - x[2]))


def t2_conjugation():
    """The maps of {0, 1} to itself as (f(0), f(1)), (f g)(x) = f(g(x)),
    with sigma the conjugation by the swap."""
    def mul(f, g):
        return (f[g[0]], f[g[1]])
    return _by_rule("T2conj", itertools.product(range(2), repeat=2), mul,
                    lambda f: mul(mul((1, 0), f), (1, 0)))


def free_semilattice_3():
    """The free semilattice on the generators 0, 1, 2 (the non-empty
    subsets under union), with sigma swapping 0 and 1."""
    subsets = [tuple(c) for k in (1, 2, 3)
               for c in itertools.combinations(range(3), k)]
    swap = {0: 1, 1: 0, 2: 2}
    return _by_rule("FSL3", subsets,
                    lambda x, y: tuple(sorted(set(x) | set(y))),
                    lambda x: tuple(sorted(swap[g] for g in x)))


def carrier_zoo():
    """The carriers built by rule, past the census and the bundle."""
    return [s3_conjugation(), z3xz4_inversion(), rees_z2_with_zero(),
            t2_conjugation(), free_semilattice_3()]


def twisted_monoid(swap: bool = True):
    """The monoid {1, g, p, q, 0} with g^2 = 1, gp = q and gq = p, but pg =
    p and qg = q, and every product of two of p, q and 0 equal to 0; sigma
    swaps p and q (or is the identity).  Not commutative: up != pu for u =
    g.  The character that is 1 on {1, g} and 0 elsewhere has prime part
    {p, q} and a one-dimensional even rho space."""
    from addlaws.core import FiniteSemigroup
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 2, 4], [2, 2, 4, 4, 4],
             [3, 3, 4, 4, 4], [4, 4, 4, 4, 4]]
    sigma = [0, 1, 3, 2, 4] if swap else [0, 1, 2, 3, 4]
    return FiniteSemigroup("TW5" if swap else "TW5id",
                           ["1", "g", "p", "q", "0"], table, sigma)


def left_unit_carrier():
    """{0, a, p, e} with e a left unit (ex = x), p e = p, every other
    product 0, and sigma the identity.  For the character that is 1 at e
    alone, P = {p}, and the mixed product e a = a is no product a y:
    condition (II) is broken there by yx alone."""
    from addlaws.core import FiniteSemigroup
    table = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [0, 1, 2, 3]]
    return FiniteSemigroup("LU4", ["0", "a", "p", "e"], table, [0, 1, 2, 3])
