"""Multiplicative functions and their companion data.

Provides complete enumeration of the non-zero multiplicative functions on a
finite semigroup, their null-ideal structure, the additive functions (zero
on every finite carrier, so a finite piecewise family is built from chi and
rho alone) and a solver for the admissible rho functions on the prime
part, plus the side conditions that piecewise solution families carry.
Those conditions and a character's evenness are relations (t, s, c) that
ask h(t) = c h(s), listed once (:func:`_relations`) and checked by one
gather (:func:`_gaps`) of a finite table, a stack of rows or a formula.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (EPS, FiniteSemigroup, FnTable, WindowedSemigroup,
                   _evaluator, read_only)

def _ideal_sets_from_values(S: FiniteSemigroup, values: np.ndarray):
    ideal = frozenset(i for i in range(S.n) if abs(values[i]) <= EPS)
    ideal_sq = frozenset(int(S.table[i, j]) for i in ideal for j in ideal)
    edge = ideal - ideal_sq
    non_ideal = [x for x in range(S.n) if x not in ideal]
    return ideal, ideal_sq, frozenset(p for p in edge if all(
        S.mul(u, p) in edge and S.mul(p, v) in edge
        and S.mul(u, S.mul(p, v)) in edge
        for u in non_ideal for v in non_ideal))


class MultChar:
    """A non-zero multiplicative function on a finite semigroup.

    Caches the null ideal I, its square I^2, the prime part P, the
    composition with the automorphism, and the evenness flag; `in_ideal`
    and `in_prime_part` test membership as on a :class:`WindowedChar`.
    Raises ValueError when the values are not finite, zero or not
    multiplicative.  As in :class:`FnTable`, a writable array is copied,
    so the caller can neither change the values through it nor find it
    frozen.
    """

    def __init__(self, S: FiniteSemigroup, values):
        self.semigroup = S
        self.values = v = read_only(np.asarray(values, dtype=np.complex128))
        if not np.isfinite(v).all():
            raise ValueError("multiplicative function must be finite")
        self.conj = v[S.sigma]
        self.even = bool(np.all(np.abs(self.conj - v) <= EPS))
        self.null_ideal, self.null_square, self.prime_part = \
            _ideal_sets_from_values(S, v)
        self.in_ideal = self.null_ideal.__contains__
        self.in_prime_part = self.prime_part.__contains__
        if np.all(np.abs(v) <= EPS):
            raise ValueError("multiplicative function must be non-zero")
        bad = self.multiplicativity_residual()
        if bad > EPS:
            raise ValueError(f"not multiplicative (residual {bad:.3g})")

    def __call__(self, i: int) -> complex:
        return complex(self.values[i])

    def multiplicativity_residual(self) -> float:
        S, v = self.semigroup, self.values
        return float(np.max(np.abs(v[S.table] - np.outer(v, v))))

    def key(self) -> tuple:
        return _values_key(self.values)

    def __repr__(self):
        vals = ", ".join(f"{z:.3g}" for z in self.values)
        return f"MultChar([{vals}], even={self.even})"


def _values_key(values) -> tuple:
    return tuple((round(z.real, 12), round(z.imag, 12)) for z in values)


@functools.lru_cache(maxsize=32)
def conjugate_representatives(chars: tuple) -> tuple:
    """The first character of each {chi, chi*} pair with chi* != chi, in
    the order of `chars`.

    `chars` is a tuple so that the list is worked out once per tuple of
    character objects, however many callers ask for it.
    """
    seen, reps = set(), []
    for chi in chars:
        if chi.even:
            continue
        key = frozenset((chi.key(), _values_key(chi.conj)))
        if key not in seen:
            seen.add(key)
            reps.append(chi)
    return tuple(reps)


class WindowedChar:
    """A formula-defined multiplicative function on a windowed semigroup.

    Ideal membership comes from formula predicates supplied by the carrier's
    example builder; the defining quantifiers are certified over the window
    only, and so is `even`, worked out on first read.
    """

    def __init__(self, W: WindowedSemigroup, formula: Callable,
                 in_ideal: Callable, in_ideal_square: Callable,
                 in_prime_part: Callable):
        self.semigroup = W
        self.formula = formula
        self.in_ideal = in_ideal
        self.in_ideal_square = in_ideal_square
        self.in_prime_part = in_prime_part

    def __call__(self, x) -> complex:
        return complex(self.formula(x))

    @functools.cached_property
    def even(self) -> bool:
        return _evenness_residual(self, self.semigroup) <= EPS

    @property
    def fn(self) -> FnTable:
        return FnTable(self.semigroup, formula=self.formula)


def element_periods(S: FiniteSemigroup) -> list[int]:
    """Eventual period of the power sequence x, x^2, x^3, ... per element."""
    periods = []
    for x in range(S.n):
        seen = {}
        cur, k = x, 1
        while cur not in seen:
            seen[cur] = k
            cur = S.mul(cur, x)
            k += 1
        periods.append(k - seen[cur])
    return periods


def enumerate_characters(S: FiniteSemigroup) -> tuple[MultChar, ...]:
    """All non-zero multiplicative functions on S, canonically ordered.

    S keeps their tables (:func:`_character_tables`), so the search runs
    once per carrier, and weak references to the characters built from
    them: while any caller holds those (the classifier's caches included),
    every call returns the same :class:`MultChar` objects.  Strong ones
    would make S and its characters a reference cycle, and a dropped
    carrier would wait for Python's cycle collector.
    """
    chars = tuple(ref() for ref in getattr(S, "_characters", ()))
    if not chars or None in chars:
        if not hasattr(S, "_character_tables"):
            S._character_tables = _character_tables(S)
        chars = tuple(MultChar(S, v) for v in S._character_tables)
        S._characters = tuple(map(weakref.ref, chars))
    return chars


def _character_tables(S: FiniteSemigroup) -> tuple:
    """The value tables of S's characters in canonical order.

    Each x has x^m = x^(m+p) with p its period, so a character's value at
    x is 0 or a p-th root of unity.  The search runs in exact exponents of
    exp(2 pi i / L), L the lcm of the periods: the value at x is -1 for 0
    or a multiple k of L/p, a product adds exponents mod L, and two values
    agree when their integers do.  Depth-first over one element's values
    at a time, closing each partial assignment under products
    (:func:`_closed`); complete because each element's values are.  Only a
    finished table becomes floats, exp(2 pi i j / p) with j = k/(L/p).
    """
    periods = element_periods(S)
    L = math.lcm(*periods)
    steps = [L // p for p in periods]
    table, found = S.table.tolist(), []
    stack = [[None] * S.n]
    while stack:
        values = stack.pop()
        if None in values:
            x = values.index(None)
            for k in (-1, *range(0, L, steps[x])):
                branch = values.copy()
                branch[x] = k
                if _closed(branch, x, table, steps, L):
                    stack.append(branch)
        elif max(values) >= 0:
            found.append(np.array(
                [np.exp(2j * np.pi * (k // step) / p) if k >= 0 else 0j
                 for k, step, p in zip(values, steps, periods)]))
            found[-1].setflags(write=False)  # so MultChar keeps it uncopied
    return tuple(sorted(found, key=_values_key))


def _closed(values: list, x: int, table: list, steps: list, L: int) -> bool:
    """Close values under the products involving x, just assigned, in
    place; False at the first product whose exponent is not a value of its
    element or differs from the one already there."""
    queue = [x]
    while queue:
        a = queue.pop()
        va = values[a]
        for b, vb in enumerate(values):
            if vb is None:
                continue
            req = -1 if va < 0 or vb < 0 else (va + vb) % L
            for z in (table[a][b], table[b][a]):
                if values[z] is None:
                    if req >= 0 and req % steps[z]:
                        return False
                    values[z] = req
                    queue.append(z)
                elif values[z] != req:
                    return False
    return True


def ideal_sets(chi):
    """The triple (I, I^2 within S, prime part P) for a character.

    Finite characters return cached frozensets of element indices; windowed
    characters return window-restricted sorted tuples computed from their
    formula predicates (window-certified only).
    """
    if isinstance(chi, MultChar):
        return chi.null_ideal, chi.null_square, chi.prime_part
    return tuple(tuple(filter(test, chi.semigroup.window)) for test in
                 (chi.in_ideal, chi.in_ideal_square, chi.in_prime_part))


@dataclass
class AdditiveFn:
    """A function on part of a semigroup: an additive function on the
    product-closed set S \\ I, or a rho function on the prime part P of a
    character's null ideal (:data:`RhoFn` names the same class).

    `domain` is a frozenset of indices (finite) or a membership predicate
    (windowed); values are a dense table or a formula accordingly.
    """

    domain: object
    values: np.ndarray | None = None
    formula: Callable | None = None
    parity: str = "even"

    def __call__(self, x) -> complex:
        if self.values is not None:
            return complex(self.values[x])
        return complex(self.formula(x))

    def in_domain(self, x) -> bool:
        return bool(_member(self)(x))


#: A function on the prime part P; the same record as :class:`AdditiveFn`.
RhoFn = AdditiveFn


def additive_basis(chi, parity: str = "even") -> list[AdditiveFn]:
    """Basis of {A on S \\ I : A(xy) = A(x) + A(y), A o sigma = +/-A}: empty
    on every finite carrier S of chi.

    Proof: S \\ I is closed under products, and each x in it has x^m =
    x^(m+p) for some m, p >= 1, so additivity gives m A(x) = (m+p) A(x),
    hence A(x) = 0.  Raises TypeError on a windowed carrier, ValueError on
    a parity other than even or odd, and ValueError when sigma maps a
    point of S \\ I into I, where A o sigma is not defined.
    """
    if not isinstance(chi, MultChar):
        raise TypeError("additive_basis needs a finite semigroup")
    S = chi.semigroup
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if any(chi.in_ideal(S.sig(x)) for x in S.window if not chi.in_ideal(x)):
        raise ValueError("automorphism does not preserve S \\ I; "
                         "parity constraint needs an even character")
    return []


def _worst(diffs: Iterable[float]) -> float:
    """The largest of diffs, 0.0 for none; NaN as soon as one is NaN, so
    that a `<= tol` check refuses it."""
    worst = 0.0
    for d in diffs:
        if not d <= worst:
            if d != d:
                return d
            worst = d
    return worst


def _member(fn: AdditiveFn) -> Callable:
    """The domain membership test of fn, bound once: a set's
    ``__contains__``, or the predicate itself."""
    d = fn.domain
    return d.__contains__ if isinstance(d, (frozenset, set)) else d


def _gaps(h, targets, sources, factors):
    """|h(t) - c h(s)| for each relation (t, s, c) of the three sequences,
    NaN kept.  A finite table (h or h.values, an array) is read as it
    stands, a stack of rows giving a row of gaps each; any other h is
    evaluated once per distinct element through
    :func:`addlaws.core._evaluator`, sigma x past the window included."""
    values = h if isinstance(h, np.ndarray) else getattr(h, "values", None)
    if isinstance(values, np.ndarray):
        return np.abs(values[..., targets] - values[..., sources] * factors)
    ev, slot = _evaluator(h), {}            # slot: element -> its index
    ts, ss = [[slot.setdefault(x, len(slot)) for x in xs]
              for xs in (targets, sources)]
    at = list(map(ev, slot))
    return (abs(at[t] - c * at[s]) for t, s, c in zip(ts, ss, factors))


def _sigma_relations(S, points, sign: float):
    """f o sigma = sign f at each of the points, as relations for
    :func:`_gaps`: sigma x to x by sign."""
    points = list(points)
    return list(map(S.sig, points)), points, [sign] * len(points)


def additive_residual(A: AdditiveFn, S, pairs: Iterable) -> float:
    """max |A(xy) - A(x) - A(y)| over the given pairs (domain-filtered);
    NaN if any term is NaN.  A and its domain test are bound once."""
    mul, ev, member = S.mul, _evaluator(A), _member(A)
    return _worst(abs(ev(mul(x, y)) - ev(x) - ev(y)) for x, y in pairs
                  if member(x) and member(y))


def character_residuals(chi, S, pairs: Iterable) -> tuple[float, float]:
    """max |chi(xy) - chi(x) chi(y)| over the given pairs and max
    |chi(sigma x) - chi(x)| over the window; each NaN if any term is NaN.
    chi is bound once."""
    mul, ev = S.mul, _evaluator(chi)
    return (_worst(abs(ev(mul(x, y)) - ev(x) * ev(y)) for x, y in pairs),
            _evenness_residual(chi, S))


def _evenness_residual(chi, S) -> float:
    """max |chi(sigma x) - chi(x)| over S's window, NaN kept: one gather
    (see :func:`_gaps`)."""
    return _worst(_gaps(chi, *_sigma_relations(S, S.window, 1.0)))


@dataclass
class RhoOrbit:
    """One orbit of P under translations and the automorphism.

    `members` maps each element of the orbit to its multiplier relative to
    the representative: rho(x) = members[x] * rho(representative).  Orbits
    whose propagation relations conflict admit only rho = 0 there.
    """

    representative: int
    members: dict[int, complex]
    zero_forced: bool = False


@dataclass
class RhoSpace:
    """Parameterization of the admissible rho functions of one parity."""

    parity: str
    orbits: list[RhoOrbit] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return sum(1 for o in self.orbits if not o.zero_forced)

    def instance(self, free_values: Sequence[complex],
                 n: int) -> RhoFn:
        """Concrete rho from one free value per non-forced orbit."""
        free = list(free_values)
        if len(free) != self.dimension:
            raise ValueError(
                f"need {self.dimension} free value(s), got {len(free)}")
        values = np.zeros(n, dtype=np.complex128)
        domain, bases = set(), iter(free)
        for orbit in self.orbits:
            base = 0j if orbit.zero_forced else complex(next(bases))
            for x, mult in orbit.members.items():
                values[x] = base * mult
                domain.add(x)
        return RhoFn(domain=frozenset(domain), values=values,
                     parity=self.parity)


def rho_space(chi: MultChar, parity: str = "even") -> RhoSpace:
    """Orbit decomposition of P with propagated multipliers.

    Solves the first two runs of :func:`_relation_table`, condition (I)
    and rho o sigma = +/- rho: each relation (t, s, c) with both ends in
    P is an edge s -> t weighted c and t -> s weighted 1/c.  Conflicting
    relations on an orbit force rho = 0 there instead of failing.  Raises
    TypeError for a windowed carrier's character and ValueError on a
    parity other than even or odd.
    """
    if not isinstance(chi, MultChar):
        raise TypeError("rho_space needs a finite semigroup")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    P = sorted(chi.prime_part)
    *table, ends, _ = _relation_table(chi, parity)
    # Undirected weighted edges p --w--> q meaning rho(q) = w * rho(p).
    edges: dict[int, list[tuple[int, complex]]] = {p: [] for p in P}
    for t, s, c in zip(*(column[:ends[1]].tolist() for column in table)):
        if t in edges and s in edges:
            edges[s].append((t, c))
            edges[t].append((s, 1.0 / c))

    space = RhoSpace(parity=parity)
    seen: set[int] = set()
    for p in P:
        if p in seen:
            continue
        mult = {p: 1.0 + 0j}
        conflict = False
        stack = [p]
        seen.add(p)
        while stack:
            a = stack.pop()
            for b, w in edges[a]:
                target = mult[a] * w
                if b in mult:
                    if abs(mult[b] - target) > EPS:
                        conflict = True
                else:
                    mult[b] = target
                    seen.add(b)
                    stack.append(b)
        space.orbits.append(RhoOrbit(representative=p,
                                     members=dict(sorted(mult.items())),
                                     zero_forced=conflict))
    return space


def _relations(chi):
    """Conditions (I) and (II) of chi over its carrier's window as blocks
    (targets, sources, factors) of relations for :func:`_gaps`, each built as
    it is read: a pair of iterators.  The first yields, for each p of the prime
    part P in window order, its block: up and pu to p by chi(u) for each u
    outside the ideal I, then u(pv) to p by chi(uv) for each u, v outside I,
    with whether every target lies in P (each distinct target tested once).
    The second yields, for each x in I \\ P, the distinct products xy and yx
    with y outside I, each to itself by 0: where (II) asks for zeros."""
    S, in_P = chi.semigroup, chi.in_prime_part
    mul, off = S.mul, [x for x in S.window if not chi.in_ideal(x)]

    def cond_I():
        P = [x for x in S.window if in_P(x)]
        if not P:
            return
        chi_at = _evaluator(chi)
        # chi(u) and chi(uv) do not depend on p: tabulate them once.
        factors = [c for u in off for c in (chi_at(u),) * 2]
        factors += [chi_at(mul(u, v)) for u in off for v in off]
        for p in P:
            pvs = [mul(p, v) for v in off]
            t = [x for u in off for x in (mul(u, p), mul(p, u))]
            t += [mul(u, pv) for u in off for pv in pvs]
            yield (t, [p] * len(t), factors), all(map(in_P, set(t)))

    edge = (x for x in S.window if chi.in_ideal(x) and not in_P(x))
    mixed = (list(dict.fromkeys([z for y in off
                                 for z in (mul(x, y), mul(y, x))]))
             for x in edge)
    return cond_I(), ((z, z, [0] * len(z)) for z in mixed)


@functools.lru_cache(maxsize=64)
def _relation_table(chi: MultChar, parity: str) -> tuple:
    """The relations on rho of a parity for a finite chi, as one table for
    :func:`_gaps`: three arrays in four runs, condition (I) (see
    :func:`_relations`), sigma p to p by +-1 on the prime part P, p to p
    by 0, and the products of (II) in P; then where each run ends, and
    whether every target of (I) lies in P.  :func:`rho_space` solves the
    first two runs and construct's piecewise clauses gather all four.  (I)
    comes first: rho_space follows the edges in table order, and the
    multipliers it reports on an orbit forced to zero depend on it."""
    S, P = chi.semigroup, sorted(chi.prime_part)
    cond_I, cond_II = _relations(chi)
    cond_I = list(cond_I)
    z = [x for zs, _, _ in cond_II for x in zs if x in chi.prime_part]
    runs = [[rel for rel, _ in cond_I],
            [_sigma_relations(S, P, 1.0 if parity == "even" else -1.0)],
            [(P, P, [0] * len(P))], [(z, z, [0] * len(z))]]
    sites = ([x for run in runs for rel in run for x in rel[k]]
             for k in range(3))
    return (*map(np.array, sites, (np.intp, np.intp, np.complex128)),
            list(itertools.accumulate(sum(len(rel[0]) for rel in run)
                                      for run in runs)),
            all(closed for _, closed in cond_I))


def check_condition_I(rho, chi) -> bool:
    """Translation compatibility of rho over the prime part P.

    For p in P and u, v outside the ideal: up, pu and u(pv) lie in P with
    rho(up) = rho(pu) = rho(p) chi(u) and rho(u(pv)) = rho(p) chi(uv), the
    relations of :func:`_relations`, gathered one p at a time; windowed
    carriers quantify u, v and p over the window only.
    """
    return all(closed and _worst(_gaps(rho, *rel)) <= EPS
               for rel, closed in _relations(chi)[0])


def check_condition_II(f, chi) -> bool:
    """Vanishing of f on mixed products: f(xy) = f(yx) = 0 whenever one
    factor is in I \\ P and the other outside I (see :func:`_relations`)."""
    return all(_worst(_gaps(f, *rel)) <= EPS
               for rel in _relations(chi)[1])


def parity_residual(fn, S) -> float:
    """max |f(sigma x) -/+ f(x)| over the function's domain in the window;
    NaN if any term is NaN.  One gather (see :func:`_gaps`)."""
    sign = 1.0 if fn.parity == "even" else -1.0
    points = filter(_member(fn), S.window)
    return _worst(_gaps(fn, *_sigma_relations(S, points, sign)))
