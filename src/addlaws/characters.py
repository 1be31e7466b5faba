"""Multiplicative functions and their companion data.

Provides complete enumeration of the non-zero multiplicative functions on a
finite semigroup, their null-ideal structure, solvers for additive functions
and for admissible rho functions on the prime part, plus the two side
conditions that piecewise solution families carry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import EPS, FiniteSemigroup, FnTable, WindowedSemigroup

#: Tolerance for snapping a propagated character value onto its candidate
#: set.  Products of exact roots of unity carry only ~1e-15 of float noise,
#: so anything further than this from every candidate is a contradiction.
SNAP_TOL = 1e-6


def _ideal_sets_from_values(S: FiniteSemigroup, values: np.ndarray):
    ideal = frozenset(i for i in range(S.n) if abs(values[i]) <= EPS)
    ideal_sq = frozenset(int(S.table[i, j]) for i in ideal for j in ideal)
    edge = sorted(ideal - ideal_sq)
    non_ideal = sorted(set(range(S.n)) - ideal)
    in_edge = set(edge)
    prime = []
    for p in edge:
        ok = all(S.mul(u, p) in in_edge and S.mul(p, v) in in_edge
                 and S.mul(u, S.mul(p, v)) in in_edge
                 for u in non_ideal for v in non_ideal)
        if ok:
            prime.append(p)
    return ideal, ideal_sq, frozenset(prime)


class MultChar:
    """A non-zero multiplicative function on a finite semigroup.

    Caches the null ideal I, its square I^2, the prime part P, the
    composition with the automorphism, and the evenness flag; `in_ideal`
    and `in_prime_part` test membership as on a :class:`WindowedChar`.
    Raises ValueError when the values are zero or not multiplicative.
    """

    def __init__(self, S: FiniteSemigroup, values):
        self.semigroup = S
        v = np.asarray(values, dtype=np.complex128)
        v.setflags(write=False)
        self.values = v
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

    @property
    def fn(self) -> FnTable:
        return FnTable(self.semigroup, values=self.values)

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
    only (`window_certified` is always True here).  Every bundled windowed
    character is even.
    """

    window_certified = True
    even = True

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


def character_candidates(S: FiniteSemigroup) -> list[list[complex]]:
    """Per-element candidate values: 0 or a p-th root of unity.

    On a finite semigroup x^m = x^{m+p} for some index m and period p, so a
    multiplicative value at x is either 0 or satisfies z^p = 1.
    """
    cands = []
    for p in element_periods(S):
        roots = [np.exp(2j * np.pi * k / p) for k in range(p)]
        cands.append([0j] + roots)
    return cands


def _snap(value: complex, candidates: Sequence[complex]) -> complex | None:
    for c in candidates:
        if abs(value - c) <= SNAP_TOL:
            return c
    return None


def enumerate_characters(S: FiniteSemigroup) -> list[MultChar]:
    """All non-zero multiplicative functions on S, canonically ordered.

    Backtracking over the per-element candidate sets with constraint
    propagation through the multiplication table; complete because the
    candidate sets are (see :func:`character_candidates`).
    """
    n = S.n
    cands = character_candidates(S)
    values: list[complex | None] = [None] * n
    found: list[np.ndarray] = []

    def propagate(x: int, trail: list[int]) -> bool:
        # Close the partial assignment under products involving x.
        queue = [x]
        while queue:
            a = queue.pop()
            for b in range(n):
                if values[b] is None:
                    continue
                for (u, w) in ((a, b), (b, a)):
                    z = S.mul(u, w)
                    req = values[u] * values[w]
                    if values[z] is None:
                        snapped = _snap(req, cands[z])
                        if snapped is None:
                            return False
                        values[z] = snapped
                        trail.append(z)
                        queue.append(z)
                    elif abs(values[z] - req) > SNAP_TOL:
                        return False
        return True

    def search() -> None:
        try:
            x = values.index(None)
        except ValueError:
            table = np.array(values, dtype=np.complex128)
            if np.max(np.abs(table)) > EPS:
                found.append(table)
            return
        for c in cands[x]:
            trail = [x]
            values[x] = c
            if propagate(x, trail):
                search()
            for t in trail:
                values[t] = None

    search()
    chars = [MultChar(S, v) for v in found]
    chars.sort(key=MultChar.key)
    return chars


def ideal_sets(chi):
    """The triple (I, I^2 within S, prime part P) for a character.

    Finite characters return cached frozensets of element indices; windowed
    characters return window-restricted sorted tuples computed from their
    formula predicates (window-certified only).
    """
    if isinstance(chi, MultChar):
        return chi.null_ideal, chi.null_square, chi.prime_part
    W = chi.semigroup
    ideal = tuple(x for x in W.window if chi.in_ideal(x))
    ideal_sq = tuple(x for x in W.window if chi.in_ideal_square(x))
    prime = tuple(x for x in W.window if chi.in_prime_part(x))
    return ideal, ideal_sq, prime


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
        if isinstance(self.domain, (frozenset, set)):
            return x in self.domain
        return bool(self.domain(x))


#: A function on the prime part P; the same record as :class:`AdditiveFn`.
RhoFn = AdditiveFn


def real_kernel_basis(M: np.ndarray) -> list[np.ndarray]:
    """Kernel basis of a real matrix by elimination with pivot tolerance
    EPS."""
    M = np.array(M, dtype=float)
    if M.size == 0:
        return [np.eye(M.shape[1])[k] for k in range(M.shape[1])]
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = r + int(np.argmax(np.abs(M[r:, c])))
        if abs(M[piv, c]) <= EPS:
            continue
        M[[r, piv]] = M[[piv, r]]
        M[r] = M[r] / M[r, c]
        for rr in range(rows):
            if rr != r and abs(M[rr, c]) > EPS:
                M[rr] = M[rr] - M[rr, c] * M[r]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(cols)
        v[fc] = 1.0
        for r_i, c_i in enumerate(pivots):
            v[c_i] = -M[r_i, fc]
        basis.append(v)
    return basis


def additive_basis(S, chi, parity: str = "even") -> list[AdditiveFn]:
    """Basis of {A on S \\ I : A(xy) = A(x) + A(y), A o sigma = +/-A}.

    Finite semigroups are solved exactly as a homogeneous real linear
    system (complex solutions are the complex span of the real ones);
    windowed semigroups return the formula candidates registered by their
    example builder.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if isinstance(S, WindowedSemigroup):
        builder = S.extras.get("additive_basis")
        if builder is None:
            raise ValueError(
                "no additive-function formulas registered for this carrier")
        return builder(chi, parity)

    D = sorted(set(range(S.n)) - chi.null_ideal)
    if not D:
        return []
    pos = {x: k for k, x in enumerate(D)}
    in_D = set(D)
    rows = []
    for x in D:
        for y in D:
            z = S.mul(x, y)
            row = np.zeros(len(D))
            row[pos[z]] += 1.0
            row[pos[x]] -= 1.0
            row[pos[y]] -= 1.0
            rows.append(row)
    sign = 1.0 if parity == "even" else -1.0
    for x in D:
        sx = S.sig(x)
        if sx not in in_D:
            raise ValueError(
                "automorphism does not preserve S \\ I; "
                "parity constraint needs an even character")
        row = np.zeros(len(D))
        row[pos[sx]] += 1.0
        row[pos[x]] -= sign
        rows.append(row)
    basis = real_kernel_basis(np.array(rows)) if rows else []
    out = []
    for vec in basis:
        full = np.zeros(S.n, dtype=np.complex128)
        for x in D:
            full[x] = vec[pos[x]]
        out.append(AdditiveFn(domain=frozenset(D), values=full, parity=parity))
    return out


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


def additive_residual(A: AdditiveFn, S, pairs: Iterable) -> float:
    """max |A(xy) - A(x) - A(y)| over the given pairs (domain-filtered);
    NaN if any term is NaN."""
    mul, in_domain = S.mul, A.in_domain
    return _worst(abs(A(mul(x, y)) - A(x) - A(y)) for x, y in pairs
                  if in_domain(x) and in_domain(y))


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
        domain = set()
        k = 0
        for orbit in self.orbits:
            base = 0j if orbit.zero_forced else complex(free[k])
            if not orbit.zero_forced:
                k += 1
            for x, mult in orbit.members.items():
                values[x] = base * mult
                domain.add(x)
        return RhoFn(domain=frozenset(domain), values=values,
                     parity=self.parity)


def rho_space(chi: MultChar, S: FiniteSemigroup,
              parity: str = "even") -> RhoSpace:
    """Orbit decomposition of P with propagated multipliers.

    Relations: rho(u p) = chi(u) rho(p), rho(p v) = chi(v) rho(p) for u, v
    outside the ideal, and rho o sigma = +/- rho.  Conflicting relations on
    an orbit force rho = 0 there instead of failing.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    P = sorted(chi.prime_part)
    non_ideal = sorted(set(range(S.n)) - chi.null_ideal)
    sign = 1.0 if parity == "even" else -1.0

    # Undirected weighted edges p --w--> q meaning rho(q) = w * rho(p).
    edges: dict[int, list[tuple[int, complex]]] = {p: [] for p in P}

    def add_edge(p: int, q: int, w: complex) -> None:
        if p in edges and q in edges:
            edges[p].append((q, w))
            edges[q].append((p, 1.0 / w))

    for p in P:
        for u in non_ideal:
            cu = chi(u)
            add_edge(p, S.mul(u, p), cu)
            add_edge(p, S.mul(p, u), cu)
        sp = S.sig(p)
        if sp in edges:
            add_edge(p, sp, sign + 0j)

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


def check_condition_I(rho, chi, S) -> bool:
    """Translation compatibility of rho over the prime part.

    For p in P and u, v outside the ideal: up, pv and upv lie in P with
    rho(up) = rho(p) chi(u), rho(pv) = rho(p) chi(v) and
    rho(upv) = rho(p) chi(uv).  Windowed carriers quantify u, v, p over the
    window only.
    """
    mul, in_P = S.mul, chi.in_prime_part
    P = [x for x in S.window if in_P(x)]
    non_ideal = [x for x in S.window if not chi.in_ideal(x)]
    for p in P:
        rp = rho(p)
        for u in non_ideal:
            x = mul(u, p)
            if not (in_P(x) and abs(rho(x) - rp * chi(u)) <= EPS):
                return False
            x = mul(p, u)
            if not (in_P(x) and abs(rho(x) - rp * chi(u)) <= EPS):
                return False
        for u in non_ideal:
            for v in non_ideal:
                x = mul(u, mul(p, v))
                if not (in_P(x) and abs(rho(x) - rp * chi(mul(u, v))) <= EPS):
                    return False
    return True


def check_condition_II(f, chi, S) -> bool:
    """Vanishing of f on mixed products: f(xy) = f(yx) = 0 whenever one
    factor is in I \\ P and the other outside I."""
    mul = S.mul
    edge = [x for x in S.window
            if chi.in_ideal(x) and not chi.in_prime_part(x)]
    non_ideal = [x for x in S.window if not chi.in_ideal(x)]
    for x in edge:
        for y in non_ideal:
            if not (abs(f(mul(x, y))) <= EPS and abs(f(mul(y, x))) <= EPS):
                return False
    return True


def parity_residual(fn, S) -> float:
    """max |f(sigma x) -/+ f(x)| over the function's domain; NaN if any term
    is NaN."""
    sign = 1.0 if fn.parity == "even" else -1.0
    return _worst(abs(fn(S.sig(x)) - sign * fn(x)) for x in S.window
                  if fn.in_domain(x))
