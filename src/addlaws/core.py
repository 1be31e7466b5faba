"""Semigroups with an involutive automorphism, and functions on them.

Elements of a finite semigroup are handled as indices into its element
list; every derived set or table is ordered by index so that output is
deterministic.  Infinite carriers are represented by a computable product
and a finite verification window.  Both kinds of carrier answer to the same
names: ``S.window`` (the elements every check quantifies over), ``S.mul(x,
y)`` and ``S.sig(x)``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from typing import Callable, Sequence

import numpy as np

#: Global tolerance for scalar equality.  Every "equals" / "is zero" test on
#: complex values in this package uses it.
EPS = 1e-9

#: Associativity triples a windowed carrier checks when its window has more
#: triples than this (fewer are all checked).
TRIPLE_SAMPLES = 10_000


def stable_json(obj) -> str:
    """Serialize deterministically (sorted keys, no whitespace jitter)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cnum(z: complex) -> list[float]:
    """Complex number as a JSON-friendly [re, im] pair."""
    z = complex(z)
    return [z.real, z.imag]


def validate_tolerance(tol: float, error: type = ValueError) -> None:
    """Raise `error` unless a tolerance is finite and at least 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise error(f"tolerance must be finite and at least 0, got {tol!r}")


def read_only(a: np.ndarray) -> np.ndarray:
    """`a` itself if it is read-only, else a read-only copy: the holder of
    a writable array can neither change a stored table through it nor find
    it frozen."""
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


class SemigroupError(ValueError):
    """Raised for malformed or invalid semigroup input."""


def _indices(entries, what: str) -> np.ndarray:
    """`entries` as a read-only index array; an entry that is not an
    integer (a float, a bool, a string) is refused, not truncated, and so
    are rows of different lengths (a ragged table)."""
    try:
        a = np.asarray(entries)
    except ValueError as exc:           # numpy's inhomogeneous-shape error
        raise SemigroupError(f"{what} is ragged: its entries do not form "
                             "a rectangular array") from exc
    if a.size and a.dtype.kind not in "iu":
        raise SemigroupError(f"{what} entries must be integers")
    a = a.astype(np.intp, copy=False)
    a.setflags(write=False)
    return a


class FiniteSemigroup:
    """A finite semigroup together with an involutive automorphism.

    ``table[i, j]`` holds the index of ``elements[i] * elements[j]`` and
    ``sigma[i]`` the index of the automorphism image of ``elements[i]``.
    Instances are validated when built and immutable after:
    associativity, involutivity and multiplicativity of sigma are all
    checked exhaustively.  ``window`` is every element index.  ``kernels``
    memoizes the equations compiled on this carrier by
    :func:`addlaws.dsl.evaluate_residual`, and
    :func:`addlaws.characters.enumerate_characters` keeps what it finds.
    """

    def __init__(self, name: str, elements: Sequence[str], table, sigma):
        self.name = name
        self.elements = tuple(str(e) for e in elements)
        self.index = {e: k for k, e in enumerate(self.elements)}
        self.window = range(len(self.elements))
        self.table = _indices(table, "table")
        self.sigma = _indices(sigma, "sigma")
        self.kernels: dict = {}
        self.validate()

    @property
    def n(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _squares(self) -> frozenset[int]:
        """The set S^2 = {x*y} as a frozenset of element indices."""
        return frozenset(int(v) for v in np.unique(self.table))

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def sig(self, i: int) -> int:
        return int(self.sigma[i])

    def __repr__(self):
        return f"FiniteSemigroup({self.name!r}, n={self.n})"

    def validate(self) -> None:
        n = self.n
        if n == 0:
            raise SemigroupError("empty element list")
        if len(self.index) != n:
            raise SemigroupError("element names are not unique")
        if self.table.shape != (n, n):
            raise SemigroupError(f"table shape {self.table.shape} != ({n}, {n})")
        if self.sigma.shape != (n,):
            raise SemigroupError(f"sigma length {self.sigma.shape} != {n}")
        if self.table.min() < 0 or self.table.max() >= n:
            raise SemigroupError("table entry out of range")
        if self.sigma.min() < 0 or self.sigma.max() >= n:
            raise SemigroupError("sigma entry out of range")

        t = self.table
        left = t[t, :]          # (x*y)*z
        right = t[:, t]         # x*(y*z)
        if not np.array_equal(left, right):
            x, y, z = np.argwhere(left != right)[0]
            e = self.elements
            raise SemigroupError(
                f"non-associative table: ({e[x]}*{e[y]})*{e[z]} = "
                f"{e[left[x, y, z]]} but {e[x]}*({e[y]}*{e[z]}) = "
                f"{e[right[x, y, z]]}")

        if sorted(self.sigma.tolist()) != list(range(n)):
            raise SemigroupError("sigma is not a bijection")
        if not np.array_equal(self.sigma[self.sigma], np.arange(n)):
            i = int(np.flatnonzero(self.sigma[self.sigma] != np.arange(n))[0])
            raise SemigroupError(
                f"sigma is not involutive at {self.elements[i]}")
        if not np.array_equal(self.sigma[t], t[np.ix_(self.sigma, self.sigma)]):
            x, y = np.argwhere(
                self.sigma[t] != t[np.ix_(self.sigma, self.sigma)])[0]
            e = self.elements
            raise SemigroupError(
                f"sigma is not multiplicative at ({e[x]}, {e[y]})")

    def to_json(self) -> str:
        e = self.elements
        return stable_json({
            "name": self.name,
            "elements": list(e),
            "table": [[e[self.table[i, j]] for j in range(self.n)]
                      for i in range(self.n)],
            "sigma": [e[self.sigma[i]] for i in range(self.n)],
        })


def load_semigroup(text: str) -> FiniteSemigroup:
    """Parse and validate a serialized finite semigroup.

    The format is UTF-8 JSON with exactly the fields ``name``, ``elements``,
    ``table`` and ``sigma``, all products and sigma images given by element
    name.  Raises :class:`SemigroupError` on malformed input or on any
    violated structural invariant.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SemigroupError(f"parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise SemigroupError("parse error: top level must be an object")
    required = {"name", "elements", "table", "sigma"}
    missing = required - data.keys()
    if missing:
        raise SemigroupError(f"missing field(s): {', '.join(sorted(missing))}")
    extra = data.keys() - required
    if extra:
        raise SemigroupError(f"unexpected field(s): {', '.join(sorted(extra))}")

    elements = data["elements"]
    if (not isinstance(elements, list) or not elements
            or not all(isinstance(e, str) for e in elements)):
        raise SemigroupError("elements must be a non-empty list of strings")
    if len(set(elements)) != len(elements):
        raise SemigroupError("element names are not unique")
    index = {e: k for k, e in enumerate(elements)}
    n = len(elements)

    def resolve(name, where):
        if name not in index:
            raise SemigroupError(f"{where}: unknown element {name!r}")
        return index[name]

    table = data["table"]
    if not isinstance(table, list) or len(table) != n or any(
            not isinstance(row, list) or len(row) != n for row in table):
        raise SemigroupError(f"table must be a {n}x{n} array of names")
    itable = [[resolve(table[i][j], f"table[{i}][{j}]") for j in range(n)]
              for i in range(n)]

    sigma = data["sigma"]
    if not isinstance(sigma, list) or len(sigma) != n:
        raise SemigroupError(f"sigma must be a list of {n} names")
    isigma = [resolve(sigma[i], f"sigma[{i}]") for i in range(n)]

    return FiniteSemigroup(str(data["name"]), elements, itable, isigma)


def square_set(S: FiniteSemigroup) -> frozenset[int]:
    """The set S^2 = {x*y} as a frozenset of element indices."""
    return S._squares


class WindowedSemigroup:
    """A possibly infinite semigroup verified over a finite window.

    ``mul`` (the product) and ``sig`` (the automorphism) must be total
    computable maps on the carrier, whose elements are hashable.
    Construction validates sig's involutivity and multiplicativity on all
    window pairs, evaluating sig once per window point and once per
    product, each product computed once per sig-orbit of window pairs (one
    product per pair on a window that sig maps onto itself), and
    associativity on every window triple when there are at most
    :data:`TRIPLE_SAMPLES` of them, else on that many triples drawn with
    seed 0 (a full check would be cubic in the window size).  The sampled
    triples are the draws of ``random.Random(0).choice`` on the window, in
    the same order, taken from ``getrandbits`` in blocks (see
    :func:`_draws`); this adds no option.  Either way the check walks
    triples of window indices, read from the window one triple at a time.
    ``kernels`` memoizes the equations compiled on this carrier by
    :func:`addlaws.dsl.evaluate_residual`, as on a finite one.
    """

    def __init__(self, name: str, mul: Callable, sig: Callable,
                 window: Sequence):
        self.name = name
        self.mul = mul
        self.sig = sig
        self.window = tuple(window)
        self.extras: dict = {}
        self.kernels: dict = {}
        self.validate()

    def __repr__(self):
        return f"WindowedSemigroup({self.name!r}, window={len(self.window)})"

    def validate(self) -> None:
        if not self.window:
            raise SemigroupError("empty window")
        sig, mul, w = self.sig, self.mul, self.window
        s = []                  # s[i] = sig(w[i]), one call per point
        for x in w:
            sx = sig(x)
            if sig(sx) != x:
                raise SemigroupError(f"sigma is not involutive at {x!r}")
            s.append(sx)
        _check_multiplicative(sig, mul, w, s)
        n = len(w)
        if n ** 3 <= TRIPLE_SAMPLES:
            triples = itertools.product(range(n), repeat=3)
        else:
            picks = itertools.islice(_draws(random.Random(0), n),
                                     3 * TRIPLE_SAMPLES)
            triples = zip(picks, picks, picks)
        for i, j, k in triples:
            x, y, z = w[i], w[j], w[k]
            if mul(mul(x, y), z) != mul(x, mul(y, z)):
                raise SemigroupError(
                    f"non-associative at ({x!r}, {y!r}, {z!r})")


def _check_multiplicative(sig: Callable, mul: Callable, w: tuple,
                          s: list) -> None:
    """Raise :class:`SemigroupError` naming the first pair (x, y) of points
    of the window ``w``, in window order, with sig(x y) != sig(x) sig(y);
    ``s[i]`` is sig(w[i]) and sig is involutive on ``w``.  sig is called
    once per pair.

    The pairs (x, y) and (sig x, sig y) share their two products: a = x y
    and b = sig(x) sig(y) give sig(a) = b for the one and sig(b) = a for
    the other.  So the pairs of x are checked with those of its partner
    sig(x), and when sig fixes x, the pair (x, y) with (x, sig y): one
    product per pair on a window that sig maps onto itself, and no row of
    products is kept.  A pair whose image lies outside the window is
    checked on its own.
    """
    n = len(w)
    at = {x: j for j, x in enumerate(w)}
    image = [at.get(sx, n) for sx in s]     # n: sig(w[j]) is not in w
    outside = [(y, sy) for y, sy, m in zip(w, s, image) if m == n]
    for i, (x, sx, k) in enumerate(zip(w, s, image)):
        if k == n:                          # sig(x) is not in w
            for y, sy in zip(w, s):
                if sig(mul(x, y)) != mul(sx, sy):
                    raise _not_multiplicative(sig, mul, w, s, x, y)
        elif k == i:                        # (x, y) with (x, sig y)
            for j, (y, sy, m) in enumerate(zip(w, s, image)):
                if m < j:
                    continue
                a = mul(x, y)
                b = a if m == j else mul(x, sy)
                if sig(a) != b or j < m < n and sig(b) != a:
                    raise _not_multiplicative(sig, mul, w, s, x, y)
        elif k > i:                         # the pairs of x and of sig(x)
            for y, sy, m in zip(w, s, image):
                a, b = mul(x, y), mul(sx, sy)
                if sig(a) != b or m < n and sig(b) != a:
                    raise _not_multiplicative(sig, mul, w, s, x, y)
            for y, sy in outside:
                if sig(mul(sx, y)) != mul(x, sy):
                    raise _not_multiplicative(sig, mul, w, s, sx, y)
        # k < i: x's pairs were checked with those of its partner w[k]


def _not_multiplicative(sig, mul, w, s, x, y) -> SemigroupError:
    """The error for a failed check of the sigma law, naming the first
    failing pair in window order by a plain scan (or (x, y), the pair at
    hand, if the scan finds none)."""
    x, y = next(((x, y) for x, sx in zip(w, s) for y, sy in zip(w, s)
                 if sig(mul(x, y)) != mul(sx, sy)), (x, y))
    return SemigroupError(f"sigma is not multiplicative at ({x!r}, {y!r})")


def _draws(rng: random.Random, n: int):
    """The values ``rng.randrange(n)`` returns, one after another, for ``n``
    below 2**32, drawn in blocks of 1,024, then 2,048, then 4,096 32-bit
    words each, so that a short draw converts few words.

    ``randrange`` (and so ``choice`` and ``randint``) keeps the top
    ``n.bit_length()`` bits of one word and draws again while they are
    ``n`` or more; ``getrandbits(32 * size)`` returns the next ``size``
    words, the first in the lowest bits, so the block sizes do not change
    the values.  Endless: take what is needed.  Each block's values are
    one list (its kept words, by ``np.compress``), and the iterator reads
    the lists one after another, so no frame runs per value.  ``rng``
    runs ahead of the values taken, so it is the iterator's alone.
    """
    shift = 32 - n.bit_length()

    def block(size: int) -> list:
        words = np.frombuffer(
            rng.getrandbits(32 * size).to_bytes(4 * size, "little"), "<u4")
        picks = words >> shift
        return picks.compress(picks < n).tolist()
    sizes = itertools.chain((1024, 2048), itertools.repeat(4096))
    return itertools.chain.from_iterable(map(block, sizes))


def _evaluator(f) -> Callable:
    """``f`` as a plain callable, bound once so that a check calls it per
    point without dispatch.  A values table (``f.values``, an array) is
    read as ``complex(values[x])``, from a list of its entries made once; a
    formula (``f.formula``) is called as ``complex(formula(x))``; any other
    callable is returned as it is.
    """
    values = getattr(f, "values", None)
    if isinstance(values, np.ndarray):
        return values.astype(np.complex128, copy=False).tolist().__getitem__
    formula = getattr(f, "formula", None)
    if formula is not None:
        return lambda x: complex(formula(x))
    return f


class FnTable:
    """A complex-valued function on a semigroup.

    On a :class:`FiniteSemigroup` the function is a dense table aligned
    with the element order; on a :class:`WindowedSemigroup` it is a formula
    (any callable on carrier elements).  Either way evaluation is by call:
    ``f(x)`` with ``x`` an element index (finite) or a carrier element
    (windowed).  A table is read-only: an array that is still writable is
    copied, so the caller can neither change the table through it nor
    find it frozen; a read-only array is kept as it is.
    """

    # Nothing reads `label`; it stays because perfbench/workloads.py passes it.
    __slots__ = ("domain", "values", "formula", "label")

    def __init__(self, domain, values=None, formula=None, label: str = ""):
        if (values is None) == (formula is None):
            raise ValueError("exactly one of values/formula is required")
        self.domain = domain
        self.label = label
        if values is not None:
            v = np.asarray(values, dtype=np.complex128)
            if isinstance(domain, FiniteSemigroup) and v.shape != (domain.n,):
                raise ValueError(
                    f"value table length {v.shape} != |S| = {domain.n}")
            self.values = read_only(v)
            self.formula = None
        else:
            self.values = None
            self.formula = formula

    def __call__(self, x) -> complex:
        if self.values is not None:
            return complex(self.values[x])
        return complex(self.formula(x))

    def star(self) -> "FnTable":
        """The composition with the automorphism (f* = f o sigma)."""
        if self.values is None:
            raise ValueError("star needs a finite value table")
        v = self.values[self.domain.sigma]
        v.setflags(write=False)
        return FnTable(self.domain, values=v)

    def is_zero(self) -> bool:
        if self.values is None:
            raise ValueError("is_zero needs a finite value table")
        return bool(np.all(np.abs(self.values) <= EPS))

    def max_abs_diff(self, other: "FnTable") -> float:
        if self.values is None or other.values is None:
            raise ValueError("max_abs_diff needs finite value tables")
        return float(np.abs(self.values - other.values).max())

    def to_json_dict(self) -> dict:
        if self.values is None:
            raise ValueError("cannot serialize a formula-backed function")
        names = self.domain.elements
        return {names[i]: cnum(self.values[i]) for i in range(len(names))}

    @classmethod
    def from_json_dict(cls, S: FiniteSemigroup, data: dict) -> "FnTable":
        values = np.zeros(S.n, dtype=np.complex128)
        seen = set()
        for name, pair in data.items():
            if name not in S.index:
                raise ValueError(f"unknown element {name!r}")
            try:
                re, im = pair
                values[S.index[name]] = complex(re, im)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"value of {name!r} is not a pair of "
                                 f"numbers [re, im]: {pair!r}") from exc
            seen.add(name)
        missing = set(S.elements) - seen
        if missing:
            raise ValueError(
                f"missing value(s) for: {', '.join(sorted(missing))}")
        return cls(S, values=values)


def fn(S, values_or_formula) -> FnTable:
    """Wrap raw values (finite) or a callable (windowed) as an FnTable."""
    if callable(values_or_formula):
        return FnTable(S, formula=values_or_formula)
    return FnTable(S, values=values_or_formula)


def even_odd_parts(f: FnTable) -> tuple[FnTable, FnTable]:
    """Split f into its even and odd parts relative to the automorphism.

    Returns (fe, fo) with fe + fo = f, fe o sigma = fe and fo o sigma = -fo.
    """
    if f.values is None:
        raise ValueError("even_odd_parts needs a finite value table")
    S = f.domain
    starred = f.values[S.sigma]
    return (FnTable(S, values=(f.values + starred) / 2),
            FnTable(S, values=(f.values - starred) / 2))
